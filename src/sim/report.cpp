#include "sim/report.h"

#include <cstdio>
#include <iomanip>
#include <iostream>
#include <sstream>

namespace dcfb::sim {

Table::Table(std::vector<std::string> header)
{
    rows.push_back(std::move(header));
}

void
Table::addRow(std::vector<std::string> row)
{
    rows.push_back(std::move(row));
}

std::string
Table::pct(double fraction, int decimals)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(decimals) << fraction * 100.0
       << "%";
    return os.str();
}

std::string
Table::num(double value, int decimals)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(decimals) << value;
    return os.str();
}

std::string
Table::render() const
{
    std::vector<std::size_t> widths;
    for (const auto &row : rows) {
        if (widths.size() < row.size())
            widths.resize(row.size(), 0);
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }
    std::ostringstream os;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        for (std::size_t c = 0; c < rows[r].size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
               << rows[r][c];
        }
        os << '\n';
        if (r == 0) {
            for (std::size_t c = 0; c < widths.size(); ++c)
                os << std::string(widths[c], '-') << "  ";
            os << '\n';
        }
    }
    return os.str();
}

void
Table::print(const std::string &title) const
{
    std::cout << "\n== " << title << " ==\n" << render() << std::flush;
}

obs::JsonValue
Table::toJson(const std::string &title) const
{
    obs::JsonValue out = obs::JsonValue::object();
    out["title"] = title;
    obs::JsonValue columns = obs::JsonValue::array();
    const auto &header = rows.front();
    for (const auto &col : header)
        columns.push(col);
    out["columns"] = std::move(columns);
    obs::JsonValue body = obs::JsonValue::array();
    for (std::size_t r = 1; r < rows.size(); ++r) {
        obs::JsonValue row = obs::JsonValue::object();
        for (std::size_t c = 0; c < rows[r].size(); ++c)
            row[header[c]] = rows[r][c];
        body.push(std::move(row));
    }
    out["rows"] = std::move(body);
    return out;
}

obs::JsonValue
toJson(const RunResult &result)
{
    obs::JsonValue out = obs::JsonValue::object();
    out["workload"] = result.workload;
    out["design"] = result.design;
    out["cycles"] = result.cycles;
    out["instructions"] = result.instructions;
    obs::JsonValue stats = obs::JsonValue::object();
    for (const auto &kv : result.stats)
        stats[kv.first] = kv.second;
    out["stats"] = std::move(stats);
    obs::JsonValue hists = obs::JsonValue::object();
    for (const auto &kv : result.hists) {
        obs::JsonValue h = obs::JsonValue::object();
        h["count"] = kv.second.count;
        h["sum"] = kv.second.sum;
        h["max"] = kv.second.max;
        obs::JsonValue buckets = obs::JsonValue::array();
        for (const auto &b : kv.second.buckets) {
            obs::JsonValue pair = obs::JsonValue::array();
            pair.push(std::uint64_t{b.first});
            pair.push(b.second);
            buckets.push(std::move(pair));
        }
        h["buckets"] = std::move(buckets);
        hists[kv.first] = std::move(h);
    }
    out["hists"] = std::move(hists);
    return out;
}

} // namespace dcfb::sim
