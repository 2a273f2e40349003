/**
 * @file
 * Report rendering for the bench harnesses: plain-text tables plus the
 * shared JSON forms (tables and RunResults) behind every bench's
 * `--json` mode and the BENCH_*.json regression tracking.
 *
 * Every bench prints the same rows/series the paper's figures report;
 * these helpers keep the formatting consistent and aligned, and the JSON
 * form carries exactly the same cells so text and JSON never diverge.
 */

#ifndef DCFB_SIM_REPORT_H
#define DCFB_SIM_REPORT_H

#include <string>
#include <vector>

#include "obs/json.h"
#include "sim/simulator.h"

namespace dcfb::sim {

/**
 * Column-aligned text table.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    /** Append a row (must match the header's column count). */
    void addRow(std::vector<std::string> row);

    /** Convenience: formatted numeric cells. */
    static std::string pct(double fraction, int decimals = 1);
    static std::string num(double value, int decimals = 2);

    /** Render with padded columns. */
    std::string render() const;

    /** Render and print to stdout with a title line. */
    void print(const std::string &title) const;

    /**
     * JSON form: {"title": ..., "columns": [...], "rows": [{col: cell}]}.
     * Cells stay the formatted strings the text table prints, so the
     * JSON report always matches the table byte for byte.
     */
    obs::JsonValue toJson(const std::string &title) const;

  private:
    std::vector<std::vector<std::string>> rows;
};

/** Full JSON form of a RunResult (counters + histograms). */
obs::JsonValue toJson(const RunResult &result);

} // namespace dcfb::sim

#endif // DCFB_SIM_REPORT_H
