#include "obs/registry.h"

namespace dcfb::obs {

HistogramSnapshot
HistogramSnapshot::from(const HistData &d)
{
    HistogramSnapshot s;
    s.count = d.count;
    s.sum = d.sum;
    s.max = d.max;
    for (unsigned i = 0; i < kHistBuckets; ++i) {
        if (d.buckets[i])
            s.buckets.emplace_back(i, d.buckets[i]);
    }
    return s;
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    count += other.count;
    sum += other.sum;
    max = std::max(max, other.max);
    // Merge the sparse bucket lists, keeping ascending index order.
    std::vector<std::pair<unsigned, std::uint64_t>> merged;
    merged.reserve(buckets.size() + other.buckets.size());
    std::size_t a = 0, b = 0;
    while (a < buckets.size() || b < other.buckets.size()) {
        if (b >= other.buckets.size() ||
            (a < buckets.size() && buckets[a].first < other.buckets[b].first)) {
            merged.push_back(buckets[a++]);
        } else if (a >= buckets.size() ||
                   other.buckets[b].first < buckets[a].first) {
            merged.push_back(other.buckets[b++]);
        } else {
            merged.emplace_back(buckets[a].first,
                                buckets[a].second + other.buckets[b].second);
            ++a;
            ++b;
        }
    }
    buckets = std::move(merged);
}

Counter
StatRegistry::counter(std::string_view name)
{
    return Counter(&counterSlots[counterIndex(name)]);
}

std::size_t
StatRegistry::counterIndex(std::string_view name)
{
    auto it = counterIds.find(name);
    if (it != counterIds.end())
        return it->second;
    std::size_t id = counterSlots.size();
    counterSlots.push_back(0);
    counterIds.emplace(std::string(name), id);
    return id;
}

Histogram
StatRegistry::histogram(std::string_view name)
{
    auto it = histIds.find(name);
    if (it == histIds.end()) {
        std::size_t id = histSlots.size();
        histSlots.emplace_back();
        it = histIds.emplace(std::string(name), id).first;
    }
    return Histogram(&histSlots[it->second]);
}

std::uint64_t
StatRegistry::get(std::string_view name) const
{
    auto it = counterIds.find(name);
    return it == counterIds.end() ? 0 : counterSlots[it->second];
}

void
StatRegistry::reset()
{
    for (auto &slot : counterSlots)
        slot = 0;
    for (auto &h : histSlots)
        h.reset();
}

std::map<std::string, std::uint64_t>
StatRegistry::counters() const
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &kv : counterIds)
        out.emplace(kv.first, counterSlots[kv.second]);
    return out;
}

std::map<std::string, HistogramSnapshot>
StatRegistry::histograms() const
{
    std::map<std::string, HistogramSnapshot> out;
    for (const auto &kv : histIds)
        out.emplace(kv.first, HistogramSnapshot::from(histSlots[kv.second]));
    return out;
}

} // namespace dcfb::obs
