/**
 * @file
 * Typed, hierarchical statistics registry.
 *
 * Counters and histograms are registered once, by name, against a
 * StatRegistry; registration interns the name to a stable slot and hands
 * back a trivially-copyable handle.  Hot paths bump the handle -- a
 * single pointer-indirect add, no per-event string hashing -- while the
 * registry keeps the name -> slot mapping for reporting.
 *
 * Histograms are log2-bucketed: bucket 0 holds exactly the value 0 and
 * bucket i (i >= 1) holds [2^(i-1), 2^i - 1].  That gives cheap constant
 * cost per sample (std::bit_width) and bounded storage for unbounded
 * quantities such as miss latencies, prefetch-to-use distances, proactive
 * chain depths and queue occupancies.
 *
 * A component that counts owns one registry and exposes it as
 * stats(); sim::System lists every reported registry in its stat table,
 * which drives both RunResult collection and the warm/measure reset and
 * reports each name under a dotted component prefix ("l1i.pf_useful").
 * Handles keep raw pointers into their registry, so a registry is
 * neither copyable nor movable.
 *
 * Threading model: a StatRegistry and its handles are single-threaded
 * by design -- hot-path bumps must never pay for synchronization.  The
 * parallel experiment runner therefore gives every (workload x design)
 * cell its own registries (inside that cell's System) and merges the
 * per-cell snapshots into the grid only after its workers join; no
 * registry is ever touched by two threads.  The shared discard slots
 * that back *default-constructed* handles are thread_local so a
 * not-yet-registered handle bumped on a worker cannot race another
 * worker's.
 */

#ifndef DCFB_OBS_REGISTRY_H
#define DCFB_OBS_REGISTRY_H

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dcfb::obs {

/** Number of log2 buckets: one for zero plus one per uint64 bit width. */
inline constexpr unsigned kHistBuckets = 65;

/** Bucket index of @p value: 0 for 0, otherwise bit_width(value). */
constexpr unsigned
histBucket(std::uint64_t value)
{
    return value == 0 ? 0u : static_cast<unsigned>(std::bit_width(value));
}

/** Smallest value in bucket @p i. */
constexpr std::uint64_t
histBucketLow(unsigned i)
{
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

/** Largest value in bucket @p i. */
constexpr std::uint64_t
histBucketHigh(unsigned i)
{
    if (i == 0)
        return 0;
    if (i >= 64)
        return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
}

/**
 * Typed counter handle.  Trivially copyable; a default-constructed
 * handle accumulates into a shared discard slot so components can hold
 * handles as members before registration.
 */
class Counter
{
  public:
    Counter() : slot(&discard) {}

    void add(std::uint64_t delta = 1) { *slot += delta; }
    std::uint64_t value() const { return *slot; }

  private:
    friend class StatRegistry;
    explicit Counter(std::uint64_t *s) : slot(s) {}

    // thread_local: unregistered handles on different workers must not
    // share (and race on) one sink slot.
    static inline thread_local std::uint64_t discard = 0;
    std::uint64_t *slot;
};

class StatRegistry;

/**
 * Lazily-binding counter handle: the name is interned on the first
 * add() (even add(0)), and every later add() is the same single
 * pointer-indirect bump a Counter does.
 *
 * A lazy counter that never fires never appears in the registry -- and
 * therefore never appears in a RunResult's stats map.  The golden
 * corpus and the perfbench digests pin which keys a run reports, so a
 * counter whose key appears only once it fires must stay lazy; an
 * eagerly registered Counter would create its key at zero.  Once
 * RunResults carry a dense, up-front key set, Counter alone suffices.
 *
 * The name must outlive the handle (use string literals).  A
 * default-constructed handle discards, like Counter.
 */
class LazyCounter
{
  public:
    LazyCounter() = default;
    LazyCounter(StatRegistry &registry, const char *name_)
        : reg(&registry), name(name_)
    {
    }

    inline void add(std::uint64_t delta = 1);
    std::uint64_t value() const { return handle.value(); }

  private:
    StatRegistry *reg = nullptr;
    const char *name = "";
    Counter handle; //!< discards until bound
    bool bound = false;
};

/** Raw accumulation state of one histogram. */
struct HistData
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, kHistBuckets> buckets{};

    void
    reset()
    {
        count = sum = max = 0;
        buckets.fill(0);
    }
};

/** Typed histogram handle (same conventions as Counter). */
class Histogram
{
  public:
    Histogram() : data(&discard) {}

    void
    sample(std::uint64_t value)
    {
        HistData &d = *data;
        ++d.count;
        d.sum += value;
        if (value > d.max)
            d.max = value;
        ++d.buckets[histBucket(value)];
    }

    const HistData &raw() const { return *data; }

  private:
    friend class StatRegistry;
    explicit Histogram(HistData *d) : data(d) {}

    static inline thread_local HistData discard{};
    HistData *data;
};

/**
 * Value-type histogram snapshot used by RunResult and the JSON report
 * writer.  Only non-empty buckets are kept, as (bucket index, count)
 * pairs in ascending index order.
 */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::vector<std::pair<unsigned, std::uint64_t>> buckets;

    double
    mean() const
    {
        return count ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
    }

    static HistogramSnapshot from(const HistData &d);

    /** Accumulate another snapshot (per-component merge). */
    void merge(const HistogramSnapshot &other);

    bool operator==(const HistogramSnapshot &) const = default;
};

/**
 * The registry: interns names to stable slots and hands out handles.
 * Re-registering a name returns a handle to the same slot, so IDs are
 * stable across components and across calls.
 */
class StatRegistry
{
  public:
    StatRegistry() = default;
    // Handles point into the registry's slots; a copy or a move would
    // leave them counting into the wrong place.
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** Register (or re-find) counter @p name. */
    Counter counter(std::string_view name);

    /** Register (or re-find) histogram @p name. */
    Histogram histogram(std::string_view name);

    /** A counter handle that interns @p name on its first add (see
     *  LazyCounter). */
    LazyCounter
    lazyCounter(const char *name)
    {
        return LazyCounter(*this, name);
    }

    /** Slot index of counter @p name (registering it if new).  Exposed
     *  so tests can assert interning stability. */
    std::size_t counterIndex(std::string_view name);

    /** Read counter @p name; absent counters read as zero. */
    std::uint64_t get(std::string_view name) const;

    /** Zero every counter and histogram; names and slots survive. */
    void reset();

    std::size_t counterCount() const { return counterSlots.size(); }
    std::size_t histogramCount() const { return histSlots.size(); }

    /** All counters, sorted by name. */
    std::map<std::string, std::uint64_t> counters() const;

    /** All histograms, sorted by name, as snapshots. */
    std::map<std::string, HistogramSnapshot> histograms() const;

  private:
    // Deques give stable element addresses across growth.
    std::deque<std::uint64_t> counterSlots;
    std::deque<HistData> histSlots;
    std::map<std::string, std::size_t, std::less<>> counterIds;
    std::map<std::string, std::size_t, std::less<>> histIds;
};

inline void
LazyCounter::add(std::uint64_t delta)
{
    if (!bound) [[unlikely]] {
        if (!reg) {
            handle.add(delta); // unbound handle: discard, like Counter
            return;
        }
        handle = reg->counter(name);
        bound = true;
    }
    handle.add(delta);
}

} // namespace dcfb::obs

#endif // DCFB_OBS_REGISTRY_H
