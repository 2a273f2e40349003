/**
 * @file
 * Span tracer: RAII scopes with trace / span / parent IDs, exported as
 * one Chrome trace-event (Perfetto-loadable) timeline.
 *
 * This is the wall-clock complement to the miss-attribution tracer
 * (obs/trace.h, cycle domain) and the cell profiler (obs/profiler.h,
 * aggregate walls): a span is one *timed region of real execution* --
 * a pool worker running one grid cell, `sim::simulate`, one simulated
 * window -- and the IDs stitch those regions into per-cell trees.
 *
 * Recording model (DESIGN.md "Telemetry plane"):
 *
 *  - process-global sink, off by default; every instrumentation site
 *    guards on the inline enabled() check (one relaxed atomic load);
 *  - each thread appends completed spans to its own bounded buffer --
 *    a fixed-capacity array published with a single release store per
 *    span, so recording takes no lock and never blocks another thread;
 *  - buffers are owned by the sink (shared_ptr), so threads may exit
 *    before close(); overflow is counted, never reallocated;
 *  - close() merges every buffer, orders spans deterministically by
 *    (start, span id) and writes a Chrome trace-event array: one
 *    "thread" track per recording thread (pool workers name theirs),
 *    every span an "X" complete event whose args carry the trace /
 *    span / parent IDs as hex strings.
 *
 * Ambient context: SpanScope maintains a thread-local {trace, span}
 * pair, so nested scopes parent automatically.
 *
 * open()/close() must be called while no spans are being recorded
 * (benches open the sink before simulating starts and close it after
 * the grid finishes) -- the same single-writer phase contract as
 * obs::Tracing.
 */

#ifndef DCFB_OBS_SPAN_H
#define DCFB_OBS_SPAN_H

#include <atomic>
#include <cstdint>
#include <string>

namespace dcfb::obs {

/** The thread's current ambient (trace, span) pair; 0 = none. */
struct SpanIds
{
    std::uint64_t trace = 0;
    std::uint64_t span = 0;
};

/** One completed span. */
struct SpanRecord
{
    std::uint64_t traceId = 0;
    std::uint64_t spanId = 0;
    std::uint64_t parentId = 0; //!< 0 = root of its tree
    std::uint64_t startUs = 0;  //!< monotonic, process-relative
    std::uint64_t endUs = 0;
    const char *name = "";      //!< static-storage span name
    std::string label;          //!< optional dynamic annotation
};

/**
 * The process-global span sink.
 */
class Spans
{
  public:
    struct Config
    {
        std::string path;
        std::size_t maxPerThread = 1u << 15; //!< spans per thread buffer
    };

    /** Open the sink (Chrome trace-event output at @p path).  Returns
     *  false and stays disabled when the file cannot be created. */
    static bool open(const std::string &path);
    static bool open(const Config &config);

    /** Merge every thread buffer and write the timeline.  No-op when
     *  the sink is closed. */
    static void close();

    /** One relaxed atomic load; every instrumentation site guards on
     *  this so the disabled cost is a single predicted branch. */
    static bool
    enabled()
    {
        return enabledFlag.load(std::memory_order_relaxed);
    }

    /** Fresh process-unique IDs. */
    static std::uint64_t newTraceId();
    static std::uint64_t newSpanId();

    /** Monotonic microseconds since process start. */
    static std::uint64_t nowUs();

    /** The calling thread's ambient context (what a new SpanScope
     *  would parent under).  {0, 0} when none is active. */
    static SpanIds current();

    /** Name this thread's timeline track ("worker-3", "conn", ...).
     *  Cheap; callable before the sink opens. */
    static void setThreadName(std::string name);

    /**
     * Record one completed span with explicit IDs and timestamps.
     * Used for spans recorded retroactively (the simulator's phase
     * spans); RAII call sites use SpanScope instead.
     */
    static void record(const char *name, std::uint64_t traceId,
                       std::uint64_t spanId, std::uint64_t parentId,
                       std::uint64_t startUs, std::uint64_t endUs,
                       std::string label = {});

    /** Spans buffered so far / dropped on a full thread buffer. */
    static std::uint64_t recorded();
    static std::uint64_t dropped();

  private:
    friend class SpanScope;
    struct State;
    static State *state;
    static std::atomic<bool> enabledFlag;
    static SpanIds &threadCurrent();
};

/**
 * RAII span: records [construction, destruction) and maintains the
 * thread's ambient context so nested scopes parent automatically.
 * Constructed-disabled when the sink is off (no clock read, no IDs).
 */
class SpanScope
{
  public:
    /** Child of the thread's ambient span (a new root trace when the
     *  thread has none). */
    explicit SpanScope(const char *name_, std::string label_ = {});

    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint64_t traceId() const { return trace; }
    std::uint64_t spanId() const { return span; }

  private:
    bool active = false;
    const char *name = "";
    std::string label;
    std::uint64_t trace = 0;
    std::uint64_t span = 0;
    std::uint64_t parent = 0;
    std::uint64_t startUs = 0;
    SpanIds saved; //!< ambient context restored on destruction
};

} // namespace dcfb::obs

#endif // DCFB_OBS_SPAN_H
