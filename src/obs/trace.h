/**
 * @file
 * Miss-attribution tracer.
 *
 * Every L1i and BTB miss the simulator observes can be tagged with the
 * paper's taxonomy class (sequential / discontinuity / BTB) and its
 * prefetch outcome (covered / late / uncovered / wasted) and streamed to
 * a bounded JSONL file.
 *
 * The tracer is process-global and off by default.  Instrumentation
 * sites guard with the inline Tracing::enabled() check -- a pointer
 * compare that short-circuits before the thread-local run flag -- so
 * the disabled cost is effectively zero; all buffering lives out of
 * line and only runs when a sink is open AND a run is active on the
 * calling thread (Tracing::beginRun), which keeps warmup windows out
 * of the stream.
 *
 * Threading model: each simulated run buffers its events in a
 * thread-local run buffer (a run executes entirely on one worker, so
 * recording takes no lock), endRun() hands the finished buffer to the
 * sink under a mutex, and close() writes every run in a deterministic
 * order -- runs sorted by (workload, design), then by run ordinal, with
 * events within a run in cycle order.  A grid runner reserves one
 * ordinal per cell on its calling thread, in cell order, and tags each
 * cell's run with it, so runs that share a label keep cell order under
 * any worker interleaving; an untagged run draws the next ordinal when
 * it begins.  The stream is therefore identical for every `--jobs`
 * value.
 *
 * The file holds one JSON object per line, whatever its extension: a
 * `run` record heading each run, its `miss` records, and a closing
 * `summary` record.  Each run's stream is bounded (default 1 M events
 * per run); overflow increments a dropped-event count reported in the
 * summary.
 */

#ifndef DCFB_OBS_TRACE_H
#define DCFB_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>

#include "common/types.h"

namespace dcfb::obs {

/** Paper taxonomy of frontend misses (Section II). */
enum class MissClass : std::uint8_t {
    Sequential,    //!< spatially next to the previous demanded block
    Discontinuity, //!< control transfer into a non-resident block
    Btb,           //!< the frontend did not know the branch
    None,          //!< not a miss (e.g. a wasted-prefetch event)
};

/** Prefetch outcome attributed to the event. */
enum class MissOutcome : std::uint8_t {
    Covered,   //!< prefetch fully hid the fill (or avoided the BTB miss)
    Late,      //!< prefetch in flight: latency partially hidden
    Uncovered, //!< no prefetch; full penalty paid
    Wasted,    //!< prefetched block evicted without any demand use
};

const char *missClassName(MissClass cls);
const char *missOutcomeName(MissOutcome outcome);

/**
 * Process-global trace sink.
 */
class Tracing
{
  public:
    struct Config
    {
        std::string path;
        std::uint64_t maxEvents = 1u << 20; //!< bound per run
    };

    /** Open a JSONL sink at @p path.  Returns false (and stays
     *  disabled) when the file cannot be created. */
    static bool open(const std::string &path);
    static bool open(const Config &config);

    /** Merge every finished run buffer, write the stream plus the
     *  closing summary record, and disable tracing. */
    static void close();

    /** True while a sink is open and a run is active on this thread.
     *  Inline so instrumentation sites pay one pointer compare when
     *  disabled (the thread-local read only happens sink-open). */
    static bool
    enabled()
    {
        return state != nullptr && tlRunActive;
    }

    /** True while a sink is open (independent of run state). */
    static bool
    sinkOpen()
    {
        return state != nullptr;
    }

    /** Mark the start of a measured run on the calling thread: opens a
     *  thread-local run buffer and enables event recording.  Runs on
     *  different workers record concurrently without synchronizing. */
    static void beginRun(const std::string &workload,
                         const std::string &design);

    /** Reserve @p n consecutive run ordinals and return the first.
     *  Call on the thread that enumerates the runs, in their order. */
    static std::uint64_t reserveRuns(std::uint64_t n);

    /** While in scope, runs begun on this thread take @p ordinal (from
     *  reserveRuns()) instead of drawing their own. */
    class RunTag
    {
      public:
        explicit RunTag(std::uint64_t ordinal);
        ~RunTag();
        RunTag(const RunTag &) = delete;
        RunTag &operator=(const RunTag &) = delete;
    };

    /** Mark the end of this thread's run: hands the finished buffer to
     *  the sink and disables event recording on the thread. */
    static void endRun();

    /**
     * Record one attribution event.
     * @param unit  emitting component ("l1i" or "btb")
     * @param cycle simulation cycle of the event
     * @param addr  block or branch address
     */
    static void record(const char *unit, Cycle cycle, Addr addr,
                       MissClass cls, MissOutcome outcome);

    /** Events buffered so far across all runs (excludes dropped). */
    static std::uint64_t emitted();

    /** Events dropped after a run hit the per-run bound. */
    static std::uint64_t dropped();

  private:
    struct State;
    static State *state;
    static thread_local bool tlRunActive;
};

} // namespace dcfb::obs

#endif // DCFB_OBS_TRACE_H
