/**
 * @file
 * Forward-progress watchdog for the simulation loop.
 *
 * The cycle loop runs open-loop: a wedged FTQ or a leaked MSHR would
 * spin silently to the cycle limit.  The watchdog is fed the machine's
 * retire and fetch counters at every integrity sweep; when either shows
 * no progress for longer than the configured window, it trips with a
 * typed ErrorKind::Watchdog error.  The simulation driver attaches a
 * structured machine-state snapshot (queues, MSHRs, in-flight
 * prefetches) before failing the run -- see sim::simulate().
 *
 * Concurrency: a Watchdog belongs to exactly one run.  Under a parallel
 * experiment grid every worker arms its own instance for the cell it is
 * executing (one watchdog per in-flight simulation, never shared), and
 * the cell label identifies which (workload, design) cell tripped when
 * completion order is nondeterministic.
 */

#ifndef DCFB_RT_WATCHDOG_H
#define DCFB_RT_WATCHDOG_H

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.h"
#include "rt/error.h"

namespace dcfb::rt {

/**
 * Tracks no-retire / no-fetch windows between observations.
 */
class Watchdog
{
  public:
    /** @param window_ cycles of zero progress that trip the watchdog */
    explicit Watchdog(Cycle window_) : window(window_) {}

    /**
     * Feed the current progress counters.  Returns a Watchdog error when
     * retire or fetch has made no progress for more than the window;
     * std::nullopt while the machine is healthy.
     */
    std::optional<Error>
    observe(Cycle now, std::uint64_t retired, std::uint64_t fetched);

    /** Reset the baseline (warmup/measure boundary, after a recovery). */
    void rearm(Cycle now, std::uint64_t retired, std::uint64_t fetched);

    /** Label the run this watchdog guards ("workload/design"); attached
     *  to trip errors so parallel sweeps can attribute the failure. */
    void setCell(std::string label) { cell = std::move(label); }

  private:
    Cycle window;
    std::string cell;
    bool armed = false;
    std::uint64_t lastRetired = 0;
    std::uint64_t lastFetched = 0;
    Cycle retireProgressCycle = 0;
    Cycle fetchProgressCycle = 0;
};

} // namespace dcfb::rt

#endif // DCFB_RT_WATCHDOG_H
