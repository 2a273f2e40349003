/**
 * @file
 * Simplified out-of-order backend (Table III): 3-wide dispatch and
 * retirement, 128-entry ROB, 12 backend pipeline stages.
 *
 * The backend exists to convert instruction-supply gaps into cycles, so
 * the model is deliberately latency-oriented: dispatched instructions
 * enter the ROB with a completion cycle (ALU ops after a fixed latency,
 * loads when the L1d/LLC round trip finishes) and retire in order.  It
 * applies backpressure (ROB full) and exposes the dispatch-starvation
 * signal the frontend-stall accounting needs.
 */

#ifndef DCFB_CORE_BACKEND_H
#define DCFB_CORE_BACKEND_H

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "isa/encoding.h"
#include "obs/registry.h"

namespace dcfb::core {

/** Backend configuration. */
struct BackendConfig
{
    unsigned dispatchWidth = 3;
    unsigned retireWidth = 3;
    unsigned robEntries = 128;
    unsigned pipelineDepth = 12; //!< dispatch-to-writeback depth
    Cycle aluLatency = 1;
};

/**
 * ROB-based retirement model.
 */
class Backend
{
  public:
    explicit Backend(const BackendConfig &config = BackendConfig{})
        : cfg(config),
          rob(std::bit_ceil(std::size_t{config.robEntries ? config.robEntries
                                                          : 1})),
          robMask(rob.size() - 1),
          cDispatched(statReg.lazyCounter("dispatched")),
          cRobFullCycles(statReg.lazyCounter("rob_full_cycles")),
          cSquashes(statReg.lazyCounter("squashes"))
    {}

    /** Can another instruction be dispatched this cycle? */
    bool
    canDispatch() const
    {
        return robCount < cfg.robEntries &&
            dispatchedThisCycle < cfg.dispatchWidth;
    }

    /**
     * Dispatch one instruction at cycle @p now.  @p data_ready is the
     * completion cycle of its memory access (loads/stores), or 0 for
     * non-memory instructions.
     */
    void
    dispatch(isa::InstrKind kind, Cycle now, Cycle data_ready)
    {
        Cycle complete = now + cfg.pipelineDepth + cfg.aluLatency;
        if (kind == isa::InstrKind::Load && data_ready > 0)
            complete = std::max(complete, data_ready);
        // Stores complete at writeback; the store buffer hides the miss.
        rob[(robHead + robCount) & robMask] = complete;
        ++robCount;
        ++dispatchedThisCycle;
        cDispatched.add();
    }

    /**
     * Advance one cycle: retire completed instructions in order.  Call
     * once per cycle *before* dispatching into the new cycle.
     */
    void
    beginCycle(Cycle now)
    {
        dispatchedThisCycle = 0;
        unsigned retired_now = 0;
        while (robCount > 0 && retired_now < cfg.retireWidth &&
               rob[robHead] <= now) {
            robHead = (robHead + 1) & robMask;
            --robCount;
            ++retired_now;
            ++retiredTotal;
        }
        if (robCount >= cfg.robEntries)
            cRobFullCycles.add();
    }

    bool robFull() const { return robCount >= cfg.robEntries; }
    bool robEmpty() const { return robCount == 0; }
    std::size_t robOccupancy() const { return robCount; }
    std::uint64_t retired() const { return retiredTotal; }

    /** Squash everything younger than retirement (pipeline flush). */
    void
    squash()
    {
        cSquashes.add();
    }

    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }
    const BackendConfig &config() const { return cfg; }

  private:
    BackendConfig cfg;
    /** In-order completion cycles as a fixed pow2 ring: the ROB is
     *  bounded by robEntries, so the previous std::deque's node churn
     *  bought nothing. */
    std::vector<Cycle> rob;
    std::size_t robMask;
    std::size_t robHead = 0;
    std::size_t robCount = 0;
    unsigned dispatchedThisCycle = 0;
    std::uint64_t retiredTotal = 0;
    obs::StatRegistry statReg;
    // Lazily bound: a key is reported only once it fires (see
    // obs::LazyCounter).
    obs::LazyCounter cDispatched;
    obs::LazyCounter cRobFullCycles;
    obs::LazyCounter cSquashes;
};

} // namespace dcfb::core

#endif // DCFB_CORE_BACKEND_H
