/**
 * @file
 * Seeded fault injector (--inject).
 *
 * Deterministically perturbs the simulated machine so robustness tests
 * can assert *graceful degradation*: the run completes, IPC drops,
 * counters stay conserved, and nothing crashes or hangs.  Four fault
 * kinds, all driven by one explicitly seeded Rng so a given
 * (plan, runSeed) pair replays bit-for-bit:
 *
 *  - **drop**: prefetch responses vanish at fill time (the MSHR is
 *    freed, the block never arrives).  Demand responses are never
 *    dropped -- a real memory system retries demands, and dropping them
 *    would convert the fault into a guaranteed hang;
 *  - **delay**: memory responses (demand and prefetch fills) arrive
 *    late by a configured number of cycles;
 *  - **corrupt**: pre-decode output lies -- discovered branch targets
 *    are redirected to a wrong nearby block, poisoning Dis replay, BTB
 *    prefill and proactive chains;
 *  - **backpressure**: the prefetch engine's internal queues
 *    (SeqQueue/DisQueue/RLUQueue) reject pushes, starving the proactive
 *    chains.
 *
 * Spec syntax (CLI `--inject <spec>`, parsed by parseFaultPlan):
 *
 *     <kind>[:key=value[,key=value]...]
 *     kinds: drop | delay | corrupt | backpressure | none
 *     keys:  rate=<0..1>  cycles=<delay cycles>  seed=<uint>
 *
 * e.g. `--inject drop:rate=0.5,seed=3` or `--inject delay:cycles=300`.
 */

#ifndef DCFB_RT_FAULTS_H
#define DCFB_RT_FAULTS_H

#include <cstdint>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "rt/error.h"

namespace dcfb::rt {

/** What to break. */
enum class FaultKind : std::uint8_t {
    None,
    Drop,         //!< drop prefetch responses at fill time
    Delay,        //!< delay memory responses
    Corrupt,      //!< corrupt pre-decoded branch targets
    Backpressure, //!< force prefetch-queue back-pressure
};

const char *faultKindName(FaultKind kind);

/** A parsed, config-driven injection plan. */
struct FaultPlan
{
    FaultKind kind = FaultKind::None;
    double rate = 0.25;        //!< per-event injection probability
    Cycle delayCycles = 256;   //!< extra latency for Delay faults
    std::uint64_t seed = 1;    //!< injector RNG seed (mixed with runSeed)

    bool active() const { return kind != FaultKind::None && rate > 0.0; }
};

/** Parse an `--inject` spec; error lists the accepted syntax. */
Expected<FaultPlan> parseFaultPlan(std::string_view spec);

/** Render a plan back to its canonical spec string (reports/tests). */
std::string faultPlanSpec(const FaultPlan &plan);

/**
 * The injector: one per System, seeded from (plan.seed, runSeed).
 *
 * Every hook draws from the RNG only when its fault kind is configured,
 * so enabling one kind never shifts the draw sequence of another and an
 * inactive injector costs a single predictable branch per hook.
 */
class FaultInjector
{
  public:
    FaultInjector() = default;

    FaultInjector(const FaultPlan &plan_, std::uint64_t run_seed)
        : plan(plan_), rng(plan_.seed * 0x9e3779b97f4a7c15ull ^ run_seed)
    {
        if (plan.active()) {
            cDropped = statSet.counter("faults_dropped");
            cDelayed = statSet.counter("faults_delayed");
            cDelayCycles = statSet.counter("faults_delay_cycles");
            cCorrupted = statSet.counter("faults_corrupted");
            cBackpressure = statSet.counter("faults_backpressure");
        }
    }

    bool active() const { return plan.active(); }
    const FaultPlan &planRef() const { return plan; }

    /** Drop fault: should this completed prefetch fill be discarded? */
    bool
    dropPrefetchResponse()
    {
        if (plan.kind != FaultKind::Drop || !rng.chance(plan.rate))
            return false;
        cDropped.add();
        return true;
    }

    /** Delay fault: extra cycles to add to a memory response (0 = none). */
    Cycle
    responseDelay()
    {
        if (plan.kind != FaultKind::Delay || !rng.chance(plan.rate))
            return 0;
        cDelayed.add();
        cDelayCycles.add(plan.delayCycles);
        return plan.delayCycles;
    }

    /** Corrupt fault: possibly redirect a pre-decoded branch target to a
     *  wrong nearby block (1..7 blocks away, deterministic). */
    Addr
    corruptTarget(Addr target)
    {
        if (plan.kind != FaultKind::Corrupt || !rng.chance(plan.rate))
            return target;
        cCorrupted.add();
        Addr skew = (1 + rng.below(7)) * kBlockBytes;
        return blockAlign(target) ^ skew;
    }

    /** Backpressure fault: should this queue push be rejected? */
    bool
    forceBackpressure()
    {
        if (plan.kind != FaultKind::Backpressure || !rng.chance(plan.rate))
            return false;
        cBackpressure.add();
        return true;
    }

    const StatSet &stats() const { return statSet; }
    StatSet &stats() { return statSet; }

  private:
    FaultPlan plan;
    Rng rng;
    StatSet statSet;
    obs::Counter cDropped, cDelayed, cDelayCycles, cCorrupted,
        cBackpressure;
};

} // namespace dcfb::rt

#endif // DCFB_RT_FAULTS_H
