/**
 * @file
 * Invariant checker: a registration API for structural conservation
 * checks swept periodically by the simulation loop.
 *
 * Components expose their invariants by registering named check
 * callbacks (every L1i miss eventually resolves, MSHR alloc/free
 * balance, FTQ ordering, SeqTable/prefetch-flag consistency, queue
 * occupancy bounds, ...).  A callback returns std::nullopt when the
 * invariant holds and a violation detail string otherwise; it must be
 * read-only -- sweeps run inside measured windows and must not perturb
 * statistics or machine state.
 *
 * Cost model:
 *  - compiled out (DCFB_RT_INVARIANTS=0): add()/sweep() collapse to
 *    empty inlines, zero code and data;
 *  - disabled at runtime (setEnabled(false)): sweep() is one branch;
 *  - enabled: checks run every sweepInterval cycles (IntegrityConfig),
 *    off the per-cycle hot path.
 */

#ifndef DCFB_RT_INVARIANTS_H
#define DCFB_RT_INVARIANTS_H

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "rt/error.h"

#ifndef DCFB_RT_INVARIANTS
#define DCFB_RT_INVARIANTS 1
#endif

namespace dcfb::rt {

/** Integrity-layer knobs carried in SystemConfig. */
struct IntegrityConfig
{
    bool invariants = true;      //!< run registered invariant sweeps
    Cycle sweepInterval = 8192;  //!< cycles between sweeps
    bool watchdog = true;        //!< forward-progress watchdog
    Cycle watchdogWindow = 50000; //!< no-retire/no-fetch trip threshold
    /** Upper bound on how long one L1i miss may stay unresolved before
     *  the "every miss eventually resolves" invariant flags a leak.
     *  Must exceed the worst-case memory round trip plus any injected
     *  response delay. */
    Cycle missResolutionBound = 20000;
};

/** One invariant violation found by a sweep. */
struct Violation
{
    std::string invariant; //!< registered name ("l1i.mshr_balance", ...)
    std::string detail;    //!< what was observed
};

/**
 * Named read-only checks, swept on demand.
 */
class InvariantRegistry
{
  public:
    /** Pass -> nullopt; violation -> detail string. Must be read-only. */
    using Check = std::function<std::optional<std::string>(Cycle now)>;

    /**
     * Activity gate: how many live entries the check would walk.  A
     * gated check is skipped entirely when its gate returns 0, so a
     * sweep over idle state (empty MSHR file, drained queues) costs one
     * size read per gated check instead of a full structure walk --
     * sweep cost is O(active entries), not O(capacity).  Gates must be
     * O(1) and read-only.
     */
    using Gate = std::function<std::size_t()>;

#if DCFB_RT_INVARIANTS
    /** Register invariant @p name, swept unconditionally. */
    void
    add(std::string name, Check check)
    {
        checks.push_back({std::move(name), nullptr, std::move(check)});
    }

    /** Register invariant @p name behind activity gate @p gate. */
    void
    add(std::string name, Gate gate, Check check)
    {
        checks.push_back(
            {std::move(name), std::move(gate), std::move(check)});
    }

    void setEnabled(bool on) { enabledFlag = on; }
    bool enabled() const { return enabledFlag; }
    std::size_t size() const { return checks.size(); }

    /** Checks actually executed across all sweeps (tests/telemetry). */
    std::uint64_t checksRun() const { return runCount; }
    /** Checks skipped by a zero activity gate across all sweeps. */
    std::uint64_t checksSkipped() const { return skipCount; }

    /** Run every check; empty result means all invariants hold.  One
     *  branch and an immediate return when disabled. */
    std::vector<Violation> sweep(Cycle now) const;

    /** sweep() folded into an Expected: an ErrorKind::Invariant error
     *  listing every violation, or success. */
    Expected<void> check(Cycle now) const;

  private:
    struct Entry
    {
        std::string name;
        Gate gate; //!< null: always run
        Check check;
    };
    std::vector<Entry> checks;
    bool enabledFlag = true;
    mutable std::uint64_t runCount = 0;
    mutable std::uint64_t skipCount = 0;
#else
    void add(std::string, Check) {}
    void add(std::string, Gate, Check) {}
    void setEnabled(bool) {}
    bool enabled() const { return false; }
    std::size_t size() const { return 0; }
    std::uint64_t checksRun() const { return 0; }
    std::uint64_t checksSkipped() const { return 0; }
    std::vector<Violation> sweep(Cycle) const { return {}; }
    Expected<void> check(Cycle) const { return {}; }
#endif
};

} // namespace dcfb::rt

#endif // DCFB_RT_INVARIANTS_H
