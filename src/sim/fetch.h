/**
 * @file
 * Fetch engines.
 *
 * Two frontend organizations are modeled:
 *
 *  - **CoupledFetchEngineT**: the conventional frontend used by the
 *    baseline, the NXL family, SN4L+Dis+BTB and Confluence.  Fetch
 *    follows the predicted stream; on a BTB miss for a taken branch or a
 *    direction/target misprediction the frontend runs down the wrong
 *    path for the redirect penalty (issuing real wrong-path I-cache
 *    accesses) before resuming.
 *
 *    The engine is a template over the *concrete* prefetcher type, so
 *    in the System's preset-specialized step (see sim/system.h) the
 *    per-instruction onFetchInstr() notification and the per-branch
 *    btbPrefetchBuffer() probe devirtualize and inline.  A preset whose
 *    prefetcher never prefills a BTB buffer (Baseline, NL/NXL,
 *    Confluence) compiles the probe out entirely.
 *
 *  - **DecoupledFetchEngine** (sim/decoupled.h): the frontend of
 *    Shotgun and FDIP, with a branch-prediction unit that runs ahead of
 *    fetch through the FTQ.
 *
 * Both fetch through one front, FetchEngine: one I-cache fetch step
 * into the bounded fetch buffer that the simulator's dispatch stage
 * drains, and one TAGE/RAS predict step.  They differ only in where the
 * next instruction comes from (the walker, read one entry at a time,
 * or the FTQ) and in their BTB and prefetch policy.  Neither reads the
 * walker before its first cycle.  Both expose a per-cycle stall reason
 * for the frontend-stall accounting behind FSCR (Fig. 15).
 */

#ifndef DCFB_SIM_FETCH_H
#define DCFB_SIM_FETCH_H

#include <cstdint>

#include "common/queue.h"
#include "frontend/btb.h"
#include "frontend/micro_btb.h"
#include "frontend/ras.h"
#include "frontend/tage.h"
#include "mem/l1i.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "prefetch/btb_prefetch_buffer.h"
#include "prefetch/prefetcher.h"
#include "sim/config.h"
#include "workload/trace.h"

namespace dcfb::sim {

/** Why the frontend failed to deliver instructions this cycle. */
enum class StallReason {
    None,
    ICacheMiss,
    BtbMissRedirect,
    MispredictRedirect,
    EmptyFtq,
    FetchPipe, //!< buffer momentarily empty (pipeline fill)
};

/** An instruction sitting in the fetch buffer. */
struct FetchedSlot
{
    workload::TraceEntry entry;
    Cycle ready = 0; //!< cycle it becomes visible to dispatch
};

/**
 * The fetch front both engines share: the I-cache fetch step, the
 * fetch buffer and the predict step.  The helpers are non-virtual and
 * inline, so each engine's cycle() inlines them.
 */
class FetchEngine
{
  public:
    FetchEngine(const FetchEngine &) = delete;
    FetchEngine &operator=(const FetchEngine &) = delete;
    virtual ~FetchEngine() = default;

    BoundedQueue<FetchedSlot> &buffer() { return fetchBuffer; }
    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }

    /** Attach a last-level BTB (the MicroBTB preset).  Null for every
     *  other preset, so the probe sites stay bit-identical without it. */
    void setMicroBtb(frontend::MicroBtb *m) { mbtb = m; }

  protected:
    FetchEngine(const FetchConfig &config, workload::TraceWalker &walker_,
                mem::L1iCache &l1i_, frontend::Tage &tage_)
        : cfg(config), fetchBuffer(config.fetchBufferEntries),
          walker(walker_), l1i(l1i_), tage(tage_)
    {
        cFetched = statReg.counter("fe_fetched");
        cIcacheStallCycles = statReg.counter("fe_icache_stall_cycles");
        hBufferOcc = statReg.histogram("fetch_buffer_occ");
    }

    /** Start a fetch cycle: sample the fetch-buffer occupancy and, while
     *  an I-cache fill is outstanding, count a stall cycle.  True when
     *  fetch waits this cycle. */
    bool
    waitForFill(Cycle now)
    {
        hBufferOcc.sample(fetchBuffer.size());
        if (blockedOnFill) {
            if (now < fillReady) {
                cIcacheStallCycles.add();
                return true;
            }
            blockedOnFill = false;
        }
        return false;
    }

    /**
     * The I-cache fetch step: move up to fetchWidth instructions into
     * the fetch buffer while it has room.  @p next(n) names the next
     * instruction after @p n delivered this cycle, or null when there is
     * none.  Entering a new block accesses the I-cache (a VL instruction
     * may straddle two blocks; both must be present), and a miss blocks
     * fetch until the fill.  @p fetched sees each delivered instruction
     * and returns true when fetch stops for this cycle.
     */
    template <typename Next, typename Fetched>
    void
    fetchInstrs(Cycle now, Next next, Fetched fetched)
    {
        for (unsigned n = 0; n < cfg.fetchWidth &&
             fetchBuffer.size() < cfg.fetchBufferEntries;
             ++n) {
            const workload::TraceEntry *e = next(n);
            if (!e)
                return;
            Addr last = blockAlign(e->pc + e->len - 1);
            for (Addr block = blockAlign(e->pc); block <= last;
                 block += kBlockBytes) {
                if (block == currentBlock)
                    continue;
                currentBlock = block;
                if (cfg.perfectL1i)
                    continue;
                auto res = l1i.demandAccess(block, now);
                if (!res.hit) {
                    blockedOnFill = true;
                    fillReady = res.ready;
                    cIcacheStallCycles.add();
                    return;
                }
            }
            fetchBuffer.push({*e, now + cfg.frontendStages});
            cFetched.add();
            if (fetched(*e))
                return;
        }
    }

    /** Whether fetch is waiting for an I-cache fill as of @p now. */
    bool
    icacheStalled(Cycle now) const
    {
        return blockedOnFill && now < fillReady;
    }

    /** What the predictors say about one branch. */
    struct Prediction
    {
        bool taken = true;                //!< TAGE's direction (conditionals)
        Addr returnTarget = kInvalidAddr; //!< the popped RAS top (returns)
    };

    /**
     * The predict step for branch @p e: TAGE predicts a conditional's
     * direction and trains on its outcome, and any other branch only
     * enters its history; a call pushes its return address and a return
     * pops the RAS.  perfectBtb leaves this step alone (Fig. 17's
     * BTB-infinity is a 32 K-entry BTB, not an oracle).
     */
    Prediction
    predictBranch(const workload::TraceEntry &e)
    {
        using isa::InstrKind;
        Prediction p;
        if (e.kind == InstrKind::CondBranch) {
            p.taken = tage.predict(e.pc);
            tage.update(e.pc, e.taken);
        } else {
            tage.updateHistoryUnconditional(e.pc);
        }
        if (e.kind == InstrKind::Call || e.kind == InstrKind::IndirectCall)
            ras.push(e.pc + e.len);
        else if (e.kind == InstrKind::Return)
            p.returnTarget = ras.pop();
        return p;
    }

    FetchConfig cfg;
    BoundedQueue<FetchedSlot> fetchBuffer; //!< ring: drained every cycle
    obs::StatRegistry statReg;
    workload::TraceWalker &walker;
    mem::L1iCache &l1i;
    frontend::Tage &tage;
    frontend::ReturnAddressStack ras;
    frontend::MicroBtb *mbtb = nullptr; //!< MicroBTB preset only

  private:
    obs::Counter cFetched, cIcacheStallCycles;
    obs::Histogram hBufferOcc;

    Addr currentBlock = kInvalidAddr; //!< last block fetch accessed
    bool blockedOnFill = false;
    Cycle fillReady = 0;
};

/**
 * Conventional (coupled) frontend, parameterized on the concrete
 * prefetcher type @p Pf.
 *
 * @tparam Pf the prefetcher's concrete (final) type, so the two
 *            per-instruction prefetcher calls devirtualize.
 */
template <typename Pf>
class CoupledFetchEngineT final : public FetchEngine
{
  public:
    /**
     * @param config     fetch parameters (incl. perfect-frontend flags)
     * @param walker     retired-instruction source
     * @param l1i        instruction cache
     * @param btb        conventional BTB
     * @param tage       direction predictor
     * @param image      program image (wrong-path reconstruction)
     * @param prefetcher bound prefetcher (never null; NullPrefetcher ok)
     */
    CoupledFetchEngineT(const FetchConfig &config,
                        workload::TraceWalker &walker_, mem::L1iCache &l1i_,
                        frontend::Btb &btb_, frontend::Tage &tage_,
                        const workload::ProgramImage &image_,
                        Pf &prefetcher)
        : FetchEngine(config, walker_, l1i_, tage_), btb(btb_),
          image(image_), pf(prefetcher)
    {
        cBtbStallCycles = statReg.counter("fe_btb_stall_cycles");
        cMispredictStallCycles =
            statReg.counter("fe_mispredict_stall_cycles");
        cWrongPathBlocks = statReg.counter("fe_wrong_path_blocks");
        cBtbRedirects = statReg.lazyCounter("fe_btb_redirects");
        cMispredictRedirects = statReg.lazyCounter("fe_mispredict_redirects");
        cBtbBufferFills = statReg.lazyCounter("fe_btb_buffer_fills");
        cBtbMissTaken = statReg.lazyCounter("fe_btb_miss_taken");
        cBtbMissNotTaken = statReg.lazyCounter("fe_btb_miss_not_taken");
        cCondMispredicts = statReg.lazyCounter("fe_cond_mispredicts");
        cStaleTarget = statReg.lazyCounter("fe_stale_target");
        cIndirectMispredicts = statReg.lazyCounter("fe_indirect_mispredicts");
        cRasMispredicts = statReg.lazyCounter("fe_ras_mispredicts");
    }

    /** Produce instructions for cycle @p now. */
    void
    cycle(Cycle now)
    {
        if (waitForFill(now))
            return;
        if (now < redirectUntil) {
            (redirectReason == StallReason::BtbMissRedirect
                 ? cBtbStallCycles
                 : cMispredictStallCycles)
                .add();
            wrongPathFetch(now);
            return;
        }

        fetchInstrs(
            now,
            [this](unsigned) {
                // Read the walker lazily: an entry stays pending while
                // fetch waits on its block.
                if (!haveNextEntry) {
                    nextEntry = walker.next();
                    haveNextEntry = true;
                }
                return &nextEntry;
            },
            [this, now](const workload::TraceEntry &e) {
                pf.onFetchInstr({e.pc, e.len, e.kind, e.taken, e.target},
                                now);
                haveNextEntry = false;
                return e.isBranch() && handleBranch(e, now);
            });
    }

    /** Why nothing (more) was delivered as of @p now. */
    StallReason
    stallReason(Cycle now) const
    {
        if (icacheStalled(now))
            return StallReason::ICacheMiss;
        if (now < redirectUntil)
            return redirectReason;
        return StallReason::FetchPipe;
    }

  private:
    /** Handle the branch just fetched; returns true when fetch must stop
     *  (taken branch or redirect). */
    bool
    handleBranch(const workload::TraceEntry &e, Cycle now)
    {
        using isa::InstrKind;

        const Prediction pred = predictBranch(e);

        // BTB: identifies the branch and provides the target.
        const frontend::BtbEntry *entry = nullptr;
        frontend::BtbEntry from_buffer;
        if (cfg.perfectBtb) {
            from_buffer = {e.target, e.kind};
            entry = &from_buffer;
        } else {
            entry = btb.lookup(e.pc);
            if (!entry) {
                // Probe the BTB prefetch buffer (Section V.C): a hit
                // moves the entry into the BTB and avoids the miss.
                // When Pf is a concrete type without a buffer this
                // whole probe folds away.
                if (auto *pb = pf.btbPrefetchBuffer()) {
                    if (const auto *b = pb->findBranch(e.pc)) {
                        updateBtb(e.pc,
                                   b->hasTarget ? b->target : e.target,
                                   b->kind);
                        from_buffer = {b->hasTarget ? b->target : e.target,
                                       b->kind};
                        entry = &from_buffer;
                        cBtbBufferFills.add();
                        if (obs::Tracing::enabled()) {
                            obs::Tracing::record("btb", now, e.pc,
                                                 obs::MissClass::Btb,
                                                 obs::MissOutcome::Covered);
                        }
                    }
                }
                // Last-level BTB (the MicroBTB competitor): a hit
                // promotes the entry into the main BTB, trading the
                // decode-time redirect for a short fill bubble.
                if (!entry && mbtb) {
                    if (const frontend::MicroBtbEntry *me =
                            mbtb->probe(e.pc)) {
                        updateBtb(e.pc, me->target, me->kind);
                        from_buffer = {me->target, me->kind};
                        entry = &from_buffer;
                        mbtb->notePromote();
                        if (mbtb->promoteLatency() > 0) {
                            // A fetch bubble, not a squash: no wrong-path
                            // fetches, stalls accrue to the BTB bucket.
                            redirectUntil = now + mbtb->promoteLatency();
                            redirectReason = StallReason::BtbMissRedirect;
                            wrongPathPc = kInvalidAddr;
                            wrongPathBlock = kInvalidAddr;
                        }
                        if (obs::Tracing::enabled()) {
                            obs::Tracing::record("btb", now, e.pc,
                                                 obs::MissClass::Btb,
                                                 obs::MissOutcome::Covered);
                        }
                    }
                }
            }
        }

        if (!entry) {
            // The frontend does not know this is a branch.  Fall-through
            // fetch is accidentally correct for a not-taken conditional;
            // anything taken costs a decode-time redirect.
            if (e.taken) {
                cBtbMissTaken.add();
                if (obs::Tracing::enabled()) {
                    obs::Tracing::record("btb", now, e.pc,
                                         obs::MissClass::Btb,
                                         obs::MissOutcome::Uncovered);
                }
                redirect(now, cfg.decodeRedirectPenalty, e.pc + e.len,
                         StallReason::BtbMissRedirect);
                updateBtb(e.pc, e.target, e.kind);
                return true;
            }
            cBtbMissNotTaken.add();
            updateBtb(e.pc, e.target, e.kind);
            return false;
        }

        // Known branch: check the predicted direction and target.
        switch (e.kind) {
          case InstrKind::CondBranch:
            if (pred.taken != e.taken) {
                cCondMispredicts.add();
                Addr wrong = pred.taken ? entry->target : e.pc + e.len;
                redirect(now, cfg.execRedirectPenalty, wrong,
                         StallReason::MispredictRedirect);
                updateBtb(e.pc, e.target, e.kind);
                return true;
            }
            if (e.taken && entry->target != e.target) {
                cStaleTarget.add();
                redirect(now, cfg.execRedirectPenalty, entry->target,
                         StallReason::MispredictRedirect);
                updateBtb(e.pc, e.target, e.kind);
                return true;
            }
            return e.taken;
          case InstrKind::Jump:
          case InstrKind::Call:
            if (entry->target != e.target) {
                cStaleTarget.add();
                redirect(now, cfg.decodeRedirectPenalty, entry->target,
                         StallReason::MispredictRedirect);
                updateBtb(e.pc, e.target, e.kind);
                return true;
            }
            return true;
          case InstrKind::IndirectCall:
            if (entry->target != e.target) {
                cIndirectMispredicts.add();
                redirect(now, cfg.execRedirectPenalty, entry->target,
                         StallReason::MispredictRedirect);
                updateBtb(e.pc, e.target, e.kind);
                return true;
            }
            return true;
          case InstrKind::Return:
            if (pred.returnTarget != e.target) {
                cRasMispredicts.add();
                redirect(now, cfg.execRedirectPenalty,
                         pred.returnTarget == kInvalidAddr
                             ? e.pc + e.len
                             : pred.returnTarget,
                         StallReason::MispredictRedirect);
                return true;
            }
            return true;
          default:
            return false;
        }
    }

    /** Install or refresh a BTB entry, mirroring it into the last-level
     *  BTB when one is attached (inclusive fill policy). */
    void
    updateBtb(Addr pc, Addr target, isa::InstrKind kind)
    {
        btb.update(pc, target, kind);
        if (mbtb)
            mbtb->fill(pc, target, kind);
    }

    /** Begin a redirect window. */
    void
    redirect(Cycle now, Cycle penalty, Addr wrong_path_pc,
             StallReason reason)
    {
        redirectUntil = now + penalty;
        redirectReason = reason;
        wrongPathPc = wrong_path_pc;
        wrongPathBlock = kInvalidAddr;
        (reason == StallReason::BtbMissRedirect ? cBtbRedirects
                                                : cMispredictRedirects)
            .add();
    }

    /** Issue wrong-path fetches during a redirect window. */
    void
    wrongPathFetch(Cycle now)
    {
        // The frontend keeps fetching down the wrong path until the
        // squash.  We model up to one new block touched per cycle;
        // wrong-path accesses really hit the cache/MSHRs (pollution and,
        // at times, accidental prefetching - both real effects).
        if (wrongPathPc == kInvalidAddr)
            return;
        if (!image.contains(wrongPathPc)) {
            wrongPathPc = kInvalidAddr; // ran off mapped code
            return;
        }
        Addr block = blockAlign(wrongPathPc);
        if (block != wrongPathBlock) {
            wrongPathBlock = block;
            l1i.demandAccess(wrongPathPc, now, /*wrong_path=*/true);
            cWrongPathBlocks.add();
        }
        wrongPathPc += cfg.fetchWidth * kInstrBytes;
    }

    frontend::Btb &btb;
    const workload::ProgramImage &image;
    Pf &pf;

    // Typed handles for the per-cycle hot path.
    obs::Counter cBtbStallCycles, cMispredictStallCycles, cWrongPathBlocks;
    // Lazily-bound handles for per-branch event sites (these must only
    // appear in results once they fire; see obs::LazyCounter).
    obs::LazyCounter cBtbRedirects, cMispredictRedirects, cBtbBufferFills,
        cBtbMissTaken, cBtbMissNotTaken, cCondMispredicts, cStaleTarget,
        cIndirectMispredicts, cRasMispredicts;

    workload::TraceEntry nextEntry; //!< read from the walker, not fetched
    bool haveNextEntry = false;

    Cycle redirectUntil = 0;
    StallReason redirectReason = StallReason::None;
    Addr wrongPathPc = kInvalidAddr;
    Addr wrongPathBlock = kInvalidAddr;
};

} // namespace dcfb::sim

#endif // DCFB_SIM_FETCH_H
