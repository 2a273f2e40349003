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
 *  - **DecoupledFetchEngine** (sim/decoupled.h): the BTB-directed
 *    frontend of Boomerang and Shotgun, with a branch-prediction unit
 *    that runs ahead of fetch through the FTQ.
 *
 * Both deliver fetched instructions into a bounded fetch buffer that the
 * simulator's dispatch stage drains, and both expose a per-cycle stall
 * reason for the frontend-stall accounting behind FSCR (Fig. 15).
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
 * Common fetch-engine interface.
 */
class FetchEngine
{
  public:
    explicit FetchEngine(const FetchConfig &config)
        : cfg(config), fetchBuffer(config.fetchBufferEntries)
    {}
    virtual ~FetchEngine() = default;

    /** Produce instructions for cycle @p now. */
    virtual void cycle(Cycle now) = 0;

    /** Why nothing (more) was delivered as of @p now. */
    virtual StallReason stallReason(Cycle now) const = 0;

    BoundedQueue<FetchedSlot> &buffer() { return fetchBuffer; }
    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }

    /** Attach a last-level BTB (the MicroBTB preset).  Null for every
     *  other preset, so the probe sites stay bit-identical without it. */
    void setMicroBtb(frontend::MicroBtb *m) { mbtb = m; }

  protected:
    FetchConfig cfg;
    BoundedQueue<FetchedSlot> fetchBuffer; //!< ring: drained every cycle
    obs::StatRegistry statReg;
    frontend::MicroBtb *mbtb = nullptr; //!< MicroBTB preset only
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
        : FetchEngine(config), walker(walker_), l1i(l1i_), btb(btb_),
          tage(tage_), image(image_), pf(prefetcher), look(kLookahead)
    {
        cFetched = statReg.counter("fe_fetched");
        cIcacheStallCycles = statReg.counter("fe_icache_stall_cycles");
        cBtbStallCycles = statReg.counter("fe_btb_stall_cycles");
        cMispredictStallCycles =
            statReg.counter("fe_mispredict_stall_cycles");
        cWrongPathBlocks = statReg.counter("fe_wrong_path_blocks");
        hBufferOcc = statReg.histogram("fetch_buffer_occ");
        cBtbRedirects = statReg.lazyCounter("fe_btb_redirects");
        cMispredictRedirects = statReg.lazyCounter("fe_mispredict_redirects");
        cBtbBufferFills = statReg.lazyCounter("fe_btb_buffer_fills");
        cBtbMissTaken = statReg.lazyCounter("fe_btb_miss_taken");
        cBtbMissNotTaken = statReg.lazyCounter("fe_btb_miss_not_taken");
        cCondMispredicts = statReg.lazyCounter("fe_cond_mispredicts");
        cStaleTarget = statReg.lazyCounter("fe_stale_target");
        cIndirectMispredicts = statReg.lazyCounter("fe_indirect_mispredicts");
        cRasMispredicts = statReg.lazyCounter("fe_ras_mispredicts");
        refill();
    }

    void
    cycle(Cycle now) override
    {
        refill();
        hBufferOcc.sample(fetchBuffer.size());

        if (blockedOnFill) {
            if (now < fillReady) {
                cIcacheStallCycles.add();
                return;
            }
            blockedOnFill = false;
        }

        if (now < redirectUntil) {
            (redirectReason == StallReason::BtbMissRedirect
                 ? cBtbStallCycles
                 : cMispredictStallCycles)
                .add();
            wrongPathFetch(now);
            return;
        }

        unsigned budget = cfg.fetchWidth;
        while (budget > 0 && fetchBuffer.size() < cfg.fetchBufferEntries) {
            // Copy: pop() below invalidates references into the queue,
            // and e is still needed for the branch handling afterwards.
            const workload::TraceEntry e = look.front();

            // Block transition: access the I-cache (VL instructions may
            // straddle two blocks; both must be present).
            Addr first = blockAlign(e.pc);
            Addr last = blockAlign(e.pc + e.len - 1);
            for (Addr block = first; block <= last; block += kBlockBytes) {
                if (block == currentBlock)
                    continue;
                if (cfg.perfectL1i) {
                    currentBlock = block;
                    continue;
                }
                auto res = l1i.demandAccess(block, now);
                currentBlock = block;
                if (!res.hit) {
                    blockedOnFill = true;
                    fillReady = res.ready;
                    cIcacheStallCycles.add();
                    return;
                }
            }

            fetchBuffer.push({e, now + cfg.frontendStages});
            pf.onFetchInstr({e.pc, e.len, e.kind, e.taken, e.target}, now);
            look.pop();
            --budget;
            cFetched.add();

            if (e.isBranch()) {
                bool stop = handleBranch(e, now);
                if (stop)
                    break;
            }
        }
    }

    StallReason
    stallReason(Cycle now) const override
    {
        if (blockedOnFill && now < fillReady)
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

        // Direction prediction for conditionals.
        bool predicted_taken = true;
        if (e.kind == InstrKind::CondBranch) {
            // Note: perfectBtb only removes BTB misses; direction
            // prediction still comes from TAGE (Fig. 17's BTB-infinity
            // is a 32 K-entry BTB, not an oracle).
            predicted_taken = tage.predict(e.pc);
            tage.update(e.pc, e.taken);
        } else {
            tage.updateHistoryUnconditional(e.pc);
        }

        // RAS maintenance.
        Addr ras_target = kInvalidAddr;
        if (e.kind == InstrKind::Call || e.kind == InstrKind::IndirectCall)
            ras.push(e.pc + e.len);
        else if (e.kind == InstrKind::Return)
            ras_target = ras.pop();

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
            if (predicted_taken != e.taken) {
                cCondMispredicts.add();
                Addr wrong = predicted_taken ? entry->target : e.pc + e.len;
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
            if (ras_target != e.target) {
                cRasMispredicts.add();
                redirect(now, cfg.execRedirectPenalty,
                         ras_target == kInvalidAddr ? e.pc + e.len
                                                    : ras_target,
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

    void
    refill()
    {
        while (!look.full())
            look.push(walker.next());
    }

    workload::TraceWalker &walker;
    mem::L1iCache &l1i;
    frontend::Btb &btb;
    frontend::Tage &tage;
    const workload::ProgramImage &image;
    Pf &pf;
    frontend::ReturnAddressStack ras;

    // Typed handles for the per-cycle hot path.
    obs::Counter cFetched, cIcacheStallCycles, cBtbStallCycles,
        cMispredictStallCycles, cWrongPathBlocks;
    obs::Histogram hBufferOcc;
    // Lazily-bound handles for per-branch event sites (these must only
    // appear in results once they fire; see obs::LazyCounter).
    obs::LazyCounter cBtbRedirects, cMispredictRedirects, cBtbBufferFills,
        cBtbMissTaken, cBtbMissNotTaken, cCondMispredicts, cStaleTarget,
        cIndirectMispredicts, cRasMispredicts;

    static constexpr std::size_t kLookahead = 64;
    /** Trace lookahead window (ring; refilled to capacity each cycle). */
    BoundedQueue<workload::TraceEntry> look;
    Addr currentBlock = kInvalidAddr;      //!< last block fetch accessed

    bool blockedOnFill = false;
    Cycle fillReady = 0;

    Cycle redirectUntil = 0;
    StallReason redirectReason = StallReason::None;
    Addr wrongPathPc = kInvalidAddr;
    Addr wrongPathBlock = kInvalidAddr;
};

} // namespace dcfb::sim

#endif // DCFB_SIM_FETCH_H
