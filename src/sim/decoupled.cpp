#include "sim/decoupled.h"

#include <algorithm>
#include <bit>

#include "obs/trace.h"
#include "prefetch/fdip.h"
#include "rt/invariants.h"

namespace dcfb::sim {

using isa::InstrKind;
using workload::TraceEntry;

namespace {
constexpr std::uint64_t kMaxBbScan = 48; //!< BB length bound (instrs)
constexpr std::size_t kRecStackBound = 64;
} // namespace

DecoupledFetchEngine::DecoupledFetchEngine(
    const FetchConfig &config, Kind kind_, workload::TraceWalker &walker_,
    mem::L1iCache &l1i_, frontend::Tage &tage_,
    const isa::Predecoder &predecoder, unsigned boomerang_btb_entries,
    const frontend::ShotgunBtbConfig &shotgun_cfg,
    frontend::Btb *conv_btb, prefetch::Fdip *fdip_, exec::Arena *arena)
    : FetchEngine(config, arena), kind(kind_), walker(walker_), l1i(l1i_),
      tage(tage_), pd(predecoder), bbtb(boomerang_btb_entries, 4),
      sgBtb(shotgun_cfg), btbPb(32, 32, arena), convBtb(conv_btb),
      fdip(fdip_), ftq(config.ftqEntries)
{
    cFetched = statReg.counter("fe_fetched");
    cIcacheStallCycles = statReg.counter("fe_icache_stall_cycles");
    cEmptyFtqStallCycles = statReg.counter("fe_empty_ftq_stall_cycles");
    cBpuStallCycles = statReg.counter("bpu_stall_cycles");
    cFtqPushes = statReg.counter("ftq_pushes");
    hFtqOcc = statReg.histogram("ftq_occ");
    hBufferOcc = statReg.histogram("fetch_buffer_occ");
    cReactiveFills = statReg.lazyCounter("bpu_reactive_fills");
    cSgPrefillBlocks = statReg.lazyCounter("sg_prefill_blocks");
    cBoomerangPrefillEntries = statReg.lazyCounter("boomerang_prefill_entries");
    cSgFootprintPrefetches = statReg.lazyCounter("sg_footprint_prefetches");
    cSgCbtbFills = statReg.lazyCounter("sg_cbtb_buffer_fills");
    cSgRegionSkipped = statReg.lazyCounter("sg_region_prefetch_skipped");
    cBpuTargetMispredicts = statReg.lazyCounter("bpu_target_mispredicts");
    cBpuMispredicts = statReg.lazyCounter("bpu_mispredicts");
    cBpuRasMispredicts = statReg.lazyCounter("bpu_ras_mispredicts");
    cSquashes = statReg.lazyCounter("fe_squashes");
    cWrongPathPrefetches = statReg.lazyCounter("bpu_wrong_path_prefetches");
    cBbBtbMisses = statReg.lazyCounter("boomerang_bbbtb_miss");
    cCbtbMisses = statReg.lazyCounter("sg_cbtb_miss");
    cUbtbMisses = statReg.lazyCounter("sg_ubtb_miss");
    cRibMisses = statReg.lazyCounter("sg_rib_miss");
    cFdipBtbMisses = statReg.lazyCounter("fdip_btb_miss");

    // Pre-size the lookahead ring past the common BPU/fetch separation
    // (FTQ depth x BB-scan bound) so growth is exceptional.
    std::size_t want = std::bit_ceil(
        std::size_t{config.ftqEntries + 2} * kMaxBbScan);
    look.resize(want);
    lookMask = want - 1;
}

void
DecoupledFetchEngine::extendLook(std::uint64_t idx)
{
    while (idx >= lookEnd) {
        if (lookEnd - lookBase == look.size()) {
            // Grow 2x, re-placing the window by absolute index.
            std::vector<TraceEntry> bigger(look.size() * 2);
            std::size_t bigger_mask = bigger.size() - 1;
            for (std::uint64_t i = lookBase; i < lookEnd; ++i)
                bigger[i & bigger_mask] = look[i & lookMask];
            look.swap(bigger);
            lookMask = bigger_mask;
        }
        look[lookEnd & lookMask] = walker.next();
        ++lookEnd;
    }
}

const TraceEntry &
DecoupledFetchEngine::entryAt(std::uint64_t idx)
{
    if (idx >= lookEnd) [[unlikely]]
        extendLook(idx);
    return look[idx & lookMask];
}

std::uint64_t
DecoupledFetchEngine::scanTerminator(std::uint64_t idx)
{
    for (std::uint64_t i = idx; i < idx + kMaxBbScan; ++i) {
        if (entryAt(i).isBranch())
            return i;
    }
    return idx + kMaxBbScan - 1; // giant straight-line region
}

void
DecoupledFetchEngine::reactiveStall(Addr addr, Cycle now,
                                    obs::LazyCounter &stat)
{
    stat.add();
    if (obs::Tracing::enabled()) {
        obs::Tracing::record("btb", now, addr, obs::MissClass::Btb,
                             obs::MissOutcome::Uncovered);
    }
    Addr block = blockAlign(addr);
    Cycle ready;
    if (l1i.probe(block)) {
        ready = now + cfg.predecodeLatency;
    } else {
        l1i.prefetch(block, now);
        Cycle fill = l1i.fillReadyCycle(block);
        ready = (fill ? fill : now + 1) + cfg.predecodeLatency;
    }
    bpuStalledUntil = std::max(bpuStalledUntil, ready);
    cReactiveFills.add();
}

void
DecoupledFetchEngine::prefillFromBlock(Addr block_addr)
{
    auto branches = pd.predecodeBlock(block_addr);
    if (branches.empty())
        return;
    btbPb.insertBlock(block_addr, branches);
    cSgPrefillBlocks.add();
}

void
DecoupledFetchEngine::boomerangPrefill(Addr block_addr)
{
    // Reconstruct basic-block entries from a pre-decoded block: each
    // branch terminates a BB; the BB is assumed to start right after the
    // previous branch in the block (or at the block head).  BBs that
    // straddle into this block from a predecessor are missed - a real
    // Boomerang pre-decoder has the same blind spot without FTQ context.
    auto branches = pd.predecodeBlock(block_addr);
    Addr bb_start = blockAlign(block_addr);
    for (const auto &b : branches) {
        frontend::BbBtbEntry entry;
        Addr branch_pc = blockAlign(block_addr) + b.byteOffset;
        entry.sizeBytes =
            static_cast<std::uint16_t>(branch_pc + kInstrBytes - bb_start);
        entry.branchOffset =
            static_cast<std::uint16_t>(branch_pc - bb_start);
        entry.kind = b.kind;
        entry.target = b.hasTarget ? b.target : kInvalidAddr;
        bbtb.update(bb_start, entry);
        cBoomerangPrefillEntries.add();
        bb_start = branch_pc + kInstrBytes;
    }
}

void
DecoupledFetchEngine::onFill(Addr block_addr, bool was_prefetch,
                             const mem::BranchFootprint *bf)
{
    (void)bf;
    if (!was_prefetch)
        return;
    // Proactive BTB prefill from prefetched blocks (both BTB-directed
    // baselines pre-decode prefetched blocks to prime their BTB state).
    // FDIP deliberately has no such path: its fills feed the prefetcher's
    // own accounting (the Fdip unit is the L1i listener), and BTB misses
    // keep stalling the BPU — that gap is what the comparison measures.
    if (kind == Kind::Fdip)
        return;
    if (kind == Kind::Boomerang)
        boomerangPrefill(block_addr);
    else
        prefillFromBlock(block_addr);
}

void
DecoupledFetchEngine::footprintPrefetch(Addr anchor_block,
                                        std::uint8_t bits, Cycle now)
{
    for (unsigned i = 0; i < frontend::kFootprintBlocks; ++i) {
        if (!((bits >> i) & 1))
            continue;
        Addr block = anchor_block + Addr{i} * kBlockBytes;
        auto out = l1i.prefetch(block, now);
        cSgFootprintPrefetches.add();
        if (out == mem::L1iCache::PfOutcome::InCache)
            prefillFromBlock(block); // already here: prefill immediately
        // Blocks still in flight prefill via onFill when they arrive.
    }
}

bool
DecoupledFetchEngine::boomerangLookup(Addr bb_start, std::uint64_t term_idx,
                                      Cycle now)
{
    if (cfg.perfectBtb)
        return true;
    const auto *entry = bbtb.lookup(bb_start);
    if (entry) {
        const TraceEntry &term = entryAt(term_idx);
        if (term.taken && entry->target != kInvalidAddr &&
            entry->target != term.target) {
            // Stale stored target (indirect call): the BPU ran down the
            // wrong path until the execute-stage redirect.
            targetMispredict = true;
            wrongPathTarget = entry->target;
            frontend::BbBtbEntry fixed = *entry;
            fixed.target = term.target;
            bbtb.update(bb_start, fixed);
        }
        return true;
    }
    // Reactive fill: fetch + pre-decode the block holding the BB, then
    // install the discovered entry (modeled with the trace oracle, which
    // is what a correct pre-decode reconstructs).
    reactiveStall(bb_start, now, cBbBtbMisses);
    const TraceEntry &term = entryAt(term_idx);
    frontend::BbBtbEntry fresh;
    fresh.sizeBytes = static_cast<std::uint16_t>(
        std::min<std::uint64_t>(term.pc + term.len - bb_start, 0xffff));
    fresh.branchOffset = static_cast<std::uint16_t>(
        std::min<std::uint64_t>(term.pc - bb_start, 0xffff));
    fresh.kind = term.kind;
    fresh.target = term.target;
    bbtb.update(bb_start, fresh);
    return false;
}

bool
DecoupledFetchEngine::shotgunLookup(Addr bb_start, std::uint64_t term_idx,
                                    Cycle now)
{
    (void)bb_start; // Shotgun keys on the terminator, not the BB start
    if (cfg.perfectBtb)
        return true;
    const TraceEntry &term = entryAt(term_idx);
    switch (term.kind) {
      case InstrKind::CondBranch: {
        if (sgBtb.lookupC(term.pc))
            return true;
        // The 32-entry prefill buffer backs the tiny C-BTB.
        if (const auto *b = btbPb.findBranch(term.pc)) {
            sgBtb.updateC(term.pc, b->hasTarget ? b->target : term.target);
            cSgCbtbFills.add();
            if (obs::Tracing::enabled()) {
                obs::Tracing::record("btb", now, term.pc,
                                     obs::MissClass::Btb,
                                     obs::MissOutcome::Covered);
            }
            return true;
        }
        reactiveStall(term.pc, now, cCbtbMisses);
        sgBtb.updateC(term.pc, term.target);
        prefillFromBlock(blockAlign(term.pc));
        return false;
      }
      case InstrKind::Jump:
      case InstrKind::Call:
      case InstrKind::IndirectCall: {
        frontend::UBtbEntry *ue = sgBtb.lookupU(term.pc);
        if (!ue) {
            // U-BTB miss: reactive prefill restores the target but NOT
            // the footprints (Section III).
            reactiveStall(term.pc, now, cUbtbMisses);
            sgBtb.updateU(term.pc, term.target, term.kind,
                          /*from_prefill=*/true);
            return false;
        }
        if (term.taken && ue->target != term.target) {
            // Stale/indirect target: the BPU followed the stored target
            // down the wrong path; charged as a mispredict in bpuStep.
            targetMispredict = true;
            wrongPathTarget = ue->target;
            ue->target = term.target;
        }
        if (ue->callFpValid) {
            footprintPrefetch(blockAlign(term.target), ue->callFootprint,
                              now);
        } else {
            cSgRegionSkipped.add();
        }
        return true;
      }
      case InstrKind::Return: {
        if (!sgBtb.lookupRib(term.pc)) {
            reactiveStall(term.pc, now, cRibMisses);
            sgBtb.updateRib(term.pc);
            return false;
        }
        // Return footprint: prefetch around the return site using the
        // matching call's U-BTB entry.
        if (!recStack.empty()) {
            const CallRecord &top = recStack.back();
            if (frontend::UBtbEntry *ce = sgBtb.findU(top.callPc)) {
                if (ce->retFpValid) {
                    footprintPrefetch(blockAlign(term.target),
                                      ce->retFootprint, now);
                }
            }
        }
        return true;
      }
      default:
        return true;
    }
}

bool
DecoupledFetchEngine::fdipLookup(Addr bb_start, std::uint64_t term_idx,
                                 Cycle now)
{
    (void)bb_start; // FDIP's BPU keys the conventional BTB by branch PC
    if (cfg.perfectBtb)
        return true;
    const TraceEntry &term = entryAt(term_idx);
    if (!term.isBranch())
        return true; // straight-line region: nothing to look up
    if (const frontend::BtbEntry *entry = convBtb->lookup(term.pc)) {
        if (term.taken && entry->target != kInvalidAddr &&
            entry->target != term.target) {
            // Stale stored target: the BPU ran down the stored path
            // until the execute-stage redirect (charged in bpuStep).
            targetMispredict = true;
            wrongPathTarget = entry->target;
            convBtb->update(term.pc, term.target, term.kind);
        }
        return true;
    }
    if (term.taken) {
        // The BPU does not know this is a branch: it runs ahead down
        // the fall-through path until decode discovers the branch, then
        // refills reactively like the other decoupled designs.
        reactiveStall(term.pc, now, cFdipBtbMisses);
        convBtb->update(term.pc, term.target, term.kind);
        return false;
    }
    // Fall-through fetch is accidentally correct for a not-taken
    // conditional; install the entry and keep running ahead.
    convBtb->update(term.pc, term.target, term.kind);
    return true;
}

void
DecoupledFetchEngine::bpuStep(Cycle now)
{
    hFtqOcc.sample(ftq.size());
    if (now < bpuStalledUntil) {
        cBpuStallCycles.add();
        return;
    }
    if (ftq.full())
        return;

    Addr bb_start = entryAt(bpuIdx).pc;
    std::uint64_t term_idx = scanTerminator(bpuIdx);
    const TraceEntry term = entryAt(term_idx);

    targetMispredict = false;
    wrongPathTarget = kInvalidAddr;
    bool ok;
    switch (kind) {
      case Kind::Boomerang:
        ok = boomerangLookup(bb_start, term_idx, now);
        break;
      case Kind::Shotgun:
        ok = shotgunLookup(bb_start, term_idx, now);
        break;
      default:
        ok = fdipLookup(bb_start, term_idx, now);
        break;
    }
    if (!ok)
        return; // BPU stalled on a reactive prefill

    // Direction prediction / RAS at the BPU.  On a misprediction the
    // BPU stalls for the redirect penalty: everything it would have
    // discovered in that window is wrong-path work.  FTQ contents are
    // all older than the branch and legitimately survive the squash -
    // that latency-hiding is the decoupled frontend's genuine benefit.
    bool mispredicted = targetMispredict;
    if (targetMispredict)
        cBpuTargetMispredicts.add();
    if (term.isBranch()) {
        if (term.kind == InstrKind::CondBranch) {
            bool pred = tage.predict(term.pc);
            tage.update(term.pc, term.taken);
            if (pred != term.taken) {
                cBpuMispredicts.add();
                mispredicted = true;
            }
        } else {
            tage.updateHistoryUnconditional(term.pc);
            if (term.kind == InstrKind::Call ||
                term.kind == InstrKind::IndirectCall) {
                ras.push(term.pc + term.len);
            } else if (term.kind == InstrKind::Return) {
                Addr predicted = ras.pop();
                if (predicted != term.target) {
                    cBpuRasMispredicts.add();
                    mispredicted = true;
                }
            }
        }
    }

    ftq.push(frontend::FtqEntry{bpuIdx, term_idx + 1, bb_start});
    cFtqPushes.add();

    // Instruction prefetch from the FTQ contents: this is Boomerang's
    // L1i prefetcher.  Shotgun deliberately does NOT get this path -
    // its instruction prefetching is driven by the U-BTB footprints
    // (Section III), which is exactly why footprint misses hurt it.
    if (!cfg.perfectL1i && kind == Kind::Boomerang) {
        Addr first = blockAlign(bb_start);
        Addr last = blockAlign(term.pc + term.len - 1);
        for (Addr b = first; b <= last; b += kBlockBytes)
            l1i.prefetch(b, now);
    }
    // FDIP routes the same FTQ contents through its candidate queue
    // (bounded, deduplicated, port-limited) instead of prefetching
    // unconditionally — that queue discipline is the design under test.
    if (!cfg.perfectL1i && kind == Kind::Fdip) {
        fdip->onFtqAppend(blockAlign(bb_start),
                          blockAlign(term.pc + term.len - 1), ftq.size());
    }
    bpuIdx = term_idx + 1;

    if (mispredicted) {
        bpuStalledUntil = now + cfg.execRedirectPenalty;
        cSquashes.add();
        // Wrong-path exploration until the redirect: the BPU's prefetch
        // machinery runs down the bogus path, wasting bandwidth and
        // polluting the cache - same cost the coupled frontend pays.
        if (!cfg.perfectL1i) {
            Addr wrong = wrongPathTarget != kInvalidAddr
                ? wrongPathTarget
                : term.pc + term.len;
            l1i.prefetch(blockAlign(wrong), now);
            l1i.prefetch(blockAlign(wrong) + kBlockBytes, now);
            cWrongPathPrefetches.add(2);
        }
    }
}

void
DecoupledFetchEngine::recordFetched(const TraceEntry &e)
{
    if (kind != Kind::Shotgun)
        return;
    Addr bn = blockNumber(e.pc);

    // Call-footprint accumulation for the innermost active call.
    if (!recStack.empty()) {
        CallRecord &top = recStack.back();
        if (bn >= top.targetBlock &&
            bn < top.targetBlock + frontend::kFootprintBlocks) {
            top.fp |= static_cast<std::uint8_t>(
                1u << (bn - top.targetBlock));
        }
    }
    // Return-footprint windows.
    for (auto &r : retRecords) {
        if (bn >= r.retBlock &&
            bn < r.retBlock + frontend::kFootprintBlocks) {
            r.fp |= static_cast<std::uint8_t>(1u << (bn - r.retBlock));
        }
        --r.remaining;
    }
    std::erase_if(retRecords, [&](RetRecord &r) {
        if (r.remaining != 0)
            return false;
        if (frontend::UBtbEntry *e2 = sgBtb.findU(r.callPc)) {
            e2->retFootprint = r.fp;
            e2->retFpValid = true;
        }
        return true;
    });

    if (e.kind == InstrKind::Call || e.kind == InstrKind::IndirectCall) {
        if (recStack.size() >= kRecStackBound)
            recStack.erase(recStack.begin());
        recStack.push_back({e.pc, blockNumber(e.target), 0});
    } else if (e.kind == InstrKind::Return && !recStack.empty()) {
        CallRecord done = recStack.back();
        recStack.pop_back();
        // Commit the call footprint to the retired-stream U-BTB entry.
        if (frontend::UBtbEntry *ce = sgBtb.findU(done.callPc)) {
            ce->callFootprint = done.fp;
            ce->callFpValid = true;
        } else {
            // The retired stream (re)installs the entry with footprints.
            auto &fresh = sgBtb.updateU(done.callPc, e.pc, InstrKind::Call,
                                        /*from_prefill=*/false);
            fresh.callFootprint = done.fp;
            fresh.callFpValid = true;
        }
        retRecords.push_back({done.callPc, blockNumber(e.target), 0, 32});
    }
}

void
DecoupledFetchEngine::fetchStep(Cycle now)
{
    hBufferOcc.sample(fetchBuffer.size());
    if (blockedOnFill) {
        if (now < fillReady) {
            cIcacheStallCycles.add();
            return;
        }
        blockedOnFill = false;
    }

    unsigned budget = cfg.fetchWidth;
    lastCycleEmptyFtq = false;
    while (budget > 0 && fetchBuffer.size() < cfg.fetchBufferEntries) {
        if (ftq.empty()) {
            if (budget == cfg.fetchWidth) {
                lastCycleEmptyFtq = true;
                cEmptyFtqStallCycles.add();
            }
            break;
        }
        frontend::FtqEntry cur = ftq.front();
        const TraceEntry e = entryAt(fetchIdx);

        Addr first = blockAlign(e.pc);
        Addr last = blockAlign(e.pc + e.len - 1);
        bool missed = false;
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
                missed = true;
                break;
            }
        }
        if (missed)
            return;

        fetchBuffer.push({e, now + cfg.frontendStages});
        recordFetched(e);
        ++fetchIdx;
        --budget;
        cFetched.add();
        if (fetchIdx >= cur.traceEnd)
            ftq.pop();
        if (e.isBranch() && e.taken)
            break;
    }

    // Trim consumed lookahead (just advances the ring's window base).
    if (fetchIdx > lookBase)
        lookBase = std::min(fetchIdx, lookEnd);
}

void
DecoupledFetchEngine::cycle(Cycle now)
{
    fetchStep(now);
    bpuStep(now);
}

void
DecoupledFetchEngine::registerInvariants(rt::InvariantRegistry &reg)
{
    // The BPU discovers contiguous basic blocks, so FTQ entries must be
    // well-formed ranges, strictly ordered and contiguous, with the
    // fetch cursor inside the head entry.
    reg.add("fe.ftq_ordering", [this] { return ftq.size(); },
            [this](Cycle) -> std::optional<std::string> {
        std::uint64_t prev_end = 0;
        bool first = true;
        for (const auto &e : ftq) {
            if (e.traceBegin >= e.traceEnd) {
                return "FTQ entry [" + std::to_string(e.traceBegin) +
                    ", " + std::to_string(e.traceEnd) + ") is empty";
            }
            if (!first && e.traceBegin != prev_end) {
                return "FTQ entry starts at " +
                    std::to_string(e.traceBegin) +
                    ", predecessor ended at " + std::to_string(prev_end);
            }
            prev_end = e.traceEnd;
            first = false;
        }
        if (!ftq.empty()) {
            const auto &head = ftq.front();
            if (fetchIdx < head.traceBegin || fetchIdx >= head.traceEnd) {
                return "fetch index " + std::to_string(fetchIdx) +
                    " outside FTQ head [" +
                    std::to_string(head.traceBegin) + ", " +
                    std::to_string(head.traceEnd) + ")";
            }
        }
        return std::nullopt;
    });

    reg.add("fe.lookahead_order",
            [this](Cycle) -> std::optional<std::string> {
        if (lookBase > fetchIdx || fetchIdx > bpuIdx) {
            return "cursor order violated: lookBase=" +
                std::to_string(lookBase) + " fetchIdx=" +
                std::to_string(fetchIdx) + " bpuIdx=" +
                std::to_string(bpuIdx);
        }
        return std::nullopt;
    });

    reg.add("fe.fetch_buffer_bound",
            [this](Cycle) -> std::optional<std::string> {
        if (fetchBuffer.size() > cfg.fetchBufferEntries) {
            return std::to_string(fetchBuffer.size()) +
                " fetch-buffer entries exceed the " +
                std::to_string(cfg.fetchBufferEntries) + "-entry bound";
        }
        return std::nullopt;
    });
}

StallReason
DecoupledFetchEngine::stallReason(Cycle now) const
{
    if (blockedOnFill && now < fillReady)
        return StallReason::ICacheMiss;
    if (lastCycleEmptyFtq)
        return StallReason::EmptyFtq;
    return StallReason::FetchPipe;
}

} // namespace dcfb::sim
