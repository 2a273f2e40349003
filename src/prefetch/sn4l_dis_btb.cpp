#include "prefetch/sn4l_dis_btb.h"

#include <algorithm>

#include "rt/faults.h"
#include "rt/invariants.h"

namespace dcfb::prefetch {

Sn4lDisBtb::Sn4lDisBtb(mem::L1iCache &l1i_,
                       const isa::Predecoder &predecoder,
                       frontend::Btb *btb_, const Sn4lDisBtbConfig &config)
    : l1i(l1i_), pd(predecoder), btb(btb_), cfg(config),
      seq(config.seqTableEntries), dis(config.disTable),
      rluFilter(config.rluEntries),
      btbPb(config.btbPbEntries, config.btbPbAssoc),
      seqQueue(config.queueEntries), disQueue(config.queueEntries),
      rluQueue(config.queueEntries)
{
    cLocalStatusHits = statReg.counter("local_status_hits");
    cLocalStatusFills = statReg.counter("local_status_fills");
    cSeqTableReads = statReg.counter("seqtable_reads");
    cSn4lFiltered = statReg.counter("sn4l_filtered");
    cSn4lCandidates = statReg.counter("sn4l_candidates");
    cRluFiltered = statReg.counter("rlu_filtered");
    cIssued = statReg.counter("issued");
    hChainDepth = statReg.histogram("chain_depth");
    hRluQueueOcc = statReg.histogram("rluq_occ");
    cSeqOverflow = statReg.lazyCounter("seqqueue_overflow");
    cDisOverflow = statReg.lazyCounter("disqueue_overflow");
    cRluOverflow = statReg.lazyCounter("rluqueue_overflow");
    cMissStatusOff = statReg.lazyCounter("miss_with_status_off");
    cDisRecorded = statReg.lazyCounter("dis_recorded");
    cDisNotBranch = statReg.lazyCounter("dis_replay_not_branch");
    cDisNoTarget = statReg.lazyCounter("dis_replay_no_target");
    cDisCandidates = statReg.lazyCounter("dis_candidates");
    cPrefillNoFootprint = statReg.lazyCounter("btb_prefill_no_footprint");
    cPrefillBlocks = statReg.lazyCounter("btb_prefill_blocks");
}

std::string
Sn4lDisBtb::name() const
{
    std::string n;
    if (cfg.seqDepth > 0)
        n = cfg.selective ? "SN4L" : "N4L";
    if (cfg.enableDis)
        n += n.empty() ? "Dis" : "+Dis";
    if (cfg.enableBtbPrefetch)
        n += "+BTB";
    return n;
}

std::uint64_t
Sn4lDisBtb::storageBits() const
{
    // SeqTable + DisTable + RLU + three 16-entry queues (block address +
    // 2-bit depth each) + BTB prefetch buffer + the 5 per-L1i-line bits
    // (4-bit local status + 1-bit prefetch flag) over 512 lines.
    std::uint64_t bits = seq.storageBits() + dis.storageBits() +
        rluFilter.storageBits() + 3ull * cfg.queueEntries * 54;
    if (cfg.enableBtbPrefetch)
        bits += btbPb.storageBits();
    bits += 512 * 5;
    return bits;
}

void
Sn4lDisBtb::pushTrigger(Addr block_addr, unsigned depth)
{
    if (depth >= cfg.chainDepthLimit)
        return;
    if (injector && injector->forceBackpressure())
        return; // injected back-pressure: the trigger is rejected
    if (!seqQueue.push({block_addr, depth}))
        cSeqOverflow.add();
    if (cfg.enableDis && !disQueue.push({block_addr, depth}))
        cDisOverflow.add();
}

void
Sn4lDisBtb::emitCandidate(Addr block_addr, unsigned depth)
{
    hChainDepth.sample(depth);
    if (injector && injector->forceBackpressure())
        return; // injected back-pressure: the candidate is rejected
    if (!rluQueue.push({block_addr, depth}))
        cRluOverflow.add();
}

void
Sn4lDisBtb::onDemandAccess(Addr block_addr, bool hit)
{
    (void)hit;
    // The demand stream counts as a lookup for RLU purposes, and every
    // demanded block starts a fresh depth-0 chain.
    rluFilter.touch(block_addr);
    pushTrigger(block_addr, 0);
}

void
Sn4lDisBtb::onDemandMiss(Addr block_addr, bool sequential)
{
    // SN4L metadata: a missed block would have been a useful prefetch.
    if (cfg.selective) {
        if (!seq.get(block_addr))
            cMissStatusOff.add(); // filter mispredicted
        seq.set(block_addr, true);
    }

    // Dis recording: decode the last two demanded instructions; if one
    // is a taken branch that landed in the missed block, record its
    // offset in the DisTable entry of the *branch's* block.
    if (!cfg.enableDis || sequential)
        return;
    for (int i = 0; i < 2; ++i) {
        if (!haveInstr[i])
            continue;
        const FetchedInstr &instr = lastInstr[i];
        if (!isa::isBranch(instr.kind) || !instr.taken)
            continue;
        if (!sameBlock(instr.target, block_addr))
            continue;
        std::uint8_t offset = dis.config().byteOffsets
            ? static_cast<std::uint8_t>(blockOffset(instr.pc))
            : static_cast<std::uint8_t>(instrSlot(instr.pc));
        dis.record(blockAlign(instr.pc), offset);
        cDisRecorded.add();
        break;
    }
}

void
Sn4lDisBtb::onFill(Addr block_addr, bool was_prefetch,
                   const mem::BranchFootprint *bf)
{
    (void)bf;
    (void)was_prefetch;
    // Copy the SeqTable status of the four subsequent blocks into the
    // line's local prefetch status (Section V.A, "Decreasing SeqTable
    // lookups").
    if (auto *meta = l1i.lineMeta(block_addr)) {
        meta->localStatus = seq.statusOfNextFour(block_addr);
        cLocalStatusFills.add();
    }
}

void
Sn4lDisBtb::onEvict(Addr block_addr, bool was_prefetch, bool demanded)
{
    if (cfg.selective && was_prefetch && !demanded)
        seq.set(block_addr, false);
}

void
Sn4lDisBtb::onPrefetchUsed(Addr block_addr)
{
    if (cfg.selective)
        seq.set(block_addr, true);
}

void
Sn4lDisBtb::onFetchInstr(const FetchedInstr &instr, Cycle now)
{
    (void)now;
    lastInstr[1] = lastInstr[0];
    haveInstr[1] = haveInstr[0];
    lastInstr[0] = instr;
    haveInstr[0] = true;
}

void
Sn4lDisBtb::processSeq(const Trigger &t)
{
    if (cfg.seqDepth == 0)
        return; // Dis-only ablation

    // SN1L beyond a discontinuity region (depth > 0) trades accuracy for
    // the timeliness the chain already provides (Section V.B).
    unsigned depth_limit =
        (t.depth > 0 && cfg.sn1lTails) ? 1 : cfg.seqDepth;
    // Read the status bits; when the block is resident this uses the
    // 4-bit local prefetch status, saving SeqTable reads.
    std::uint8_t status;
    if (auto *meta = l1i.lineMeta(t.blockAddr)) {
        status = meta->localStatus;
        cLocalStatusHits.add();
    } else {
        status = seq.statusOfNextFour(t.blockAddr);
        cSeqTableReads.add();
    }
    for (unsigned i = 1; i <= depth_limit; ++i) {
        bool useful = !cfg.selective || (status >> (i - 1)) & 1;
        if (!useful) {
            cSn4lFiltered.add();
            continue;
        }
        emitCandidate(t.blockAddr + Addr{i} * kBlockBytes, t.depth + 1);
        cSn4lCandidates.add();
    }
}

void
Sn4lDisBtb::processDis(const Trigger &t, Cycle now)
{
    (void)now;
    // Section V.C: the DisQueue head's block goes to the shared pre-
    // decoder, which extracts all its branches for the BTB prefetch
    // buffer while checking the DisTable offset below.
    if (cfg.enableBtbPrefetch)
        prefillBtb(t.blockAddr);
    auto offset = dis.lookup(t.blockAddr);
    if (!offset)
        return;
    unsigned byte_offset = dis.config().byteOffsets
        ? *offset
        : *offset * kInstrBytes;
    isa::PredecodedBranch br;
    if (!pd.decodeBranchAt(t.blockAddr, byte_offset, br)) {
        // Stale or aliased entry: the instruction there is not a branch.
        cDisNotBranch.add();
        return;
    }
    Addr target = kInvalidAddr;
    if (br.hasTarget) {
        target = br.target;
    } else if (btb) {
        // Indirect branch: consult the BTB (Section V.B "Replaying").
        if (const auto *e = btb->lookup(br.pc))
            target = e->target;
    }
    if (target == kInvalidAddr) {
        cDisNoTarget.add();
        return;
    }
    emitCandidate(blockAlign(target), t.depth + 1);
    cDisCandidates.add();
}

void
Sn4lDisBtb::prefillBtb(Addr block_addr)
{
    if (pd.isVariableLength()) {
        // VL-ISA: the pre-decoder needs the branch footprint fetched
        // with the block from the DV-LLC.
        const auto *bf = l1i.footprintFor(block_addr);
        if (!bf) {
            cPrefillNoFootprint.add();
            return;
        }
        auto branches = pd.predecodeWithFootprint(block_addr, bf->offsets);
        if (!branches.empty()) {
            btbPb.insertBlock(block_addr, branches);
            cPrefillBlocks.add();
        }
        return;
    }
    // FL-ISA hot path: a zero-copy span over the pre-decoder's block
    // cache (no per-call vector).
    auto branches = pd.predecodeBlockSpan(block_addr);
    if (!branches.empty()) {
        btbPb.insertBlock(block_addr, branches);
        cPrefillBlocks.add();
    }
}

void
Sn4lDisBtb::processRluQueue(Cycle now)
{
    // drainPerCycle bounds *cache lookups* (the two L1i ports); RLU
    // checks are single-cycle register compares and candidates filtered
    // by the RLU do not consume a port - that is the point of the RLU.
    hRluQueueOcc.sample(rluQueue.size());
    unsigned budget = cfg.drainPerCycle;
    while (budget > 0 && !rluQueue.empty()) {
        Trigger t = rluQueue.front();
        rluQueue.pop();
        if (rluFilter.contains(t.blockAddr)) {
            cRluFiltered.add();
            continue;
        }
        --budget;
        rluFilter.touch(t.blockAddr);
        // RLU miss: this block is a fresh trigger for further chains,
        // and the candidate proceeds to the cache lookup.
        if (cfg.proactive)
            pushTrigger(t.blockAddr, t.depth);
        auto outcome = l1i.prefetch(t.blockAddr, now);
        if (outcome == mem::L1iCache::PfOutcome::Issued)
            cIssued.add();
        // In non-proactive configurations the candidate never reaches
        // the DisQueue, so the RLU-miss path feeds the pre-decoder
        // directly (Section V.C: blocks missed in the RLU are sent to
        // the pre-decoder).
        if (cfg.enableBtbPrefetch && !cfg.proactive)
            prefillBtb(t.blockAddr);
    }
}

void
Sn4lDisBtb::registerInvariants(rt::InvariantRegistry &reg)
{
    // Both checks only walk queue entries, so they are gated on total
    // queue occupancy: drained queues make a sweep cost three size
    // reads, not three queue walks.
    auto queue_occupancy = [this] {
        return seqQueue.size() + disQueue.size() + rluQueue.size();
    };

    reg.add("pf.queue_bounds", queue_occupancy,
            [this](Cycle) -> std::optional<std::string> {
        if (seqQueue.size() > cfg.queueEntries ||
            disQueue.size() > cfg.queueEntries ||
            rluQueue.size() > cfg.queueEntries) {
            return "queue occupancy seq=" +
                std::to_string(seqQueue.size()) + " dis=" +
                std::to_string(disQueue.size()) + " rlu=" +
                std::to_string(rluQueue.size()) + " exceeds " +
                std::to_string(cfg.queueEntries) + " entries";
        }
        return std::nullopt;
    });

    // Trigger queues only accept depth < limit; candidates sit one step
    // deeper, so RLUQueue entries may reach exactly the limit.
    reg.add("pf.chain_depth", queue_occupancy,
            [this](Cycle) -> std::optional<std::string> {
        for (const auto &t : seqQueue) {
            if (t.depth >= cfg.chainDepthLimit) {
                return "SeqQueue trigger at depth " +
                    std::to_string(t.depth) + " >= limit " +
                    std::to_string(cfg.chainDepthLimit);
            }
        }
        for (const auto &t : disQueue) {
            if (t.depth >= cfg.chainDepthLimit) {
                return "DisQueue trigger at depth " +
                    std::to_string(t.depth) + " >= limit " +
                    std::to_string(cfg.chainDepthLimit);
            }
        }
        for (const auto &t : rluQueue) {
            if (t.depth > cfg.chainDepthLimit) {
                return "RLUQueue candidate at depth " +
                    std::to_string(t.depth) + " > limit " +
                    std::to_string(cfg.chainDepthLimit);
            }
        }
        return std::nullopt;
    });
}

void
Sn4lDisBtb::tick(Cycle now)
{
    // Two SeqQueue and two DisQueue triggers per cycle (metadata reads
    // against small direct-mapped tables), plus the RLU queue bounded by
    // the two L1i lookup ports.
    for (int i = 0; i < 2 && !seqQueue.empty(); ++i) {
        Trigger t = seqQueue.front();
        seqQueue.pop();
        processSeq(t);
    }
    for (int i = 0; i < 2 && cfg.enableDis && !disQueue.empty(); ++i) {
        Trigger t = disQueue.front();
        disQueue.pop();
        processDis(t, now);
    }
    processRluQueue(now);
}

} // namespace dcfb::prefetch
