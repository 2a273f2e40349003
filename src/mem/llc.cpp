#include "mem/llc.h"

#include <algorithm>
#include <cassert>

namespace dcfb::mem {

Llc::Llc(const LlcConfig &config, noc::MeshModel &mesh_, MemoryModel &mem_,
         unsigned core_tile, exec::Arena *arena)
    : cfg(config), mesh(mesh_), memory(mem_), coreTile(core_tile),
      array(SetAssocCache<LineMeta>::fromBytes(config.capacityBytes,
                                               config.assoc, arena)),
      bfSets(config.dvllc ? array.sets() : 0, exec::ArenaAlloc<BfSet>(arena)),
      cAccesses(statReg.lazyCounter("llc_accesses")),
      cInstrAccesses(statReg.lazyCounter("llc_instr_accesses")),
      cDataAccesses(statReg.lazyCounter("llc_data_accesses")),
      cHits(statReg.lazyCounter("llc_hits")),
      cInstrHits(statReg.lazyCounter("llc_instr_hits")),
      cDataHits(statReg.lazyCounter("llc_data_hits")),
      cMisses(statReg.lazyCounter("llc_misses")),
      cEvictions(statReg.lazyCounter("llc_evictions")),
      cLatencySum(statReg.lazyCounter("llc_latency_sum")),
      cBfFetchAttempts(statReg.lazyCounter("bf_fetch_attempts")),
      cBfFetchHits(statReg.lazyCounter("bf_fetch_hits")),
      cBfFetchUncovered(statReg.lazyCounter("bf_fetch_uncovered")),
      cBfRecordAttempts(statReg.lazyCounter("bf_record_attempts")),
      cBfRecordNoHolder(statReg.lazyCounter("bf_record_no_holder")),
      cBfBranchesUncovered(statReg.lazyCounter("bf_branches_uncovered")),
      cBfBranchesRecorded(statReg.lazyCounter("bf_branches_recorded")),
      cBlocksDisplaced(statReg.lazyCounter("dvllc_blocks_displaced")),
      cHolderActivations(statReg.lazyCounter("dvllc_holder_activations")),
      cHolderDeactivations(
          statReg.lazyCounter("dvllc_holder_deactivations")),
      cBfReplacements(statReg.lazyCounter("dvllc_bf_replacements"))
{
    assert(core_tile < mesh.numTiles());
    assert(cfg.banks <= mesh.numTiles());
    assert(!cfg.dvllc || cfg.assoc >= 2);
}

unsigned
Llc::effectiveWays(unsigned set_index) const
{
    if (cfg.dvllc && bfSets[set_index].holder)
        return cfg.assoc - 1;
    return cfg.assoc;
}

void
Llc::updateHolderMode(unsigned set_index)
{
    if (!cfg.dvllc)
        return;
    BfSet &bfs = bfSets[set_index];
    bool has_instr = false;
    for (const auto &line : array.set(set_index)) {
        if (line.valid && line.meta.isInstruction) {
            has_instr = true;
            break;
        }
    }
    if (has_instr && !bfs.holder) {
        // The LRU way flips to BF-holder: its resident block (if any) is
        // evicted.  We model the holder as the last way of the set.
        bfs.holder = true;
        auto set = array.set(set_index);
        auto &last = set[cfg.assoc - 1];
        if (last.valid) {
            // The block resident in the would-be holder way is moved into
            // the LRU way of the remaining ways (displacing that block);
            // this keeps the just-inserted instruction block alive when
            // it happened to land in the last way.
            auto *victim = array.lruWay(set_index, cfg.assoc - 1);
            if (victim->valid)
                cBlocksDisplaced.add();
            *victim = last;
            last.valid = false;
        }
        cHolderActivations.add();
    } else if (!has_instr && bfs.holder) {
        bfs.holder = false;
        bfs.slots.clear();
        cHolderDeactivations.add();
    } else if (bfs.holder) {
        // Drop BF slots whose block left the set.
        std::erase_if(bfs.slots, [&](const BfSet::Slot &s) {
            const auto *line = array.lookup(s.blockAddr);
            return line == nullptr;
        });
    }
}

Llc::BfSet::Slot *
Llc::bfSlot(Addr block_addr, bool allocate)
{
    unsigned si = array.setIndex(block_addr);
    BfSet &bfs = bfSets[si];
    for (auto &slot : bfs.slots) {
        if (slot.blockAddr == blockAlign(block_addr)) {
            slot.lastUse = ++bfTick;
            return &slot;
        }
    }
    if (!allocate || !bfs.holder)
        return nullptr;
    if (bfs.slots.size() < cfg.bfSlotsPerSet) {
        bfs.slots.push_back({blockAlign(block_addr), {}, ++bfTick});
        return &bfs.slots.back();
    }
    // Replace the LRU slot.
    auto victim = std::min_element(
        bfs.slots.begin(), bfs.slots.end(),
        [](const BfSet::Slot &a, const BfSet::Slot &b) {
            return a.lastUse < b.lastUse;
        });
    cBfReplacements.add();
    victim->blockAddr = blockAlign(block_addr);
    victim->bf.offsets.clear();
    victim->lastUse = ++bfTick;
    return &*victim;
}

void
Llc::recordBranchOffset(Addr block_addr, std::uint8_t byte_offset)
{
    cBfRecordAttempts.add();
    if (!cfg.dvllc) {
        return;
    }
    // Footprints can only be constructed for blocks whose set is in
    // holder mode (i.e. the block is instruction-tagged and resident).
    BfSet::Slot *slot = bfSlot(block_addr, true);
    if (!slot) {
        cBfRecordNoHolder.add();
        return;
    }
    auto &offs = slot->bf.offsets;
    if (std::find(offs.begin(), offs.end(), byte_offset) != offs.end())
        return;
    if (offs.size() >= cfg.branchesPerBf) {
        cBfBranchesUncovered.add();
        return;
    }
    offs.push_back(byte_offset);
    cBfBranchesRecorded.add();
}

const BranchFootprint *
Llc::findFootprint(Addr block_addr) const
{
    if (!cfg.dvllc)
        return nullptr;
    unsigned si = array.setIndex(block_addr);
    for (const auto &slot : bfSets[si].slots) {
        if (slot.blockAddr == blockAlign(block_addr))
            return &slot.bf;
    }
    return nullptr;
}

std::size_t
Llc::bfHolderSets() const
{
    if (!cfg.dvllc)
        return 0;
    std::size_t n = 0;
    for (const auto &s : bfSets)
        n += s.holder;
    return n;
}

void
Llc::warmTouch(Addr addr, bool is_instruction)
{
    unsigned si = array.setIndex(addr);
    auto t = array.touchOrInsert(addr, LineMeta{is_instruction},
                                 cfg.dvllc ? effectiveWays(si) : 0);
    t.line->meta.isInstruction |= is_instruction;
    if (is_instruction)
        updateHolderMode(si);
}

Llc::WarmState
Llc::saveWarm() const
{
    WarmState s;
    s.lines = array.saveWarm();
    for (std::size_t i = 0; i < bfSets.size(); ++i) {
        if (bfSets[i].holder || !bfSets[i].slots.empty())
            s.bfSets.emplace_back(static_cast<std::uint32_t>(i), bfSets[i]);
    }
    s.bfTick = bfTick;
    s.counters = statReg.counters();
    return s;
}

void
Llc::restoreWarm(const WarmState &s)
{
    array.restoreWarm(s.lines);
    for (const auto &[index, set] : s.bfSets)
        bfSets[index] = set;
    bfTick = s.bfTick;
    for (const auto &[name, value] : s.counters)
        statReg.counter(name).add(value);
}

Llc::AccessResult
Llc::access(Addr addr, Cycle now, bool is_instruction, bool want_bf)
{
    AccessResult res;
    cAccesses.add();
    (is_instruction ? cInstrAccesses : cDataAccesses).add();

    unsigned bank = static_cast<unsigned>(blockNumber(addr) % cfg.banks);
    Cycle req_arrive =
        mesh.traverse(coreTile, bank, now, cfg.requestFlits);
    Cycle data_ready;

    unsigned si = array.setIndex(addr);
    auto t = array.touchOrInsert(addr, LineMeta{is_instruction},
                                 cfg.dvllc ? effectiveWays(si) : 0);
    if (t.hit) {
        res.hit = true;
        cHits.add();
        (is_instruction ? cInstrHits : cDataHits).add();
        t.line->meta.isInstruction |= is_instruction;
        data_ready = req_arrive + cfg.accessLatency;
        if (is_instruction)
            updateHolderMode(si);
    } else {
        cMisses.add();
        Cycle mem_ready =
            memory.access(addr, req_arrive + cfg.accessLatency);
        if (t.evicted.valid)
            cEvictions.add();
        updateHolderMode(si);
        data_ready = mem_ready;
    }

    if (want_bf && is_instruction && cfg.dvllc) {
        cBfFetchAttempts.add();
        if (const BranchFootprint *bf = findFootprint(addr)) {
            res.bfValid = true;
            res.bf = *bf;
            cBfFetchHits.add();
        } else {
            cBfFetchUncovered.add();
        }
    }

    res.ready = mesh.traverse(bank, coreTile, data_ready, cfg.replyFlits);
    cLatencySum.add(res.ready - now);
    return res;
}

} // namespace dcfb::mem
