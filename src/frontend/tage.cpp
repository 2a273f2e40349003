#include "frontend/tage.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace dcfb::frontend {

Tage::Tage(const TageConfig &config, exec::Arena *arena)
    : cfg(config), base(std::size_t{1} << config.baseEntriesLog2,
                        SatCounter(2, 2), exec::ArenaAlloc<SatCounter>(arena)),
      history(exec::ArenaAlloc<std::uint8_t>(arena)), useAltOnNa(4, 8),
      cPredictions(statReg.lazyCounter("tage_predictions")),
      cCorrect(statReg.lazyCounter("tage_correct")),
      cMispredict(statReg.lazyCounter("tage_mispredict")),
      cAllocations(statReg.lazyCounter("tage_allocations"))
{
    assert(cfg.numTables >= 2);
    assert(cfg.numTables <= kMaxTageTables);
    tables.resize(cfg.numTables,
                  exec::ArenaVector<TaggedEntry>(
                      exec::ArenaAlloc<TaggedEntry>(arena)));
    histLengths.resize(cfg.numTables);
    foldedIndex.resize(cfg.numTables);
    foldedTag0.resize(cfg.numTables);
    foldedTag1.resize(cfg.numTables);

    double ratio = std::pow(
        static_cast<double>(cfg.maxHistory) / cfg.minHistory,
        1.0 / (cfg.numTables - 1));
    double len = cfg.minHistory;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        histLengths[t] = static_cast<unsigned>(len + 0.5);
        len *= ratio;
        tables[t].assign(std::size_t{1} << cfg.taggedEntriesLog2,
                         TaggedEntry{0, SatCounter(cfg.counterBits,
                                                   1u << (cfg.counterBits - 1)),
                                     0});
        foldedIndex[t] =
            FoldedHistory::of(histLengths[t], cfg.taggedEntriesLog2);
        foldedTag0[t] = FoldedHistory::of(histLengths[t], cfg.tagBits);
        foldedTag1[t] = FoldedHistory::of(histLengths[t], cfg.tagBits - 1);
    }
    // Power-of-two ring so a push is one index decrement + mask instead
    // of shifting every element.
    std::size_t ring = std::bit_ceil(std::size_t{cfg.maxHistory} + 1);
    history.assign(ring, 0);
    histMask = ring - 1;
    histHead = 0;
}

std::uint32_t
Tage::baseIndex(Addr pc) const
{
    return static_cast<std::uint32_t>((pc >> 2) &
                                      (base.size() - 1));
}

std::uint32_t
Tage::taggedIndex(Addr pc, unsigned table) const
{
    std::uint32_t p = static_cast<std::uint32_t>(pc >> 2);
    std::uint32_t idx = p ^ (p >> (cfg.taggedEntriesLog2 - table)) ^
        foldedIndex[table].value;
    return idx & ((1u << cfg.taggedEntriesLog2) - 1);
}

std::uint16_t
Tage::taggedTag(Addr pc, unsigned table) const
{
    std::uint32_t p = static_cast<std::uint32_t>(pc >> 2);
    std::uint32_t tag = p ^ foldedTag0[table].value ^
        (foldedTag1[table].value << 1);
    return static_cast<std::uint16_t>(tag & ((1u << cfg.tagBits) - 1));
}

void
Tage::shiftHistory(bool bit)
{
    // The ring keeps the newest bit at histHead; folding reads the bit
    // that leaves each component's window before the push.
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        bool out = historyBit(histLengths[t] - 1);
        foldedIndex[t].update(bit, out);
        foldedTag0[t].update(bit, out);
        foldedTag1[t].update(bit, out);
    }
    histHead = (histHead - 1) & histMask;
    history[histHead] = bit ? 1 : 0;
    lastFresh = false;
}

Tage::Lookup
Tage::lookup(Addr pc)
{
    Lookup lk;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        lk.indices[t] = taggedIndex(pc, t);
        lk.tags[t] = taggedTag(pc, t);
    }
    // Longest-history matching component provides; next match is altpred.
    for (int t = static_cast<int>(cfg.numTables) - 1; t >= 0; --t) {
        const auto &e = tables[t][lk.indices[t]];
        if (e.tag == lk.tags[t]) {
            if (lk.provider < 0) {
                lk.provider = t;
                lk.providerPred = e.ctr.taken();
            } else if (lk.alt < 0) {
                lk.alt = t;
                lk.altPred = e.ctr.taken();
                break;
            }
        }
    }
    bool base_pred = base[baseIndex(pc)].taken();
    if (lk.alt < 0)
        lk.altPred = base_pred;
    if (lk.provider >= 0) {
        const auto &e = tables[lk.provider][lk.indices[lk.provider]];
        bool newly_alloc = e.useful == 0 && e.ctr.weak();
        lk.pred = (newly_alloc && useAltOnNa.taken()) ? lk.altPred
                                                      : lk.providerPred;
    } else {
        lk.pred = base_pred;
    }
    return lk;
}

bool
Tage::predict(Addr pc)
{
    last = lookup(pc);
    lastPc = pc;
    lastFresh = true;
    cPredictions.add();
    return last.pred;
}

void
Tage::update(Addr pc, bool taken)
{
    // Reuse predict()'s lookup when it was for this PC and nothing has
    // since moved the history or written a table; otherwise recompute.
    if (!lastFresh || lastPc != pc)
        last = lookup(pc);
    const Lookup &lk = last;
    if (lk.pred == taken)
        cCorrect.add();
    else
        cMispredict.add();

    if (lk.provider >= 0) {
        auto &e = tables[lk.provider][lk.indices[lk.provider]];
        bool newly_alloc = e.useful == 0 && e.ctr.weak();
        if (newly_alloc && lk.providerPred != lk.altPred)
            useAltOnNa.update(lk.altPred == taken);
        e.ctr.update(taken);
        if (lk.providerPred != lk.altPred) {
            if (lk.providerPred == taken) {
                if (e.useful < ((1u << cfg.usefulBits) - 1))
                    ++e.useful;
            } else if (e.useful > 0) {
                --e.useful;
            }
        }
    } else {
        base[baseIndex(pc)].update(taken);
    }

    // Allocate on misprediction into a longer-history component.
    if (lk.pred != taken && lk.provider <
        static_cast<int>(cfg.numTables) - 1) {
        unsigned start = static_cast<unsigned>(lk.provider + 1);
        // Pseudo-random start to avoid ping-pong allocation.
        allocSeed = allocSeed * 6364136223846793005ull + 1442695040888963407ull;
        if (start < cfg.numTables - 1 && (allocSeed >> 60) & 1)
            ++start;
        bool allocated = false;
        for (unsigned t = start; t < cfg.numTables; ++t) {
            auto &e = tables[t][lk.indices[t]];
            if (e.useful == 0) {
                e.tag = lk.tags[t];
                e.ctr = SatCounter(cfg.counterBits,
                                   taken ? (1u << (cfg.counterBits - 1))
                                         : (1u << (cfg.counterBits - 1)) - 1);
                allocated = true;
                cAllocations.add();
                break;
            }
        }
        if (!allocated) {
            // Decay usefulness on the candidate entries.
            for (unsigned t = start; t < cfg.numTables; ++t) {
                auto &e = tables[t][lk.indices[t]];
                if (e.useful > 0)
                    --e.useful;
            }
        }
    }

    shiftHistory(taken);
}

Tage::WarmState
Tage::saveWarm() const
{
    WarmState s;
    s.base.assign(base.begin(), base.end());
    for (const auto &table : tables)
        s.tables.emplace_back(table.begin(), table.end());
    s.foldedIndex = foldedIndex;
    s.foldedTag0 = foldedTag0;
    s.foldedTag1 = foldedTag1;
    s.history.assign(history.begin(), history.end());
    s.histHead = histHead;
    s.useAltOnNa = useAltOnNa;
    s.allocSeed = allocSeed;
    s.counters = statReg.counters();
    return s;
}

void
Tage::restoreWarm(const WarmState &s)
{
    assert(s.base.size() == base.size() && s.tables.size() == tables.size());
    std::copy(s.base.begin(), s.base.end(), base.begin());
    for (std::size_t t = 0; t < tables.size(); ++t)
        std::copy(s.tables[t].begin(), s.tables[t].end(), tables[t].begin());
    foldedIndex = s.foldedIndex;
    foldedTag0 = s.foldedTag0;
    foldedTag1 = s.foldedTag1;
    std::copy(s.history.begin(), s.history.end(), history.begin());
    histHead = s.histHead;
    useAltOnNa = s.useAltOnNa;
    allocSeed = s.allocSeed;
    lastFresh = false;
    for (const auto &[name, value] : s.counters)
        statReg.counter(name).add(value);
}

void
Tage::updateHistoryUnconditional(Addr pc)
{
    // Unconditional transfers inject a path bit so that history reflects
    // call/return structure.
    shiftHistory((pc >> 4) & 1);
}

} // namespace dcfb::frontend
