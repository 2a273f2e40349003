/**
 * @file
 * Micro BTB: a large, slow last-level BTB backing the conventional BTB.
 *
 * Models the competitor design of "Micro BTB: A High Performance and
 * Lightweight Last-Level Branch Target Buffer for Servers" at the level
 * this simulator cares about: when the 2 K-entry main BTB misses, the
 * frontend probes a much larger second-level table; a hit there promotes
 * the entry into the main BTB for a small fill latency instead of paying
 * the full decode-time redirect.  Misses in both levels behave exactly
 * like the baseline BTB miss.
 *
 * Unlike mem::SetAssocCache (which asserts power-of-two set counts and
 * keys by block address), this table indexes sets by PC modulo the set
 * count, so non-power-of-two geometries are legal — the differential
 * tests exercise them.  Replacement is true LRU with the same victim
 * rules as SetAssocCache: first invalid way, else the strictly lowest
 * last-use age (earlier way wins ties).
 */

#ifndef DCFB_FRONTEND_MICRO_BTB_H
#define DCFB_FRONTEND_MICRO_BTB_H

#include <cstdint>

#include "common/types.h"
#include "exec/arena.h"
#include "isa/encoding.h"
#include "obs/registry.h"

namespace dcfb::frontend {

/** Micro-BTB geometry and promote timing. */
struct MicroBtbConfig
{
    unsigned entries = 16 * 1024; //!< total entries (sets need not be pow2)
    unsigned assoc = 4;           //!< ways per set
    Cycle fillLatency = 2;        //!< promote-into-main-BTB bubble
};

/** One micro-BTB entry's payload. */
struct MicroBtbEntry
{
    Addr target = kInvalidAddr;
    isa::InstrKind kind = isa::InstrKind::CondBranch;
};

/**
 * Set-associative last-level BTB keyed by branch PC, modulo-indexed.
 */
class MicroBtb
{
  public:
    /** A displaced entry (differential tests check evict ordering). */
    struct Evicted
    {
        bool valid = false;
        Addr pc = kInvalidAddr;
    };

    explicit MicroBtb(const MicroBtbConfig &config,
                      exec::Arena *arena = nullptr)
        : cfg(config), numSets(config.entries / config.assoc),
          ways(std::size_t{numSets} * config.assoc,
               exec::ArenaAlloc<Way>(arena)),
          cProbes(statReg.lazyCounter("mbtb_probes")),
          cHits(statReg.lazyCounter("mbtb_hits")),
          cMisses(statReg.lazyCounter("mbtb_misses")),
          cFills(statReg.lazyCounter("mbtb_fills")),
          cEvicts(statReg.lazyCounter("mbtb_evicts")),
          cPromotes(statReg.lazyCounter("mbtb_promotes")),
          cPromoteStallCycles(statReg.lazyCounter("mbtb_promote_stall_cycles"))
    {}

    /** Arena bytes the configured geometry wants. */
    static std::size_t
    arenaBytes(const MicroBtbConfig &config)
    {
        return std::size_t{config.entries / config.assoc} * config.assoc *
            sizeof(Way);
    }

    /** Probe for the branch at @p pc; nullptr on miss.  Counts stats and
     *  refreshes the hit way's LRU age. */
    const MicroBtbEntry *
    probe(Addr pc)
    {
        cProbes.add();
        Way *w = find(pc, /*touch=*/true);
        if (w) {
            cHits.add();
            return &w->entry;
        }
        cMisses.add();
        return nullptr;
    }

    /** Presence probe without statistics or LRU movement. */
    bool contains(Addr pc) { return find(pc, /*touch=*/false) != nullptr; }

    /** Install or update the branch at @p pc; returns the victim. */
    Evicted
    fill(Addr pc, Addr target, isa::InstrKind kind)
    {
        cFills.add();
        if (Way *w = find(pc, /*touch=*/true)) {
            w->entry.target = target;
            w->entry.kind = kind;
            return {};
        }
        Way *victim = nullptr;
        std::size_t base = std::size_t{setIndex(pc)} * cfg.assoc;
        for (unsigned i = 0; i < cfg.assoc; ++i) {
            Way &w = ways[base + i];
            if (!w.valid) {
                victim = &w;
                break;
            }
            if (!victim || w.lastUse < victim->lastUse)
                victim = &w;
        }
        Evicted ev;
        if (victim->valid) {
            ev.valid = true;
            ev.pc = victim->pc;
            cEvicts.add();
        }
        victim->valid = true;
        victim->pc = pc;
        victim->lastUse = ++tick;
        victim->entry.target = target;
        victim->entry.kind = kind;
        return ev;
    }

    /** Account one promote of a hit entry into the main BTB. */
    void
    notePromote()
    {
        cPromotes.add();
        cPromoteStallCycles.add(cfg.fillLatency);
    }

    Cycle promoteLatency() const { return cfg.fillLatency; }

    /** Metadata storage in bits (Table II-style audit): partial tag,
     *  target and kind per entry. */
    std::uint64_t
    storageBits() const
    {
        return std::uint64_t{cfg.entries} * (16 + 46 + 2);
    }

    unsigned sets() const { return numSets; }
    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }

  private:
    struct Way
    {
        Addr pc = kInvalidAddr;
        std::uint64_t lastUse = 0;
        MicroBtbEntry entry{};
        bool valid = false;
    };

    unsigned
    setIndex(Addr pc) const
    {
        // Modulo (not mask) indexing: the set count may be any value.
        return static_cast<unsigned>(pc % numSets);
    }

    Way *
    find(Addr pc, bool touch)
    {
        std::size_t base = std::size_t{setIndex(pc)} * cfg.assoc;
        for (unsigned i = 0; i < cfg.assoc; ++i) {
            Way &w = ways[base + i];
            if (w.valid && w.pc == pc) {
                if (touch)
                    w.lastUse = ++tick;
                return &w;
            }
        }
        return nullptr;
    }

    MicroBtbConfig cfg;
    unsigned numSets;
    exec::ArenaVector<Way> ways;
    std::uint64_t tick = 0;

    obs::StatRegistry statReg;
    obs::LazyCounter cProbes, cHits, cMisses, cFills, cEvicts, cPromotes,
        cPromoteStallCycles;
};

} // namespace dcfb::frontend

#endif // DCFB_FRONTEND_MICRO_BTB_H
