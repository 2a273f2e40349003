/**
 * @file
 * Shotgun's split BTB (Section II.B / III).
 *
 * Shotgun partitions BTB storage into:
 *  - U-BTB (1.5 K entries): unconditional branches, each carrying a
 *    *call footprint* (bit vector of useful blocks around the branch
 *    target) and a *return footprint* (blocks around the return site);
 *  - C-BTB (128 entries): conditional branches, kept tiny because it is
 *    aggressively prefilled by pre-decoding prefetched blocks;
 *  - RIB (512 entries): return instructions (targets come from the RAS).
 *
 * The paper's §III critique hinges on a U-BTB property this model
 * reproduces: BTB *prefilling* can restore an evicted entry's target
 * (it is decodable from the instruction bytes) but NOT its footprints,
 * which only the retired stream can rebuild.  Entries restored by
 * prefill therefore have invalid footprints, and Fig. 1's "footprint
 * miss ratio" counts exactly those lookups.
 */

#ifndef DCFB_FRONTEND_SHOTGUN_BTB_H
#define DCFB_FRONTEND_SHOTGUN_BTB_H

#include <cstdint>

#include "common/stats.h"
#include "common/types.h"
#include "isa/encoding.h"
#include "mem/cache.h"

namespace dcfb::frontend {

/** Footprint window: blocks [anchor, anchor + kFootprintBlocks). */
constexpr unsigned kFootprintBlocks = 8;

/** U-BTB entry. */
struct UBtbEntry
{
    Addr target = kInvalidAddr;
    isa::InstrKind kind = isa::InstrKind::Jump;
    std::uint8_t callFootprint = 0; //!< blocks around the target
    bool callFpValid = false;
    std::uint8_t retFootprint = 0;  //!< blocks around the return site
    bool retFpValid = false;
};

/** C-BTB entry. */
struct CBtbEntry
{
    Addr target = kInvalidAddr;
};

/** RIB entry: presence identifies the PC as a return. */
struct RibEntry
{};

/** Shotgun BTB sizing (per the original proposal). */
struct ShotgunBtbConfig
{
    unsigned ubtbEntries = 1536; //!< 256 sets x 6 ways
    unsigned ubtbAssoc = 6;
    unsigned cbtbEntries = 128;
    unsigned cbtbAssoc = 4;
    unsigned ribEntries = 512;
    unsigned ribAssoc = 4;
};

/**
 * The three-part Shotgun BTB.
 */
class ShotgunBtb
{
  public:
    explicit ShotgunBtb(const ShotgunBtbConfig &config = ShotgunBtbConfig{})
        : ubtb(config.ubtbEntries / config.ubtbAssoc, config.ubtbAssoc),
          cbtb(config.cbtbEntries / config.cbtbAssoc, config.cbtbAssoc),
          rib(config.ribEntries / config.ribAssoc, config.ribAssoc)
    {}

    /** U-BTB lookup for the unconditional branch at @p pc. */
    UBtbEntry *
    lookupU(Addr pc)
    {
        statSet.add("ubtb_lookups");
        if (auto *line = ubtb.lookup(key(pc))) {
            statSet.add("ubtb_hits");
            if (!line->meta.callFpValid)
                statSet.add("ubtb_footprint_misses");
            return &line->meta;
        }
        statSet.add("ubtb_misses");
        statSet.add("ubtb_footprint_misses");
        return nullptr;
    }

    /** C-BTB lookup for the conditional branch at @p pc. */
    const CBtbEntry *
    lookupC(Addr pc)
    {
        statSet.add("cbtb_lookups");
        if (auto *line = cbtb.lookup(key(pc))) {
            statSet.add("cbtb_hits");
            return &line->meta;
        }
        statSet.add("cbtb_misses");
        return nullptr;
    }

    /** RIB lookup: is the instruction at @p pc a known return? */
    bool
    lookupRib(Addr pc)
    {
        statSet.add("rib_lookups");
        if (rib.lookup(key(pc))) {
            statSet.add("rib_hits");
            return true;
        }
        statSet.add("rib_misses");
        return false;
    }

    /**
     * Install/refresh a U-BTB entry.  @p from_prefill marks entries
     * restored by pre-decoding: their footprints stay invalid until the
     * retired stream rebuilds them.
     */
    UBtbEntry &
    updateU(Addr pc, Addr target, isa::InstrKind kind, bool from_prefill)
    {
        UBtbEntry fresh;
        fresh.target = target;
        fresh.kind = kind;
        auto t = ubtb.touchOrInsert(key(pc), fresh);
        if (t.hit) {
            t.line->meta.target = target;
            t.line->meta.kind = kind;
        } else if (from_prefill) {
            statSet.add("ubtb_prefill_installs");
        }
        return t.line->meta;
    }

    void
    updateC(Addr pc, Addr target)
    {
        cbtb.touchOrInsert(key(pc), CBtbEntry{target}).line->meta.target =
            target;
    }

    void
    updateRib(Addr pc)
    {
        rib.touchOrInsert(key(pc), RibEntry{});
    }

    /** Stat-free mutable U-BTB access (footprint construction paths;
     *  these are retired-stream updates, not BPU lookups, so they must
     *  not perturb the Fig. 1 lookup/miss accounting). */
    UBtbEntry *
    findU(Addr pc)
    {
        auto *line = ubtb.lookup(key(pc), /*touch=*/false);
        return line ? &line->meta : nullptr;
    }

    /** Presence probes without stats (tests). */
    bool containsU(Addr pc) const { return ubtb.lookup(key(pc)) != nullptr; }
    bool containsC(Addr pc) const { return cbtb.lookup(key(pc)) != nullptr; }
    bool containsRib(Addr pc) const { return rib.lookup(key(pc)) != nullptr; }

    const StatSet &stats() const { return statSet; }
    StatSet &stats() { return statSet; }

  private:
    static Addr key(Addr pc) { return pc << kBlockShift; }

    mem::SetAssocCache<UBtbEntry> ubtb;
    mem::SetAssocCache<CBtbEntry> cbtb;
    mem::SetAssocCache<RibEntry> rib;
    StatSet statSet;
};

} // namespace dcfb::frontend

#endif // DCFB_FRONTEND_SHOTGUN_BTB_H
