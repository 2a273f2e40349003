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

#include "common/types.h"
#include "isa/encoding.h"
#include "mem/cache.h"
#include "obs/registry.h"

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
          rib(config.ribEntries / config.ribAssoc, config.ribAssoc),
          cUbtbLookups(statReg.lazyCounter("ubtb_lookups")),
          cUbtbHits(statReg.lazyCounter("ubtb_hits")),
          cUbtbMisses(statReg.lazyCounter("ubtb_misses")),
          cUbtbFootprintMisses(statReg.lazyCounter("ubtb_footprint_misses")),
          cUbtbPrefillInstalls(statReg.lazyCounter("ubtb_prefill_installs")),
          cCbtbLookups(statReg.lazyCounter("cbtb_lookups")),
          cCbtbHits(statReg.lazyCounter("cbtb_hits")),
          cCbtbMisses(statReg.lazyCounter("cbtb_misses")),
          cRibLookups(statReg.lazyCounter("rib_lookups")),
          cRibHits(statReg.lazyCounter("rib_hits")),
          cRibMisses(statReg.lazyCounter("rib_misses"))
    {}

    /** U-BTB lookup for the unconditional branch at @p pc. */
    UBtbEntry *
    lookupU(Addr pc)
    {
        cUbtbLookups.add();
        if (UBtbEntry *entry = ubtb.lookup(key(pc))) {
            cUbtbHits.add();
            if (!entry->callFpValid)
                cUbtbFootprintMisses.add();
            return entry;
        }
        cUbtbMisses.add();
        cUbtbFootprintMisses.add();
        return nullptr;
    }

    /** C-BTB lookup for the conditional branch at @p pc. */
    const CBtbEntry *
    lookupC(Addr pc)
    {
        cCbtbLookups.add();
        if (const CBtbEntry *entry = cbtb.lookup(key(pc))) {
            cCbtbHits.add();
            return entry;
        }
        cCbtbMisses.add();
        return nullptr;
    }

    /** RIB lookup: is the instruction at @p pc a known return? */
    bool
    lookupRib(Addr pc)
    {
        cRibLookups.add();
        if (rib.lookup(key(pc))) {
            cRibHits.add();
            return true;
        }
        cRibMisses.add();
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
        auto t = ubtb.touchOrAllocate(key(pc));
        UBtbEntry &entry = *t.meta;
        if (!t.hit) {
            entry = UBtbEntry{};
            if (from_prefill)
                cUbtbPrefillInstalls.add();
        }
        entry.target = target;
        entry.kind = kind;
        return entry;
    }

    void
    updateC(Addr pc, Addr target)
    {
        *cbtb.touchOrAllocate(key(pc)).meta = CBtbEntry{target};
    }

    void
    updateRib(Addr pc)
    {
        rib.touchOrAllocate(key(pc));
    }

    /** Stat-free mutable U-BTB access (footprint construction paths;
     *  these are retired-stream updates, not BPU lookups, so they must
     *  not perturb the Fig. 1 lookup/miss accounting). */
    UBtbEntry *
    findU(Addr pc)
    {
        return ubtb.peek(key(pc));
    }

    /** Presence probes without stats (tests). */
    bool containsU(Addr pc) const { return ubtb.contains(key(pc)); }
    bool containsC(Addr pc) const { return cbtb.contains(key(pc)); }
    bool containsRib(Addr pc) const { return rib.contains(key(pc)); }

    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }

  private:
    static Addr key(Addr pc) { return pc << kBlockShift; }

    mem::SetAssocCache<UBtbEntry> ubtb;
    mem::SetAssocCache<CBtbEntry> cbtb;
    mem::SetAssocCache<RibEntry> rib;
    obs::StatRegistry statReg;
    obs::LazyCounter cUbtbLookups, cUbtbHits, cUbtbMisses,
        cUbtbFootprintMisses, cUbtbPrefillInstalls, cCbtbLookups, cCbtbHits,
        cCbtbMisses, cRibLookups, cRibHits, cRibMisses;
};

} // namespace dcfb::frontend

#endif // DCFB_FRONTEND_SHOTGUN_BTB_H
