/**
 * @file
 * Generic set-associative cache with true-LRU replacement.
 *
 * Used for the L1i, L1d and LLC data arrays as well as associative
 * metadata structures (the BTBs and the BTB prefetch buffer).  The cache
 * stores only presence and per-line metadata; actual instruction bytes
 * always come from the ProgramImage (the cache models *where* bytes are,
 * not the bytes themselves).
 */

#ifndef DCFB_MEM_CACHE_H
#define DCFB_MEM_CACHE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace dcfb::mem {

/**
 * Set-associative cache indexed by block address.
 *
 * The array is three flat struct-of-arrays columns, each laid out set
 * by set: the tag of every way (the block address, or kInvalidAddr
 * when the way holds nothing, so the valid bit lives in the tag), its
 * LRU stamp, and its payload.  A hit scans only the tags, 8 bytes per
 * way; a miss also reads the stamps to pick the victim.  A way that
 * is invalidated keeps its stamp and payload: the stamp still steers
 * lruWay(), and a caller that refills the way gets the old payload
 * back to overwrite in place.
 *
 * @tparam Meta per-line metadata (prefetch flags, isInstruction bit, ...)
 */
template <typename Meta>
class SetAssocCache
{
  public:
    /** One way as warmup checkpoints store it (WarmState). */
    struct Line
    {
        Addr blockAddr = kInvalidAddr; //!< block-aligned address
        bool valid = false;
        std::uint64_t lastUse = 0;
        Meta meta{};
    };

    /** Result of an insertion: the line that was displaced, if any. */
    struct Evicted
    {
        bool valid = false;
        Addr blockAddr = kInvalidAddr;
        Meta meta{};
    };

    /**
     * @param num_sets number of sets (power of two)
     * @param assoc_   ways per set
     */
    SetAssocCache(unsigned num_sets, unsigned assoc_)
        : numSets(num_sets), assoc(assoc_),
          tags(std::size_t{num_sets} * assoc_, kInvalidAddr),
          stamps(std::size_t{num_sets} * assoc_),
          payloads(std::size_t{num_sets} * assoc_)
    {
        assert(isPowerOfTwo(num_sets));
        assert(assoc_ > 0);
    }

    /** Build from capacity in bytes (64-byte blocks). */
    static SetAssocCache
    fromBytes(std::size_t bytes, unsigned assoc_)
    {
        return SetAssocCache(
            static_cast<unsigned>(bytes / kBlockBytes / assoc_), assoc_);
    }

    unsigned setIndex(Addr addr) const
    {
        return static_cast<unsigned>(blockNumber(addr) & (numSets - 1));
    }

    /** Payload of the line holding @p addr, refreshing its LRU age. */
    Meta *
    lookup(Addr addr)
    {
        std::size_t i = find(addr);
        if (i == kNone)
            return nullptr;
        stamps[i] = ++tick;
        return &payloads[i];
    }

    /** Payload of the line holding @p addr; the LRU age is left alone. */
    Meta *
    peek(Addr addr)
    {
        std::size_t i = find(addr);
        return i == kNone ? nullptr : &payloads[i];
    }

    bool contains(Addr addr) const { return find(addr) != kNone; }

    /**
     * Insert @p addr with @p meta, evicting the LRU way if the set is
     * full, and copy out what the way held.  @p way_limit, when non-zero,
     * restricts the insertion to the first @p way_limit ways of the set
     * (DV-LLC shrinks a set by one way when its LRU way is a BF-holder).
     */
    Evicted
    insert(Addr addr, const Meta &meta, unsigned way_limit = 0)
    {
        std::size_t i = victim(setBase(addr), way_limit);
        Evicted ev;
        if (tags[i] != kInvalidAddr)
            ev = {true, tags[i], payloads[i]};
        claim(i, addr);
        payloads[i] = meta;
        return ev;
    }

    /** Result of touchOrAllocate(). */
    struct Slot
    {
        Meta *meta = nullptr; //!< payload of the way now holding the block
        bool hit = false;     //!< the block was already resident
        /** On a miss, the valid block the way held (kInvalidAddr when
         *  the way was free); *meta still holds the way's old payload. */
        Addr evicted = kInvalidAddr;
    };

    /**
     * lookup() and, on a miss, insert()'s victim choice without the
     * copy: a hit refreshes the line's age; a miss gives the victim way
     * to @p addr and hands back its payload, unchanged, for the caller
     * to fill in place.
     */
    Slot
    touchOrAllocate(Addr addr, unsigned way_limit = 0)
    {
        std::size_t i = find(addr);
        if (i != kNone) {
            stamps[i] = ++tick;
            return {&payloads[i], true, kInvalidAddr};
        }
        i = victim(setBase(addr), way_limit);
        Addr old = tags[i];
        claim(i, addr);
        return {&payloads[i], false, old};
    }

    /** Invalidate the line holding @p addr (no-op when absent). */
    void
    invalidate(Addr addr)
    {
        std::size_t i = find(addr);
        if (i != kNone)
            tags[i] = kInvalidAddr;
    }

    /** @name Way-indexed access (DV-LLC, invariants and tests). */
    ///@{
    /** Block held by a way, or kInvalidAddr. */
    Addr tag(unsigned set_index, unsigned way) const
    {
        return tags[at(set_index, way)];
    }
    bool valid(unsigned set_index, unsigned way) const
    {
        return tag(set_index, way) != kInvalidAddr;
    }
    std::uint64_t stamp(unsigned set_index, unsigned way) const
    {
        return stamps[at(set_index, way)];
    }
    Meta &payload(unsigned set_index, unsigned way)
    {
        return payloads[at(set_index, way)];
    }
    const Meta &payload(unsigned set_index, unsigned way) const
    {
        return payloads[at(set_index, way)];
    }

    /**
     * LRU-ordered victim of a set among the first @p ways ways (0 =
     * all): the first invalid way after way 0, else the first oldest.
     * Way 0 is the starting candidate even when invalid.
     */
    unsigned
    lruWay(unsigned set_index, unsigned ways = 0) const
    {
        std::size_t base = at(set_index, 0);
        unsigned limit = ways == 0 ? assoc : ways;
        unsigned lru = 0;
        for (unsigned w = 1; w < limit; ++w) {
            if (tags[base + w] == kInvalidAddr)
                return w;
            if (stamps[base + w] < stamps[base + lru])
                lru = w;
        }
        return lru;
    }

    /**
     * Move way @p from's line (tag, age and payload) into way @p to and
     * invalidate @p from, which keeps its age and payload.  DV-LLC's
     * holder flip.
     */
    void
    moveWay(unsigned set_index, unsigned from, unsigned to)
    {
        std::size_t f = at(set_index, from);
        std::size_t t = at(set_index, to);
        tags[t] = tags[f];
        stamps[t] = stamps[f];
        payloads[t] = payloads[f];
        tags[f] = kInvalidAddr;
    }
    ///@}

    unsigned sets() const { return numSets; }
    unsigned ways() const { return assoc; }
    std::size_t capacityBytes() const
    {
        return std::size_t{numSets} * assoc * kBlockBytes;
    }

    /** Count of valid lines (tests/occupancy reports). */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (Addr t : tags)
            n += t != kInvalidAddr;
        return n;
    }

    /**
     * Sparse image of the array for warmup checkpoints: every way ever
     * written (by flat index) plus the LRU clock.  Every write stamps
     * the way from the clock, which starts at 1, so a way with stamp 0
     * still holds its defaults and is left out; invalidated ways are
     * kept, because their stale age still steers lruWay().
     */
    struct WarmState
    {
        std::vector<std::pair<std::uint32_t, Line>> lines;
        std::uint64_t tick = 0;
    };

    WarmState
    saveWarm() const
    {
        WarmState s;
        s.tick = tick;
        for (std::size_t i = 0; i < tags.size(); ++i) {
            if (stamps[i] != 0) {
                s.lines.emplace_back(
                    static_cast<std::uint32_t>(i),
                    Line{tags[i], tags[i] != kInvalidAddr, stamps[i],
                         payloads[i]});
            }
        }
        return s;
    }

    /** Restore @p s into a never-written array of the same geometry. */
    void
    restoreWarm(const WarmState &s)
    {
        for (const auto &[index, line] : s.lines) {
            assert(index < tags.size());
            tags[index] = line.valid ? line.blockAddr : kInvalidAddr;
            stamps[index] = line.lastUse;
            payloads[index] = line.meta;
        }
        tick = s.tick;
    }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};

    // A block-aligned address never equals kInvalidAddr, so a free way
    // never matches a lookup.
    static_assert(blockAlign(kInvalidAddr) != kInvalidAddr);

    std::size_t at(unsigned set_index, unsigned way) const
    {
        assert(set_index < numSets && way < assoc);
        return std::size_t{set_index} * assoc + way;
    }

    std::size_t setBase(Addr addr) const { return at(setIndex(addr), 0); }

    /** Flat index of the way holding @p addr, else kNone. */
    std::size_t
    find(Addr addr) const
    {
        std::size_t base = setBase(addr);
        Addr want = blockAlign(addr);
        for (std::size_t i = base; i < base + assoc; ++i) {
            if (tags[i] == want)
                return i;
        }
        return kNone;
    }

    /**
     * insert()'s victim among the first @p way_limit ways (0 = all) of
     * the set at @p base: the first invalid way, else the first oldest.
     */
    std::size_t
    victim(std::size_t base, unsigned way_limit) const
    {
        unsigned ways = way_limit == 0 ? assoc : way_limit;
        assert(ways <= assoc);
        std::size_t lru = base;
        for (std::size_t i = base; i < base + ways; ++i) {
            if (tags[i] == kInvalidAddr)
                return i;
            if (stamps[i] < stamps[lru])
                lru = i;
        }
        return lru;
    }

    /** Give way @p i to @p addr's block as the most recent line. */
    void
    claim(std::size_t i, Addr addr)
    {
        tags[i] = blockAlign(addr);
        stamps[i] = ++tick;
    }

    unsigned numSets;
    unsigned assoc;
    std::vector<Addr> tags;
    std::vector<std::uint64_t> stamps;
    std::vector<Meta> payloads;
    std::uint64_t tick = 0;
};

} // namespace dcfb::mem

#endif // DCFB_MEM_CACHE_H
