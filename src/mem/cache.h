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

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "rt/error.h"

namespace dcfb::mem {

/** An insert of a block whose tag does not fit the 32-bit tag column. */
[[noreturn, gnu::cold]] inline void
raiseTagRange(Addr addr, unsigned num_sets)
{
    rt::raise(rt::Error(rt::ErrorKind::Workload,
                        "address beyond the cache's 32-bit tag range")
                  .with("address", addr)
                  .with("sets", num_sets)
                  .with("first address out of range",
                        ((Addr{0xffffffff} * num_sets) << kBlockShift)));
}

/**
 * Set-associative cache indexed by block address.
 *
 * The array is three flat struct-of-arrays columns, each laid out set
 * by set: the 32-bit tag of every way (the block number shifted right
 * by the set-index bits, or kFree when the way holds nothing, so the
 * valid bit lives in the tag), its 32-bit LRU stamp, and its payload.
 * A hit scans only the tags, 4 bytes per way; a miss also reads the
 * stamps to pick the victim.  A way that is invalidated keeps its
 * stamp and payload: the stamp still steers lruWay(), and a caller
 * that refills the way gets the old payload back to overwrite in
 * place.
 *
 * Tags cover block numbers below 2^32 - 1 times the set count.  A
 * probe of an address beyond that misses; an insert of one raises
 * rt::Error.  When the LRU clock is about to wrap, every stamp is
 * replaced by its rank among the array's distinct stamps (0 stays 0),
 * which keeps every comparison victim() and lruWay() make.
 *
 * @tparam Meta per-line metadata (prefetch flags, isInstruction bit, ...)
 */
template <typename Meta>
class SetAssocCache
{
  public:
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
        : numSets(num_sets), assoc(assoc_), setBits(floorLog2(num_sets)),
          tags(std::size_t{num_sets} * assoc_, kFree),
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
        stamps[i] = nextStamp();
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
        if (tags[i] != kFree)
            ev = {true, blockAt(i, setIndex(addr)), payloads[i]};
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
            stamps[i] = nextStamp();
            return {&payloads[i], true, kInvalidAddr};
        }
        i = victim(setBase(addr), way_limit);
        Addr old = blockAt(i, setIndex(addr));
        claim(i, addr);
        return {&payloads[i], false, old};
    }

    /** Invalidate the line holding @p addr (no-op when absent). */
    void
    invalidate(Addr addr)
    {
        std::size_t i = find(addr);
        if (i != kNone)
            tags[i] = kFree;
    }

    /** @name Way-indexed access (DV-LLC, invariants and tests). */
    ///@{
    /** Block held by a way, or kInvalidAddr. */
    Addr tag(unsigned set_index, unsigned way) const
    {
        return blockAt(at(set_index, way), set_index);
    }
    bool valid(unsigned set_index, unsigned way) const
    {
        return tags[at(set_index, way)] != kFree;
    }
    std::uint32_t stamp(unsigned set_index, unsigned way) const
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
            if (tags[base + w] == kFree)
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
        tags[f] = kFree;
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
        for (std::uint32_t t : tags)
            n += t != kFree;
        return n;
    }

    /** Tag column value of a way that holds nothing. */
    static constexpr std::uint32_t kFree = ~std::uint32_t{0};

    /**
     * Sparse image of the array for warmup checkpoints: the columns of
     * every way ever written, with its flat index, plus the LRU clock.
     * Every write stamps the way from the clock, which starts at 1, so
     * a way with stamp 0 still holds its defaults and is left out;
     * invalidated ways are kept, because their stale age still steers
     * lruWay().
     */
    struct WarmState
    {
        std::vector<std::uint32_t> index;
        std::vector<std::uint32_t> tags; //!< kFree for an invalid way
        std::vector<std::uint32_t> stamps;
        std::vector<Meta> payloads;
        std::uint32_t tick = 0;
    };

    WarmState
    saveWarm() const
    {
        WarmState s;
        s.tick = tick;
        for (std::size_t i = 0; i < tags.size(); ++i) {
            if (stamps[i] != 0) {
                s.index.push_back(static_cast<std::uint32_t>(i));
                s.tags.push_back(tags[i]);
                s.stamps.push_back(stamps[i]);
                s.payloads.push_back(payloads[i]);
            }
        }
        return s;
    }

    /** Restore @p s into a never-written array of the same geometry. */
    void
    restoreWarm(const WarmState &s)
    {
        for (std::size_t k = 0; k < s.index.size(); ++k) {
            std::uint32_t i = s.index[k];
            assert(i < tags.size());
            tags[i] = s.tags[k];
            stamps[i] = s.stamps[k];
            payloads[i] = s.payloads[k];
        }
        tick = s.tick;
    }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};

    std::size_t at(unsigned set_index, unsigned way) const
    {
        assert(set_index < numSets && way < assoc);
        return std::size_t{set_index} * assoc + way;
    }

    std::size_t setBase(Addr addr) const { return at(setIndex(addr), 0); }

    /** Tag of @p addr's block; kFree or above when out of range. */
    Addr tagOf(Addr addr) const { return blockNumber(addr) >> setBits; }

    /** Block held by flat way @p i of set @p set_index, or
     *  kInvalidAddr. */
    Addr
    blockAt(std::size_t i, unsigned set_index) const
    {
        if (tags[i] == kFree)
            return kInvalidAddr;
        return ((Addr{tags[i]} << setBits) | set_index) << kBlockShift;
    }

    /** Flat index of the way holding @p addr, else kNone. */
    std::size_t
    find(Addr addr) const
    {
        Addr t = tagOf(addr);
        if (t >= kFree)
            return kNone;
        auto want = static_cast<std::uint32_t>(t);
        std::size_t base = setBase(addr);
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
            if (tags[i] == kFree)
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
        Addr t = tagOf(addr);
        if (t >= kFree)
            raiseTagRange(addr, numSets);
        tags[i] = static_cast<std::uint32_t>(t);
        stamps[i] = nextStamp();
    }

    /** The next LRU stamp, renumbering the stamps first if the clock
     *  would wrap. */
    std::uint32_t
    nextStamp()
    {
        if (tick == ~std::uint32_t{0}) [[unlikely]]
            renumberStamps();
        return ++tick;
    }

    /** Replace every stamp by its rank among the distinct stamps, with
     *  0 (never written) ranked 0, and restart the clock at the top
     *  rank.  Order and ties within every set are unchanged. */
    void
    renumberStamps()
    {
        std::vector<std::uint32_t> distinct(stamps);
        distinct.push_back(0);
        std::sort(distinct.begin(), distinct.end());
        distinct.erase(std::unique(distinct.begin(), distinct.end()),
                       distinct.end());
        for (std::uint32_t &s : stamps) {
            s = static_cast<std::uint32_t>(
                std::lower_bound(distinct.begin(), distinct.end(), s) -
                distinct.begin());
        }
        tick = static_cast<std::uint32_t>(distinct.size() - 1);
    }

    unsigned numSets;
    unsigned assoc;
    unsigned setBits;
    std::vector<std::uint32_t> tags;
    std::vector<std::uint32_t> stamps;
    std::vector<Meta> payloads;
    std::uint32_t tick = 0;
};

} // namespace dcfb::mem

#endif // DCFB_MEM_CACHE_H
