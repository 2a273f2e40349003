/**
 * @file
 * Generic set-associative cache with true-LRU replacement.
 *
 * Used for the L1i, L1d and LLC data arrays as well as associative
 * metadata structures (the BTB prefetch buffer).  The cache stores only
 * presence and per-line metadata; actual instruction bytes always come
 * from the ProgramImage (the cache models *where* bytes are, not the
 * bytes themselves).
 */

#ifndef DCFB_MEM_CACHE_H
#define DCFB_MEM_CACHE_H

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"

namespace dcfb::mem {

/**
 * Set-associative cache indexed by block address.
 *
 * @tparam Meta per-line metadata (prefetch flags, isInstruction bit, ...)
 */
template <typename Meta>
class SetAssocCache
{
  public:
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
          lines(std::size_t{num_sets} * assoc_)
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

    /** Find the line holding @p addr; optionally refresh its LRU age. */
    Line *
    lookup(Addr addr, bool touch = true)
    {
        Addr want = blockAlign(addr);
        for (Line &line : set(setIndex(addr))) {
            if (line.valid && line.blockAddr == want) {
                if (touch)
                    line.lastUse = ++tick;
                return &line;
            }
        }
        return nullptr;
    }

    const Line *
    lookup(Addr addr) const
    {
        Addr want = blockAlign(addr);
        for (const Line &line : set(setIndex(addr))) {
            if (line.valid && line.blockAddr == want)
                return &line;
        }
        return nullptr;
    }

    bool contains(Addr addr) const { return lookup(addr) != nullptr; }

    /**
     * Insert @p addr with @p meta, evicting the LRU way if the set is
     * full.  @p way_limit, when non-zero, restricts the insertion to the
     * first @p way_limit ways of the set (DV-LLC shrinks a set by one way
     * when its LRU way is a BF-holder).
     */
    Evicted
    insert(Addr addr, const Meta &meta, unsigned way_limit = 0)
    {
        return fill(*scanSet(addr, way_limit, false).line, addr, meta);
    }

    /** Result of touchOrInsert(). */
    struct Touched
    {
        Line *line = nullptr; //!< the line now holding the block
        bool hit = false;     //!< the block was already resident
        Evicted evicted;      //!< what a miss displaced
    };

    /**
     * lookup() and, on a miss, insert() in one pass over the set: a hit
     * refreshes the line's age and leaves its meta alone; a miss fills
     * the way insert() would pick with @p meta.
     */
    Touched
    touchOrInsert(Addr addr, const Meta &meta, unsigned way_limit = 0)
    {
        auto [line, hit] = scanSet(addr, way_limit, true);
        if (hit) {
            line->lastUse = ++tick;
            return {line, true, {}};
        }
        return {line, false, fill(*line, addr, meta)};
    }

    /** Invalidate the line holding @p addr (no-op when absent). */
    void
    invalidate(Addr addr)
    {
        if (Line *line = lookup(addr, false))
            line->valid = false;
    }

    /** Mutable view of one set (DV-LLC and tests iterate sets). */
    std::span<Line>
    set(unsigned set_index)
    {
        assert(set_index < numSets);
        return {lines.data() + std::size_t{set_index} * assoc, assoc};
    }

    std::span<const Line>
    set(unsigned set_index) const
    {
        assert(set_index < numSets);
        return {lines.data() + std::size_t{set_index} * assoc, assoc};
    }

    /** LRU-ordered victim of a set among the first @p ways ways. */
    Line *
    lruWay(unsigned set_index, unsigned ways = 0)
    {
        auto s = set(set_index);
        unsigned limit = ways == 0 ? assoc : ways;
        Line *victim = &s[0];
        for (unsigned w = 1; w < limit; ++w) {
            if (!s[w].valid)
                return &s[w];
            if (s[w].lastUse < victim->lastUse)
                victim = &s[w];
        }
        return victim;
    }

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
        for (const Line &line : lines)
            n += line.valid;
        return n;
    }

    /**
     * Sparse image of the array for warmup checkpoints: every line ever
     * written (by flat index) plus the LRU clock.  Every write stamps
     * lastUse from the clock, which starts at 1, so a line with
     * lastUse == 0 still holds its defaults and is left out; invalidated
     * lines are kept, because their stale age still steers lruWay().
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
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (lines[i].lastUse != 0)
                s.lines.emplace_back(static_cast<std::uint32_t>(i), lines[i]);
        }
        return s;
    }

    /** Restore @p s into a never-written array of the same geometry. */
    void
    restoreWarm(const WarmState &s)
    {
        for (const auto &[index, line] : s.lines) {
            assert(index < lines.size());
            lines[index] = line;
        }
        tick = s.tick;
    }

  private:
    struct Way
    {
        Line *line;
        bool hit;
    };

    /**
     * One pass over @p addr's set.  With @p find, the first way holding
     * the block is a hit.  Otherwise, or when no way holds it, the
     * result is insert()'s victim among the first @p way_limit ways
     * (0 = all): the first invalid way, else the first oldest.  One
     * pass matters: on a miss-heavy stream into a 32 KB 8-way array,
     * lookup() followed by a separate victim scan cost twice as much.
     */
    Way
    scanSet(Addr addr, unsigned way_limit, bool find)
    {
        unsigned ways = way_limit == 0 ? assoc : way_limit;
        assert(ways <= assoc);
        Addr want = blockAlign(addr);
        auto s = set(setIndex(addr));
        unsigned victim = 0;
        bool free = false;
        for (unsigned w = 0; w < (find ? assoc : ways); ++w) {
            const Line &line = s[w];
            if (find && line.valid && line.blockAddr == want)
                return {&s[w], true};
            if (w >= ways || free)
                continue;
            if (!line.valid) {
                victim = w;
                free = true;
            } else if (line.lastUse < s[victim].lastUse) {
                victim = w;
            }
        }
        return {&s[victim], false};
    }

    /** Overwrite @p victim with a fresh line; report what it held. */
    Evicted
    fill(Line &victim, Addr addr, const Meta &meta)
    {
        Evicted ev;
        if (victim.valid) {
            ev.valid = true;
            ev.blockAddr = victim.blockAddr;
            ev.meta = victim.meta;
        }
        victim.valid = true;
        victim.blockAddr = blockAlign(addr);
        victim.lastUse = ++tick;
        victim.meta = meta;
        return ev;
    }

    unsigned numSets;
    unsigned assoc;
    std::vector<Line> lines;
    std::uint64_t tick = 0;
};

} // namespace dcfb::mem

#endif // DCFB_MEM_CACHE_H
