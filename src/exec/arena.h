/**
 * @file
 * Per-cell bump arena.
 *
 * One simulated cell owns dozens of flat tables (LLC/L1 line arrays,
 * TAGE tables, BTB ways, prefetcher queues and filters).  Allocated
 * individually they land wherever the heap puts them; allocated from a
 * per-cell arena they form one contiguous slab, so a pool thread's
 * working set stays cache/TLB-resident and cell teardown is one free
 * (the flat-table layout idiom from HybridSim).
 *
 * The arena is a bump allocator: allocation is a pointer increment,
 * individual deallocation inside the slab is a no-op, and the whole
 * slab is reclaimed at once when the arena dies (or is reset()).  When
 * the slab is exhausted the arena falls back to the heap -- a mis-sized
 * estimate degrades locality, never correctness -- and counts the
 * overflow so tests and the snapshot can see it.
 *
 * Thread model: an Arena belongs to exactly one System, and a System is
 * confined to one pool thread (DESIGN.md §8).  Nothing here locks.
 */

#ifndef DCFB_EXEC_ARENA_H
#define DCFB_EXEC_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <vector>

namespace dcfb::exec {

/**
 * Single-slab bump allocator with heap overflow fallback.
 */
class Arena
{
  public:
    /** Allocation statistics (exposed in System::snapshot and tests). */
    struct Stats
    {
        std::size_t slabBytes = 0;     //!< capacity of the slab
        std::size_t usedBytes = 0;     //!< bump high-water inside the slab
        std::size_t allocs = 0;        //!< slab allocations served
        std::size_t overflowAllocs = 0; //!< allocations sent to the heap
        std::size_t overflowBytes = 0;  //!< bytes sent to the heap
    };

    /**
     * Create an arena backed by a @p bytes slab (0 = heap-only).
     *
     * The slab is a plain malloc block aligned by hand.  An aligned
     * operator new of slab size gets a fresh mmap from glibc on every
     * call, so every cell paid a page fault per 4 KB of its tables (the
     * LLC's 16 MB line array alone is ~4 K faults, ~10 ms on a 4-core
     * VM); glibc keeps a freed plain block in its heap, and the next
     * cell reuses its resident pages.
     */
    explicit Arena(std::size_t bytes)
    {
        if (bytes > 0) {
            raw = std::malloc(bytes + kSlabAlign);
            if (!raw)
                throw std::bad_alloc();
            auto at = (reinterpret_cast<std::uintptr_t>(raw) + kSlabAlign -
                       1) & ~std::uintptr_t{kSlabAlign - 1};
            slab = reinterpret_cast<std::byte *>(at);
        }
        slabStats.slabBytes = bytes;
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    ~Arena()
    {
        releaseOverflow();
        std::free(raw);
    }

    /**
     * Allocate @p bytes aligned to @p align.  Never returns nullptr:
     * when the slab can't fit the request it comes from the heap.
     */
    void *
    allocate(std::size_t bytes, std::size_t align)
    {
        assert(align > 0 && (align & (align - 1)) == 0);
        std::size_t at = (slabStats.usedBytes + align - 1) & ~(align - 1);
        if (slab && bytes <= slabStats.slabBytes &&
            at <= slabStats.slabBytes - bytes) {
            slabStats.usedBytes = at + bytes;
            ++slabStats.allocs;
            return slab + at;
        }
        ++slabStats.overflowAllocs;
        slabStats.overflowBytes += bytes;
        void *p = align > __STDCPP_DEFAULT_NEW_ALIGNMENT__
                      ? ::operator new(bytes, std::align_val_t{align})
                      : ::operator new(bytes);
        overflow.push_back({p, align});
        return p;
    }

    /**
     * Release @p p.  Slab pointers are a no-op (the slab frees as one);
     * overflow pointers return to the heap immediately.
     */
    void
    deallocate(void *p) noexcept
    {
        if (p == nullptr || contains(p))
            return;
        for (std::size_t i = 0; i < overflow.size(); ++i) {
            if (overflow[i].ptr != p)
                continue;
            release(overflow[i]);
            overflow[i] = overflow.back();
            overflow.pop_back();
            return;
        }
        // Not ours: pointer predates this arena (or a double free).
        assert(false && "Arena::deallocate of unknown pointer");
    }

    /** True when @p p points into the slab. */
    bool
    contains(const void *p) const
    {
        const auto *b = static_cast<const std::byte *>(p);
        return slab && b >= slab && b < slab + slabStats.slabBytes;
    }

    /**
     * Rewind the bump pointer and free any overflow allocations.  Only
     * legal once every container allocated from this arena is gone.
     */
    void
    reset()
    {
        releaseOverflow();
        slabStats.usedBytes = 0;
        slabStats.allocs = 0;
        slabStats.overflowAllocs = 0;
        slabStats.overflowBytes = 0;
    }

    const Stats &stats() const { return slabStats; }

  private:
    /** Slabs hold cache line arrays; align to a typical page. */
    static constexpr std::size_t kSlabAlign = 4096;

    struct OverflowBlock
    {
        void *ptr = nullptr;
        std::size_t align = 0;
    };

    static void
    release(const OverflowBlock &blk) noexcept
    {
        if (blk.align > __STDCPP_DEFAULT_NEW_ALIGNMENT__)
            ::operator delete(blk.ptr, std::align_val_t{blk.align});
        else
            ::operator delete(blk.ptr);
    }

    void
    releaseOverflow() noexcept
    {
        for (const auto &blk : overflow)
            release(blk);
        overflow.clear();
    }

    void *raw = nullptr;      //!< the malloc block holding the slab
    std::byte *slab = nullptr;
    Stats slabStats;
    std::vector<OverflowBlock> overflow;
};

/**
 * std-compatible allocator over an optional Arena.
 *
 * Default-constructed (or with a null arena) it is exactly the heap:
 * every existing container keeps its behaviour.  Bound to an arena it
 * bump-allocates from the slab.  Containers that grow geometrically
 * (std::vector) leave their old block dead in the slab -- acceptable,
 * because the simulator sizes its tables once at construction.
 */
template <typename T>
class ArenaAlloc
{
  public:
    using value_type = T;
    using propagate_on_container_copy_assignment = std::true_type;
    using propagate_on_container_move_assignment = std::true_type;
    using propagate_on_container_swap = std::true_type;
    using is_always_equal = std::false_type;

    ArenaAlloc() noexcept = default;
    explicit ArenaAlloc(Arena *arena) noexcept : a(arena) {}

    template <typename U>
    ArenaAlloc(const ArenaAlloc<U> &other) noexcept : a(other.arena())
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (a)
            return static_cast<T *>(a->allocate(n * sizeof(T), alignof(T)));
        return static_cast<T *>(alignof(T) >
                                        __STDCPP_DEFAULT_NEW_ALIGNMENT__
                                    ? ::operator new(
                                          n * sizeof(T),
                                          std::align_val_t{alignof(T)})
                                    : ::operator new(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        if (a) {
            a->deallocate(p);
            return;
        }
        if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__)
            ::operator delete(p, std::align_val_t{alignof(T)});
        else
            ::operator delete(p);
    }

    Arena *arena() const noexcept { return a; }

    template <typename U>
    bool
    operator==(const ArenaAlloc<U> &other) const noexcept
    {
        return a == other.arena();
    }

  private:
    Arena *a = nullptr;
};

/** Vector whose storage may live in a cell arena. */
template <typename T>
using ArenaVector = std::vector<T, ArenaAlloc<T>>;

} // namespace dcfb::exec

#endif // DCFB_EXEC_ARENA_H
