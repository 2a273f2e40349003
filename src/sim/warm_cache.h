/**
 * @file
 * Warm once, restore many: one shared checkpoint of the functional
 * warmup.
 *
 * Every System replays a 2 M-instruction warm stream into the LLC, the
 * L1s, TAGE and the branch-target structures before its timed windows
 * (SimFlex checkpoint state, DESIGN.md §7).  That state is a pure
 * function of the image, the run seed, the warm length and the cache
 * geometry, so the designs of one workload all rebuild the same thing.
 * WarmCache keeps one compact, immutable WarmCheckpoint of it; a System
 * whose key matches copies the checkpoint in and replays the branch list
 * into its own BTB-side structures instead of walking the stream.
 *
 * Admission has no knob: the cache holds one slot and stores only on the
 * second consecutive request for a key, and a request for another key
 * releases the slot.  A workload-major grid therefore walks twice per
 * workload and restores the rest, a sweep that never repeats a key
 * stores nothing, and at most one checkpoint is ever held.  Restored and
 * walked cells produce bit-identical RunResults.
 */

#ifndef DCFB_SIM_WARM_CACHE_H
#define DCFB_SIM_WARM_CACHE_H

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "frontend/tage.h"
#include "mem/l1d.h"
#include "mem/l1i.h"
#include "mem/llc.h"
#include "sim/config.h"
#include "workload/trace.h"

namespace dcfb::sim {

/** One retired branch of the warm stream, as the BTB-side structures
 *  (BTB, micro BTB, Shotgun's split BTB) learn it. */
struct WarmBranch
{
    Addr pc = 0;
    Addr target = kInvalidAddr;
    isa::InstrKind kind = isa::InstrKind::CondBranch;
    bool taken = false;
};

/**
 * One warm branch as a checkpoint stores it, in 8 bytes: the block its
 * terminator ends and the block its target starts (every warm target
 * is a block start), with the outcome in the low bit.  Its PC, target
 * and kind are rebuilt from the program.
 */
class WarmBranchRecord
{
  public:
    WarmBranchRecord(std::uint32_t blk_, std::uint32_t to, bool taken)
        : blk(blk_), toTaken((to << 1) | std::uint32_t{taken})
    {
    }

    /** The branch, as the walk that recorded it retired it. */
    WarmBranch decode(const workload::Program &program) const;

  private:
    std::uint32_t blk;     //!< Program::blocks index of the terminator
    std::uint32_t toTaken; //!< target's blocks index << 1 | taken
};
static_assert(sizeof(WarmBranchRecord) == 8);

/**
 * Every warm branch of a checkpoint, in order.  The list grows in
 * fixed-size chunks, so appending never copies what it already holds
 * and only the last chunk has spare room.
 */
class WarmBranchList
{
  public:
    void
    push(WarmBranchRecord r)
    {
        if (chunks.empty() || chunks.back().size() == kChunk) {
            chunks.emplace_back();
            chunks.back().reserve(kChunk);
        }
        chunks.back().push_back(r);
    }

    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const auto &chunk : chunks) {
            for (const WarmBranchRecord &r : chunk)
                f(r);
        }
    }

    /** Heap bytes held, the last chunk's spare records included. */
    std::size_t
    bytes() const
    {
        return chunks.size() * kChunk * sizeof(WarmBranchRecord);
    }

  private:
    static constexpr std::size_t kChunk = 8192; //!< 64 KB of records
    std::vector<std::vector<WarmBranchRecord>> chunks;
};

/** Where a cell's functional-warmup state came from. */
enum class WarmSource {
    Cold,     //!< walked the stream (also: no warmup configured)
    Stored,   //!< walked the stream and stored the checkpoint
    Restored, //!< copied the stored checkpoint
};

/** "cold", "stored" or "restored". */
const char *warmSourceName(WarmSource source);

/** Everything the functional warmup reads. */
struct WarmKey
{
    /** Image identity.  Weak, so the slot never keeps an image alive:
     *  after ImageCache::clear() the next request sees a new image. */
    std::weak_ptr<const workload::Program> image;
    std::uint64_t runSeed = 0;
    std::uint64_t warmInstrs = 0;
    mem::LlcConfig llc;
    std::size_t l1iBytes = 0;
    unsigned l1iAssoc = 0;
    std::size_t l1dBytes = 0;
    unsigned l1dAssoc = 0;

    static WarmKey of(const SystemConfig &cfg,
                      const std::shared_ptr<const workload::Program> &program);

    /** Same image object and the same knobs. */
    bool matches(const WarmKey &other) const;
};

/** The state a functional warmup leaves behind, minus the BTB-side
 *  structures, which differ per preset and are rebuilt from the branch
 *  list. */
struct WarmCheckpoint
{
    workload::TraceWalker::WarmState walker;
    mem::Llc::WarmState llc;
    mem::L1iCache::WarmState l1i;
    mem::L1dCache::WarmState l1d;
    frontend::Tage::WarmState tage;
    WarmBranchList branches;

    /** Approximate heap footprint (the large arrays only). */
    std::size_t bytes() const;
};

/** WarmCache counters, cumulative since construction or clear(). */
struct WarmCacheStats
{
    std::uint64_t misses = 0;      //!< cells that walked without storing
    std::uint64_t stores = 0;      //!< checkpoints stored
    std::uint64_t hits = 0;        //!< cells restored from the checkpoint
    std::size_t bytesStored = 0;   //!< sum of stored checkpoint sizes
    std::size_t bytesHeld = 0;     //!< size of the checkpoint held now
};

/**
 * The one-slot checkpoint cache.  Thread-safe: the slot is guarded by a
 * mutex, and a held checkpoint is immutable, so any number of cells may
 * restore from it concurrently.
 */
class WarmCache
{
  public:
    /**
     * One cell's admission decision.  A Stored lease must publish its
     * checkpoint; destroyed unpublished (its warmup threw), it reopens
     * the key so the next request stores instead.
     */
    class Lease
    {
      public:
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;
        ~Lease();

        WarmSource source() const { return src; }

        /** The checkpoint to restore (Restored leases only). */
        const WarmCheckpoint *checkpoint() const { return held.get(); }

        /** Hand the walked state to the cache (Stored leases only). */
        void publish(std::shared_ptr<const WarmCheckpoint> cp);

      private:
        friend class WarmCache;
        Lease(WarmCache *owner_, WarmKey key_, WarmSource src_,
              std::shared_ptr<const WarmCheckpoint> held_)
            : owner(owner_), key(std::move(key_)), src(src_),
              held(std::move(held_))
        {
        }

        WarmCache *owner; //!< non-null while a Stored lease is unpublished
        WarmKey key;
        WarmSource src;
        std::shared_ptr<const WarmCheckpoint> held;
    };

    /** Admit one cell's warmup.  A request for a key another cell is
     *  still storing waits for that store: a restore is far cheaper
     *  than a second walk. */
    Lease acquire(const WarmKey &key);

    WarmCacheStats stats() const;

    /** Release the slot and zero the counters. */
    void clear();

    /** The process-wide cache every System consults. */
    static WarmCache &global();

  private:
    /** Empty; slotKey requested once (Seen); a cell is walking to
     *  store it (Pending); its checkpoint is held (Ready). */
    enum class Slot { Empty, Seen, Pending, Ready };

    void publish(const WarmKey &key, std::shared_ptr<const WarmCheckpoint> cp);
    void abandon(const WarmKey &key);

    mutable std::mutex mutex;
    std::condition_variable changed;
    Slot slot = Slot::Empty;
    WarmKey slotKey;
    std::shared_ptr<const WarmCheckpoint> held;
    WarmCacheStats counters;
};

} // namespace dcfb::sim

#endif // DCFB_SIM_WARM_CACHE_H
