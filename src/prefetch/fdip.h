/**
 * @file
 * FDIP: fetch-directed instruction prefetching.
 *
 * Models the competitor design of "Fetch-Directed Instruction
 * Prefetching Revisited": a decoupled BPU runs ahead of fetch through
 * the FTQ (sim/decoupled.h, Kind::Fdip, driven by the conventional
 * 2 K-entry BTB), and every basic block appended to the FTQ feeds this
 * prefetcher, which enqueues the block's cache lines and issues a
 * bounded number of prefetches per cycle.  Lines the BPU only just ran
 * ahead to (FTQ occupancy at or below the prefetch-ahead distance) are
 * skipped — fetch is about to demand them anyway, so prefetching them
 * buys nothing and burns an L1i port.
 *
 * The candidate queue (FdipQueue) is deliberately a separate, plainly
 * constructible class: tests/test_differential.cpp cross-checks it
 * against a map/deque reference model over seeded random streams,
 * including non-power-of-two queue and filter sizes.
 */

#ifndef DCFB_PREFETCH_FDIP_H
#define DCFB_PREFETCH_FDIP_H

#include <cstdint>
#include <vector>

#include "common/queue.h"
#include "common/types.h"
#include "obs/registry.h"
#include "prefetch/prefetcher.h"

namespace dcfb::prefetch {

/** FDIP knobs (FTQ geometry + prefetch policy). */
struct FdipConfig
{
    unsigned ftqDepth = 48;      //!< FTQ entries (overrides fetch.ftqEntries)
    unsigned prefetchAhead = 2;  //!< skip blocks within this FTQ distance
    unsigned queueEntries = 24;  //!< candidate queue (deliberately non-pow2)
    unsigned issuesPerCycle = 2; //!< L1i prefetch port limit
    unsigned recentEntries = 12; //!< recently-enqueued dedup filter ring
};

/**
 * Bounded candidate queue with a recently-accepted dedup filter.
 *
 * Push outcomes are exact: a block found in the recent ring is a
 * duplicate (filtered, not queued again), a full queue drops, anything
 * else is accepted and recorded in the ring.  The ring only records
 * *accepted* pushes, so a dropped block may be retried by a later FTQ
 * append — the reference model in the differential tests mirrors this.
 */
class FdipQueue
{
  public:
    enum class Push { Accepted, Duplicate, Dropped };

    FdipQueue(unsigned entries, unsigned recent_entries)
        : queue(entries ? entries : 1),
          recent(recent_entries ? recent_entries : 1, kInvalidAddr)
    {}

    Push
    push(Addr block)
    {
        for (Addr r : recent) {
            if (r == block)
                return Push::Duplicate;
        }
        if (!queue.push(block))
            return Push::Dropped;
        recent[recentPos] = block;
        recentPos = (recentPos + 1) % recent.size();
        return Push::Accepted;
    }

    bool empty() const { return queue.empty(); }
    std::size_t size() const { return queue.size(); }
    Addr front() const { return queue.front(); }
    void pop() { queue.pop(); }

  private:
    BoundedQueue<Addr> queue;
    std::vector<Addr> recent; //!< ring of recently accepted blocks
    std::size_t recentPos = 0;
};

/**
 * The FTQ-driven prefetcher.  DecoupledFetchEngine (Kind::Fdip) calls
 * onFtqAppend for every pushed basic block; tick drains the candidate
 * queue through the L1i's prefetch port.
 */
class Fdip final : public InstrPrefetcher
{
  public:
    Fdip(mem::L1iCache &l1i_, const FdipConfig &config)
        : l1i(l1i_), cfg(config),
          queue(config.queueEntries, config.recentEntries),
          cEnqueued(statReg.lazyCounter("fdip_enqueued")),
          cDuplicates(statReg.lazyCounter("fdip_duplicates")),
          cDropped(statReg.lazyCounter("fdip_dropped")),
          cAheadSkipped(statReg.lazyCounter("fdip_ahead_skipped")),
          cIssued(statReg.lazyCounter("fdip_issued")),
          cInCache(statReg.lazyCounter("fdip_in_cache")),
          cInFlight(statReg.lazyCounter("fdip_in_flight")),
          cNoMshr(statReg.lazyCounter("fdip_no_mshr")),
          cFills(statReg.lazyCounter("fdip_prefetch_fills")),
          cUseful(statReg.lazyCounter("fdip_useful"))
    {
        hQueueOcc = statReg.histogram("fdip_queue_occ");
    }

    std::string name() const override { return "FDIP"; }

    /**
     * One basic block was appended to the FTQ: enqueue its cache lines
     * as prefetch candidates.  @p ftq_occupancy is the FTQ depth *after*
     * the push; at or below the prefetch-ahead distance the lines are
     * about to be demanded and are skipped.
     */
    void
    onFtqAppend(Addr first_block, Addr last_block,
                std::size_t ftq_occupancy)
    {
        if (ftq_occupancy <= cfg.prefetchAhead) {
            for (Addr b = first_block; b <= last_block; b += kBlockBytes)
                cAheadSkipped.add();
            return;
        }
        for (Addr b = first_block; b <= last_block; b += kBlockBytes) {
            switch (queue.push(b)) {
              case FdipQueue::Push::Accepted:
                cEnqueued.add();
                break;
              case FdipQueue::Push::Duplicate:
                cDuplicates.add();
                break;
              case FdipQueue::Push::Dropped:
                cDropped.add();
                break;
            }
        }
    }

    void
    tick(Cycle now) override
    {
        hQueueOcc.sample(queue.size());
        for (unsigned i = 0; i < cfg.issuesPerCycle && !queue.empty();
             ++i) {
            Addr block = queue.front();
            queue.pop();
            switch (l1i.prefetch(block, now)) {
              case mem::L1iCache::PfOutcome::Issued:
                cIssued.add();
                break;
              case mem::L1iCache::PfOutcome::InCache:
              case mem::L1iCache::PfOutcome::InBuffer:
                cInCache.add();
                break;
              case mem::L1iCache::PfOutcome::InFlight:
                cInFlight.add();
                break;
              case mem::L1iCache::PfOutcome::NoMshr:
                cNoMshr.add();
                break;
            }
        }
    }

    void
    onFill(Addr block_addr, bool was_prefetch,
           const mem::BranchFootprint *bf) override
    {
        (void)block_addr;
        (void)bf;
        if (was_prefetch)
            cFills.add();
    }

    void
    onPrefetchUsed(Addr block_addr) override
    {
        (void)block_addr;
        cUseful.add();
    }

    /** Candidate queue + dedup ring, in bits (Table II-style audit). */
    std::uint64_t
    storageBits() const override
    {
        return std::uint64_t{cfg.queueEntries + cfg.recentEntries} * 46;
    }

    std::size_t queueDepth() const { return queue.size(); }
    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }

  private:
    mem::L1iCache &l1i;
    FdipConfig cfg;
    FdipQueue queue;

    obs::StatRegistry statReg;
    obs::Histogram hQueueOcc;
    obs::LazyCounter cEnqueued, cDuplicates, cDropped, cAheadSkipped,
        cIssued, cInCache, cInFlight, cNoMshr, cFills, cUseful;
};

} // namespace dcfb::prefetch

#endif // DCFB_PREFETCH_FDIP_H
