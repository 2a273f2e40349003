/**
 * @file
 * Conventional discontinuity prefetcher (Spracklen et al., HPCA'05 —
 * reference [17] of the paper).
 *
 * The straightforward implementation the paper contrasts Dis against: a
 * table that records, per trigger block, the full *address* of the
 * discontinuous block that followed it, and prefetches that address on
 * the next access to the trigger.  Storing whole addresses is what makes
 * it cost "tens of kilobytes" (Section V.B); Dis replaces the address
 * with a branch offset plus pre-decoding.
 */

#ifndef DCFB_PREFETCH_CLASSIC_DISCONTINUITY_H
#define DCFB_PREFETCH_CLASSIC_DISCONTINUITY_H

#include <cstdint>
#include <vector>

#include "obs/registry.h"
#include "prefetch/prefetcher.h"

namespace dcfb::prefetch {

/**
 * Address-table discontinuity prefetcher, optionally with a next-line
 * companion (the HPCA'05 deployment pairs it with a sequential one).
 */
class ClassicDiscontinuity final : public InstrPrefetcher
{
  public:
    /**
     * @param l1i_     cache to prefetch into
     * @param entries_ direct-mapped table size
     * @param with_nl  also prefetch the next line on every access
     */
    ClassicDiscontinuity(mem::L1iCache &l1i_, std::size_t entries_ = 4096,
                         bool with_nl = true)
        : l1i(l1i_), table(entries_),
          withNl(with_nl),
          cRecorded(statReg.lazyCounter("cdis_recorded")),
          cReplayed(statReg.lazyCounter("cdis_replayed")),
          cIssued(statReg.lazyCounter("cdis_issued"))
    {}

    std::string name() const override { return "ClassicDis"; }

    void
    onDemandAccess(Addr block_addr, bool hit) override
    {
        (void)hit;
        pending = blockAlign(block_addr);
        havePending = true;
    }

    void
    onDemandMiss(Addr block_addr, bool sequential) override
    {
        // Record the discontinuity under the previous demand block.
        if (!sequential && lastBlock != kInvalidAddr &&
            !sameBlock(lastBlock, block_addr)) {
            Entry &e = table[index(lastBlock)];
            e.trigger = lastBlock;
            e.target = blockAlign(block_addr);
            cRecorded.add();
        }
        lastBlock = blockAlign(block_addr);
    }

    void
    tick(Cycle now) override
    {
        if (!havePending)
            return;
        havePending = false;
        lastBlock = pending;
        const Entry &e = table[index(pending)];
        if (e.trigger == pending && e.target != kInvalidAddr) {
            cReplayed.add();
            if (l1i.prefetch(e.target, now) ==
                mem::L1iCache::PfOutcome::Issued) {
                cIssued.add();
            }
        }
        if (withNl)
            l1i.prefetch(pending + kBlockBytes, now);
    }

    /** Full target addresses: the storage cost Dis eliminates. */
    std::uint64_t
    storageBits() const override
    {
        return table.size() * (52 + 52);
    }

    const obs::StatRegistry &stats() const { return statReg; }

  private:
    struct Entry
    {
        Addr trigger = kInvalidAddr;
        Addr target = kInvalidAddr;
    };

    std::size_t
    index(Addr block_addr) const
    {
        return static_cast<std::size_t>(blockNumber(block_addr)) %
            table.size();
    }

    mem::L1iCache &l1i;
    std::vector<Entry> table;
    bool withNl;
    Addr lastBlock = kInvalidAddr;
    Addr pending = 0;
    bool havePending = false;
    obs::StatRegistry statReg;
    obs::LazyCounter cRecorded;
    obs::LazyCounter cReplayed;
    obs::LazyCounter cIssued;
};

} // namespace dcfb::prefetch

#endif // DCFB_PREFETCH_CLASSIC_DISCONTINUITY_H
