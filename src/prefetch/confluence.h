/**
 * @file
 * Confluence, modeled as SHIFT + a 16 K-entry BTB (Section VI.D.1).
 *
 * SHIFT is a temporal instruction prefetcher: the sequence of demanded
 * instruction blocks is recorded in a history buffer, an index table
 * maps a block address to its most recent position in the history, and
 * on a demand miss the recorded stream is replayed ahead of the fetch
 * stream.  The real system virtualizes this metadata in the LLC; the
 * paper evaluates an upper-bound Confluence with dedicated storage and a
 * 16 K-entry BTB standing in for its BTB prefilling, and we model the
 * same configuration (the simulator's Confluence preset pairs this
 * prefetcher with a 16 K-entry conventional BTB).
 */

#ifndef DCFB_PREFETCH_CONFLUENCE_H
#define DCFB_PREFETCH_CONFLUENCE_H

#include <cstdint>
#include <vector>

#include "exec/arena.h"
#include "obs/registry.h"
#include "prefetch/prefetcher.h"

namespace dcfb::prefetch {

/** SHIFT configuration. */
struct ConfluenceConfig
{
    std::size_t historyEntries = 128 * 1024; //!< ~200 KB-class metadata
    std::size_t indexEntries = 32 * 1024;    //!< direct-mapped index
    unsigned streamDegree = 8;  //!< blocks replayed on a stream (re)start
    unsigned lookahead = 4;     //!< blocks kept in flight while streaming
};

/**
 * SHIFT-style temporal stream prefetcher.
 */
class ConfluencePrefetcher final : public InstrPrefetcher
{
  public:
    ConfluencePrefetcher(mem::L1iCache &l1i_,
                         const ConfluenceConfig &config = ConfluenceConfig{},
                         exec::Arena *arena = nullptr);

    /** Arena bytes this configuration's history and index want. */
    static std::size_t arenaBytes(const ConfluenceConfig &config);

    std::string name() const override { return "Confluence"; }
    void tick(Cycle now) override;
    std::uint64_t storageBits() const override;

    void onDemandAccess(Addr block_addr, bool hit) override;
    void onDemandMiss(Addr block_addr, bool sequential) override;

    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }

  private:
    struct IndexEntry
    {
        Addr blockAddr = kInvalidAddr;
        std::uint64_t position = 0; //!< absolute history position
        /** The block's previous occurrence.  A miss records the block
         *  into the history *before* the stream lookup runs, so the
         *  replay must start from the occurrence before that one. */
        std::uint64_t prev = kNoPosition;
    };

    static constexpr std::uint64_t kNoPosition = ~std::uint64_t{0};

    void issueAhead(Cycle now);

    mem::L1iCache &l1i;
    ConfluenceConfig cfg;
    exec::ArenaVector<Addr> history; //!< circular, absolute positions
    std::uint64_t writePos = 0;
    exec::ArenaVector<IndexEntry> index;
    Addr lastRecorded = kInvalidAddr;

    bool streaming = false;
    std::uint64_t streamPos = 0;    //!< next history position to match
    std::uint64_t issuedUpTo = 0;   //!< last history position prefetched
    Cycle pendingTick = 0;
    bool workPending = false;
    obs::StatRegistry statReg;
    // Lazily-bound per-event counters (see obs::LazyCounter).
    obs::LazyCounter cRecorded, cStreamFollows, cIndexMisses, cStreamStarts,
        cStreamOverwritten, cIssued;
};

} // namespace dcfb::prefetch

#endif // DCFB_PREFETCH_CONFLUENCE_H
