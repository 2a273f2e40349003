#include "prefetch/confluence.h"

namespace dcfb::prefetch {

ConfluencePrefetcher::ConfluencePrefetcher(mem::L1iCache &l1i_,
                                           const ConfluenceConfig &config)
    : l1i(l1i_), cfg(config), history(config.historyEntries, kInvalidAddr),
      index(config.indexEntries),
      cRecorded(statReg.lazyCounter("shift_recorded")),
      cStreamFollows(statReg.lazyCounter("shift_stream_follows")),
      cIndexMisses(statReg.lazyCounter("shift_index_misses")),
      cStreamStarts(statReg.lazyCounter("shift_stream_starts")),
      cStreamOverwritten(statReg.lazyCounter("shift_stream_overwritten")),
      cIssued(statReg.lazyCounter("shift_issued"))
{
}

std::uint64_t
ConfluencePrefetcher::storageBits() const
{
    // History: one block address (~52 bits) per entry; index: address tag
    // plus a pointer into the history.
    return history.size() * 52 + index.size() * (52 + 20);
}

void
ConfluencePrefetcher::onDemandAccess(Addr block_addr, bool hit)
{
    (void)hit;
    Addr block = blockAlign(block_addr);
    // Record the deduplicated demand-block stream.
    if (block != lastRecorded) {
        history[writePos % history.size()] = block;
        auto &ie = index[blockNumber(block) % index.size()];
        ie.prev = ie.blockAddr == block ? ie.position : kNoPosition;
        ie.blockAddr = block;
        ie.position = writePos;
        ++writePos;
        lastRecorded = block;
        cRecorded.add();
    }
    // Stream follow: if the access matches the next predicted block,
    // advance the cursor and top up the in-flight window from tick().
    if (streaming && streamPos < writePos) {
        Addr expected = history[streamPos % history.size()];
        if (expected == block) {
            ++streamPos;
            workPending = true;
            cStreamFollows.add();
        }
    }
}

void
ConfluencePrefetcher::onDemandMiss(Addr block_addr, bool sequential)
{
    (void)sequential;
    Addr block = blockAlign(block_addr);
    const auto &ie = index[blockNumber(block) % index.size()];
    // The miss's own access was just recorded at ie.position, so the
    // replayable occurrence is the previous one.
    std::uint64_t pos =
        (ie.blockAddr == block && ie.position + 1 == writePos &&
         lastRecorded == block)
        ? ie.prev
        : (ie.blockAddr == block ? ie.position : kNoPosition);
    if (pos == kNoPosition) {
        cIndexMisses.add();
        streaming = false;
        return;
    }
    // (Re)start the stream right after the trigger's recorded position.
    cStreamStarts.add();
    streaming = true;
    streamPos = pos + 1;
    issuedUpTo = pos;
    workPending = true;
}

void
ConfluencePrefetcher::issueAhead(Cycle now)
{
    if (!streaming)
        return;
    // Keep the window [streamPos, streamPos + degree) issued, bounded by
    // what has been recorded and not yet overwritten.
    std::uint64_t limit = streamPos + cfg.streamDegree;
    if (issuedUpTo + 1 + history.size() < writePos + 1) {
        // Our cursor was overwritten by newer history: abandon.
        streaming = false;
        cStreamOverwritten.add();
        return;
    }
    unsigned issued_now = 0;
    while (issuedUpTo + 1 < limit && issuedUpTo + 1 < writePos &&
           issued_now < cfg.lookahead) {
        ++issuedUpTo;
        Addr candidate = history[issuedUpTo % history.size()];
        if (candidate == kInvalidAddr)
            continue;
        auto out = l1i.prefetch(candidate, now);
        if (out == mem::L1iCache::PfOutcome::Issued)
            cIssued.add();
        ++issued_now;
    }
}

void
ConfluencePrefetcher::tick(Cycle now)
{
    if (!workPending)
        return;
    workPending = false;
    issueAhead(now);
}

} // namespace dcfb::prefetch
