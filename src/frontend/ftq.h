/**
 * @file
 * Fetch target queue.
 *
 * A queue of basic blocks between the branch-prediction unit and the
 * instruction cache (paper footnote 1).  Decoupled frontends (Shotgun,
 * FDIP) fill it several blocks ahead of fetch and issue prefetches from
 * what the BPU discovers; an empty FTQ stalls the fetch engine
 * (Table I).
 */

#ifndef DCFB_FRONTEND_FTQ_H
#define DCFB_FRONTEND_FTQ_H

#include <cstdint>

#include "common/queue.h"
#include "common/types.h"

namespace dcfb::frontend {

/** One FTQ entry: a basic block expressed as a retired-trace range. */
struct FtqEntry
{
    std::uint64_t traceBegin = 0; //!< first instruction (walker index)
    std::uint64_t traceEnd = 0;   //!< one past the terminator
    Addr startPc = 0;
};

/** The fetch target queue (32 entries in both baselines). */
using Ftq = BoundedQueue<FtqEntry>;

} // namespace dcfb::frontend

#endif // DCFB_FRONTEND_FTQ_H
