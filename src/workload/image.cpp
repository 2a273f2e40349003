#include "workload/image.h"

#include <algorithm>
#include <cstring>

namespace dcfb::workload {

std::size_t
ProgramImage::runAbove(Addr bn) const
{
    return std::upper_bound(runs.begin(), runs.end(), bn,
                            [](Addr b, const Run &r) { return b < r.first; }) -
        runs.begin();
}

ProgramImage::Block &
ProgramImage::slot(Addr bn)
{
    // The run before `next` may hold bn or end just below it.
    auto next = runs.begin() + runAbove(bn);
    if (next != runs.begin()) {
        Run &prev = next[-1];
        Addr end = prev.first + prev.blocks.size();
        if (bn < end)
            return prev.blocks[bn - prev.first];
        if (bn == end) {
            prev.blocks.emplace_back(); // zero-filled
            if (next != runs.end() && next->first == bn + 1) {
                prev.blocks.insert(prev.blocks.end(), next->blocks.begin(),
                                   next->blocks.end());
                runs.erase(next); // prev sits before next: still valid
            }
            return prev.blocks[bn - prev.first];
        }
    }
    if (next != runs.end() && next->first == bn + 1) {
        next->blocks.insert(next->blocks.begin(), Block{});
        next->first = bn;
        return next->blocks.front();
    }
    return runs.insert(next, Run{bn, std::vector<Block>(1)})->blocks.front();
}

void
ProgramImage::write(Addr addr, const std::uint8_t *data, std::size_t n)
{
    while (n > 0) {
        unsigned off = blockOffset(addr);
        std::size_t chunk = std::min<std::size_t>(n, kBlockBytes - off);
        std::memcpy(slot(blockNumber(addr)).data() + off, data, chunk);
        addr += chunk;
        data += chunk;
        n -= chunk;
    }
}

unsigned
ProgramImage::read(Addr addr, std::uint8_t *out, unsigned n) const
{
    unsigned done = 0;
    while (done < n) {
        const Block *blk = block(addr);
        if (!blk)
            break;
        unsigned off = blockOffset(addr);
        unsigned chunk = std::min(n - done, kBlockBytes - off);
        std::memcpy(out + done, blk->data() + off, chunk);
        addr += chunk;
        done += chunk;
    }
    return done;
}

const ProgramImage::Block *
ProgramImage::block(Addr addr) const
{
    Addr bn = blockNumber(addr);
    std::size_t next = runAbove(bn);
    if (next == 0)
        return nullptr;
    const Run &run = runs[next - 1];
    Addr i = bn - run.first;
    return i < run.blocks.size() ? &run.blocks[i] : nullptr;
}

std::size_t
ProgramImage::numBlocks() const
{
    std::size_t n = 0;
    for (const Run &run : runs)
        n += run.blocks.size();
    return n;
}

void
ProgramImage::shrinkToFit()
{
    for (Run &run : runs)
        run.blocks.shrink_to_fit();
}

} // namespace dcfb::workload
