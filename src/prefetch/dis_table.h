/**
 * @file
 * DisTable: the Dis prefetcher's discontinuity metadata (Section V.B).
 *
 * A direct-mapped, partially-tagged table keyed by block address.  Each
 * entry stores a 4-bit partial tag and the offset of the branch
 * instruction (within the block) that last caused a discontinuity miss:
 * a 4-bit instruction offset on the fixed-length ISA, or a (6-bit
 * wider) byte offset on variable-length ISAs (Section V.D).  The target
 * is never stored — it is recovered by pre-decoding the block, which is
 * the paper's key storage trick.
 *
 * Tagging policy is configurable to reproduce Fig. 12 (tagless vs.
 * 4-bit partial vs. full tags -> overprediction).
 */

#ifndef DCFB_PREFETCH_DIS_TABLE_H
#define DCFB_PREFETCH_DIS_TABLE_H

#include <bit>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "exec/arena.h"
#include "obs/registry.h"

namespace dcfb::prefetch {

/** Tag policies of Fig. 12. */
enum class DisTagPolicy {
    Tagless,
    Partial4, //!< 4-bit partial tag (the paper's choice)
    Full,
};

/** DisTable configuration. */
struct DisTableConfig
{
    std::size_t entries = 4 * 1024; //!< 0 = unlimited (Fig. 11 reference)
    DisTagPolicy tagPolicy = DisTagPolicy::Partial4;
    bool byteOffsets = false; //!< VL-ISA: 6-bit byte offsets
};

/**
 * The discontinuity table.
 */
class DisTable
{
  public:
    explicit DisTable(const DisTableConfig &config = DisTableConfig{},
                      exec::Arena *arena = nullptr)
        : cfg(config),
          table(cfg.entries ? cfg.entries : 0,
                exec::ArenaAlloc<Entry>(arena)),
          cRecords(statReg.lazyCounter("distable_records")),
          cLookups(statReg.lazyCounter("distable_lookups"))
    {
        // Table sizes are powers of two (index() masks), so the tag's
        // "bits above the index" divide becomes a shift.
        if (cfg.entries && std::has_single_bit(cfg.entries))
            tagShift = static_cast<unsigned>(std::countr_zero(cfg.entries));
    }

    /**
     * Record that the branch at @p offset within @p block_addr caused a
     * discontinuity.  @p offset is an instruction slot index (FL) or a
     * byte offset (VL), per configuration.
     */
    void
    record(Addr block_addr, std::uint8_t offset)
    {
        cRecords.add();
        if (unlimited()) {
            dedicated[blockNumber(block_addr)] = offset;
            return;
        }
        Entry &e = table[index(block_addr)];
        e.valid = true;
        e.tag = tagOf(block_addr);
        e.offset = offset;
    }

    /**
     * Look up the discontinuity offset recorded for @p block_addr.
     * Returns nothing on a (tag) miss.  With partial tags an aliasing
     * block with a matching partial tag yields a (possibly wrong) hit;
     * that overprediction is exactly what Fig. 12 measures downstream.
     */
    std::optional<std::uint8_t>
    lookup(Addr block_addr) const
    {
        cLookups.add();
        if (unlimited()) {
            auto it = dedicated.find(blockNumber(block_addr));
            if (it == dedicated.end())
                return std::nullopt;
            return it->second;
        }
        const Entry &e = table[index(block_addr)];
        if (!e.valid)
            return std::nullopt;
        if (cfg.tagPolicy != DisTagPolicy::Tagless &&
            e.tag != tagOf(block_addr)) {
            return std::nullopt;
        }
        return e.offset;
    }

    bool unlimited() const { return cfg.entries == 0; }

    /** Arena bytes this configuration's table wants. */
    static std::size_t
    arenaBytes(const DisTableConfig &config)
    {
        return config.entries * sizeof(Entry);
    }

    /** Storage: offset bits + tag bits per entry (paper: 4+4 = 1 B for
     *  FL, 6+4 = 10 bits for VL, Section V.D). */
    std::uint64_t
    storageBits() const
    {
        unsigned offset_bits = cfg.byteOffsets ? 6 : 4;
        unsigned tag_bits = 0;
        if (cfg.tagPolicy == DisTagPolicy::Partial4)
            tag_bits = 4;
        else if (cfg.tagPolicy == DisTagPolicy::Full)
            tag_bits = 32;
        return cfg.entries * (offset_bits + tag_bits + 1);
    }

    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }
    const DisTableConfig &config() const { return cfg; }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint8_t offset = 0;
    };

    std::size_t
    index(Addr block_addr) const
    {
        return static_cast<std::size_t>(blockNumber(block_addr)) &
            (cfg.entries - 1);
    }

    std::uint64_t
    tagOf(Addr block_addr) const
    {
        std::uint64_t above = tagShift ? blockNumber(block_addr) >> *tagShift
                                       : blockNumber(block_addr) /
                (cfg.entries ? cfg.entries : 1);
        switch (cfg.tagPolicy) {
          case DisTagPolicy::Tagless: return 0;
          case DisTagPolicy::Partial4: return above & 0xf;
          case DisTagPolicy::Full: return above;
        }
        return 0;
    }

    DisTableConfig cfg;
    exec::ArenaVector<Entry> table;
    std::unordered_map<Addr, std::uint8_t> dedicated;
    std::optional<unsigned> tagShift; //!< set when entries is pow2
    mutable obs::StatRegistry statReg;
    mutable obs::LazyCounter cRecords;
    mutable obs::LazyCounter cLookups;
};

} // namespace dcfb::prefetch

#endif // DCFB_PREFETCH_DIS_TABLE_H
