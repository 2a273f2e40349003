/**
 * @file
 * TAGE conditional branch direction predictor (Table III cites Seznec &
 * Michaud's partially-tagged geometric-history-length predictor).
 *
 * Implementation follows the canonical structure: a bimodal base table
 * plus N partially-tagged components indexed by hashes of geometrically
 * increasing global-history lengths, with folded-history registers for
 * constant-time index/tag computation, provider/altpred selection,
 * usefulness counters and the standard allocation policy on
 * mispredictions.
 */

#ifndef DCFB_FRONTEND_TAGE_H
#define DCFB_FRONTEND_TAGE_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sat_counter.h"
#include "common/types.h"
#include "obs/registry.h"

namespace dcfb::frontend {

/** TAGE geometry. */
struct TageConfig
{
    unsigned numTables = 6;           //!< tagged components
    unsigned baseEntriesLog2 = 12;    //!< bimodal size (4 K)
    unsigned taggedEntriesLog2 = 10;  //!< per-component size (1 K)
    unsigned tagBits = 9;
    unsigned minHistory = 4;          //!< geometric series start
    unsigned maxHistory = 128;        //!< geometric series end
    unsigned counterBits = 3;
    unsigned usefulBits = 2;
};

/** Upper bound on TageConfig::numTables, so per-lookup bookkeeping can
 *  live in fixed arrays instead of heap vectors.  Real geometries use
 *  4-12 tagged components; the ctor asserts the bound. */
inline constexpr unsigned kMaxTageTables = 16;

/**
 * TAGE predictor.
 */
class Tage
{
  public:
    explicit Tage(const TageConfig &config = TageConfig{});

    /** Predict the direction of the conditional branch at @p pc. */
    bool predict(Addr pc);

    /**
     * Train with the resolved outcome and advance the global history.
     * Must be called once per conditional branch, after predict().
     */
    void update(Addr pc, bool taken);

    /** Advance history for a non-conditional control transfer (calls,
     *  jumps, returns shift path history too). */
    void updateHistoryUnconditional(Addr pc);

    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }

  private:
    struct TaggedEntry
    {
        std::uint16_t tag = 0;
        SatCounter ctr;
        std::uint8_t useful = 0;
    };

    /** Circular-shift folded history register (Seznec's trick). */
    struct FoldedHistory
    {
        std::uint32_t value = 0;
        unsigned origLen = 0;   //!< history bits folded in
        unsigned compLen = 0;   //!< folded width
        unsigned outPos = 0;    //!< origLen % compLen, where bits fold out

        static FoldedHistory
        of(unsigned orig_len, unsigned comp_len)
        {
            return {0, orig_len, comp_len, orig_len % comp_len};
        }

        void
        update(bool new_bit, bool out_bit)
        {
            value = (value << 1) | (new_bit ? 1u : 0u);
            // Bit leaving the history window folds out.
            value ^= (out_bit ? 1u : 0u) << outPos;
            value ^= value >> compLen;
            value &= (1u << compLen) - 1;
        }
    };

    /** Per-component prediction bookkeeping from the last predict().
     *  Fixed arrays (not vectors): lookup() runs once or twice per
     *  conditional branch and must not allocate. */
    struct Lookup
    {
        int provider = -1;  //!< component index, -1 = bimodal
        int alt = -1;
        bool providerPred = false;
        bool altPred = false;
        bool pred = false;
        std::array<std::uint32_t, kMaxTageTables> indices{};
        std::array<std::uint16_t, kMaxTageTables> tags{};
    };

  public:
    /** The trained state (sim::WarmCache): tables, folded and global
     *  history, the allocation seed, and the counters training
     *  interned.  `last` is left out: update() reads it back only after
     *  a predict() on this predictor, and a restore marks it stale. */
    struct WarmState
    {
        std::vector<SatCounter> base;
        std::vector<std::vector<TaggedEntry>> tables;
        std::vector<FoldedHistory> foldedIndex, foldedTag0, foldedTag1;
        std::vector<std::uint8_t> history;
        std::size_t histHead = 0;
        SatCounter useAltOnNa;
        std::uint64_t allocSeed = 0;
        std::map<std::string, std::uint64_t> counters;
    };

    WarmState saveWarm() const;

    /** Restore @p s into a freshly constructed predictor of the same
     *  geometry.  The handles stay bound to this predictor's registry. */
    void restoreWarm(const WarmState &s);

  private:
    std::uint32_t baseIndex(Addr pc) const;
    std::uint32_t taggedIndex(Addr pc, unsigned table) const;
    std::uint16_t taggedTag(Addr pc, unsigned table) const;
    void shiftHistory(bool bit);
    Lookup lookup(Addr pc);

    /** History bit @p i positions behind the newest bit (i = 0 is the
     *  newest).  The ring replaces an element-wise shifted vector<bool>:
     *  shiftHistory() used to be ~40% of whole-simulation runtime. */
    bool
    historyBit(unsigned i) const
    {
        return history[(histHead + i) & histMask] != 0;
    }

    TageConfig cfg;
    std::vector<SatCounter> base;
    std::vector<std::vector<TaggedEntry>> tables; //!< tagged components
    std::vector<unsigned> histLengths;
    std::vector<FoldedHistory> foldedIndex;
    std::vector<FoldedHistory> foldedTag0;
    std::vector<FoldedHistory> foldedTag1;
    std::vector<std::uint8_t> history; //!< global-history ring,
                                       //!< newest at histHead
    std::size_t histHead = 0;
    std::size_t histMask = 0;
    SatCounter useAltOnNa;       //!< use-alt-on-newly-allocated policy
    std::uint64_t allocSeed = 0x123456789abcdefull;
    /** The last predict()'s lookup.  It stays valid for update() of
     *  the same PC until shiftHistory() runs; update() always ends in
     *  shiftHistory(), so no table write goes unseen either. */
    Lookup last;
    Addr lastPc = 0;
    bool lastFresh = false;
    obs::StatRegistry statReg;
    obs::LazyCounter cPredictions;
    obs::LazyCounter cCorrect;
    obs::LazyCounter cMispredict;
    obs::LazyCounter cAllocations;
};

} // namespace dcfb::frontend

#endif // DCFB_FRONTEND_TAGE_H
