/**
 * @file
 * Instruction-prefetcher interface.
 *
 * A prefetcher observes the L1i (via the L1iListener callbacks) and the
 * fetch stream (via onFetchInstr), performs per-cycle work in tick(),
 * and issues prefetches through the L1iCache it is bound to.  Coupled-
 * frontend prefetchers (NL/NXL, SN4L+Dis+BTB, Confluence) implement this
 * interface; the BTB-directed Shotgun baseline is fetch-engine-
 * integrated and lives in sim/decoupled.h.
 */

#ifndef DCFB_PREFETCH_PREFETCHER_H
#define DCFB_PREFETCH_PREFETCHER_H

#include <cstdint>
#include <string>

#include "common/types.h"
#include "isa/encoding.h"
#include "mem/l1i.h"

namespace dcfb::prefetch {

/** One instruction as seen by the fetch engine (correct path). */
struct FetchedInstr
{
    Addr pc = 0;
    std::uint8_t len = 0;
    isa::InstrKind kind = isa::InstrKind::Alu;
    bool taken = false;
    Addr target = kInvalidAddr;
};

class BtbPrefetchBuffer; // forward: only SN4L+Dis+BTB provides one

/**
 * Base class for instruction prefetchers.
 */
class InstrPrefetcher : public mem::L1iListener
{
  public:
    ~InstrPrefetcher() override = default;

    /** Human-readable identifier for reports. */
    virtual std::string name() const = 0;

    /** Per-cycle work (queue draining, chained prefetches). */
    virtual void tick(Cycle now) { (void)now; }

    /** Correct-path fetch notification (per instruction). */
    virtual void onFetchInstr(const FetchedInstr &instr, Cycle now)
    {
        (void)instr;
        (void)now;
    }

    /** Metadata storage the prefetcher adds, in bits (Table II audit). */
    virtual std::uint64_t storageBits() const { return 0; }

    /** The BTB prefetch buffer, when this prefetcher prefills one. */
    virtual BtbPrefetchBuffer *btbPrefetchBuffer() { return nullptr; }
};

/** A prefetcher that never prefetches (the baseline). */
class NullPrefetcher final : public InstrPrefetcher
{
  public:
    std::string name() const override { return "baseline"; }
};

} // namespace dcfb::prefetch

#endif // DCFB_PREFETCH_PREFETCHER_H
