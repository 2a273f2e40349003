/**
 * @file
 * Differential tests for the hot-path data structures.
 *
 * The optimized SeqTable/DisTable index and tag paths (flat pre-sized
 * owner array, shift-based partial tags) are cross-checked against
 * naive reference models in `ref::` that keep the pre-optimization
 * semantics verbatim: hash maps probed per access, tag bits computed by
 * division.  Both models consume identical randomized streams (fixed
 * seeds) and must agree on every observable -- lookup results, conflict
 * and write counts -- at every step.
 *
 * The same file carries the property/fuzz suite for the predecoder's
 * block cache: randomized fixed-length blocks must decode to identical
 * branch footprints cold and cached, including across eviction/refill
 * of the direct-mapped cache, and decodeAt() must stay consistent with
 * the full-block decode.
 *
 * The competitor mechanisms bring two more pairs: the FDIP candidate
 * queue (power-of-two ring with a logical cap + dedup filter) against a
 * plain deque model, and the micro BTB (flat modulo-indexed ways, true
 * LRU) against a map model that recomputes set membership by scanning —
 * both over seeded random streams including non-power-of-two
 * geometries.
 *
 * The functional warmup brings more: the struct-of-arrays cache kernel
 * against a two-scan model of the padded-line array it replaced, the
 * MRU-filtered warmup against the per-instruction loop it replaced (on
 * generated programs and on a hand-built one that hits the filter's
 * edge cases), the block-granular warm walk against next(), the compact
 * warm-branch records against the branches they encode, and TAGE's
 * lookup reuse against fresh lookups.
 *
 * The trace walker's flat program layout (one block array, a loop-trip
 * stack) is checked against the nested per-function walk with per-frame
 * loop-trip maps it replaced, entry by entry, and across a warm-state
 * checkpoint.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "frontend/btb.h"
#include "frontend/micro_btb.h"
#include "frontend/shotgun_btb.h"
#include "frontend/tage.h"
#include "isa/encoding.h"
#include "isa/predecoder.h"
#include "mem/cache.h"
#include "mem/l1d.h"
#include "mem/l1i.h"
#include "mem/llc.h"
#include "prefetch/dis_table.h"
#include "prefetch/fdip.h"
#include "prefetch/seq_table.h"
#include "sim/system.h"
#include "sim/warm_cache.h"
#include "workload/cfg.h"
#include "workload/image.h"
#include "workload/profiles.h"
#include "workload/trace.h"

#include "hand_cfg.h"

namespace dcfb {
namespace ref {

/**
 * Pre-optimization SeqTable: same direct-mapped tagless bit table, but
 * the conflict instrumentation probes a hash map per write (the code
 * the flat owner array replaced).
 */
class SeqTable
{
  public:
    explicit SeqTable(std::size_t entries_)
        : entries(entries_), bits(entries_, true)
    {}

    bool get(Addr block_addr) const { return bits[index(block_addr)]; }

    void
    set(Addr block_addr, bool useful)
    {
        std::size_t i = index(block_addr);
        Addr owner = blockNumber(block_addr);
        auto [it, inserted] = lastOwner.try_emplace(i, owner);
        if (!inserted && it->second != owner) {
            ++conflicts;
            it->second = owner;
        }
        ++writes;
        bits[i] = useful;
    }

    std::uint8_t
    statusOfNextFour(Addr block_addr) const
    {
        std::uint8_t packed = 0;
        for (unsigned i = 0; i < 4; ++i) {
            if (get(block_addr + Addr{i + 1} * kBlockBytes))
                packed |= 1u << i;
        }
        return packed;
    }

    std::uint64_t conflicts = 0;
    std::uint64_t writes = 0;

  private:
    std::size_t
    index(Addr block_addr) const
    {
        return static_cast<std::size_t>(blockNumber(block_addr)) &
            (entries - 1);
    }

    std::size_t entries;
    std::vector<bool> bits;
    std::unordered_map<std::size_t, Addr> lastOwner;
};

/**
 * Pre-optimization DisTable: identical table, but the partial tag is
 * always the division form `blockNumber / entries` (the code the
 * power-of-two shift replaced).
 */
class DisTable
{
  public:
    explicit DisTable(const prefetch::DisTableConfig &config)
        : cfg(config), table(cfg.entries)
    {}

    void
    record(Addr block_addr, std::uint8_t offset)
    {
        Entry &e = table[index(block_addr)];
        e.valid = true;
        e.tag = tagOf(block_addr);
        e.offset = offset;
    }

    std::optional<std::uint8_t>
    lookup(Addr block_addr) const
    {
        const Entry &e = table[index(block_addr)];
        if (!e.valid)
            return std::nullopt;
        if (cfg.tagPolicy != prefetch::DisTagPolicy::Tagless &&
            e.tag != tagOf(block_addr)) {
            return std::nullopt;
        }
        return e.offset;
    }

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
        std::uint64_t above = blockNumber(block_addr) / cfg.entries;
        switch (cfg.tagPolicy) {
          case prefetch::DisTagPolicy::Tagless: return 0;
          case prefetch::DisTagPolicy::Partial4: return above & 0xf;
          case prefetch::DisTagPolicy::Full: return above;
        }
        return 0;
    }

    prefetch::DisTableConfig cfg;
    std::vector<Entry> table;
};

/**
 * Reference FDIP candidate queue: a plain std::deque with an explicit
 * logical capacity, plus the same recently-accepted ring.  The
 * production FdipQueue sits on BoundedQueue's power-of-two ring with a
 * logical cap; this model has no ring arithmetic at all, so the two
 * only agree if the cap/wrap handling is exact for any (non-power-of-
 * two) capacity.
 */
class FdipQueue
{
  public:
    FdipQueue(unsigned entries, unsigned recent_entries)
        : cap(entries ? entries : 1),
          recent(recent_entries ? recent_entries : 1, kInvalidAddr)
    {}

    prefetch::FdipQueue::Push
    push(Addr block)
    {
        for (Addr r : recent) {
            if (r == block)
                return prefetch::FdipQueue::Push::Duplicate;
        }
        if (q.size() >= cap)
            return prefetch::FdipQueue::Push::Dropped;
        q.push_back(block);
        recent[recentPos] = block;
        recentPos = (recentPos + 1) % recent.size();
        return prefetch::FdipQueue::Push::Accepted;
    }

    bool empty() const { return q.empty(); }
    std::size_t size() const { return q.size(); }
    Addr front() const { return q.front(); }
    void pop() { q.pop_front(); }

  private:
    std::size_t cap;
    std::deque<Addr> q;
    std::vector<Addr> recent;
    std::size_t recentPos = 0;
};

/**
 * Reference micro BTB: entries live in one std::map keyed by PC; set
 * membership is recomputed per fill by scanning the whole map for PCs
 * that share the victim set.  Replacement uses the same rules as the
 * flat-way table (insert while the set is under-full, else evict the
 * strictly lowest age) — ages advance in lockstep with the production
 * table's ++tick, so LRU order must match exactly.
 */
class MicroBtb
{
  public:
    explicit MicroBtb(const frontend::MicroBtbConfig &config)
        : cfg(config), numSets(config.entries / config.assoc)
    {}

    const frontend::MicroBtbEntry *
    probe(Addr pc)
    {
        ++probes;
        auto it = table.find(pc);
        if (it == table.end()) {
            ++misses;
            return nullptr;
        }
        ++hits;
        it->second.age = ++clock_;
        return &it->second.payload;
    }

    bool contains(Addr pc) const { return table.count(pc) != 0; }

    frontend::MicroBtb::Evicted
    fill(Addr pc, Addr target, isa::InstrKind kind)
    {
        ++fills;
        auto it = table.find(pc);
        if (it != table.end()) {
            it->second.payload.target = target;
            it->second.payload.kind = kind;
            it->second.age = ++clock_;
            return {};
        }
        // Scan the whole map for the set's residents (naive on purpose).
        unsigned set = static_cast<unsigned>(pc % numSets);
        std::map<Addr, Entry>::iterator victim = table.end();
        unsigned occupancy = 0;
        for (auto e = table.begin(); e != table.end(); ++e) {
            if (static_cast<unsigned>(e->first % numSets) != set)
                continue;
            ++occupancy;
            if (victim == table.end() || e->second.age < victim->second.age)
                victim = e;
        }
        frontend::MicroBtb::Evicted ev;
        if (occupancy >= cfg.assoc) {
            ev.valid = true;
            ev.pc = victim->first;
            ++evicts;
            table.erase(victim);
        }
        table[pc] = Entry{{target, kind}, ++clock_};
        return ev;
    }

    std::uint64_t probes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evicts = 0;

  private:
    struct Entry
    {
        frontend::MicroBtbEntry payload;
        std::uint64_t age = 0;
    };

    frontend::MicroBtbConfig cfg;
    unsigned numSets;
    std::map<Addr, Entry> table;
    std::uint64_t clock_ = 0;
};

/**
 * Pre-optimization set-associative cache: lookup() scans the set for
 * the first match and insert() scans it again for the victim.  A
 * touch-or-insert is the two calls in a row.  Line ages come
 * from the same ++tick clock as the production array, so both must
 * agree on every stamp, not only on the order.
 */
template <typename Meta>
class SetAssocCache
{
  public:
    struct Line
    {
        Addr blockAddr = kInvalidAddr;
        bool valid = false;
        std::uint64_t lastUse = 0;
        Meta meta{};
    };

    struct Evicted
    {
        bool valid = false;
        Addr blockAddr = kInvalidAddr;
        Meta meta{};
    };

    SetAssocCache(unsigned num_sets, unsigned assoc_)
        : numSets(num_sets), assoc(assoc_),
          lines(std::size_t{num_sets} * assoc_)
    {}

    unsigned
    setIndex(Addr addr) const
    {
        return static_cast<unsigned>(blockNumber(addr) & (numSets - 1));
    }

    Line *
    lookup(Addr addr, bool touch = true)
    {
        Addr want = blockAlign(addr);
        Line *s = set(setIndex(addr));
        for (unsigned w = 0; w < assoc; ++w) {
            if (s[w].valid && s[w].blockAddr == want) {
                if (touch)
                    s[w].lastUse = ++tick;
                return &s[w];
            }
        }
        return nullptr;
    }

    Evicted
    insert(Addr addr, const Meta &meta, unsigned way_limit = 0)
    {
        unsigned ways = way_limit == 0 ? assoc : way_limit;
        Line *s = set(setIndex(addr));
        Line *victim = nullptr;
        for (unsigned w = 0; w < ways; ++w) {
            if (!s[w].valid) {
                victim = &s[w];
                break;
            }
            if (!victim || s[w].lastUse < victim->lastUse)
                victim = &s[w];
        }
        Evicted ev;
        if (victim->valid)
            ev = {true, victim->blockAddr, victim->meta};
        *victim = {blockAlign(addr), true, ++tick, meta};
        return ev;
    }

    void
    invalidate(Addr addr)
    {
        if (Line *line = lookup(addr, false))
            line->valid = false;
    }

    Line *
    lruWay(unsigned set_index, unsigned ways = 0)
    {
        Line *s = set(set_index);
        unsigned limit = ways == 0 ? assoc : ways;
        Line *victim = &s[0];
        for (unsigned w = 1; w < limit; ++w) {
            if (!s[w].valid)
                return &s[w];
            if (s[w].lastUse < victim->lastUse)
                victim = &s[w];
        }
        return victim;
    }

    Line *set(unsigned si) { return lines.data() + std::size_t{si} * assoc; }

  private:
    unsigned numSets;
    unsigned assoc;
    std::vector<Line> lines;
    std::uint64_t tick = 0;
};

/** The functional warmup's standalone structures, as System builds them. */
struct WarmStructures
{
    explicit WarmStructures(const sim::SystemConfig &cfg)
        : mesh(cfg.mesh), memory(cfg.memory),
          llc(cfg.llc, mesh, memory, cfg.coreTile), l1i(cfg.l1i, llc),
          l1d(cfg.l1d, llc), btb(cfg.btbEntries, cfg.btbAssoc),
          sg(cfg.shotgunBtb), walker(*cfg.program, cfg.runSeed)
    {}

    noc::MeshModel mesh;
    mem::MemoryModel memory;
    mem::Llc llc;
    mem::L1iCache l1i;
    mem::L1dCache l1d;
    frontend::Tage tage;
    frontend::Btb btb;
    frontend::ShotgunBtb sg; //!< trained under the Shotgun preset only
    workload::TraceWalker walker;
};

/**
 * The pre-coalescing functional warmup: every retired instruction
 * touches the LLC and the L1i, whatever block the previous one was in.
 * Returns every branch's PC (the BTB-side keys it trained).
 */
std::set<Addr>
functionalWarmup(const sim::SystemConfig &cfg, WarmStructures &w)
{
    std::set<Addr> branch_pcs;
    for (std::uint64_t i = 0; i < cfg.functionalWarmInstrs; ++i) {
        workload::TraceEntry e = w.walker.next();
        w.llc.warmTouch(e.pc, true);
        w.l1i.warmInsert(e.pc);
        if (e.dataAddr != kInvalidAddr) {
            w.llc.warmTouch(e.dataAddr, false);
            w.l1d.warmInsert(e.dataAddr);
        }
        if (!e.isBranch())
            continue;
        if (e.kind == isa::InstrKind::CondBranch) {
            w.tage.predict(e.pc);
            w.tage.update(e.pc, e.taken);
        } else {
            w.tage.updateHistoryUnconditional(e.pc);
        }
        branch_pcs.insert(e.pc);
        if (e.taken)
            w.btb.update(e.pc, e.target, e.kind);
        if (cfg.preset == sim::Preset::Shotgun) {
            if (e.kind == isa::InstrKind::CondBranch)
                w.sg.updateC(e.pc, e.target);
            else if (e.kind == isa::InstrKind::Return)
                w.sg.updateRib(e.pc);
            else
                w.sg.updateU(e.pc, e.target, e.kind, false);
        }
        if (cfg.llc.dvllc) {
            w.llc.recordBranchOffset(
                blockAlign(e.pc), static_cast<std::uint8_t>(blockOffset(e.pc)));
        }
    }
    return branch_pcs;
}

/**
 * The trace walk before the flat program layout: per-function block
 * indexing, PCs summed from the block start, and a per-frame map of
 * loop trips keyed by back-edge PC.  It draws from its RNG in the same
 * order, so it must retire the same stream.  No malformed-CFG guards:
 * it only walks generated programs.
 */
class TraceWalker
{
  public:
    TraceWalker(const workload::Program &program_, std::uint64_t seed)
        : program(program_), rng(seed)
    {
        stack.emplace_back();
    }

    workload::TraceEntry
    next()
    {
        using isa::InstrKind;
        using workload::TermKind;
        Frame &f = stack.back();
        const workload::BasicBlock &bb = block(f.fn, f.blk);
        const workload::Instr in = program.instrs[bb.firstInstr + f.instr];
        workload::TraceEntry e;
        e.pc = bb.start;
        for (std::uint32_t j = 0; j < f.instr; ++j)
            e.pc += program.instrs[bb.firstInstr + j].len;
        e.len = in.len;
        e.kind = in.kind;
        if (e.kind == InstrKind::Load || e.kind == InstrKind::Store)
            e.dataAddr = dataAddress(f.fn);
        if (f.instr + 1 < bb.numInstrs) {
            ++f.instr;
            return e;
        }
        f.instr = 0;
        const std::uint32_t target =
            bb.targetBlock - program.functions[f.fn].firstBlock;
        switch (bb.term) {
          case TermKind::FallThrough:
            ++f.blk;
            break;
          case TermKind::Cond:
            if (target <= f.blk) {
                auto [it, fresh] = f.loopTrips.try_emplace(e.pc, 0);
                if (fresh) {
                    auto mean = static_cast<std::uint32_t>(
                        bb.takenProb / (1.0 - bb.takenProb + 1e-6));
                    it->second = static_cast<std::uint32_t>(
                        rng.range(1, std::max(2u * mean, 2u)));
                }
                if (it->second > 0) {
                    --it->second;
                    e.taken = true;
                } else {
                    f.loopTrips.erase(it);
                }
            } else {
                e.taken = rng.chance(bb.takenProb);
            }
            e.target = block(f.fn, target).start;
            f.blk = e.taken ? target : f.blk + 1;
            break;
          case TermKind::Jump:
            e.taken = true;
            e.target = block(f.fn, target).start;
            f.blk = target;
            break;
          case TermKind::Call:
          case TermKind::IndirectCall: {
            e.taken = true;
            std::uint32_t callee = bb.callee;
            if (bb.term == TermKind::IndirectCall && stickyLeft > 0) {
                callee = stickyCallee;
                --stickyLeft;
            } else if (bb.term == TermKind::IndirectCall) {
                callee = program.driverTargets[rng.zipf(
                    program.driverTargets.size(), program.profile.zipfSkew)];
                stickyCallee = callee;
                stickyLeft = static_cast<std::uint32_t>(rng.range(1, 3));
            }
            e.target = program.functions[callee].entry;
            Frame callee_frame;
            callee_frame.fn = callee;
            callee_frame.retBlk = f.blk + 1;
            stack.push_back(callee_frame);
            break;
          }
          case TermKind::Return: {
            e.taken = true;
            std::uint32_t resume = f.retBlk;
            stack.pop_back();
            stack.back().blk = resume;
            e.target = block(stack.back().fn, resume).start;
            break;
          }
        }
        return e;
    }

  private:
    struct Frame
    {
        std::uint32_t fn = 0;
        std::uint32_t blk = 0;
        std::uint32_t instr = 0;
        std::uint32_t retBlk = 0;
        std::map<Addr, std::uint32_t> loopTrips;
    };

    const workload::BasicBlock &
    block(std::uint32_t fn, std::uint32_t blk) const
    {
        return program.blocks[program.functions[fn].firstBlock + blk];
    }

    Addr
    dataAddress(std::uint32_t fn)
    {
        std::uint64_t footprint = program.profile.dataFootprint;
        double u = rng.uniform();
        Addr region = program.dataBase + Addr{fn} * 4096;
        if (u < 0.93)
            return region + (rng.below(256) & ~7ull);
        if (u < 0.98)
            return region + (rng.below(4096) & ~7ull);
        return program.dataBase + 0x10000000ull +
            (rng.below(footprint ? footprint : 4096) & ~7ull);
    }

    const workload::Program &program;
    Rng rng;
    std::vector<Frame> stack;
    std::uint32_t stickyCallee = 0;
    std::uint32_t stickyLeft = 0;
};

} // namespace ref

namespace {

class SeqTableDifferential : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SeqTableDifferential, AgreesWithMapModelOnRandomStream)
{
    constexpr std::size_t kEntries = 64; // small: force heavy aliasing
    prefetch::SeqTable opt(kEntries);
    ref::SeqTable model(kEntries);

    Rng rng(GetParam());
    const Addr base = 0x40000;
    for (int op = 0; op < 20000; ++op) {
        // 8x more blocks than entries, so conflicts are common.
        Addr block = base + rng.below(kEntries * 8) * kBlockBytes;
        switch (rng.below(3)) {
          case 0:
            opt.set(block, rng.chance(0.5));
            // Mirror the draw: both models must see identical streams.
            model.set(block, opt.get(block));
            break;
          case 1:
            ASSERT_EQ(opt.get(block), model.get(block))
                << "get() diverged at op " << op;
            break;
          default:
            ASSERT_EQ(opt.statusOfNextFour(block),
                      model.statusOfNextFour(block))
                << "statusOfNextFour() diverged at op " << op;
            break;
        }
    }

    EXPECT_EQ(opt.stats().get("seqtable_conflicts"), model.conflicts);
    EXPECT_EQ(opt.stats().get("seqtable_writes"), model.writes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqTableDifferential,
                         ::testing::Values(11, 22, 33, 44, 55));

struct DisCase
{
    std::size_t entries;
    prefetch::DisTagPolicy policy;
    std::uint64_t seed;
};

class DisTableDifferential : public ::testing::TestWithParam<DisCase>
{};

TEST_P(DisTableDifferential, AgreesWithDivisionModelOnRandomStream)
{
    const DisCase &c = GetParam();
    prefetch::DisTableConfig cfg;
    cfg.entries = c.entries;
    cfg.tagPolicy = c.policy;
    prefetch::DisTable opt(cfg);
    ref::DisTable model(cfg);

    Rng rng(c.seed);
    const Addr base = 0x40000;
    for (int op = 0; op < 20000; ++op) {
        // Span many multiples of the table size so partial tags alias.
        Addr block = base + rng.below(c.entries * 64) * kBlockBytes;
        if (rng.chance(0.4)) {
            auto offset = static_cast<std::uint8_t>(rng.below(16));
            opt.record(block, offset);
            model.record(block, offset);
        } else {
            ASSERT_EQ(opt.lookup(block), model.lookup(block))
                << "lookup() diverged at op " << op;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DisTableDifferential,
    ::testing::Values(
        // Power-of-two sizes take the shift path; the non-power-of-two
        // size keeps the division fallback -- both must match the
        // always-divide model.
        DisCase{64, prefetch::DisTagPolicy::Partial4, 101},
        DisCase{64, prefetch::DisTagPolicy::Tagless, 102},
        DisCase{64, prefetch::DisTagPolicy::Full, 103},
        DisCase{4096, prefetch::DisTagPolicy::Partial4, 104},
        DisCase{48, prefetch::DisTagPolicy::Partial4, 105},
        DisCase{48, prefetch::DisTagPolicy::Full, 106}));

// ---------------------------------------------------------------------
// FDIP candidate-queue differential.
// ---------------------------------------------------------------------

struct FdipQueueCase
{
    unsigned entries;
    unsigned recentEntries;
    std::uint64_t seed;
};

class FdipQueueDifferential
    : public ::testing::TestWithParam<FdipQueueCase>
{};

TEST_P(FdipQueueDifferential, AgreesWithDequeModelOnRandomStream)
{
    const FdipQueueCase &c = GetParam();
    prefetch::FdipQueue opt(c.entries, c.recentEntries);
    ref::FdipQueue model(c.entries, c.recentEntries);

    Rng rng(c.seed);
    const Addr base = 0x40000;
    // Mirrors the FTQ-append pattern: short runs of consecutive blocks
    // (a basic block's lines, in order) mixed with pops (issue slots)
    // from a pool small enough to hit the dedup ring constantly.
    for (int op = 0; op < 30000; ++op) {
        if (rng.chance(0.6)) {
            Addr first = base +
                rng.below(c.entries * 4) * kBlockBytes;
            Addr last = first + rng.below(3) * kBlockBytes;
            for (Addr b = first; b <= last; b += kBlockBytes) {
                ASSERT_EQ(opt.push(b), model.push(b))
                    << "push() diverged at op " << op;
            }
        } else {
            ASSERT_EQ(opt.empty(), model.empty())
                << "empty() diverged at op " << op;
            if (!opt.empty()) {
                ASSERT_EQ(opt.front(), model.front())
                    << "front() diverged at op " << op;
                opt.pop();
                model.pop();
            }
        }
        ASSERT_EQ(opt.size(), model.size())
            << "size() diverged at op " << op;
    }
    // Drain: the full FIFO order must match, not just the fronts the
    // random schedule happened to observe.
    while (!model.empty()) {
        ASSERT_FALSE(opt.empty());
        EXPECT_EQ(opt.front(), model.front());
        opt.pop();
        model.pop();
    }
    EXPECT_TRUE(opt.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FdipQueueDifferential,
    ::testing::Values(
        // The preset geometry is deliberately non-power-of-two (24/12);
        // the pow2 and degenerate single-entry shapes ride along.
        FdipQueueCase{24, 12, 201}, FdipQueueCase{24, 12, 202},
        FdipQueueCase{32, 8, 203}, FdipQueueCase{7, 3, 204},
        FdipQueueCase{1, 1, 205}, FdipQueueCase{5, 16, 206}));

// ---------------------------------------------------------------------
// Micro-BTB differential.
// ---------------------------------------------------------------------

struct MicroBtbCase
{
    unsigned entries;
    unsigned assoc;
    std::uint64_t seed;
};

class MicroBtbDifferential
    : public ::testing::TestWithParam<MicroBtbCase>
{};

TEST_P(MicroBtbDifferential, AgreesWithMapModelOnRandomStream)
{
    const MicroBtbCase &c = GetParam();
    frontend::MicroBtbConfig cfg;
    cfg.entries = c.entries;
    cfg.assoc = c.assoc;
    frontend::MicroBtb opt(cfg);
    ref::MicroBtb model(cfg);

    Rng rng(c.seed);
    const Addr base = 0x40000;
    // 6x more branch PCs than entries so sets stay full and every fill
    // must pick the same LRU victim in both models.
    const unsigned pool = c.entries * 6;
    for (int op = 0; op < 30000; ++op) {
        Addr pc = base + rng.below(pool) * kInstrBytes;
        switch (rng.below(3)) {
          case 0: {
            Addr target = base + rng.below(pool) * kInstrBytes;
            auto kind = rng.chance(0.5) ? isa::InstrKind::CondBranch
                                        : isa::InstrKind::Jump;
            frontend::MicroBtb::Evicted a = opt.fill(pc, target, kind);
            frontend::MicroBtb::Evicted b = model.fill(pc, target, kind);
            ASSERT_EQ(a.valid, b.valid)
                << "evict presence diverged at op " << op;
            if (a.valid) {
                ASSERT_EQ(a.pc, b.pc)
                    << "evict victim diverged at op " << op;
            }
            break;
          }
          case 1: {
            const frontend::MicroBtbEntry *a = opt.probe(pc);
            const frontend::MicroBtbEntry *b = model.probe(pc);
            ASSERT_EQ(a != nullptr, b != nullptr)
                << "probe() diverged at op " << op;
            if (a) {
                ASSERT_EQ(a->target, b->target) << "target at op " << op;
                ASSERT_EQ(a->kind, b->kind) << "kind at op " << op;
            }
            break;
          }
          default:
            ASSERT_EQ(opt.contains(pc), model.contains(pc))
                << "contains() diverged at op " << op;
            break;
        }
    }

    EXPECT_EQ(opt.stats().get("mbtb_probes"), model.probes);
    EXPECT_EQ(opt.stats().get("mbtb_hits"), model.hits);
    EXPECT_EQ(opt.stats().get("mbtb_misses"), model.misses);
    EXPECT_EQ(opt.stats().get("mbtb_fills"), model.fills);
    EXPECT_EQ(opt.stats().get("mbtb_evicts"), model.evicts);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MicroBtbDifferential,
    ::testing::Values(
        // 96/4 = 24 sets and 100/4 = 25 sets exercise the modulo index
        // that SetAssocCache's power-of-two mask cannot express.
        MicroBtbCase{96, 4, 301}, MicroBtbCase{100, 4, 302},
        MicroBtbCase{64, 4, 303}, MicroBtbCase{48, 3, 304},
        MicroBtbCase{12, 2, 305}, MicroBtbCase{6, 1, 306}));

// ---------------------------------------------------------------------
// Cache kernel: struct-of-arrays SetAssocCache vs two-scan model.
// ---------------------------------------------------------------------

struct CacheCase
{
    unsigned sets;
    unsigned assoc;
    std::uint64_t seed;
    bool widePayload = false; //!< four-word payloads instead of one int
};

using WidePayload = std::array<int, 4>;

int
drawPayload(Rng &rng, int)
{
    return static_cast<int>(rng.below(1000));
}

WidePayload
drawPayload(Rng &rng, WidePayload)
{
    WidePayload p;
    for (int &word : p)
        word = static_cast<int>(rng.below(1000));
    return p;
}

/**
 * Run @p ops random operations on @p opt and @p model from @p rng and
 * check the touched set after each.  Stamps are compared by value, or
 * with @p stamps_by_order only by their order within the set (ties
 * included): after a restore with a shifted clock, or past a clock
 * wrap, the two arrays' stamps differ while every decision must not.
 */
template <typename Meta>
void
runCacheOps(mem::SetAssocCache<Meta> &opt, ref::SetAssocCache<Meta> &model,
            const CacheCase &c, Rng &rng, int ops, bool stamps_by_order)
{
    // The way a payload or line sits in, so the two arrays compare.
    auto opt_way = [&](const Meta *meta, unsigned si) -> long {
        return meta ? meta - &opt.payload(si, 0) : -1;
    };
    auto model_way = [&](const auto *line, unsigned si) -> long {
        return line ? line - model.set(si) : -1;
    };
    // Invalid ways are compared too: their stamps steer lruWay(), and
    // their payloads come back to a caller that refills them.
    auto expect_same_set = [&](unsigned si, int op) {
        const auto *want = model.set(si);
        for (unsigned w = 0; w < c.assoc; ++w) {
            ASSERT_EQ(opt.valid(si, w), want[w].valid) << "op " << op;
            ASSERT_EQ(opt.tag(si, w),
                      want[w].valid ? want[w].blockAddr : kInvalidAddr)
                << "op " << op;
            ASSERT_EQ(opt.payload(si, w), want[w].meta) << "op " << op;
            if (!stamps_by_order) {
                ASSERT_EQ(opt.stamp(si, w), want[w].lastUse) << "op " << op;
                continue;
            }
            for (unsigned v = 0; v < c.assoc; ++v) {
                ASSERT_EQ(opt.stamp(si, w) < opt.stamp(si, v),
                          want[w].lastUse < want[v].lastUse)
                    << "op " << op << " ways " << w << ", " << v;
            }
        }
    };

    for (int op = 0; op < ops; ++op) {
        // ~6 blocks per way of every set: hits, misses and evictions mix.
        Addr addr = rng.below(std::uint64_t{c.sets} * c.assoc * 6) *
                kBlockBytes +
            rng.below(kBlockBytes);
        unsigned si = opt.setIndex(addr);
        auto way_limit = static_cast<unsigned>(rng.below(c.assoc + 1));
        Meta meta = drawPayload(rng, Meta{});
        switch (rng.below(7)) {
          case 0: {
            bool touch = rng.chance(0.7);
            Meta *got = touch ? opt.lookup(addr) : opt.peek(addr);
            auto *want = model.lookup(addr, touch);
            ASSERT_EQ(opt_way(got, si), model_way(want, si))
                << "lookup diverged at op " << op;
            break;
          }
          case 1: {
            ASSERT_EQ(opt.contains(addr), model.lookup(addr, false) != nullptr)
                << "contains diverged at op " << op;
            break;
          }
          case 2: {
            // The victim is checked by the way the block lands in, by
            // the block it displaced, and by the payload handed back:
            // the way's old one, valid or not, for the caller to fill.
            std::vector<Meta> before;
            for (unsigned w = 0; w < c.assoc; ++w)
                before.push_back(model.set(si)[w].meta);
            auto got = opt.touchOrAllocate(addr, way_limit);
            auto *hit = model.lookup(addr);
            ASSERT_EQ(got.hit, hit != nullptr) << "op " << op;
            typename ref::SetAssocCache<Meta>::Evicted ev;
            if (!hit)
                ev = model.insert(addr, meta, way_limit);
            long way = model_way(model.lookup(addr, false), si);
            ASSERT_EQ(opt_way(got.meta, si), way)
                << "touchOrAllocate landed in another way at op " << op;
            ASSERT_EQ(*got.meta, before[way]) << "op " << op;
            ASSERT_EQ(got.evicted, ev.valid ? ev.blockAddr : kInvalidAddr)
                << "op " << op;
            if (!got.hit)
                *got.meta = meta;
            break;
          }
          case 3: {
            // Plain inserts of resident blocks plant duplicates, so
            // lookups must keep answering with the first match.
            auto got = opt.insert(addr, meta, way_limit);
            auto ev = model.insert(addr, meta, way_limit);
            ASSERT_EQ(got.valid, ev.valid) << "op " << op;
            ASSERT_EQ(got.blockAddr, ev.blockAddr) << "op " << op;
            ASSERT_EQ(got.meta, ev.meta) << "op " << op;
            break;
          }
          case 4:
            opt.invalidate(addr);
            model.invalidate(addr);
            break;
          case 5: {
            unsigned ways = way_limit;
            ASSERT_EQ(long{opt.lruWay(si, ways)},
                      model_way(model.lruWay(si, ways), si))
                << "lruWay diverged at op " << op;
            break;
          }
          default: {
            // DV-LLC's holder flip, through the primitive Llc uses: the
            // last way's line moves into the LRU way of the others.
            if (c.assoc < 2)
                break;
            unsigned last = c.assoc - 1;
            if (opt.valid(si, last))
                opt.moveWay(si, last, opt.lruWay(si, last));
            auto *m = model.set(si);
            if (m[last].valid) {
                *model.lruWay(si, last) = m[last];
                m[last].valid = false;
            }
            break;
          }
        }
        expect_same_set(si, op);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    for (unsigned si = 0; si < c.sets; ++si) {
        expect_same_set(si, -1);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

int
cacheOps(const CacheCase &c)
{
    return std::max(40000, static_cast<int>(c.sets * c.assoc * 40));
}

template <typename Meta>
void
runCacheDifferential(const CacheCase &c)
{
    mem::SetAssocCache<Meta> opt(c.sets, c.assoc);
    ref::SetAssocCache<Meta> model(c.sets, c.assoc);
    Rng rng(c.seed);
    runCacheOps(opt, model, c, rng, cacheOps(c), false);
}

/**
 * The 32-bit LRU clock past its wrap: warm both arrays, restore the
 * production one's checkpoint with every stamp and the clock moved to
 * a few hundred ticks below 2^32, and run on against the model's
 * 64-bit clock.
 */
template <typename Meta>
void
runCacheWrapDifferential(const CacheCase &c)
{
    mem::SetAssocCache<Meta> warm(c.sets, c.assoc);
    ref::SetAssocCache<Meta> model(c.sets, c.assoc);
    Rng rng(c.seed);
    runCacheOps(warm, model, c, rng, cacheOps(c) / 4, false);
    if (::testing::Test::HasFatalFailure())
        return;

    auto state = warm.saveWarm();
    const std::uint32_t top = ~std::uint32_t{0} - 300;
    ASSERT_LT(state.tick, top);
    const std::uint32_t shift = top - state.tick;
    for (std::uint32_t &stamp : state.stamps)
        stamp += shift; // saved stamps are all non-zero
    state.tick = top;
    mem::SetAssocCache<Meta> opt(c.sets, c.assoc);
    opt.restoreWarm(state);

    runCacheOps(opt, model, c, rng, cacheOps(c), true);
    if (::testing::Test::HasFatalFailure())
        return;
    // The clock went round: every stamp now sits below the restored
    // clock's start.
    for (unsigned si = 0; si < c.sets; ++si) {
        for (unsigned w = 0; w < c.assoc; ++w)
            ASSERT_LT(opt.stamp(si, w), top) << "set " << si;
    }
}

class SetAssocCacheDifferential : public ::testing::TestWithParam<CacheCase>
{};

TEST_P(SetAssocCacheDifferential, AgreesWithTwoScanModelOnRandomStream)
{
    const CacheCase c = GetParam();
    if (c.widePayload)
        runCacheDifferential<WidePayload>(c);
    else
        runCacheDifferential<int>(c);
}

TEST_P(SetAssocCacheDifferential, AgreesWithTwoScanModelPastClockWrap)
{
    const CacheCase c = GetParam();
    if (c.widePayload)
        runCacheWrapDifferential<WidePayload>(c);
    else
        runCacheWrapDifferential<int>(c);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SetAssocCacheDifferential,
    ::testing::Values(CacheCase{1, 1, 401}, CacheCase{4, 2, 402},
                      CacheCase{8, 4, 403}, CacheCase{16, 8, 404},
                      CacheCase{4, 16, 405},
                      // The LLC's 16 ways over enough sets that misses
                      // rarely land in a set just checked.
                      CacheCase{256, 16, 406},
                      CacheCase{8, 4, 407, true},
                      CacheCase{256, 16, 408, true}));

// ---------------------------------------------------------------------
// Functional warmup: the MRU-filtered walk vs the per-instruction loop.
// ---------------------------------------------------------------------

/**
 * Per set, the written lines ordered by age: the LRU rank order every
 * replacement decision reads.  Absolute stamps differ between the
 * loops, because the filtered one touches less often.  An invalid way
 * past way 0 keeps a stamp no decision reads (victim() and lruWay()
 * take it without comparing), so such ways follow the ranked ones in
 * way order, compared by index, tag and payload but not by stamp: a
 * skipped repeat touch of the block DV-LLC's holder flip moved out of
 * the last way leaves that block tied with the way's old stamp.
 */
template <typename WarmState, typename Project>
auto
rankOrder(const WarmState &lines, unsigned assoc, Project project)
{
    using Row = decltype(std::tuple_cat(
        std::make_tuple(std::uint32_t{}, std::uint32_t{}),
        project(lines.payloads.front())));
    // Sort key: (unranked, stamp or, for an unranked way, its index).
    using Key = std::pair<bool, std::uint32_t>;
    std::map<std::uint32_t, std::vector<std::pair<Key, Row>>> sets;
    for (std::size_t k = 0; k < lines.index.size(); ++k) {
        const bool unranked =
            lines.tags[k] == ~std::uint32_t{0} && lines.index[k] % assoc != 0;
        sets[lines.index[k] / assoc].push_back(
            {{unranked, unranked ? lines.index[k] : lines.stamps[k]},
             std::tuple_cat(std::make_tuple(lines.index[k], lines.tags[k]),
                            project(lines.payloads[k]))});
    }
    std::map<std::uint32_t, std::vector<Row>> ranks;
    for (auto &[set, rows] : sets) {
        std::sort(rows.begin(), rows.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        for (const auto &row : rows)
            ranks[set].push_back(row.second);
    }
    return ranks;
}

void
expectSameTage(const frontend::Tage::WarmState &got,
               const frontend::Tage::WarmState &want)
{
    ASSERT_EQ(got.base.size(), want.base.size());
    for (std::size_t i = 0; i < got.base.size(); ++i)
        ASSERT_EQ(got.base[i].raw(), want.base[i].raw()) << "base " << i;
    ASSERT_EQ(got.tables.size(), want.tables.size());
    for (std::size_t t = 0; t < got.tables.size(); ++t) {
        for (std::size_t i = 0; i < got.tables[t].size(); ++i) {
            const auto &a = got.tables[t][i];
            const auto &b = want.tables[t][i];
            ASSERT_EQ(a.tag, b.tag) << "table " << t << " entry " << i;
            ASSERT_EQ(a.ctr.raw(), b.ctr.raw()) << "table " << t;
            ASSERT_EQ(a.useful, b.useful) << "table " << t;
        }
    }
    auto values = [](const auto &folded) {
        std::vector<std::uint32_t> v;
        for (const auto &f : folded)
            v.push_back(f.value);
        return v;
    };
    EXPECT_EQ(values(got.foldedIndex), values(want.foldedIndex));
    EXPECT_EQ(values(got.foldedTag0), values(want.foldedTag0));
    EXPECT_EQ(values(got.foldedTag1), values(want.foldedTag1));
    EXPECT_EQ(got.history, want.history);
    EXPECT_EQ(got.histHead, want.histHead);
    EXPECT_EQ(got.useAltOnNa.raw(), want.useAltOnNa.raw());
    EXPECT_EQ(got.allocSeed, want.allocSeed);
}

/**
 * A warmed System's long-term state equals what the per-instruction
 * loop leaves behind: LLC (lines in rank order, BF sets, counters),
 * L1s, TAGE, and every BTB-side key the stream trained.
 */
void
expectWarmStateMatchesLoop(const sim::SystemConfig &cfg, sim::System &sys)
{
    ref::WarmStructures model(cfg);
    std::set<Addr> branch_pcs = ref::functionalWarmup(cfg, model);

    const unsigned llc_assoc = cfg.llc.assoc;
    auto llc_got = sys.llc->saveWarm();
    auto llc_want = model.llc.saveWarm();
    auto llc_meta = [](const auto &m) {
        return std::make_tuple(m.isInstruction);
    };
    EXPECT_EQ(rankOrder(llc_got.lines, llc_assoc, llc_meta),
              rankOrder(llc_want.lines, llc_assoc, llc_meta));
    ASSERT_EQ(llc_got.bfSets.size(), llc_want.bfSets.size());
    for (std::size_t i = 0; i < llc_got.bfSets.size(); ++i) {
        const auto &[gi, gs] = llc_got.bfSets[i];
        const auto &[wi, ws] = llc_want.bfSets[i];
        ASSERT_EQ(gi, wi);
        ASSERT_EQ(gs.holder, ws.holder) << "set " << gi;
        ASSERT_EQ(gs.slots.size(), ws.slots.size()) << "set " << gi;
        for (std::size_t k = 0; k < gs.slots.size(); ++k) {
            EXPECT_EQ(gs.slots[k].blockAddr, ws.slots[k].blockAddr);
            EXPECT_EQ(gs.slots[k].bf.offsets, ws.slots[k].bf.offsets);
            EXPECT_EQ(gs.slots[k].lastUse, ws.slots[k].lastUse);
        }
    }
    EXPECT_EQ(llc_got.bfTick, llc_want.bfTick);
    EXPECT_EQ(llc_got.counters, llc_want.counters);
    if (cfg.llc.dvllc) {
        EXPECT_GT(sys.llc->bfHolderSets(), 0u);
    }

    auto l1i_got = sys.l1i->saveWarm();
    auto l1i_want = model.l1i.saveWarm();
    auto l1i_meta = [](const mem::L1iMeta &m) {
        return std::make_tuple(m.prefetched, m.demanded, m.localStatus,
                               m.fillLatency, m.filledAt);
    };
    EXPECT_EQ(rankOrder(l1i_got.lines, cfg.l1i.assoc, l1i_meta),
              rankOrder(l1i_want.lines, cfg.l1i.assoc, l1i_meta));
    EXPECT_EQ(l1i_got.lastDemandBlock, l1i_want.lastDemandBlock);

    auto no_meta = [](const auto &) { return std::tuple<>(); };
    EXPECT_EQ(rankOrder(sys.l1d->saveWarm(), cfg.l1d.assoc, no_meta),
              rankOrder(model.l1d.saveWarm(), cfg.l1d.assoc,
                        no_meta));

    auto tage_got = sys.tage->saveWarm();
    auto tage_want = model.tage.saveWarm();
    expectSameTage(tage_got, tage_want);
    EXPECT_EQ(tage_got.counters, tage_want.counters);

    // Every trained BTB-side key: same presence and payload.  Probing
    // counts and refreshes both tables alike.
    ASSERT_FALSE(branch_pcs.empty());
    for (Addr pc : branch_pcs) {
        const auto *got = sys.btb->lookup(pc);
        const auto *want = model.btb.lookup(pc);
        ASSERT_EQ(got != nullptr, want != nullptr) << "pc " << pc;
        if (got) {
            EXPECT_EQ(got->target, want->target) << "pc " << pc;
            EXPECT_EQ(got->kind, want->kind) << "pc " << pc;
        }
        if (cfg.preset == sim::Preset::Shotgun) {
            const auto &sg = sys.decoupled->shotgunBtb();
            ASSERT_EQ(sg.containsU(pc), model.sg.containsU(pc)) << pc;
            ASSERT_EQ(sg.containsC(pc), model.sg.containsC(pc)) << pc;
            ASSERT_EQ(sg.containsRib(pc), model.sg.containsRib(pc)) << pc;
        }
    }
}

/** One WarmWalkDifferential instance. */
struct WarmWalkCase
{
    const char *name;
    const char *profile;
    bool vl;
    sim::Preset preset;
    bool dvllc;
    std::size_t llcBytes;
    unsigned llcAssoc;
};

void
PrintTo(const WarmWalkCase &c, std::ostream *os)
{
    *os << c.name;
}

class WarmWalkDifferential : public ::testing::TestWithParam<WarmWalkCase>
{};

TEST_P(WarmWalkDifferential, CoalescedWalkMatchesPerInstructionLoop)
{
    const WarmWalkCase c = GetParam();
    sim::SystemConfig cfg = sim::makeConfig(
        workload::serverProfile(c.profile, c.vl), c.preset);
    cfg.program = std::make_shared<const workload::Program>(
        workload::buildProgram(cfg.profile));
    cfg.runSeed = 3;
    cfg.functionalWarmInstrs = 400000;
    cfg.llc.capacityBytes = c.llcBytes;
    cfg.llc.assoc = c.llcAssoc;
    cfg.llc.dvllc = c.dvllc;
    cfg.llc.bfSlotsPerSet = 2;

    // The first System walks, the second walks and stores the
    // checkpoint, and the third restores it, replaying the compact
    // branch records into its BTB-side structures.
    sim::WarmCache::global().clear();
    for (sim::WarmSource source :
         {sim::WarmSource::Cold, sim::WarmSource::Stored,
          sim::WarmSource::Restored}) {
        sim::System sys(cfg);
        ASSERT_EQ(sys.warmSource, source);
        expectWarmStateMatchesLoop(cfg, sys);
    }
    sim::WarmCache::global().clear();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, WarmWalkDifferential,
    // Small LLCs: the walk overflows their sets, so LRU order decides
    // evictions.  Under DV-LLC, 4 ways leave 3 for blocks, so BF slots
    // are dropped and replaced often; an order slip between a block and
    // its set's slot blocks then changes which block a data miss evicts.
    // The 2 MB LLCs churn less, so more of the walk's late order
    // survives to the comparison.
    ::testing::Values(
        WarmWalkCase{"oltp", "OLTP (DB A)", false, sim::Preset::SN4LDisBtb,
                     false, 256 * 1024, 16},
        WarmWalkCase{"oltp_dvllc", "OLTP (DB A)", false,
                     sim::Preset::SN4LDisBtb, true, 64 * 1024, 4},
        WarmWalkCase{"web_search_vl_dvllc", "Web Search", true,
                     sim::Preset::SN4LDisBtb, true, 64 * 1024, 4},
        WarmWalkCase{"oltp_shotgun", "OLTP (DB A)", false,
                     sim::Preset::Shotgun, false, 256 * 1024, 16},
        WarmWalkCase{"oltp_2mb", "OLTP (DB A)", false,
                     sim::Preset::SN4LDisBtb, false, 2 << 20, 16},
        WarmWalkCase{"web_search_vl_dvllc_2mb", "Web Search", true,
                     sim::Preset::SN4LDisBtb, true, 2 << 20, 4}),
    [](const ::testing::TestParamInfo<WarmWalkCase> &info) {
        return std::string(info.param.name);
    });

/**
 * The touch filter's edge cases on a hand-built program whose data
 * region is its own code: worker i's loads land mostly in the first
 * four blocks of worker i's code, in a 16-set LLC, so code and data
 * blocks share sets and lines.  A shadow LRU model of the non-DV LLC
 * first proves that the stream contains every edge:
 *  - an instruction block and a data block in one set, touched A, X, A;
 *  - a data touch of an instruction-tagged MRU line;
 *  - an instruction touch of a data-only MRU line;
 *  - a branch offset recorded in the set whose MRU block is the
 *    branch's own (DV-LLC).
 * Then the warmup must match the per-instruction loop with and
 * without DV-LLC, over the whole stream and over walks that stop right
 * after a data touch of an instruction-tagged MRU line (under DV-LLC
 * the set's BF-slot blocks sit above that line, so the touch reorders
 * the set and a walk that skipped it would end in another order).
 */
TEST(WarmFilterEdges, HandBuiltSharedSetsMatchPerInstructionLoop)
{
    using workload::TermKind;
    namespace hand = workload::hand;
    workload::Program prog;
    prog.profile = workload::serverProfile("OLTP (DB A)");
    prog.profile.dataFootprint = 16 * 1024;
    prog.codeBase = 0x40000;
    prog.dataBase = prog.codeBase;
    // Driver: dispatch to a worker, then jump back.
    hand::addFunction(prog);
    hand::addBlock(prog, prog.codeBase, 8, TermKind::IndirectCall);
    hand::addBlock(prog, prog.codeBase + 8 * kInstrBytes, 4, TermKind::Jump,
                   0);
    constexpr std::uint32_t kWorkers = 16;
    for (std::uint32_t fi = 1; fi <= kWorkers; ++fi) {
        // 40 instructions over three cache blocks: a load closes each
        // of the first two, and a store sits early in the first.
        hand::addFunction(prog, 1);
        hand::addBlock(prog, prog.codeBase + fi * 4096, 40,
                       TermKind::Return);
        const std::uint32_t first = prog.blocks.back().firstInstr;
        prog.instrs[first + 5].kind = isa::InstrKind::Store;
        prog.instrs[first + 15].kind = isa::InstrKind::Load;
        prog.instrs[first + 31].kind = isa::InstrKind::Load;
        prog.driverTargets.push_back(fi);
    }
    prog.codeEnd = prog.codeBase + (kWorkers + 1) * 4096;

    sim::SystemConfig cfg = sim::makeConfig(prog.profile,
                                            sim::Preset::SN4LDisBtb);
    cfg.program = std::make_shared<const workload::Program>(prog);
    cfg.runSeed = 5;
    cfg.functionalWarmInstrs = 60000;
    cfg.llc.capacityBytes = 4 * 1024;
    cfg.llc.assoc = 4;
    cfg.llc.bfSlotsPerSet = 2;

    // The shadow model: true LRU with an instruction bit per line.
    std::vector<std::uint64_t> lengths;
    {
        ref::SetAssocCache<bool> shadow(16, 4);
        auto mru = [&](Addr addr) -> const ref::SetAssocCache<bool>::Line * {
            const ref::SetAssocCache<bool>::Line *best = nullptr;
            auto *s = shadow.set(shadow.setIndex(addr));
            for (unsigned w = 0; w < 4; ++w) {
                if (s[w].valid && (!best || s[w].lastUse > best->lastUse))
                    best = &s[w];
            }
            return best;
        };
        auto touch = [&](Addr addr, bool instr) {
            if (auto *line = shadow.lookup(addr))
                line->meta |= instr;
            else
                shadow.insert(addr, instr);
        };
        unsigned a_x_a = 0, data_on_instr = 0, instr_on_data = 0,
                 offset_in_mru = 0;
        Addr prev_line = kInvalidAddr;
        workload::TraceWalker walker(*cfg.program, cfg.runSeed);
        for (std::uint64_t i = 0; i < cfg.functionalWarmInstrs; ++i) {
            const workload::TraceEntry e = walker.next();
            const Addr line = blockAlign(e.pc);
            const auto *top = mru(line);
            if (top && top->blockAddr == line && !top->meta)
                ++instr_on_data;
            if (top && top->blockAddr != line && !top->meta &&
                prev_line == line)
                ++a_x_a;
            touch(line, true);
            prev_line = line;
            if (e.dataAddr != kInvalidAddr) {
                top = mru(e.dataAddr);
                if (top && top->blockAddr == blockAlign(e.dataAddr) &&
                    top->meta && ++data_on_instr <= 8)
                    lengths.push_back(i + 1);
                touch(e.dataAddr, false);
            }
            if (e.isBranch() && mru(line)->blockAddr == line)
                ++offset_in_mru;
        }
        EXPECT_GT(a_x_a, 0u);
        EXPECT_GT(data_on_instr, 0u);
        EXPECT_GT(instr_on_data, 0u);
        EXPECT_GT(offset_in_mru, 0u);
    }

    lengths.push_back(cfg.functionalWarmInstrs);
    for (std::uint64_t n : lengths) {
        for (bool dvllc : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << (dvllc ? "DV-LLC" : "plain LLC") << ", " << n
                         << " instructions");
            cfg.functionalWarmInstrs = n;
            cfg.llc.dvllc = dvllc;
            sim::WarmCache::global().clear();
            sim::System sys(cfg);
            ASSERT_EQ(sys.warmSource, sim::WarmSource::Cold);
            expectWarmStateMatchesLoop(cfg, sys);
        }
    }
    sim::WarmCache::global().clear();
}

// ---------------------------------------------------------------------
// The flat-layout trace walker against the nested walk it replaced.
// ---------------------------------------------------------------------

/** Every field of two retired instructions agrees. */
::testing::AssertionResult
sameEntry(const workload::TraceEntry &got, const workload::TraceEntry &want,
          std::uint64_t step)
{
    if (got.pc == want.pc && got.len == want.len && got.kind == want.kind &&
        got.taken == want.taken && got.target == want.target &&
        got.dataAddr == want.dataAddr) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
        << "step " << step << std::hex << ": pc " << got.pc << " vs "
        << want.pc << ", len " << unsigned{got.len} << " vs "
        << unsigned{want.len} << ", kind " << unsigned(got.kind) << " vs "
        << unsigned(want.kind) << ", taken " << got.taken << " vs "
        << want.taken << ", target " << got.target << " vs " << want.target
        << ", data " << got.dataAddr << " vs " << want.dataAddr;
}

/** (server profile index, variable-length ISA) */
class TraceWalkerDifferential
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{};

TEST_P(TraceWalkerDifferential, FlatWalkMatchesNestedModel)
{
    auto [profile_idx, vl] = GetParam();
    const auto program = workload::buildProgram(workload::serverProfile(
        workload::serverWorkloadNames()[profile_idx], vl));
    for (std::uint64_t seed : {42u, 7u}) {
        workload::TraceWalker got(program, seed);
        ref::TraceWalker want(program, seed);
        for (std::uint64_t i = 0; i < 2000000; ++i)
            ASSERT_TRUE(sameEntry(got.next(), want.next(), i)) << seed;
        EXPECT_EQ(got.retired(), 2000000u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ServerProfiles, TraceWalkerDifferential,
    ::testing::Combine(::testing::Range(0, 7), ::testing::Bool()));

// ---------------------------------------------------------------------
// The block-granular warm walk against n calls of next().
// ---------------------------------------------------------------------

/** One warm-walk event: the first PC of an instruction run ('i'), a
 *  data address ('d') or a retired branch ('b'). */
struct WarmEvent
{
    char type = 'i';
    Addr addr = 0;
    Addr target = kInvalidAddr;
    isa::InstrKind kind = isa::InstrKind::Alu;
    bool taken = false;

    bool operator==(const WarmEvent &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const WarmEvent &e)
{
    return os << e.type << std::hex << " 0x" << e.addr << " -> 0x"
              << e.target << std::dec << " kind " << unsigned(e.kind)
              << " taken " << e.taken;
}

/** Records warmWalk()'s events and each branch's compact record. */
struct EventSink
{
    std::vector<WarmEvent> events;
    std::vector<std::pair<sim::WarmBranchRecord, workload::TraceEntry>>
        records;

    void instrBlock(Addr pc) { events.push_back({'i', pc}); }
    void data(Addr addr) { events.push_back({'d', addr}); }

    void
    branch(const workload::TraceEntry &e, std::uint32_t blk, std::uint32_t to)
    {
        events.push_back({'b', e.pc, e.target, e.kind, e.taken});
        records.push_back({sim::WarmBranchRecord(blk, to, e.taken), e});
    }
};

/** The events warmWalk(@p n) must report, from @p n calls of next(). */
std::vector<WarmEvent>
eventsOfNext(workload::TraceWalker &walker, std::uint64_t n)
{
    std::vector<WarmEvent> events;
    Addr run = kInvalidAddr;
    for (std::uint64_t i = 0; i < n; ++i) {
        const workload::TraceEntry e = walker.next();
        if (blockAlign(e.pc) != run) {
            run = blockAlign(e.pc);
            events.push_back({'i', e.pc});
        }
        if (e.dataAddr != kInvalidAddr) {
            events.push_back({'d', e.dataAddr});
            run = kInvalidAddr;
        }
        if (e.isBranch()) {
            events.push_back({'b', e.pc, e.target, e.kind, e.taken});
            run = kInvalidAddr;
        }
    }
    return events;
}

/** (server profile index, variable-length ISA) */
class WarmWalkEvents
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{};

TEST_P(WarmWalkEvents, MatchesNextCalls)
{
    auto [profile_idx, vl] = GetParam();
    const auto program = workload::buildProgram(workload::serverProfile(
        workload::serverWorkloadNames()[profile_idx], vl));
    auto at_block_start = [&](const workload::TraceWalker &w) {
        auto s = w.saveWarm();
        return s.instr == program.blocks[s.blk].firstInstr;
    };
    for (std::uint64_t seed : {3u, 11u}) {
        // The first length at or past 30000 that stops mid-block, and
        // the first that stops right after a terminator.
        std::uint64_t mid = 0, term = 0;
        {
            workload::TraceWalker probe(program, seed);
            for (std::uint64_t n = 0; !mid || !term; ++n) {
                if (n >= 30000) {
                    if (at_block_start(probe))
                        term = term ? term : n;
                    else
                        mid = mid ? mid : n;
                }
                probe.next();
            }
        }
        for (std::uint64_t n : {mid, term}) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << ", n " << n);
            workload::TraceWalker walked(program, seed);
            workload::TraceWalker stepped(program, seed);
            EventSink sink;
            walked.warmWalk(n, sink);
            const std::vector<WarmEvent> want = eventsOfNext(stepped, n);
            ASSERT_EQ(sink.events.size(), want.size());
            for (std::size_t i = 0; i < want.size(); ++i)
                ASSERT_EQ(sink.events[i], want[i]) << "event " << i;
            EXPECT_EQ(at_block_start(walked), n == term);
            EXPECT_EQ(walked.retired(), n);
            EXPECT_TRUE(walked.saveWarm() == stepped.saveWarm());
            for (std::uint64_t i = 0; i < 20000; ++i) {
                ASSERT_TRUE(
                    sameEntry(walked.next(), stepped.next(), n + i));
            }
        }
    }
}

TEST_P(WarmWalkEvents, CompactBranchRecordsRebuildEveryBranch)
{
    auto [profile_idx, vl] = GetParam();
    const auto program = workload::buildProgram(workload::serverProfile(
        workload::serverWorkloadNames()[profile_idx], vl));
    workload::TraceWalker walker(program, 7);
    EventSink sink;
    walker.warmWalk(300000, sink);
    std::set<isa::InstrKind> kinds;
    for (const auto &[record, e] : sink.records) {
        const sim::WarmBranch b = record.decode(program);
        ASSERT_EQ(b.pc, e.pc);
        ASSERT_EQ(b.target, e.target) << std::hex << "pc 0x" << e.pc;
        ASSERT_EQ(b.kind, e.kind) << std::hex << "pc 0x" << e.pc;
        ASSERT_EQ(b.taken, e.taken) << std::hex << "pc 0x" << e.pc;
        kinds.insert(e.kind);
    }
    // Every terminator kind the generator emits, not-taken branches too.
    EXPECT_EQ(kinds.size(), 5u);
    EXPECT_TRUE(std::any_of(sink.records.begin(), sink.records.end(),
                            [](const auto &r) { return !r.second.taken; }));
}

INSTANTIATE_TEST_SUITE_P(
    ServerProfiles, WarmWalkEvents,
    ::testing::Combine(::testing::Range(0, 7), ::testing::Bool()));

TEST(TraceWalkerWarmState, ResumesWithACallerLoopPending)
{
    // Checkpoint while a caller frame still has a loop trip pending
    // under a live callee, then resume on a second walker of the image.
    const auto program = workload::buildProgram(
        workload::serverProfile("OLTP (DB A)"));
    workload::TraceWalker first(program, 3);
    ref::TraceWalker want(program, 3);
    std::uint64_t step = 0;
    for (;; ++step) {
        auto s = first.saveWarm();
        if (s.stack.size() >= 2 && s.stack.back().tripBase > 0)
            break;
        ASSERT_LT(step, 1000000u) << "no caller loop ever stayed pending";
        ASSERT_TRUE(sameEntry(first.next(), want.next(), step));
    }
    workload::TraceWalker second(program, 999);
    second.restoreWarm(first.saveWarm());
    EXPECT_EQ(second.retired(), step);
    for (std::uint64_t i = 0; i < 200000; ++i, ++step) {
        const workload::TraceEntry e = want.next();
        ASSERT_TRUE(sameEntry(first.next(), e, step));
        ASSERT_TRUE(sameEntry(second.next(), e, step));
    }
}

// ---------------------------------------------------------------------
// TAGE: update() reuses predict()'s lookup only while it is current.
// ---------------------------------------------------------------------

TEST(TageLookupReuse, StaleLookupIsRecomputed)
{
    // `interleaved` sees another predict() or a history shift between a
    // branch's predict() and update(); `fresh` gets the same history
    // shifts with each predict() right before its update().  Training
    // must come out identical.
    frontend::Tage interleaved;
    frontend::Tage fresh;
    Rng rng(77);
    auto pc_of = [&] { return 0x40000 + (rng.below(512) << 2); };
    for (int i = 0; i < 50000; ++i) {
        Addr pc = pc_of();
        bool taken = rng.chance(0.6);
        interleaved.predict(pc);
        switch (rng.below(3)) {
          case 0:
            interleaved.predict(pc_of());
            break;
          case 1: {
            Addr other = pc_of();
            interleaved.updateHistoryUnconditional(other);
            fresh.updateHistoryUnconditional(other);
            break;
          }
          default:
            break;
        }
        interleaved.update(pc, taken);
        fresh.predict(pc);
        fresh.update(pc, taken);
    }
    expectSameTage(interleaved.saveWarm(), fresh.saveWarm());
    for (const char *key : {"tage_correct", "tage_mispredict",
                            "tage_allocations"}) {
        EXPECT_EQ(interleaved.stats().get(key), fresh.stats().get(key))
            << key;
    }
}

// ---------------------------------------------------------------------
// Predecode-cache properties.
// ---------------------------------------------------------------------

using isa::DecodedInstr;
using isa::InstrKind;
using isa::PredecodedBranch;

bool
sameBranches(const std::vector<PredecodedBranch> &a,
             const std::vector<PredecodedBranch> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].byteOffset != b[i].byteOffset || a[i].kind != b[i].kind ||
            a[i].hasTarget != b[i].hasTarget ||
            a[i].target != b[i].target || a[i].pc != b[i].pc) {
            return false;
        }
    }
    return true;
}

/** Write one random fixed-length block at @p base; ~1/4 branch slots. */
void
writeRandomBlock(workload::ProgramImage &image, Addr base, Rng &rng)
{
    static const InstrKind kBranchKinds[] = {
        InstrKind::CondBranch, InstrKind::Jump,         InstrKind::Call,
        InstrKind::Return,     InstrKind::IndirectCall,
    };
    for (unsigned slot = 0; slot < kInstrPerBlock; ++slot) {
        Addr pc = base + slot * kInstrBytes;
        DecodedInstr di{InstrKind::Alu, false, kInvalidAddr};
        if (rng.chance(0.25)) {
            di.kind = kBranchKinds[rng.below(5)];
            if (isa::hasEncodedTarget(di.kind)) {
                di.hasTarget = true;
                std::int64_t delta =
                    static_cast<std::int64_t>(rng.below(1 << 12)) -
                    (1 << 11);
                di.target = static_cast<Addr>(
                    static_cast<std::int64_t>(pc) + delta * kInstrBytes);
            }
        }
        std::uint8_t buf[kInstrBytes];
        isa::writeWord(buf, isa::encodeInstr(pc, di));
        image.write(pc, buf, kInstrBytes);
    }
}

class PredecodeCacheProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(PredecodeCacheProperty, ColdAndCachedDecodesAreIdentical)
{
    Rng rng(GetParam());
    workload::ProgramImage image;
    constexpr unsigned kBlocks = 64;
    const Addr base = 0x40000;
    for (unsigned b = 0; b < kBlocks; ++b)
        writeRandomBlock(image, base + Addr{b} * kBlockBytes, rng);

    isa::Predecoder cached(image, /*variable_length=*/false);
    for (int round = 0; round < 3; ++round) {
        for (unsigned b = 0; b < kBlocks; ++b) {
            Addr block = base + Addr{b} * kBlockBytes;
            // A fresh predecoder per probe never hits its cache.
            isa::Predecoder cold(image, false);
            ASSERT_TRUE(sameBranches(cold.predecodeBlock(block),
                                     cached.predecodeBlock(block)))
                << "block " << b << " round " << round;
        }
    }
}

TEST_P(PredecodeCacheProperty, SurvivesEvictionAndRefill)
{
    Rng rng(GetParam() + 1000);
    workload::ProgramImage image;
    // Two blocks 1024 block-numbers apart alias onto the same entry of
    // the 256-entry direct-mapped cache, so decoding one evicts the
    // other.  (If the cache ever grows past 1024 entries these become
    // non-aliasing probes and the test degrades to the cold/cached
    // property above, still sound.)
    const Addr a = 0x40000;
    const Addr b = a + Addr{1024} * kBlockBytes;
    writeRandomBlock(image, a, rng);
    writeRandomBlock(image, b, rng);

    isa::Predecoder pd(image, false);
    auto first_a = pd.predecodeBlock(a);
    auto first_b = pd.predecodeBlock(b); // evicts a's entry
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(sameBranches(pd.predecodeBlock(a), first_a));
        ASSERT_TRUE(sameBranches(pd.predecodeBlock(b), first_b));
    }
}

TEST_P(PredecodeCacheProperty, DecodeAtMatchesFullBlockDecode)
{
    Rng rng(GetParam() + 2000);
    workload::ProgramImage image;
    const Addr block = 0x40000;
    writeRandomBlock(image, block, rng);

    isa::Predecoder pd(image, false);
    auto all = pd.predecodeBlock(block);
    std::vector<bool> is_branch_offset(kBlockBytes, false);
    for (const auto &br : all) {
        auto one = pd.decodeAt(block, br.byteOffset);
        ASSERT_EQ(one.size(), 1u);
        EXPECT_TRUE(sameBranches(one, {br}));
        is_branch_offset[br.byteOffset] = true;
    }
    for (unsigned off = 0; off < kBlockBytes; off += kInstrBytes) {
        if (!is_branch_offset[off]) {
            EXPECT_TRUE(pd.decodeAt(block, off).empty());
        }
    }
}

TEST_P(PredecodeCacheProperty, UnmappedAndVariableLengthStayEmpty)
{
    Rng rng(GetParam() + 3000);
    workload::ProgramImage image;
    writeRandomBlock(image, 0x40000, rng);

    isa::Predecoder fl(image, false);
    EXPECT_TRUE(fl.predecodeBlock(0x99000).empty());
    EXPECT_TRUE(fl.predecodeBlock(0x99000).empty()); // cached miss too

    // VL mode has no full-block decode; the cache must not change that.
    isa::Predecoder vl(image, true);
    EXPECT_TRUE(vl.predecodeBlock(0x40000).empty());
    EXPECT_TRUE(vl.predecodeBlock(0x40000).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredecodeCacheProperty,
                         ::testing::Values(7, 17, 27));

} // namespace
} // namespace dcfb
