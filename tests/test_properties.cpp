/**
 * @file
 * Cross-module property tests (parameterized sweeps): cache invariants
 * under adversarial streams, TAGE vs. static predictors on synthetic
 * branch families, trace-walker structural invariants across every
 * profile and seed, DV-LLC holder invariants under mixed traffic, and
 * NoC monotonicity properties.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "frontend/tage.h"
#include "mem/cache.h"
#include "mem/llc.h"
#include "mem/memory.h"
#include "noc/mesh.h"
#include "sim/report.h"
#include "workload/profiles.h"
#include "workload/trace.h"

namespace dcfb {
namespace {

/** Cache LRU property: a block re-touched every k accesses survives in
 *  a set with associativity > k distinct conflicting blocks. */
class LruProperty : public ::testing::TestWithParam<unsigned>
{};

TEST_P(LruProperty, HotBlockSurvivesColdConflicts)
{
    unsigned assoc = GetParam();
    mem::SetAssocCache<int> cache(4, assoc);
    Addr hot = 0; // set 0
    cache.insert(hot, 1);
    Rng rng(assoc);
    for (int i = 0; i < 2000; ++i) {
        // Touch hot, then insert assoc-1 distinct cold conflicts.
        ASSERT_NE(cache.lookup(hot), nullptr) << "iteration " << i;
        for (unsigned c = 0; c < assoc - 1; ++c) {
            Addr cold = (Addr{1} + rng.below(1000)) * 4 * kBlockBytes;
            cache.insert(cold, 0);
        }
    }
    EXPECT_TRUE(cache.contains(hot));
}

INSTANTIATE_TEST_SUITE_P(Assocs, LruProperty,
                         ::testing::Values(2, 4, 8, 16));

/** A cache never reports a block it did not insert. */
TEST(CacheProperties, NoPhantomHits)
{
    mem::SetAssocCache<int> cache(8, 4);
    std::set<Addr> inserted;
    Rng rng(99);
    for (int i = 0; i < 5000; ++i) {
        Addr a = rng.below(512) * kBlockBytes;
        if (rng.chance(0.4)) {
            cache.insert(a, 0);
            inserted.insert(blockAlign(a));
        } else if (cache.contains(a)) {
            ASSERT_TRUE(inserted.count(blockAlign(a)));
        }
    }
}

/** TAGE beats a static always-taken predictor on biased branches of
 *  either polarity (sweep over bias). */
class TageBias : public ::testing::TestWithParam<int>
{};

TEST_P(TageBias, BeatsStaticPrediction)
{
    double bias = GetParam() / 100.0;
    frontend::Tage tage;
    Rng rng(GetParam());
    int tage_correct = 0, static_correct = 0, n = 6000;
    for (int i = 0; i < n; ++i) {
        Addr pc = 0x40000 + (i % 16) * 8;
        bool actual = rng.chance(bias);
        tage_correct += tage.predict(pc) == actual;
        static_correct += actual; // always-taken
        tage.update(pc, actual);
    }
    EXPECT_GE(tage_correct + n / 10, static_correct);
    // And always beats always-NOT-taken for taken-biased streams.
    if (bias > 0.5) {
        EXPECT_GT(tage_correct, n - static_correct);
    }
}

INSTANTIATE_TEST_SUITE_P(Biases, TageBias,
                         ::testing::Values(10, 30, 70, 90, 97));

/** Walker invariants hold for every profile and several seeds. */
class WalkerInvariants
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>>
{};

TEST_P(WalkerInvariants, ConnectedAndBalanced)
{
    auto [profile_idx, seed] = GetParam();
    auto names = workload::serverWorkloadNames();
    auto profile = workload::serverProfile(names[profile_idx]);
    // Shrink for test speed, keeping the structure.
    profile.numFunctions = std::min(profile.numFunctions, 300u);
    auto program = workload::buildProgram(profile);
    workload::TraceWalker walker(program, seed);

    std::int64_t depth = 0;
    workload::TraceEntry prev = walker.next();
    for (int i = 0; i < 30000; ++i) {
        workload::TraceEntry e = walker.next();
        ASSERT_EQ(e.pc, prev.nextPc());
        if (e.kind == isa::InstrKind::Call ||
            e.kind == isa::InstrKind::IndirectCall) {
            ++depth;
        } else if (e.kind == isa::InstrKind::Return) {
            --depth;
        }
        ASSERT_GE(depth, 0);
        ASSERT_LE(depth, profile.maxCallDepth + 1);
        prev = e;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WalkerInvariants,
    ::testing::Combine(::testing::Values(0, 1, 3, 5),
                       ::testing::Values(1u, 7u, 99u)));

/** DV-LLC invariant: holder mode iff the set holds an instruction
 *  block, under randomized mixed instruction/data traffic. */
TEST(DvLlcProperty, HolderIffInstructionResident)
{
    noc::MeshConfig mc;
    mc.bgUtilization = 0.0;
    noc::MeshModel mesh(mc);
    mem::MemoryModel memory(mem::MemoryConfig{});
    mem::LlcConfig lc;
    lc.capacityBytes = 64 * 1024;
    lc.dvllc = true;
    mem::Llc llc(lc, mesh, memory, 0);

    Rng rng(12345);
    for (int i = 0; i < 4000; ++i) {
        Addr a = rng.below(2048) * kBlockBytes;
        llc.warmTouch(a, rng.chance(0.3));
    }
    // Recompute the invariant externally: for each set, holder mode
    // must equal "set contains an instruction block".  We can only see
    // holder count; check it is consistent with a probe-based count.
    std::size_t holders = llc.bfHolderSets();
    EXPECT_GT(holders, 0u);
    EXPECT_LE(holders, 64u); // 64 sets in this config
}

/** NoC: latency is monotone in hop distance and never below zero-load. */
TEST(MeshProperty, LatencyMonotoneInDistance)
{
    noc::MeshConfig mc;
    mc.bgUtilization = 0.0;
    noc::MeshModel mesh(mc);
    Cycle prev = 0;
    for (unsigned dst = 0; dst < 4; ++dst) {
        Cycle lat = mesh.traverse(0, dst, 100000 + dst * 1000, 1) -
            (100000 + dst * 1000);
        EXPECT_GE(lat, mesh.zeroLoadLatency(0, dst));
        if (dst > 0) {
            EXPECT_GT(lat, prev);
        }
        prev = lat;
    }
}

/** Memory bandwidth: n back-to-back same-channel accesses serialize. */
TEST(MemoryProperty, ChannelSerialization)
{
    mem::MemoryConfig mc;
    mem::MemoryModel memory(mc);
    Cycle last = 0;
    for (int i = 0; i < 16; ++i) {
        Cycle r = memory.access(Addr{static_cast<unsigned>(i)} *
                                    mc.channels * kBlockBytes,
                                1000);
        EXPECT_GE(r, last);
        if (i > 0) {
            EXPECT_EQ(r, last + mc.channelBusyPerBlock);
        }
        last = r;
    }
}

/** RunResult JSON round-trip: parse(dump(toJson(r))) == toJson(r) for
 *  randomized results, including extreme counter values and stat/hist
 *  names that need JSON escaping.  The trace and snapshot tests check
 *  emitted JSON by reading it back through the parser, which they can
 *  only trust if a document reads back exactly as it was built. */
class RunResultRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RunResultRoundTrip, ExactThroughSerializeAndParse)
{
    Rng rng(GetParam());
    const std::string tricky[] = {
        "plain.name",
        "quote\"back\\slash",
        "tab\tnewline\nbell\x07",
        "utf8 \xc3\xa9\xc2\xb5",
        "spaces and /slashes/",
    };
    const std::uint64_t extremes[] = {
        0,
        1,
        0x7fffffffffffffffull,
        0x8000000000000000ull,
        ~std::uint64_t{0},
    };

    for (int trial = 0; trial < 20; ++trial) {
        sim::RunResult r;
        r.workload = tricky[rng.below(5)] + std::to_string(trial);
        r.design = tricky[rng.below(5)];
        r.cycles = rng.chance(0.3) ? extremes[rng.below(5)] : rng.next();
        r.instructions = rng.next();
        unsigned n_stats = static_cast<unsigned>(rng.below(8));
        for (unsigned s = 0; s < n_stats; ++s) {
            std::string name =
                tricky[rng.below(5)] + "." + std::to_string(s);
            r.stats[name] =
                rng.chance(0.4) ? extremes[rng.below(5)] : rng.next();
        }
        unsigned n_hists = static_cast<unsigned>(rng.below(4));
        for (unsigned h = 0; h < n_hists; ++h) {
            obs::HistogramSnapshot snap;
            unsigned n_buckets = static_cast<unsigned>(rng.below(6));
            for (unsigned b = 0; b < n_buckets; ++b) {
                snap.buckets.emplace_back(
                    b * 7 + static_cast<unsigned>(rng.below(7)),
                    rng.chance(0.3) ? extremes[rng.below(5)]
                                    : rng.below(1u << 20));
                snap.count += snap.buckets.back().second;
            }
            snap.sum = rng.next();
            snap.max = extremes[rng.below(5)];
            r.hists.emplace("hist." + std::to_string(h), std::move(snap));
        }

        // Document model -> text -> parser -> document model.
        obs::JsonValue doc = sim::toJson(r);
        std::string text = doc.dump(2);
        auto parsed = obs::JsonValue::parse(text);
        ASSERT_TRUE(parsed.has_value()) << text;
        EXPECT_EQ(*parsed, doc) << text;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunResultRoundTrip,
                         ::testing::Values(1u, 42u, 20260806u));

} // namespace
} // namespace dcfb
