/**
 * @file
 * Tests for the observability subsystem: stat-registry ID interning and
 * lazy counter handles, log2 histogram bucket edges, JSON parser
 * round-trips, trace on/off parity of the final counters, the
 * dcfb-prof-v1 profile records, and the bench harness's flag matching
 * and output-path checks.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exec/schedule.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "sim/warm_cache.h"
#include "workload/profiles.h"

namespace dcfb {
namespace {

// ---------------------------------------------------------------- registry

TEST(StatRegistry, CounterInterningIsStable)
{
    obs::StatRegistry reg;
    obs::Counter a = reg.counter("alpha");
    obs::Counter b = reg.counter("beta");
    // Re-registering the same name must return the same slot.
    obs::Counter a2 = reg.counter("alpha");
    a.add(3);
    a2.add(4);
    b.add(1);
    EXPECT_EQ(reg.get("alpha"), 7u);
    EXPECT_EQ(reg.get("beta"), 1u);
    EXPECT_EQ(reg.counterIndex("alpha"), reg.counterIndex("alpha"));
    EXPECT_NE(reg.counterIndex("alpha"), reg.counterIndex("beta"));
}

TEST(StatRegistry, AddAndGet)
{
    obs::StatRegistry reg;
    reg.counter("hits").add();
    reg.counter("hits").add(4);
    EXPECT_EQ(reg.get("hits"), 5u);
    EXPECT_EQ(reg.get("absent"), 0u);
}

TEST(StatRegistry, HandlesSurviveRegistryGrowth)
{
    obs::StatRegistry reg;
    obs::Counter first = reg.counter("first");
    // Force many registrations; the early handle must stay valid (the
    // registry's slots live in a deque, so addresses never move).
    for (int i = 0; i < 1000; ++i)
        reg.counter('c' + std::to_string(i)).add(1);
    first.add(5);
    EXPECT_EQ(reg.get("first"), 5u);
    EXPECT_EQ(reg.get("c999"), 1u);
}

TEST(StatRegistry, DefaultCounterDiscards)
{
    obs::Counter c;  // not registered anywhere
    c.add(42);       // must not crash; value goes to the discard slot
    obs::StatRegistry reg;
    EXPECT_EQ(reg.counters().size(), 0u);
}

TEST(StatRegistry, ResetZeroesCountersAndHistograms)
{
    obs::StatRegistry reg;
    obs::Counter c = reg.counter("n");
    obs::Histogram h = reg.histogram("h");
    c.add(9);
    reg.counter("m").add(20);
    h.sample(16);
    reg.reset();
    EXPECT_EQ(reg.get("n"), 0u);
    EXPECT_EQ(reg.get("m"), 0u);
    EXPECT_EQ(reg.counters().size(), 2u); // names survive reset
    auto snap = reg.histograms().at("h");
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.sum, 0u);
}

TEST(LazyCounter, UnfiredHandleReportsNoKey)
{
    obs::StatRegistry reg;
    reg.lazyCounter("quiet"); // handed out, never fired
    EXPECT_EQ(reg.counters().count("quiet"), 0u);
    EXPECT_EQ(reg.counterCount(), 0u);
}

TEST(LazyCounter, AddZeroCreatesTheKeyAtZero)
{
    obs::StatRegistry reg;
    obs::LazyCounter c = reg.lazyCounter("queue_cycles");
    c.add(0);
    auto all = reg.counters();
    ASSERT_EQ(all.count("queue_cycles"), 1u);
    EXPECT_EQ(all.at("queue_cycles"), 0u);
}

TEST(LazyCounter, FiredKeySurvivesResetAtZero)
{
    obs::StatRegistry reg;
    obs::LazyCounter c = reg.lazyCounter("hits");
    c.add(3);
    reg.reset();
    auto all = reg.counters();
    ASSERT_EQ(all.count("hits"), 1u);
    EXPECT_EQ(all.at("hits"), 0u);
    c.add(2); // still bound to the same slot
    EXPECT_EQ(reg.get("hits"), 2u);
}

TEST(LazyCounter, HandlesOnOneNameShareASlot)
{
    obs::StatRegistry reg;
    obs::LazyCounter a = reg.lazyCounter("misses");
    obs::LazyCounter b = reg.lazyCounter("misses");
    a.add(2);
    b.add(5);
    reg.counter("misses").add(1);
    EXPECT_EQ(reg.get("misses"), 8u);
    EXPECT_EQ(a.value(), 8u);
    EXPECT_EQ(reg.counters().size(), 1u);
}

TEST(LazyCounter, DefaultHandleDiscards)
{
    obs::LazyCounter c; // bound to no registry
    c.add(42);          // must not crash; goes to the discard slot
    obs::StatRegistry reg;
    obs::LazyCounter named = reg.lazyCounter("n");
    named.add(1);
    c.add(42);
    EXPECT_EQ(reg.get("n"), 1u);
    EXPECT_EQ(reg.counters().size(), 1u);
}

// --------------------------------------------------------------- histogram

TEST(Histogram, Log2BucketEdges)
{
    // Bucket 0 holds only value 0; bucket i (i >= 1) holds
    // [2^(i-1), 2^i - 1].
    EXPECT_EQ(obs::histBucket(0), 0u);
    EXPECT_EQ(obs::histBucket(1), 1u);
    EXPECT_EQ(obs::histBucket(2), 2u);
    EXPECT_EQ(obs::histBucket(3), 2u);
    EXPECT_EQ(obs::histBucket(4), 3u);
    for (unsigned k = 1; k < 63; ++k) {
        std::uint64_t pow = 1ull << k;
        EXPECT_EQ(obs::histBucket(pow), k + 1) << "2^" << k;
        EXPECT_EQ(obs::histBucket(pow - 1), k) << "2^" << k << "-1";
        EXPECT_EQ(obs::histBucket(pow + 1), k + 1) << "2^" << k << "+1";
    }
    EXPECT_EQ(obs::histBucket(~0ull), 64u);

    // Bounds are consistent with the bucket function.
    for (unsigned i = 0; i < obs::kHistBuckets; ++i) {
        EXPECT_EQ(obs::histBucket(obs::histBucketLow(i)), i);
        EXPECT_EQ(obs::histBucket(obs::histBucketHigh(i)), i);
    }
}

TEST(Histogram, SnapshotStatsAndMerge)
{
    obs::StatRegistry reg;
    obs::Histogram h = reg.histogram("lat");
    h.sample(0);
    h.sample(1);
    h.sample(7);
    auto snap = reg.histograms().at("lat");
    EXPECT_EQ(snap.count, 3u);
    EXPECT_EQ(snap.sum, 8u);
    EXPECT_EQ(snap.max, 7u);
    EXPECT_DOUBLE_EQ(snap.mean(), 8.0 / 3.0);

    obs::HistogramSnapshot merged;
    merged.merge(snap);
    merged.merge(snap);
    EXPECT_EQ(merged.count, 6u);
    EXPECT_EQ(merged.sum, 16u);
    EXPECT_EQ(merged.max, 7u);
}

// -------------------------------------------------------------------- json

TEST(Json, ParseRoundTripsBasicDocument)
{
    const char *text =
        R"({"a": 1, "b": [true, null, "x\n\"y\""], "c": {"d": 2.5}})";
    auto parsed = obs::JsonValue::parse(text);
    ASSERT_TRUE(parsed.has_value());
    auto reparsed = obs::JsonValue::parse(parsed->dump());
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(*parsed, *reparsed);
    EXPECT_EQ(parsed->find("a")->asUint(), 1u);
    EXPECT_EQ(parsed->find("b")->items().size(), 3u);
}

TEST(Json, Uint64RoundTripsExactly)
{
    obs::JsonValue v = obs::JsonValue::object();
    v["big"] = std::uint64_t{18446744073709551615ull};
    auto parsed = obs::JsonValue::parse(v.dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("big")->asUint(), 18446744073709551615ull);
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_FALSE(obs::JsonValue::parse("{").has_value());
    EXPECT_FALSE(obs::JsonValue::parse("[1,]").has_value());
    EXPECT_FALSE(obs::JsonValue::parse("\"unterminated").has_value());
    EXPECT_FALSE(obs::JsonValue::parse("{\"a\":1} trailing").has_value());
}

TEST(Json, TableJsonMatchesTextCells)
{
    sim::Table table({"workload", "metric"});
    table.addRow({"Web (Apache)", sim::Table::pct(0.123456)});
    auto json = table.toJson("t");
    const auto &rows = json.find("rows")->items();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].find("metric")->asString(), "12.3%");
}

// ------------------------------------------------------------------- trace

sim::SystemConfig
traceTestConfig()
{
    auto cfg = sim::makeConfig(workload::serverProfile("Web (Apache)"),
                               sim::Preset::SN4LDisBtb);
    cfg.functionalWarmInstrs = 200000;
    return cfg;
}

TEST(Trace, OnOffParityOfFinalCounters)
{
    sim::RunWindows windows{20000, 30000};

    ASSERT_FALSE(obs::Tracing::sinkOpen());
    auto off = sim::simulate(traceTestConfig(), windows);

    std::string path = ::testing::TempDir() + "dcfb_trace_parity.jsonl";
    ASSERT_TRUE(obs::Tracing::open(path));
    auto on = sim::simulate(traceTestConfig(), windows);
    obs::Tracing::close();
    ASSERT_FALSE(obs::Tracing::sinkOpen());

    // Tracing must be purely observational: identical counters,
    // histograms, and derived metrics with the sink on or off.
    EXPECT_EQ(on, off);

    // The stream itself must be valid JSONL with the expected fields.
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    std::size_t records = 0, misses = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        auto v = obs::JsonValue::parse(line);
        ASSERT_TRUE(v.has_value()) << line;
        ++records;
        if (const auto *cls = v->find("class")) {
            ++misses;
            std::string c = cls->asString();
            EXPECT_TRUE(c == "seq" || c == "disc" || c == "btb" || c == "-")
                << c;
            ASSERT_NE(v->find("outcome"), nullptr);
            ASSERT_NE(v->find("cycle"), nullptr);
        }
    }
    EXPECT_GT(records, 0u);
    EXPECT_GT(misses, 0u);
    std::remove(path.c_str());
}

TEST(Trace, BoundedStreamCountsDrops)
{
    std::string path = ::testing::TempDir() + "dcfb_trace_bounded.jsonl";
    obs::Tracing::Config cfg;
    cfg.path = path;
    cfg.maxEvents = 10;
    ASSERT_TRUE(obs::Tracing::open(cfg));
    sim::simulate(traceTestConfig(), sim::RunWindows{5000, 10000});
    EXPECT_LE(obs::Tracing::emitted(), 10u);
    EXPECT_GT(obs::Tracing::dropped(), 0u);
    obs::Tracing::close();
    std::remove(path.c_str());
}

// ---------------------------------------------------------------- profiler

TEST(Profiler, ProfJsonSchemaStableUnderJobs4)
{
    obs::Profiler::drain(); // discard records from earlier tests
    obs::Profiler::setEnabled(true);

    // Four cells run on four workers; the JSON section must come out
    // sorted and schema-complete regardless of completion order.
    struct CellSpec
    {
        const char *workload;
        sim::Preset preset;
    };
    const CellSpec cells[] = {
        {"Web (Apache)", sim::Preset::Baseline},
        {"Web (Apache)", sim::Preset::SN4L},
        {"Web Frontend", sim::Preset::Baseline},
        {"Web Frontend", sim::Preset::SN4L},
    };
    exec::runIndexed("prof", 4, 4, [&](std::size_t i) {
        auto cfg = sim::makeConfig(
            workload::serverProfile(cells[i].workload), cells[i].preset);
        cfg.functionalWarmInstrs = 40000;
        sim::simulate(cfg, sim::RunWindows{4000, 6000});
    });
    obs::Profiler::setEnabled(false);

    obs::JsonValue prof = obs::profJson(obs::Profiler::drain());
    EXPECT_EQ(prof.find("schema")->asString(), "dcfb-prof-v1");
    const auto &rows = prof.find("cells")->items();
    ASSERT_EQ(rows.size(), 4u);

    std::string prev_key;
    for (const auto &cell : rows) {
        for (const char *key :
             {"workload", "design", "cycles", "instructions", "setup_s",
              "warm", "warm_s", "measure_s", "sim_s", "cycles_per_sec",
              "phase_s"}) {
            EXPECT_NE(cell.find(key), nullptr) << "missing " << key;
        }
        // Deterministic order: sorted by (workload, design).
        std::string key = cell.find("workload")->asString() + "\x01" +
            cell.find("design")->asString();
        EXPECT_GE(key, prev_key);
        prev_key = key;

        // Phase attribution must roughly tile the simulated walls: the
        // phases cover the warm+measure cycle loops, so their sum is
        // positive and bounded by the total simulation wall.
        double phase_sum = 0.0;
        for (const auto &kv : cell.find("phase_s")->members())
            phase_sum += kv.second.asDouble();
        double sim_s = cell.find("sim_s")->asDouble();
        EXPECT_GT(phase_sum, 0.0);
        EXPECT_LE(phase_sum, sim_s * 1.5 + 1e-3);
    }
}

/** The profiled step is the plain step body with timestamps: for every
 *  preset, a run with the profiler on must produce the same RunResult,
 *  to the serialized byte, as the run with it off. */
TEST(Profiler, ProfiledRunsAreBitIdenticalForAllPresets)
{
    const sim::Preset presets[] = {
        sim::Preset::Baseline,   sim::Preset::NL,
        sim::Preset::N2L,        sim::Preset::N4L,
        sim::Preset::N8L,        sim::Preset::N4LPlain,
        sim::Preset::SN4L,       sim::Preset::DisOnly,
        sim::Preset::SN4LDis,    sim::Preset::SN4LDisBtb,
        sim::Preset::ClassicDis, sim::Preset::Confluence,
        sim::Preset::Boomerang,  sim::Preset::Shotgun,
        sim::Preset::PerfectL1i, sim::Preset::PerfectL1iBtb,
        sim::Preset::Fdip,       sim::Preset::MicroBtb};
    auto run = [](sim::Preset preset, bool profiled) {
        auto cfg = sim::makeConfig(
            workload::serverProfile("Web (Apache)"), preset);
        cfg.profile.numFunctions = 24;
        cfg.profile.dataFootprint = 1ull << 20;
        cfg.functionalWarmInstrs = 40000;
        obs::Profiler::setEnabled(profiled);
        sim::RunResult res = sim::simulate(cfg, sim::RunWindows{4000, 6000});
        obs::Profiler::setEnabled(false);
        return res;
    };

    obs::Profiler::drain();
    for (sim::Preset preset : presets) {
        sim::RunResult plain = run(preset, false);
        sim::RunResult profiled = run(preset, true);
        EXPECT_EQ(profiled, plain) << sim::presetName(preset);
        EXPECT_EQ(sim::toJson(profiled).dump(2), sim::toJson(plain).dump(2))
            << sim::presetName(preset);
    }
    EXPECT_EQ(obs::Profiler::drain().size(), std::size(presets));
}

/** Setup time is bimodal, so the profile record says whether the cell
 *  walked or restored its warmup. */
TEST(Profiler, RecordNamesTheWarmSource)
{
    auto cfg = sim::makeConfig(workload::serverProfile("Web (Apache)"),
                               sim::Preset::Baseline);
    cfg.functionalWarmInstrs = 40000;
    cfg.program = workload::ImageCache::global().get(cfg.profile);

    obs::Profiler::drain();
    obs::Profiler::setEnabled(true);
    sim::WarmCache::global().clear();
    for (int i = 0; i < 3; ++i)
        sim::simulate(cfg, sim::RunWindows{4000, 6000});
    obs::Profiler::setEnabled(false);

    const std::vector<std::string> want = {"cold", "stored", "restored"};
    std::vector<std::string> warm;
    for (const auto &rec : obs::Profiler::drain())
        warm.push_back(rec.warm);
    EXPECT_EQ(warm, want);
}

/** A 4-cell grid on 4 workers: every cell leaves one record, and its
 *  sampled phases tile its loop wall. */
TEST(Profiler, SampledPhasesTileTheLoopWall)
{
    const std::vector<std::string> workloads = {
        "Web (Apache)", "Web Frontend", "OLTP (DB A)", "Media Streaming"};
    obs::Profiler::drain();
    obs::Profiler::setEnabled(true);
    exec::runIndexed("tiling", workloads.size(), 4, [&](std::size_t i) {
        auto cfg = sim::makeConfig(workload::serverProfile(workloads[i]),
                                   sim::Preset::SN4L);
        cfg.functionalWarmInstrs = 40000;
        sim::simulate(cfg, sim::RunWindows{4000, 6000});
    });
    obs::Profiler::setEnabled(false);
    std::vector<obs::ProfRecord> records = obs::Profiler::drain();
    ASSERT_EQ(records.size(), workloads.size());

    // The sampled phases are scaled to tile the loop wall outside the
    // integrity sweeps.
    obs::JsonValue prof = obs::profJson(records);
    for (const auto &cell : prof.find("cells")->items()) {
        const obs::JsonValue *phases = cell.find("phase_s");
        double loop = cell.find("sim_s")->asDouble() -
            phases->find("integrity")->asDouble();
        double sum = 0.0;
        for (const auto &kv : phases->members()) {
            if (kv.first != "integrity")
                sum += kv.second.asDouble();
        }
        EXPECT_NEAR(sum, loop, 0.01 * loop);
    }
}

// ----------------------------------------------------------------- harness

/** Parse @p args as a bench's command line, then exit 0: the Harness is
 *  never destroyed, so nothing is written.  For death tests. */
void
parseHarnessArgs(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (auto &arg : args)
        argv.push_back(arg.data());
    bench::Harness harness(static_cast<int>(argv.size()), argv.data(),
                           "figure", "claim");
    std::exit(0);
}

/** Harness flags match as `--flag` or `--flag=value`, never by prefix: a
 *  misspelt flag and a removed one exit 2 as unknown arguments instead
 *  of being taken for a known flag or quietly ignored. */
TEST(HarnessDeathTest, InexactOrRemovedFlagIsUnknown)
{
    std::string json = ::testing::TempDir() + "dcfb_harness_flags.json";
    EXPECT_EXIT(parseHarnessArgs({"--jobs=2", "--json=" + json}),
                ::testing::ExitedWithCode(0), "");
    std::remove(json.c_str());
    const std::vector<std::vector<std::string>> unknown = {
        {"--jobs4"}, {"--jsonx", "out"}, {"--cache", "dir"}};
    for (const auto &args : unknown) {
        EXPECT_EXIT(parseHarnessArgs(args), ::testing::ExitedWithCode(2),
                    "unknown argument: " + args[0])
            << args[0];
    }
}

/** An output path that cannot be created exits 2 while the arguments
 *  are parsed, before any cell runs, instead of after the sweep. */
TEST(HarnessDeathTest, UncreatableOutputPathExitsAtParse)
{
    const std::string bad = "/nonexistent-dcfb-dir/out";
    EXPECT_EXIT(parseHarnessArgs({"--json", bad + ".json"}),
                ::testing::ExitedWithCode(2), "cannot open");
    EXPECT_EXIT(parseHarnessArgs({"--trace", bad + ".jsonl"}),
                ::testing::ExitedWithCode(2), "cannot open trace file");
}

} // namespace
} // namespace dcfb
