/**
 * @file
 * Tests for the observability subsystem: stat-registry ID interning,
 * log2 histogram bucket edges, JSON round-trips (parser, RunResult),
 * trace on/off parity of the final counters, span timelines, and the
 * dcfb-prof-v1 profile schema, including the warm source both name.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "exec/schedule.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/span.h"
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

TEST(StatRegistry, HandlesSurviveRegistryGrowth)
{
    obs::StatRegistry reg;
    obs::Counter first = reg.counter("first");
    // Force many registrations; the early handle must stay valid (the
    // registry's slots live in a deque, so addresses never move).
    for (int i = 0; i < 1000; ++i)
        reg.counter("c" + std::to_string(i)).add(1);
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
    h.sample(16);
    reg.reset();
    EXPECT_EQ(reg.get("n"), 0u);
    auto snap = reg.histograms().at("h");
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.sum, 0u);
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

TEST(Json, RunResultRoundTrips)
{
    sim::RunResult res;
    res.workload = "Web (Apache)";
    res.design = "SN4L+Dis+BTB";
    res.cycles = 60000;
    res.instructions = 54321;
    res.stats["l1i.l1i_misses"] = 1234;
    res.stats["sim.stall_frontend"] = 999;
    obs::HistogramSnapshot snap;
    snap.count = 3;
    snap.sum = 8;
    snap.max = 7;
    snap.buckets = {{0, 1}, {1, 1}, {3, 1}};
    res.hists["l1i.miss_latency"] = snap;

    auto json = sim::toJson(res);
    auto parsed = obs::JsonValue::parse(json.dump(2));
    ASSERT_TRUE(parsed.has_value());
    auto back = sim::runResultFromJson(*parsed);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, res);
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

TEST(Trace, ChromeFormatIsValidJson)
{
    std::string path = ::testing::TempDir() + "dcfb_trace_chrome.json";
    ASSERT_TRUE(obs::Tracing::open(path));
    auto res = sim::simulate(traceTestConfig(), sim::RunWindows{5000, 10000});
    obs::Tracing::close();
    EXPECT_GT(res.instructions, 0u);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::stringstream buf;
    buf << in.rdbuf();
    auto v = obs::JsonValue::parse(buf.str());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->kind(), obs::JsonValue::Kind::Array);
    EXPECT_GT(v->items().size(), 0u);
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

// ------------------------------------------------------------------- spans

TEST(Spans, DisabledSinkIsNoOp)
{
    ASSERT_FALSE(obs::Spans::enabled());
    {
        obs::SpanScope outer("test.outer");
        obs::SpanScope inner("test.inner", "label");
        // Disabled scopes mint no IDs and set no ambient context.
        EXPECT_EQ(outer.spanId(), 0u);
        EXPECT_EQ(inner.spanId(), 0u);
        EXPECT_EQ(obs::Spans::current().trace, 0u);
    }
    EXPECT_EQ(obs::Spans::recorded(), 0u);
}

TEST(Spans, ScopesNestAndExportChromeTimeline)
{
    std::string path = ::testing::TempDir() + "dcfb_spans_nest.json";
    ASSERT_TRUE(obs::Spans::open(path));
    ASSERT_TRUE(obs::Spans::enabled());

    std::uint64_t outer_trace = 0;
    std::uint64_t outer_span = 0;
    {
        obs::SpanScope outer("test.outer", "cell-0");
        outer_trace = outer.traceId();
        outer_span = outer.spanId();
        ASSERT_NE(outer_trace, 0u);
        // Ambient context is the live scope.
        EXPECT_EQ(obs::Spans::current().trace, outer_trace);
        EXPECT_EQ(obs::Spans::current().span, outer_span);
        {
            obs::SpanScope inner("test.inner");
            // Nested scope joins the ambient trace.
            EXPECT_EQ(inner.traceId(), outer_trace);
            EXPECT_NE(inner.spanId(), outer_span);
        }
        // Inner scope restored the ambient pair on destruction.
        EXPECT_EQ(obs::Spans::current().span, outer_span);
    }
    EXPECT_EQ(obs::Spans::current().trace, 0u);

    // A second thread has no ambient span, so its scope roots a new
    // trace on the thread's own named track (the pool-worker pattern:
    // every exec.cell span is a root on its worker's track).
    std::thread worker([&] {
        obs::Spans::setThreadName("test-worker");
        obs::SpanScope cross("test.cross");
        EXPECT_NE(cross.traceId(), 0u);
        EXPECT_NE(cross.traceId(), outer_trace);
    });
    worker.join();

    EXPECT_EQ(obs::Spans::recorded(), 3u);
    EXPECT_EQ(obs::Spans::dropped(), 0u);
    obs::Spans::close();
    ASSERT_FALSE(obs::Spans::enabled());

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::stringstream buf;
    buf << in.rdbuf();
    auto doc = obs::JsonValue::parse(buf.str());
    ASSERT_TRUE(doc.has_value());
    ASSERT_EQ(doc->kind(), obs::JsonValue::Kind::Array);

    // Index the "X" events by span ID and verify every parent resolves
    // (no orphans) and the worker's span is on its named track.
    std::map<std::string, const obs::JsonValue *> by_span;
    std::map<std::uint64_t, std::string> thread_names;
    const obs::JsonValue *cross = nullptr;
    for (const auto &ev : doc->items()) {
        const obs::JsonValue *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->asString() == "M" &&
            ev.find("name")->asString() == "thread_name") {
            thread_names[ev.find("tid")->asUint()] =
                ev.find("args")->find("name")->asString();
        }
        if (ph->asString() != "X")
            continue;
        by_span[ev.find("args")->find("span")->asString()] = &ev;
        if (ev.find("name")->asString() == "test.cross")
            cross = &ev;
    }
    EXPECT_EQ(by_span.size(), 3u);
    ASSERT_NE(cross, nullptr);
    EXPECT_EQ(thread_names[cross->find("tid")->asUint()], "test-worker");
    EXPECT_EQ(cross->find("args")->find("parent"), nullptr);
    for (const auto &kv : by_span) {
        const obs::JsonValue *parent = kv.second->find("args")->find(
            "parent");
        if (parent)
            EXPECT_TRUE(by_span.count(parent->asString()))
                << "orphaned parent " << parent->asString();
    }
    std::remove(path.c_str());
}

TEST(Spans, BoundedBufferCountsDrops)
{
    std::string path = ::testing::TempDir() + "dcfb_spans_bounded.json";
    obs::Spans::Config cfg;
    cfg.path = path;
    cfg.maxPerThread = 4;
    ASSERT_TRUE(obs::Spans::open(cfg));
    for (int i = 0; i < 10; ++i)
        obs::SpanScope scope("test.burst");
    EXPECT_EQ(obs::Spans::recorded(), 4u);
    EXPECT_EQ(obs::Spans::dropped(), 6u);
    obs::Spans::close();
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
    exec::parallelFor(4, 4, [&](std::size_t i) {
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

/** Setup time is bimodal, so the sim.setup span and the profile record
 *  both say whether the cell walked or restored its warmup. */
TEST(Profiler, SetupSpanAndRecordNameTheWarmSource)
{
    auto cfg = sim::makeConfig(workload::serverProfile("Web (Apache)"),
                               sim::Preset::Baseline);
    cfg.functionalWarmInstrs = 40000;
    cfg.program = workload::ImageCache::global().get(cfg.profile);

    std::string path = ::testing::TempDir() + "dcfb_spans_warm.json";
    ASSERT_TRUE(obs::Spans::open(path));
    obs::Profiler::drain();
    obs::Profiler::setEnabled(true);
    sim::WarmCache::global().clear();
    for (int i = 0; i < 3; ++i)
        sim::simulate(cfg, sim::RunWindows{4000, 6000});
    obs::Profiler::setEnabled(false);
    obs::Spans::close();

    const std::vector<std::string> want = {"cold", "stored", "restored"};
    std::vector<std::string> records;
    for (const auto &rec : obs::Profiler::drain())
        records.push_back(rec.warm);
    EXPECT_EQ(records, want);

    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    auto doc = obs::JsonValue::parse(buf.str());
    ASSERT_TRUE(doc.has_value());
    std::vector<std::string> labels;
    for (const auto &ev : doc->items()) {
        if (ev.find("ph")->asString() == "X" &&
            ev.find("name")->asString() == "sim.setup")
            labels.push_back(ev.find("args")->find("label")->asString());
    }
    EXPECT_EQ(labels, (std::vector<std::string>{"warm=cold", "warm=stored",
                                                "warm=restored"}));
    std::remove(path.c_str());
}

} // namespace
} // namespace dcfb
