/**
 * @file
 * Tests for the parallel experiment engine: exec::runIndexed semantics
 * (every index once, occupancy, the failure a sweep raises), the
 * jobs-resolution rules, workload::ImageCache sharing, and -- the
 * contract everything else rests on -- that `--jobs 1` and `--jobs 4`
 * grids produce identical RunResults for every cell of every preset.
 * The parallel grid tests double as the TSan target: CI runs this
 * binary under ThreadSanitizer to prove the concurrency model clean.
 *
 * Also the shared functional-warmup checkpoint (sim::WarmCache):
 * restored cells equal walked ones for every preset, admission, key
 * coverage, and workers waiting on a store.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "all_presets.h"
#include "exec/grid.h"
#include "exec/schedule.h"
#include "obs/trace.h"
#include "rt/error.h"
#include "rt/faults.h"
#include "rt/watchdog.h"
#include "sim/report.h"
#include "sim/system.h"
#include "sim/warm_cache.h"
#include "workload/profiles.h"

namespace dcfb {
namespace {

TEST(Schedule, ResolveJobsPrecedence)
{
    unsigned saved = exec::defaultJobs();
    exec::setDefaultJobs(3);
    EXPECT_EQ(exec::resolveJobs(), 3u);
    EXPECT_EQ(exec::resolveJobs(2), 2u); // explicit request wins
    exec::setDefaultJobs(0);
    EXPECT_EQ(exec::resolveJobs(), exec::hardwareJobs()); // auto
    exec::setDefaultJobs(saved);
}

TEST(Schedule, RunIndexedRunsEachIndexOnce)
{
    std::vector<int> serial(64), parallel(64);
    for (std::size_t i = 0; i < serial.size(); ++i)
        serial[i] = static_cast<int>(i * i + 1);
    exec::runIndexed("unit", parallel.size(), 4, [&](std::size_t i) {
        parallel[i] += static_cast<int>(i * i + 1);
    });
    EXPECT_EQ(parallel, serial);
}

/** Cell 0 fails late and cell 1 early: every job count raises cell 0's
 *  error, the one the serial loop meets first. */
TEST(Schedule, RunIndexedRethrowsLowestFailingIndex)
{
    for (unsigned jobs : {1u, 2u}) {
        std::string what;
        try {
            exec::runIndexed("fail", 4, jobs, [](std::size_t i) {
                if (i == 0) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(100));
                }
                if (i <= 1)
                    throw std::runtime_error("cell " + std::to_string(i));
            });
        } catch (const std::runtime_error &e) {
            what = e.what();
        }
        EXPECT_EQ(what, "cell 0") << "jobs " << jobs;
    }
}

TEST(Schedule, RunIndexedReportsCellsAndOccupancy)
{
    auto report = exec::runIndexed(
        "unit", 6, 2,
        [](std::size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        },
        [](std::size_t i) { return "cell-" + std::to_string(i); });
    EXPECT_EQ(report.label, "unit");
    EXPECT_EQ(report.jobs, 2u);
    EXPECT_EQ(report.cells, 6u);
    ASSERT_EQ(report.cellTimes.size(), 6u);
    EXPECT_EQ(report.cellTimes[5].label, "cell-5");
    EXPECT_GT(report.cellTimes[0].seconds, 0.0);
    EXPECT_GT(report.wallSeconds, 0.0);
    EXPECT_GT(report.occupancy(), 0.0);
    EXPECT_LE(report.occupancy(), 1.0 + 1e-9);
}

TEST(Schedule, ExecLogDrainsPushedReports)
{
    exec::ExecLog::drain(); // discard whatever earlier tests logged
    exec::ExecReport r;
    r.label = "probe";
    r.jobs = 2;
    exec::ExecLog::push(r);
    auto drained = exec::ExecLog::drain();
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].label, "probe");
    EXPECT_TRUE(exec::ExecLog::drain().empty());
}

TEST(ImageCache, SharesOneBuildPerProfile)
{
    workload::ImageCache cache;
    auto a = cache.server("Web (Apache)");
    auto b = cache.server("Web (Apache)");
    EXPECT_EQ(a.get(), b.get()); // the same immutable program
    EXPECT_EQ(cache.built(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    // The VL-ISA flavour is a different image, cached separately.
    auto vl = cache.server("Web (Apache)", true);
    EXPECT_NE(vl.get(), a.get());
    EXPECT_EQ(cache.built(), 2u);

    // A tweaked profile must not alias the stock entry.
    auto profile = workload::serverProfile("Web (Apache)");
    profile.numFunctions += 1;
    auto tweaked = cache.get(profile);
    EXPECT_NE(tweaked.get(), a.get());
    EXPECT_EQ(cache.built(), 3u);
}

TEST(ImageCache, SharedProgramsSurviveClear)
{
    workload::ImageCache cache;
    auto a = cache.server("Web Frontend");
    cache.clear();
    EXPECT_GT(a->codeBytes(), 0u); // our ref keeps the image alive
    auto b = cache.server("Web Frontend");
    EXPECT_NE(a.get(), b.get()); // rebuilt after clear
    EXPECT_EQ(a->codeEnd, b->codeEnd); // deterministic build
}

TEST(Watchdog, TripCarriesCellLabel)
{
    rt::Watchdog wd(100);
    wd.setCell("Web (Apache)/SN4L");
    wd.rearm(0, 10, 10);
    EXPECT_FALSE(wd.observe(50, 10, 10).has_value());
    auto err = wd.observe(500, 10, 10);
    ASSERT_TRUE(err.has_value());
    bool found = false;
    for (const auto &kv : err->context)
        found |= kv.first == "cell" && kv.second == "Web (Apache)/SN4L";
    EXPECT_TRUE(found);
}

// -- Grid-level determinism and sharing ---------------------------------

sim::RunWindows
gridWindows()
{
    return sim::RunWindows{10000, 15000};
}

exec::Tweak
fastWarmHook()
{
    return [](sim::SystemConfig &cfg) { cfg.functionalWarmInstrs = 150000; };
}

TEST(ParallelGrid, JobsOneMatchesJobsFourAcrossAllPresets)
{
    const std::vector<std::string> workloads = {"Web Frontend"};
    const std::vector<sim::Preset> presets = test::allPresets();

    auto serial = exec::runGrid(
        "serial", workloads, exec::presetVariants(presets, fastWarmHook()),
        gridWindows(), 1);
    auto parallel = exec::runGrid(
        "parallel", workloads, exec::presetVariants(presets, fastWarmHook()),
        gridWindows(), 4);

    for (const auto &name : workloads) {
        for (auto preset : presets) {
            const auto &a = serial.at(name, sim::presetName(preset));
            const auto &b = parallel.at(name, sim::presetName(preset));
            // Full structural equality: counters, histograms, identity.
            EXPECT_EQ(a, b) << name << "/" << sim::presetName(preset);
        }
    }
    EXPECT_EQ(serial.execReport().jobs, 1u);
    EXPECT_EQ(parallel.execReport().jobs, 4u);
    EXPECT_EQ(parallel.execReport().cells, presets.size());
}

TEST(ParallelGrid, GridReusesCachedImagesAcrossRuns)
{
    auto &cache = workload::ImageCache::global();
    auto variants = exec::presetVariants(
        {sim::Preset::Baseline, sim::Preset::SN4L}, fastWarmHook());
    auto first = exec::runGrid("first", {"Web (Apache)"}, variants,
                               gridWindows(), 2);
    std::size_t after_first = cache.built();

    auto second = exec::runGrid("second", {"Web (Apache)"}, variants,
                                gridWindows(), 2);
    // Same profile, same knobs: the second grid built nothing new.
    EXPECT_EQ(cache.built(), after_first);
    EXPECT_EQ(first.at(0, 1), second.at(0, 1));
}

/** The tracer merges per-thread run buffers at close in a canonical
 *  (workload, design, cell) order, so the stream written by a parallel
 *  grid must be byte-identical to the serial one.  The second grid's two
 *  cells share one (workload, design) label, and the first walks a far
 *  longer warmup, so on two or more workers it finishes last: merging
 *  such runs in arrival order instead of cell order fails here. */
TEST(ParallelGrid, TraceMergeIsJobCountInvariant)
{
    auto tracedGrid = [](const std::string &path, unsigned jobs) {
        ASSERT_TRUE(obs::Tracing::open(path));
        exec::runGrid("presets", {"Web Frontend", "Web (Apache)"},
                      exec::presetVariants(
                          {sim::Preset::Baseline, sim::Preset::NL,
                           sim::Preset::SN4L, sim::Preset::SN4LDisBtb},
                          fastWarmHook()),
                      gridWindows(), jobs);
        auto warmed = [](std::uint64_t instrs) {
            return [instrs](sim::SystemConfig &cfg) {
                cfg.functionalWarmInstrs = instrs;
            };
        };
        exec::runGrid("same label", {"Web (Apache)"},
                      {{"long warmup", sim::Preset::SN4L, warmed(3000000)},
                       {"short warmup", sim::Preset::SN4L, warmed(150000)}},
                      gridWindows(), jobs);
        obs::Tracing::close();
    };
    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream out;
        out << in.rdbuf();
        return out.str();
    };

    const std::string serial_path = "trace_merge_serial.jsonl";
    const std::string parallel_path = "trace_merge_parallel.jsonl";
    tracedGrid(serial_path, 1);
    std::string serial = slurp(serial_path);
    ASSERT_FALSE(serial.empty());
    for (unsigned jobs : {2u, 4u}) {
        tracedGrid(parallel_path, jobs);
        EXPECT_EQ(serial, slurp(parallel_path)) << "jobs " << jobs;
    }
    std::remove(serial_path.c_str());
    std::remove(parallel_path.c_str());
}

/** The TSan workhorse: several workers simulating concurrently, every
 *  cell of one workload sharing one immutable image. */
TEST(ParallelGrid, ParallelRunIsRaceFree)
{
    auto grid = exec::runGrid(
        "race", {"Web Frontend", "Web (Apache)"},
        exec::presetVariants({sim::Preset::Baseline, sim::Preset::SN4L,
                              sim::Preset::SN4LDisBtb, sim::Preset::Shotgun},
                             fastWarmHook()),
        gridWindows(), 4);
    EXPECT_GT(grid.at("Web Frontend", "Baseline").ipc(), 0.0);
    EXPECT_EQ(grid.execReport().cells, 8u);
    EXPECT_GT(grid.execReport().occupancy(), 0.0);
}

/** A tweaked variant's cell is exactly sim::simulate() of the tweaked
 *  config -- profile tweaks included, so the cell's image must be keyed
 *  on the post-tweak profile. */
TEST(Grid, TweakedVariantMatchesDirectSimulate)
{
    auto tweak = [](sim::SystemConfig &cfg) {
        fastWarmHook()(cfg);
        cfg.profile.numFunctions = 24;
        cfg.btbEntries = 512;
    };
    auto grid = exec::runGrid(
        "tweaked", {"Web (Apache)"},
        {{"Baseline", sim::Preset::Baseline, fastWarmHook()},
         {"small BTB", sim::Preset::SN4LDisBtb, tweak}},
        gridWindows(), 1);

    sim::SystemConfig cfg = sim::makeConfig(
        workload::serverProfile("Web (Apache)"), sim::Preset::SN4LDisBtb);
    tweak(cfg);
    EXPECT_EQ(grid.at("Web (Apache)", "small BTB"),
              sim::simulate(cfg, gridWindows()));
}

/** A lookup outside the grid raises an rt::Error that says what was
 *  asked for and what the grid holds. */
TEST(Grid, LookupOutsideTheGridNamesWhatItHolds)
{
    auto grid = exec::runGrid(
        "lookup", {"Web (Apache)"},
        exec::presetVariants({sim::Preset::Baseline, sim::Preset::SN4L},
                             fastWarmHook()),
        sim::RunWindows{2000, 3000}, 1);
    auto context = [&](auto lookup) {
        std::map<std::string, std::string> out;
        try {
            lookup();
            ADD_FAILURE() << "lookup did not raise";
        } catch (const rt::Exception &e) {
            EXPECT_EQ(e.error().kind, rt::ErrorKind::Result);
            for (const auto &kv : e.error().context)
                out[kv.first] = kv.second;
        }
        return out;
    };

    auto by_name = context([&] { grid.at("Web (Apache)", "Shotgun"); });
    EXPECT_EQ(by_name["requested"], "Web (Apache)/Shotgun");
    EXPECT_EQ(by_name["workloads"], "Web (Apache)");
    EXPECT_EQ(by_name["variants"], "Baseline, SN4L");
    auto by_workload = context([&] { grid.at("OLTP (DB A)", "SN4L"); });
    EXPECT_EQ(by_workload["requested"], "OLTP (DB A)/SN4L");
    auto by_index = context([&] { grid.at(0, 2); });
    EXPECT_EQ(by_index["requested"], "workload #0 / variant #2");
    EXPECT_EQ(by_index["variants"], "Baseline, SN4L");
    context([&] { grid.at(1, 0); });
}

/** Cells run workload-major, so the variants of a workload take turns
 *  on sim::WarmCache's one slot: per workload, the first walks, the
 *  second walks and stores, and the rest restore.  Design-major order
 *  would alternate keys and restore nothing. */
TEST(Grid, WorkloadMajorOrderSharesTheWarmCheckpoint)
{
    std::vector<exec::Variant> variants;
    for (unsigned limit : {1u, 2u, 4u, 8u}) {
        variants.push_back({"depth " + std::to_string(limit),
                            sim::Preset::SN4LDisBtb,
                            [limit](sim::SystemConfig &cfg) {
            fastWarmHook()(cfg);
            cfg.sn4l.chainDepthLimit = limit;
        }});
    }
    sim::WarmCache &warm = sim::WarmCache::global();
    const sim::RunWindows windows{2000, 3000};

    warm.clear();
    exec::runGrid("one workload", {"Web (Apache)"}, variants, windows, 1);
    EXPECT_EQ(warm.stats().misses, 1u);
    EXPECT_EQ(warm.stats().stores, 1u);
    EXPECT_EQ(warm.stats().hits, 2u);

    warm.clear();
    exec::runGrid("two workloads", {"Web (Apache)", "Web Frontend"},
                  variants, windows, 1);
    EXPECT_EQ(warm.stats().hits, 4u);
}

// ------------------------------------------- functional-warmup checkpoints

/** A short-warmup config on the cached image of its profile, so the
 *  warm key sees one image identity across Systems (as in a grid). */
sim::SystemConfig
sharedImageConfig(sim::Preset preset, bool vl = false)
{
    sim::SystemConfig cfg = sim::makeConfig(
        workload::serverProfile("Web (Apache)", vl), preset);
    fastWarmHook()(cfg);
    cfg.program = workload::ImageCache::global().get(cfg.profile);
    return cfg;
}

sim::WarmSource
warmSourceOf(const sim::SystemConfig &cfg)
{
    return sim::System(cfg).warmSource;
}

TEST(WarmCache, RestoredCellsMatchColdOnesForAllPresets)
{
    sim::WarmCache &warm = sim::WarmCache::global();
    const std::vector<sim::Preset> presets = test::allPresets();
    for (bool vl : {false, true}) {
        // Reference: every preset walks its own warmup.
        std::vector<sim::RunResult> cold;
        for (sim::Preset p : presets) {
            warm.clear();
            cold.push_back(sim::simulate(sharedImageConfig(p, vl),
                                         gridWindows()));
        }
        // One workload-major pass: the first preset walks, the second
        // walks and stores, the others restore that checkpoint.
        warm.clear();
        for (std::size_t i = 0; i < presets.size(); ++i) {
            sim::RunResult shared = sim::simulate(
                sharedImageConfig(presets[i], vl), gridWindows());
            EXPECT_EQ(shared, cold[i])
                << (vl ? "VL " : "") << sim::presetName(presets[i]);
            EXPECT_EQ(sim::toJson(shared).dump(), sim::toJson(cold[i]).dump());
        }
        sim::WarmCacheStats stats = warm.stats();
        EXPECT_EQ(stats.misses, 1u);
        EXPECT_EQ(stats.stores, 1u);
        EXPECT_EQ(stats.hits, presets.size() - 2);
    }
}

TEST(WarmCache, StoresOnlyOnTheSecondConsecutiveRequest)
{
    sim::WarmCache &warm = sim::WarmCache::global();
    sim::SystemConfig cfg = sharedImageConfig(sim::Preset::Baseline);

    // Distinct keys (a seed sweep) never store.
    warm.clear();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        cfg.runSeed = seed;
        EXPECT_EQ(warmSourceOf(cfg), sim::WarmSource::Cold);
    }
    EXPECT_EQ(warm.stats().misses, 4u);
    EXPECT_EQ(warm.stats().stores, 0u);
    EXPECT_EQ(warm.stats().bytesStored, 0u);

    // The same key three times: miss, store, hit.
    warm.clear();
    EXPECT_EQ(warmSourceOf(cfg), sim::WarmSource::Cold);
    EXPECT_EQ(warmSourceOf(cfg), sim::WarmSource::Stored);
    EXPECT_EQ(warmSourceOf(cfg), sim::WarmSource::Restored);
    sim::WarmCacheStats stats = warm.stats();
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_GT(stats.bytesHeld, 0u);
    EXPECT_EQ(stats.bytesStored, stats.bytesHeld);

    // A new key releases the slot; the old key starts over.
    cfg.runSeed += 1;
    EXPECT_EQ(warmSourceOf(cfg), sim::WarmSource::Cold);
    EXPECT_EQ(warm.stats().bytesHeld, 0u);
    cfg.runSeed -= 1;
    EXPECT_EQ(warmSourceOf(cfg), sim::WarmSource::Cold);
    EXPECT_EQ(warmSourceOf(cfg), sim::WarmSource::Stored);
}

TEST(WarmCache, AbandonedStoreReopensTheKey)
{
    sim::WarmCache &warm = sim::WarmCache::global();
    warm.clear();
    sim::SystemConfig cfg = sharedImageConfig(sim::Preset::Baseline);
    sim::WarmKey key = sim::WarmKey::of(cfg, cfg.program);
    EXPECT_EQ(warm.acquire(key).source(), sim::WarmSource::Cold);
    {
        // A storing cell whose warmup throws never publishes.
        sim::WarmCache::Lease lease = warm.acquire(key);
        EXPECT_EQ(lease.source(), sim::WarmSource::Stored);
    }
    EXPECT_EQ(warm.stats().stores, 0u);
    // The next request stores instead of waiting forever.
    EXPECT_EQ(warmSourceOf(cfg), sim::WarmSource::Stored);
    EXPECT_EQ(warmSourceOf(cfg), sim::WarmSource::Restored);
}

TEST(WarmCache, KeyCoversEverythingTheWarmupReads)
{
    sim::WarmCache &warm = sim::WarmCache::global();
    const sim::SystemConfig base = sharedImageConfig(sim::Preset::Baseline);

    sim::SystemConfig tweaked = base;
    tweaked.profile.numFunctions += 1;
    tweaked.program = workload::ImageCache::global().get(tweaked.profile);

    std::vector<std::pair<const char *, sim::SystemConfig>> variants;
    auto variant = [&](const char *what, auto &&edit) {
        sim::SystemConfig c = base;
        edit(c);
        variants.emplace_back(what, c);
    };
    variant("seed", [](sim::SystemConfig &c) { c.runSeed += 1; });
    variant("warm length",
            [](sim::SystemConfig &c) { c.functionalWarmInstrs += 1; });
    variant("LLC capacity",
            [](sim::SystemConfig &c) { c.llc.capacityBytes /= 2; });
    variant("DV-LLC", [](sim::SystemConfig &c) { c.llc.dvllc = true; });
    variant("L1i geometry", [](sim::SystemConfig &c) { c.l1i.assoc /= 2; });
    variant("L1d geometry",
            [](sim::SystemConfig &c) { c.l1d.capacityBytes *= 2; });
    variants.emplace_back("profile knob", tweaked);
    // The same profile rebuilt (as after ImageCache::clear()) is a new
    // image identity.
    workload::ImageCache fresh;
    sim::SystemConfig rebuilt = base;
    rebuilt.program = fresh.get(base.profile);
    variants.emplace_back("rebuilt image", rebuilt);

    for (const auto &[what, c] : variants) {
        warm.clear();
        ASSERT_EQ(warmSourceOf(base), sim::WarmSource::Cold);
        ASSERT_EQ(warmSourceOf(base), sim::WarmSource::Stored);
        EXPECT_EQ(warmSourceOf(c), sim::WarmSource::Cold) << what;
        EXPECT_EQ(warm.stats().hits, 0u) << what;
    }
}

TEST(WarmCache, NoWarmupBypassesTheCache)
{
    sim::WarmCache &warm = sim::WarmCache::global();
    warm.clear();
    sim::SystemConfig cfg = sharedImageConfig(sim::Preset::Baseline);
    cfg.functionalWarmInstrs = 0;
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(warmSourceOf(cfg), sim::WarmSource::Cold);
    sim::WarmCacheStats stats = warm.stats();
    EXPECT_EQ(stats.misses + stats.stores + stats.hits, 0u);
}

TEST(WarmCache, BtbGeometryAndFaultPlanShareOneCheckpoint)
{
    // Neither is read by the warmup: Confluence's 16 K-entry BTB is
    // primed from the branch list, and faults attach afterwards.
    sim::WarmCache &warm = sim::WarmCache::global();
    sim::SystemConfig base = sharedImageConfig(sim::Preset::Baseline);
    sim::SystemConfig confluence = sharedImageConfig(sim::Preset::Confluence);
    sim::SystemConfig injected = sharedImageConfig(sim::Preset::SN4L);
    injected.faults = rt::parseFaultPlan("drop:rate=0.5,seed=3").value();

    warm.clear();
    sim::RunResult confluence_cold = sim::simulate(confluence, gridWindows());
    warm.clear();
    sim::RunResult injected_cold = sim::simulate(injected, gridWindows());

    warm.clear();
    EXPECT_EQ(warmSourceOf(base), sim::WarmSource::Cold);
    EXPECT_EQ(warmSourceOf(base), sim::WarmSource::Stored);
    EXPECT_EQ(sim::simulate(confluence, gridWindows()), confluence_cold);
    EXPECT_EQ(sim::simulate(injected, gridWindows()), injected_cold);
    EXPECT_EQ(warm.stats().hits, 2u);
    EXPECT_EQ(warm.stats().stores, 1u);
}

TEST(WarmCache, JobsOneMatchesJobsFourWithRestoredCells)
{
    // Four workers start a workload's cells together: one walks, one
    // stores, and the others wait for the store and restore it.
    const std::vector<sim::Preset> presets = {
        sim::Preset::Baseline, sim::Preset::NL, sim::Preset::SN4LDisBtb,
        sim::Preset::Shotgun, sim::Preset::Confluence, sim::Preset::Fdip,
        sim::Preset::MicroBtb};
    const std::vector<std::string> workloads = {"Web Frontend",
                                                "Web (Apache)"};
    sim::WarmCache &warm = sim::WarmCache::global();

    auto variants = exec::presetVariants(presets, fastWarmHook());

    warm.clear();
    auto serial =
        exec::runGrid("serial", workloads, variants, gridWindows(), 1);
    EXPECT_EQ(warm.stats().hits, 2 * (presets.size() - 2));

    warm.clear();
    auto parallel =
        exec::runGrid("parallel", workloads, variants, gridWindows(), 4);
    EXPECT_GT(warm.stats().hits, 0u);

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t v = 0; v < presets.size(); ++v) {
            EXPECT_EQ(serial.at(w, v), parallel.at(w, v))
                << workloads[w] << "/" << serial.variants()[v];
        }
    }
}

} // namespace
} // namespace dcfb
