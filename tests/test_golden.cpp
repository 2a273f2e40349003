/**
 * @file
 * Golden-result regression suite: re-simulates every cell pinned in
 * `golden_cells.h` and asserts the result is *bit-identical* to the
 * RunResult JSON committed under `tests/golden/`.
 *
 * This is the license for hot-path optimization of the simulator core:
 * any change that flips one counter, adds or removes a stats key, or
 * perturbs a histogram in any cell fails here.  Intentional result
 * changes must regenerate the corpus with `scripts/update_golden.py`
 * (which refuses to run over a dirty git tree) and commit the diff.
 *
 * Comparison is on the serialized form (`sim::toJson(...).dump(2)`),
 * the exact bytes the generator wrote: this covers every counter key,
 * every histogram bucket, and the serialization itself.  Each cell runs
 * three times so the walked, stored and restored functional warmups
 * (sim::WarmCache) are all held to the corpus.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "golden_cells.h"
#include "sim/report.h"
#include "sim/warm_cache.h"

#ifndef DCFB_GOLDEN_DIR
#error "DCFB_GOLDEN_DIR must point at the committed corpus directory"
#endif

namespace dcfb {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::in | std::ios::binary);
    if (!in.is_open())
        return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class GoldenCell : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GoldenCell, ReproducesCommittedResultBitForBit)
{
    const golden::Cell cell = golden::cells()[GetParam()];
    const std::string path =
        std::string(DCFB_GOLDEN_DIR) + "/" + golden::fileName(cell);

    std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << "missing golden file " << path
        << " -- run scripts/update_golden.py";

    // Three runs in a row on one shared image: the first walks the warm
    // stream, the second walks and stores the checkpoint, the third
    // restores it (sim::WarmCache).  All three must match the corpus.
    sim::SystemConfig cfg = golden::config(cell);
    cfg.program = workload::ImageCache::global().get(cfg.profile);
    sim::WarmCache &warm = sim::WarmCache::global();
    warm.clear();
    for (const char *run : {"cold", "stored", "restored"}) {
        sim::RunResult result = sim::simulate(cfg, golden::windows());
        // Cycle accounting: the dispatch buckets partition the measured
        // cycles, and stall_frontend is the sum of its three causes.
        auto sim_stat = [&](const char *key) {
            return result.stat(std::string("sim.") + key);
        };
        std::uint64_t frontend = sim_stat("stall_icache") +
            sim_stat("stall_btb") + sim_stat("stall_empty_ftq");
        EXPECT_EQ(sim_stat("dispatch_active_cycles") +
                      sim_stat("stall_backend") + frontend +
                      sim_stat("stall_mispredict") + sim_stat("stall_other"),
                  result.cycles)
            << golden::fileName(cell) << " (" << run << " warmup)";
        EXPECT_EQ(sim_stat("stall_frontend"), frontend)
            << golden::fileName(cell) << " (" << run << " warmup)";
        std::string actual = sim::toJson(result).dump(2) + "\n";
        if (actual == expected)
            continue;
        // The full documents are large; point at the first divergence so
        // the failure names the counter, not just "differs".
        std::size_t at = 0;
        while (at < actual.size() && at < expected.size() &&
               actual[at] == expected[at]) {
            ++at;
        }
        std::size_t from = at > 120 ? at - 120 : 0;
        FAIL() << golden::fileName(cell) << " (" << run
               << " warmup) diverges at byte " << at << "\n  expected ..."
               << expected.substr(from, 240) << "\n  actual   ..."
               << actual.substr(from, 240);
    }
    sim::WarmCacheStats stats = warm.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.hits, 1u) << "the third run must restore";
}

std::string
cellName(const ::testing::TestParamInfo<std::size_t> &info)
{
    std::string file = golden::fileName(golden::cells()[info.param]);
    std::string out;
    for (char c : file.substr(0, file.size() - 5)) // strip ".json"
        out += (c == '-' || c == '.') ? '_' : c;
    return out;
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenCell,
                         ::testing::Range<std::size_t>(
                             0, golden::cells().size()),
                         cellName);

// The corpus must cover every prefetcher family exactly once per
// (workload, preset, vl) combination -- duplicate cells would silently
// halve coverage because both write the same file.
TEST(GoldenCorpus, CellFileNamesAreUnique)
{
    auto cs = golden::cells();
    for (std::size_t i = 0; i < cs.size(); ++i) {
        for (std::size_t j = i + 1; j < cs.size(); ++j) {
            EXPECT_NE(golden::fileName(cs[i]), golden::fileName(cs[j]))
                << "cells " << i << " and " << j << " collide";
        }
    }
}

} // namespace
} // namespace dcfb
