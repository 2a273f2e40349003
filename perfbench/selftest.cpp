/**
 * @file
 * perfbench_selftest: checks the benchmark's own machinery.
 *
 *   perfbench_selftest [--digests FILE]
 *
 * Covers the percentile helper and its ten-samples-beyond rule, the
 * per-process (hence per-workload) peak-RSS measurement, the digest and
 * determinism checks, parallel-versus-serial digests, and a negative
 * case: an active rt::FaultPlan must turn cells into failures, so the
 * correctness check cannot pass vacuously.  Exit status 0 when every
 * check holds.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cells.h"
#include "layers.h"

namespace pb = dcfb::perfbench;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    failures += !ok;
}

/** Touch @p mb megabytes so they count toward the resident set. */
std::vector<char>
ballast(std::size_t mb)
{
    std::vector<char> v(mb << 20);
    for (std::size_t i = 0; i < v.size(); i += 4096)
        v[i] = 1;
    // Keep the stores: the pages must really be touched.
    asm volatile("" : : "r"(v.data()) : "memory");
    return v;
}

/** Peak RSS (MB) of a fresh child running this binary's --rss-probe. */
double
childPeakMb(const char *self, std::size_t mb)
{
    std::string arg = std::to_string(mb);
    char *argv[] = {const_cast<char *>(self),
                    const_cast<char *>("--rss-probe"), arg.data(), nullptr};
    pid_t pid = 0;
    if (posix_spawn(&pid, self, nullptr, nullptr, argv, environ) != 0)
        return -1.0;
    int status = 0;
    rusage ru{};
    if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return -1.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
testPercentiles()
{
    auto seq = [](std::size_t n) {
        std::vector<double> v;
        for (std::size_t i = n; i >= 1; --i)
            v.push_back(static_cast<double>(i));
        return v;
    };
    check(pb::median({3, 1, 2}) == 2 && pb::median({4, 1, 3, 2}) == 2.5,
          "median of odd and even counts");
    // figure-grid and seed-sweep rounds: 12 and 14 cells beyond p75.
    check(pb::tailPercentile(seq(49), 0.75) == 37.0,
          "p75 of 49 samples is rank 37 (12 beyond)");
    check(pb::tailPercentile(seq(56), 0.75) == 42.0,
          "p75 of 56 samples is rank 42 (14 beyond)");
    check(pb::tailPercentile(seq(40), 0.75) == 30.0,
          "p75 reported with exactly 10 samples beyond");
    check(!pb::tailPercentile(seq(39), 0.75),
          "p75 withheld with 9 samples beyond");
    check(!pb::tailPercentile(seq(8), 0.75),
          "p75 withheld for long-cell's 8 cells");
    check(!pb::tailPercentile({}, 0.5), "no percentile of no samples");
    check(pb::slug("SN4L+Dis+BTB") == "sn4l_dis_btb" &&
              pb::slug("MicroBTB") == "microbtb",
          "metric-name slugs");
}

void
testPeakRss(const char *self)
{
    // run.py starts every workload in a fresh process, so a workload run
    // after a larger one reports only its own peak.  (A child's peak
    // does include its parent's resident set at spawn time, which is why
    // the launcher stays small.)
    double large = childPeakMb(self, 96);
    double small = childPeakMb(self, 16);
    std::printf("      child(96) %.1f MB, then child(16) %.1f MB\n", large,
                small);
    check(large >= 96.0, "a workload's peak RSS covers its allocations");
    check(small > 0.0 && small < 64.0,
          "a workload run after a larger one reports its own peak");
    auto big = ballast(128);
    check(pb::peakRssMb() >= 128.0, "peak RSS sees this process's memory");
}

/** A few figure-grid cells the corrupt fault perturbs, run serially. */
pb::Workload
smallGrid()
{
    auto w = *pb::makeWorkload("figure-grid", pb::kDefaultSeed);
    std::vector<pb::Cell> keep;
    for (auto &cell : w.cells) {
        if (cell.label.rfind("Web Frontend/", 0) == 0 && keep.size() < 4)
            keep.push_back(cell);
    }
    w.cells = keep;
    w.jobs = 1;
    return w;
}

void
testChecks(const std::string &digests_path)
{
    auto recorded = pb::loadDigests(digests_path);
    check(recorded && recorded->size() == 49 + 8 + 56,
          "digests file holds every cell of every workload");
    if (!recorded)
        return;

    pb::Workload w = smallGrid();
    std::vector<pb::Round> clean{pb::runRound(w)};
    check(pb::checkRounds(w, clean, &*recorded) == 0,
          "default-seed cells match the recorded digests");

    pb::Workload par = w;
    par.jobs = 2;
    std::vector<pb::Round> both{clean[0], pb::runRound(par)};
    check(pb::checkRounds(w, both, nullptr) == 0,
          "2-worker digests equal the serial ones");

    auto plan = dcfb::rt::parseFaultPlan("corrupt:rate=0.5,seed=7");
    std::vector<pb::Round> faulty{pb::runRound(w, plan.value())};
    std::size_t failed = pb::checkRounds(w, faulty, &*recorded);
    std::printf("      corrupt fault plan: %zu of %zu cells failed\n", failed,
                w.cells.size());
    check(failed > 0, "an active fault plan shows up as failed cells");

    // Determinism check on a non-default seed: a round that disagrees
    // with the first fails cell by cell.
    std::vector<pb::Round> drift{clean[0], clean[0]};
    drift[1].cells[2].digest = "0000000000000000";
    check(pb::checkRounds(w, drift, nullptr) == 1,
          "a digest that changes between rounds is a failed cell");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 3 && std::strcmp(argv[1], "--rss-probe") == 0) {
        auto v = ballast(std::strtoul(argv[2], nullptr, 10));
        return v.empty() ? 1 : 0;
    }
    std::string digests = "perfbench/digests.txt";
    if (argc == 3 && std::strcmp(argv[1], "--digests") == 0)
        digests = argv[2];

    testPercentiles();
    testPeakRss(argv[0]);
    testChecks(digests);
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED",
                failures);
    return failures ? 1 : 0;
}
