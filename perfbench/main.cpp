/**
 * @file
 * dcfb_perfbench: one benchmark workload per process.
 *
 *   dcfb_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
 *                  [--digests FILE] [--trace-out PREFIX]
 *   dcfb_perfbench --record FILE
 *
 * --trace 0 (the default) repeats untraced rounds of the workload for
 * about S seconds (at least two) and reports the end-to-end metrics as
 * medians over rounds.  --trace 1 runs two untraced reference rounds,
 * one traced round and the layer probes, reports the per-layer metrics
 * and writes PREFIX.trace.json (Chrome trace events) and
 * PREFIX.layers.txt (the per-layer table).  Either way every cell is
 * checked (see cells.h) and the last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 *
 * --record runs every workload serially at the default seed and writes
 * the digests file the default-seed check compares against.
 */

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <malloc.h>

#include "cells.h"
#include "layers.h"
#include "workload/profiles.h"

namespace pb = dcfb::perfbench;
using dcfb::sim::RunResult;

namespace {

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Args
{
    std::string workload;
    std::int64_t seed = pb::kDefaultSeed;
    double seconds = 20.0;
    int trace = 0;
    std::string digests = "perfbench/digests.txt";
    std::string traceOut;
    std::string record;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "dcfb_perfbench: %s\nusage: dcfb_perfbench --workload "
                 "<figure-grid|long-cell|seed-sweep> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--digests FILE] "
                 "[--trace-out PREFIX]\n       dcfb_perfbench --record "
                 "FILE\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            a.workload = v;
        } else if (arg == "--seed") {
            a.seed = std::strtoll(v.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (arg == "--trace") {
            a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
            if (a.trace != 0 && a.trace != 1)
                usage("--trace expects 0 or 1");
        } else if (arg == "--digests") {
            a.digests = v;
        } else if (arg == "--trace-out") {
            a.traceOut = v;
        } else if (arg == "--record") {
            a.record = v;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
        if (end && *end != '\0')
            usage(("malformed value for " + arg).c_str());
    }
    if (a.record.empty() && a.workload.empty())
        usage("--workload is required");
    return a;
}

/** Print @p metrics as an aligned table, then as the JSON result line. */
void
emit(const std::vector<Metric> &metrics, bool correct,
     std::size_t attempted, std::size_t failed)
{
    for (const auto &m : metrics)
        std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Print the first few failed cells to stderr. */
void
reportFailures(const std::vector<pb::Round> &rounds)
{
    int shown = 0;
    for (const auto &round : rounds) {
        for (const auto &out : round.cells) {
            if (!out.ok && shown++ < 5)
                std::fprintf(stderr, "failed cell: %s\n", out.error.c_str());
        }
    }
}

/**
 * Check finished rounds: the default seed against the recorded digests,
 * any other seed round against round.  Exits on a missing digests file.
 */
std::size_t
checkedRounds(const pb::Workload &w, const Args &args,
              std::vector<pb::Round> &rounds)
{
    std::optional<pb::DigestMap> recorded;
    if (args.seed == pb::kDefaultSeed) {
        recorded = pb::loadDigests(args.digests);
        if (!recorded) {
            std::fprintf(stderr, "cannot read digests file %s\n",
                         args.digests.c_str());
            std::exit(2);
        }
    }
    std::size_t failed =
        pb::checkRounds(w, rounds, recorded ? &*recorded : nullptr);
    reportFailures(rounds);
    return failed;
}

/** Geomean over workloads of ipc(design) / ipc(Baseline). */
double
gmeanSpeedup(const pb::Round &round, const std::string &design)
{
    std::map<std::string, const RunResult *> base, mine;
    for (const auto &out : round.cells) {
        if (out.result.design == "Baseline")
            base[out.result.workload] = &out.result;
        if (out.result.design == design)
            mine[out.result.workload] = &out.result;
    }
    double log_sum = 0.0;
    for (const auto &[name, r] : mine)
        log_sum += std::log(dcfb::sim::speedup(*r, *base.at(name)));
    return std::exp(log_sum / static_cast<double>(mine.size()));
}

int
runUntraced(const pb::Workload &w, const Args &args)
{
    // Whole rounds while the next one would end nearer to --seconds than
    // stopping now; at least three, so a non-default seed always has a
    // determinism check and the median rejects one disturbed round.
    // Set-up alone (a few ms per image) is repeated before every round,
    // so its median sees the whole run.
    const double start = pb::nowSeconds();
    constexpr int kSetupReps = 3;
    std::vector<double> setup;
    std::vector<pb::Round> rounds;
    std::vector<double> walls;
    while (true) {
        for (int i = 0; i < kSetupReps; ++i) {
            auto cells = w.cells;
            setup.push_back(pb::resolveImages(cells));
        }
        rounds.push_back(pb::runRound(w));
        walls.push_back(rounds.back().wallSeconds);
        double elapsed = pb::nowSeconds() - start;
        if (rounds.size() >= 3 &&
            elapsed + pb::median(walls) / 2 > args.seconds)
            break;
    }
    std::size_t failed = checkedRounds(w, args, rounds);
    std::size_t attempted = rounds.size() * w.cells.size();

    std::vector<double> mcps, p50, p75, cpu;
    bool have_p75 = true;
    const double cycles = static_cast<double>(pb::simulatedCycles(w));
    for (const auto &r : rounds) {
        setup.push_back(r.setupSeconds);
        mcps.push_back(cycles / r.wallSeconds / 1e6);
        cpu.push_back(r.cpuSeconds);
        std::vector<double> cell_s;
        for (const auto &c : r.cells)
            cell_s.push_back(c.seconds);
        p50.push_back(pb::median(cell_s));
        auto tail = pb::tailPercentile(cell_s, 0.75);
        have_p75 = have_p75 && tail;
        p75.push_back(tail.value_or(0.0));
    }

    std::printf("perfbench %s: seed %lld, %zu rounds of %zu cells on %u "
                "worker(s), %zu setup samples\n  round wall_s:",
                w.name.c_str(), static_cast<long long>(args.seed),
                rounds.size(), w.cells.size(), w.jobs, setup.size());
    for (double s : walls)
        std::printf(" %.3f", s);
    std::printf("\n");
    std::vector<Metric> m = {
        {"setup_s", pb::median(setup), "s"},
        {"wall_s", pb::median(walls), "s"},
        {"mcycles_per_s", pb::median(mcps), "Mcycles/s"},
        {"cell_p50_s", pb::median(p50), "s"},
    };
    // p75 only where at least ten cells of a round lie beyond it.
    if (have_p75)
        m.push_back({"cell_p75_s", pb::median(p75), "s"});
    m.push_back({"cpu_s", pb::median(cpu), "s"});
    m.push_back({"peak_rss_mb", pb::peakRssMb(), "MB"});
    m.push_back({"cell_fail_frac",
                 static_cast<double>(failed) / static_cast<double>(attempted),
                 "fraction"});
    if (w.name == "figure-grid" && failed == 0) {
        // Simulated accuracy against the paper's Fig. 16 averages.
        double ours = gmeanSpeedup(rounds[0], "SN4L+Dis+BTB");
        double shotgun = gmeanSpeedup(rounds[0], "Shotgun");
        m.push_back({"fig16_speedup_err", std::fabs(ours - 1.19), "ratio"});
        m.push_back({"fig16_vs_shotgun_err_pp",
                     std::fabs((ours / shotgun - 1.0) * 100.0 - 5.0), "pp"});
    }
    emit(m, failed == 0, attempted, failed);
    return 0;
}

/** Sum of a stat over every cell result of @p round. */
double
statSum(const pb::Round &round, const std::string &name)
{
    double sum = 0.0;
    for (const auto &c : round.cells)
        sum += static_cast<double>(c.result.stat(name));
    return sum;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer metrics computed from a round's RunResults (exact). */
void
simulatedCounts(const pb::Round &round, std::vector<Metric> &m)
{
    double instr = 0.0, cycles = 0.0;
    for (const auto &c : round.cells) {
        instr += static_cast<double>(c.result.instructions);
        cycles += static_cast<double>(c.result.cycles);
    }
    auto pki = [&](const char *stat) {
        return ratio(statSum(round, stat) * 1000.0, instr);
    };
    auto pkc = [&](const char *stat) {
        return ratio(statSum(round, stat) * 1000.0, cycles);
    };
    m.push_back({"l1i.mpki", pki("l1i.l1i_misses"), "1/kinstr"});
    m.push_back({"l1i.pf_accuracy",
                 ratio(statSum(round, "l1i.pf_useful"),
                       statSum(round, "l1i.pf_issued")),
                 "fraction"});
    m.push_back({"pf.seqtable_reads_pkc", pkc("pf.seqtable_reads"),
                 "1/kcycle"});
    m.push_back({"pf.distable_lookups_pkc", pkc("pf.distable_lookups"),
                 "1/kcycle"});
    m.push_back({"btb.mpki", pki("btb.btb_misses"), "1/kinstr"});
    m.push_back({"tage.mpki", pki("tage.tage_mispredict"), "1/kinstr"});
    m.push_back({"llc.avg_latency",
                 ratio(statSum(round, "llc.llc_latency_sum"),
                       statSum(round, "llc.llc_accesses")),
                 "cycles"});
    m.push_back({"noc.avg_latency",
                 ratio(statSum(round, "noc.noc_total_latency"),
                       statSum(round, "noc.noc_packets")),
                 "cycles"});
    for (const char *bucket : {"icache", "btb", "empty_ftq", "mispredict",
                               "backend", "other"}) {
        std::string stat = std::string("sim.stall_") + bucket;
        m.push_back({stat + "_pkc", pkc(stat.c_str()), "1/kcycle"});
    }
}

int
runTraced(const pb::Workload &w, const Args &args)
{
    // Untraced reference rounds: correctness, simulated counts, exec
    // occupancy and the denominator of the tracing overhead.
    std::vector<pb::Round> ref;
    ref.push_back(pb::runRound(w));
    ref.push_back(pb::runRound(w));
    std::size_t failed = checkedRounds(w, args, ref);
    std::size_t attempted = ref.size() * w.cells.size();
    const double untraced_wall =
        pb::median({ref[0].wallSeconds, ref[1].wallSeconds});

    // Traced round: the same cells on the same pool, each driven step by
    // step with spans around every call into a layer.
    pb::SpanLog log;
    const std::uint64_t round_span = log.reserve();
    const double t0 = pb::nowSeconds();
    auto cells = w.cells;
    auto &cache = dcfb::workload::ImageCache::global();
    cache.clear();
    const std::uint64_t setup_span = log.reserve();
    double build_s = 0.0;
    std::size_t built = 0, hits = 0;
    for (auto &cell : cells) {
        std::size_t before = cache.built();
        double g0 = pb::nowSeconds();
        cell.cfg.program = cache.get(cell.cfg.profile);
        double g1 = pb::nowSeconds();
        bool miss = cache.built() != before;
        log.add(miss ? "workload.build" : "workload.hit", g0, g1,
                setup_span, 0);
        (miss ? built : hits) += 1;
        if (miss)
            build_s += g1 - g0;
    }
    log.addReserved(setup_span, "setup", t0, pb::nowSeconds(), round_span,
                    0);

    std::vector<pb::TracedCell> traced(cells.size());
    dcfb::exec::runIndexed(w.name, cells.size(), w.jobs, [&](std::size_t i) {
        traced[i] = pb::traceCell(cells[i], w.windows, log, i + 1,
                                  round_span);
    });
    const double t1 = pb::nowSeconds();
    log.addReserved(round_span, "round.traced " + w.name, t0, t1, 0, 0);
    const double traced_wall = t1 - t0;

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &tc = traced[i];
        const auto &ref_cell = ref[0].cells[i];
        if (!tc.ok || (ref_cell.ok && tc.measureInstructions !=
                                          ref_cell.result.instructions)) {
            ++failed;
            std::fprintf(stderr, "traced cell %s diverged: %s\n",
                         cells[i].label.c_str(), tc.error.c_str());
        }
        ++attempted;
    }

    // Layer probes outside the round.
    double p0 = pb::nowSeconds();
    pb::WarmReplay wr = pb::replayWarmup(cells[0]);
    double p1 = pb::nowSeconds();
    log.add("probe.warm_replay " + cells[0].label, p0, p1, 0, 0);
    // Step phases over the cells sharing the first cell's image.
    std::vector<pb::Cell> prof_cells;
    double prof_untraced_loop = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].cfg.profile.name != cells[0].cfg.profile.name)
            continue;
        prof_cells.push_back(cells[i]);
        prof_untraced_loop +=
            traced[i].warmStepSeconds + traced[i].measureStepSeconds;
    }
    pb::PhaseProfile pp = pb::profilePhases(prof_cells, w.windows);
    log.add("probe.profiled_pass", p1, pb::nowSeconds(), 0, 0);

    std::vector<Metric> m;
    m.push_back({"trace.overhead", ratio(traced_wall, untraced_wall),
                 "ratio"});
    m.push_back({"workload.build_s", build_s, "s"});
    m.push_back({"workload.images_built", static_cast<double>(built),
                 "count"});
    m.push_back({"workload.image_hits", static_cast<double>(hits), "count"});
    m.push_back({"workload.walk_ns_per_instr",
                 ratio(wr.walkSeconds * 1e9,
                       static_cast<double>(wr.instructions)),
                 "ns"});

    std::vector<double> setup_s;
    double setup_sum = 0.0, cell_sum = 0.0, reset_sum = 0.0, sweep_sum = 0.0;
    double sweeps = 0.0, run = 0.0, skipped = 0.0;
    double warm_s = 0.0, measure_s = 0.0;
    std::map<std::string, std::array<double, 2>> preset_s;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &tc = traced[i];
        setup_s.push_back(tc.setupSeconds);
        setup_sum += tc.setupSeconds;
        cell_sum += tc.seconds;
        reset_sum += tc.resetSeconds;
        sweep_sum += tc.sweepSeconds;
        sweeps += static_cast<double>(tc.sweeps);
        run += static_cast<double>(tc.checksRun);
        skipped += static_cast<double>(tc.checksSkipped);
        warm_s += tc.warmStepSeconds;
        measure_s += tc.measureStepSeconds;
        auto &ps = preset_s[dcfb::sim::presetName(cells[i].cfg.preset)];
        ps[0] += tc.warmStepSeconds;
        ps[1] += tc.measureStepSeconds;
    }
    const double n_cells = static_cast<double>(cells.size());
    m.push_back({"sim.setup_s", setup_sum, "s"});
    m.push_back({"sim.setup_p50_s", pb::median(setup_s), "s"});
    m.push_back({"sim.setup_share", ratio(setup_sum, cell_sum), "fraction"});

    auto cost = [&](const char *name, const pb::CallCost &c) {
        m.push_back({std::string(name) + "_ns", c.ns(), "ns"});
        m.push_back({std::string(name) + "_calls",
                     static_cast<double>(c.calls), "count"});
    };
    cost("mem.llc_warm_touch", wr.llcWarmTouch);
    cost("mem.l1i_warm_insert", wr.l1iWarmInsert);
    cost("mem.l1d_warm_insert", wr.l1dWarmInsert);
    cost("frontend.tage", wr.tage);
    cost("frontend.btb_update", wr.btbUpdate);

    const double warm_cycles = n_cells * static_cast<double>(w.windows.warm);
    const double measure_cycles =
        n_cells * static_cast<double>(w.windows.measure);
    m.push_back({"sim.step_ns_per_cycle.warm",
                 ratio(warm_s * 1e9, warm_cycles), "ns"});
    m.push_back({"sim.step_ns_per_cycle.measure",
                 ratio(measure_s * 1e9, measure_cycles), "ns"});
    for (const auto &[design, s] : preset_s) {
        double n = 0.0;
        for (const auto &cell : cells)
            n += dcfb::sim::presetName(cell.cfg.preset) == design;
        std::string base = "sim.step_ns_per_cycle." + pb::slug(design);
        m.push_back({base + ".warm",
                     ratio(s[0] * 1e9,
                           n * static_cast<double>(w.windows.warm)),
                     "ns"});
        m.push_back({base + ".measure",
                     ratio(s[1] * 1e9,
                           n * static_cast<double>(w.windows.measure)),
                     "ns"});
    }
    m.push_back({"sim.reset_stats_us", ratio(reset_sum * 1e6, n_cells),
                 "us"});
    m.push_back({"rt.sweep_us", ratio(sweep_sum * 1e6, sweeps), "us"});
    m.push_back({"rt.checks_run", run, "count"});
    m.push_back({"rt.checks_skipped", skipped, "count"});

    // Pool occupancy of the first untraced round.
    const pb::Round &r0 = ref[0];
    std::map<std::thread::id, double> last_end;
    for (const auto &c : r0.cells)
        last_end[c.worker] = std::max(last_end[c.worker], c.endTime);
    double first_idle = r0.barrierTime;
    for (const auto &[worker, t] : last_end)
        first_idle = std::min(first_idle, t);
    const double jobs = static_cast<double>(r0.exec.jobs);
    m.push_back({"exec.busy_s", r0.exec.busySeconds, "s"});
    m.push_back({"exec.idle_s",
                 jobs * r0.exec.wallSeconds - r0.exec.busySeconds, "s"});
    m.push_back({"exec.occupancy", r0.exec.occupancy(), "fraction"});
    m.push_back({"exec.tail_s", r0.barrierTime - first_idle, "s"});

    const double pc = static_cast<double>(pp.cycles);
    m.push_back({"step.backend_ns", ratio(pp.backend * 1e9, pc), "ns"});
    m.push_back({"step.l1i_tick_ns", ratio(pp.l1iTick * 1e9, pc), "ns"});
    m.push_back({"step.prefetcher_ns", ratio(pp.prefetcher * 1e9, pc),
                 "ns"});
    m.push_back({"step.dispatch_ns", ratio(pp.dispatch * 1e9, pc), "ns"});
    m.push_back({"step.fetch_ns", ratio(pp.fetch * 1e9, pc), "ns"});
    m.push_back({"step.profiler_overhead",
                 ratio(pp.loopSeconds, prof_untraced_loop), "ratio"});

    simulatedCounts(r0, m);

    std::printf("perfbench %s (traced): seed %lld, %zu cells on %u "
                "worker(s), %zu spans\n",
                w.name.c_str(), static_cast<long long>(args.seed),
                w.cells.size(), w.jobs, log.size());
    if (!args.traceOut.empty()) {
        std::string trace_path = args.traceOut + ".trace.json";
        std::string table_path = args.traceOut + ".layers.txt";
        if (!log.writeChrome(trace_path))
            std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        std::ofstream table(table_path, std::ios::trunc);
        for (const auto &x : m)
            table << x.name << ' ' << x.value << ' ' << x.unit << '\n';
        std::printf("  [trace: %s, table: %s]\n", trace_path.c_str(),
                    table_path.c_str());
    }
    emit(m, failed == 0, attempted, failed);
    return 0;
}

/** Write the default-seed digests of every workload, serially. */
int
record(const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out.is_open()) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 2;
    }
    out << "# <fnv1a64 of sim::toJson(RunResult)> <workload>:<cell>, --seed "
        << pb::kDefaultSeed << ", serial\n";
    for (const auto &name : pb::workloadNames()) {
        auto w = pb::makeWorkload(name, pb::kDefaultSeed);
        w->jobs = 1;
        pb::Round round = pb::runRound(*w);
        for (std::size_t i = 0; i < round.cells.size(); ++i) {
            if (!round.cells[i].ok) {
                std::fprintf(stderr, "cell failed: %s\n",
                             round.cells[i].error.c_str());
                return 1;
            }
            out << round.cells[i].digest << ' ' << name << ':'
                << w->cells[i].label << '\n';
        }
        std::fprintf(stderr, "recorded %s (%zu cells)\n", name.c_str(),
                     round.cells.size());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    // A fixed mmap threshold turns off glibc's dynamic one, which parks
    // freed multi-MB cell slabs in per-thread arenas; with it peak RSS
    // swung 120-280 MB on figure-grid depending on worker interleaving.
    // Fixed, peak_rss_mb tracks live memory (about 92 MB there).
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    if (!args.record.empty())
        return record(args.record);
    auto w = pb::makeWorkload(args.workload, args.seed);
    if (!w)
        usage(("unknown workload " + args.workload).c_str());
    return args.trace ? runTraced(*w, args) : runUntraced(*w, args);
}
