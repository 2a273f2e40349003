/**
 * @file
 * Shared helpers for the per-figure bench harnesses.
 *
 * Each bench binary regenerates one table or figure of the paper: same
 * rows/series, measured on the synthetic server workloads.  Absolute
 * numbers differ from the paper's testbed; EXPERIMENTS.md records the
 * paper-vs-measured comparison.
 *
 * Every bench routes its output through a bench::Harness, which adds two
 * flags on top of the text tables (see EXPERIMENTS.md for the schemas):
 *
 *   --json <file>   also write every reported table (same cells as the
 *                   text output) plus recorded scalars as one JSON
 *                   document -- the BENCH_*.json regression format
 *   --trace <file>  stream miss-attribution events from every simulated
 *                   run into <file> (*.jsonl -> JSONL, else Chrome
 *                   trace-event format); runs buffer per thread and
 *                   merge at close, so the sweep still parallelizes
 *   --trace-spans <file>  write a span timeline (Chrome trace-event
 *                   JSON) of the whole process, drawn from the cell and
 *                   profiler records: one exec.cell event per simulated
 *                   cell on its worker's track, with sim.setup/warm/
 *                   measure inside it (DESIGN.md "Telemetry plane");
 *                   turns the profiler on
 *   --inject <spec> seeded fault injection applied to every run, e.g.
 *                   drop:rate=0.5,seed=3 (see README "Robustness")
 *   --jobs <n>      worker threads for experiment sweeps (default: auto,
 *                   one per hardware thread; --jobs 1 reproduces the
 *                   historical serial runner bit for bit)
 *   --cache <dir>   persistent content-addressed result cache: every
 *                   simulated cell is keyed by its config fingerprint
 *                   and served from <dir> when already computed there.
 *                   Off by default; with the flag absent the run is
 *                   bit-identical to the direct simulator path.
 *   --profile       time every simulated cell (setup/warm/measure wall
 *                   split plus sampled per-phase cycle-loop attribution)
 *                   and emit the records as the JSON document's "prof"
 *                   section.  Simulated results are unchanged; see
 *                   DESIGN.md section 10 for the overhead model.
 *
 * The authoritative flag reference is docs/FLAGS.md, generated from
 * src/cli/flag_docs.cpp (which also feeds --help below).
 *
 * Every `--json` document's "meta" section also records the process's
 * peak RSS and CPU time (peak_rss_bytes, cpu_user_s, cpu_sys_s, from
 * getrusage) so regression archives carry resource provenance.
 */

#ifndef DCFB_BENCH_COMMON_H
#define DCFB_BENCH_COMMON_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "cli/flag_docs.h"
#include "exec/result_cache.h"
#include "exec/schedule.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "rt/faults.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "workload/profiles.h"

namespace dcfb::bench {

/** Bench-wide run windows (shorter than the tests' defaults; combined
 *  with the `--jobs` grid scheduler this keeps a full sweep over every
 *  bench binary cheap even on small machines). */
inline sim::RunWindows
windows()
{
    return sim::RunWindows{150000, 150000};
}

/**
 * Scatter/gather over independent simulations: run every config on the
 * `--jobs` worker pool and return the results in input order.
 *
 * Configs with no pre-resolved image get one from the process-wide
 * workload::ImageCache, so repeats of a workload share one immutable
 * program.  Results are deterministic and identical for every job
 * count; the sweep's wall time, per-cell times and pool occupancy are
 * pushed to exec::ExecLog and land in the JSON report's "exec" section.
 * Tracing no longer constrains the job count: the tracer buffers each
 * run on its thread and merges at close.
 */
inline std::vector<sim::RunResult>
simulateAll(const std::string &label, std::vector<sim::SystemConfig> configs,
            const sim::RunWindows &windows)
{
    unsigned jobs = exec::resolveJobs();
    for (auto &cfg : configs) {
        if (!cfg.program)
            cfg.program = workload::ImageCache::global().get(cfg.profile);
    }
    std::vector<std::optional<sim::RunResult>> out(configs.size());
    auto report = exec::runIndexed(
        label, configs.size(), jobs,
        [&](std::size_t i) {
            out[i] = exec::simulateCached(configs[i], windows);
        },
        [&](std::size_t i) {
            return configs[i].profile.name + "/" +
                sim::presetName(configs[i].preset);
        });
    exec::ExecLog::push(std::move(report));
    std::vector<sim::RunResult> results;
    results.reserve(out.size());
    for (auto &r : out)
        results.push_back(std::move(*r));
    return results;
}

/**
 * The `--trace-spans` timeline: one Chrome trace-event array drawn from
 * drained exec reports and profiler records.  Each scheduled cell is an
 * `exec.cell` X event labelled with its cell; each profiled run adds
 * `sim.setup` (labelled with its warm source), `sim.warm` and
 * `sim.measure`, laid end to end from its start stamp.  Events sit on
 * the track of the thread that ran them (`main`, `worker-N`), so a
 * run's phases nest inside its cell by time containment.  Timestamps are
 * microseconds since the earliest event.
 */
inline obs::JsonValue
spanTimeline(const std::vector<exec::ExecReport> &reports,
             const std::vector<obs::ProfRecord> &records)
{
    double origin = std::numeric_limits<double>::infinity();
    std::set<unsigned> tracks;
    for (const auto &report : reports) {
        for (const auto &cell : report.cellTimes) {
            origin = std::min(origin, cell.start);
            tracks.insert(cell.track);
        }
    }
    for (const auto &rec : records) {
        origin = std::min(origin, rec.start);
        tracks.insert(rec.track);
    }

    obs::JsonValue out = obs::JsonValue::array();
    for (unsigned track : tracks) {
        obs::JsonValue m = obs::JsonValue::object();
        m["name"] = "thread_name";
        m["ph"] = "M";
        m["pid"] = 1;
        m["tid"] = static_cast<std::uint64_t>(track);
        m["args"] = obs::JsonValue::object();
        m["args"]["name"] = track ? "worker-" + std::to_string(track - 1)
                                  : std::string("main");
        out.push(std::move(m));
    }
    auto event = [&](const char *name, const std::string &label,
                     double start, double seconds, unsigned track) {
        obs::JsonValue x = obs::JsonValue::object();
        x["name"] = name;
        x["ph"] = "X";
        x["pid"] = 1;
        x["tid"] = static_cast<std::uint64_t>(track);
        x["ts"] = (start - origin) * 1e6;
        x["dur"] = seconds * 1e6;
        if (!label.empty()) {
            x["args"] = obs::JsonValue::object();
            x["args"]["label"] = label;
        }
        out.push(std::move(x));
    };
    for (const auto &report : reports) {
        for (const auto &cell : report.cellTimes)
            event("exec.cell", cell.label, cell.start, cell.seconds,
                  cell.track);
    }
    for (const auto &rec : records) {
        double t = rec.start;
        event("sim.setup", "warm=" + rec.warm, t, rec.setupSeconds,
              rec.track);
        t += rec.setupSeconds;
        event("sim.warm", "", t, rec.warmSeconds, rec.track);
        t += rec.warmSeconds;
        event("sim.measure", "", t, rec.measureSeconds, rec.track);
    }
    return out;
}

/** The three workloads used for parameter sweeps (largest, middle,
 *  smallest footprint) when a full 7-workload grid would be excessive. */
inline std::vector<std::string>
sweepWorkloads()
{
    return {"OLTP (DB A)", "Web (Apache)", "Web Frontend"};
}

/** All seven workloads, paper order. */
inline std::vector<std::string>
allWorkloads()
{
    return workload::serverWorkloadNames();
}

/** Print the standard bench banner. */
inline void
banner(const char *figure, const char *claim)
{
    std::printf("%s\n  paper: %s\n", figure, claim);
}

/**
 * Per-bench output harness: prints the banner, parses the shared
 * flags, mirrors reported tables/scalars into the JSON document, and
 * flushes everything on destruction.
 */
class Harness
{
  public:
    Harness(int argc, char **argv, const char *figure_, const char *claim_)
        : figure(figure_), claim(claim_)
    {
        parseArgs(argc, argv);
        banner(figure_, claim_);
        if (!tracePath.empty() && obs::Tracing::open(tracePath))
            traceOpened = true;
        // The span timeline is drawn from the profiler's records.
        if (!spanPath.empty())
            obs::Profiler::setEnabled(true);
    }

    ~Harness()
    {
        if (traceOpened)
            obs::Tracing::close();
        std::vector<exec::ExecReport> reports = exec::ExecLog::drain();
        std::vector<obs::ProfRecord> records = obs::Profiler::drain();
        if (!spanPath.empty())
            writeSpans(reports, records);
        if (!jsonPath.empty())
            writeJson(reports, std::move(records));
    }

    Harness(const Harness &) = delete;
    Harness &operator=(const Harness &) = delete;

    /** Print @p table and mirror it into the JSON document. */
    void
    report(const sim::Table &table, const std::string &title)
    {
        table.print(title);
        tables.push(table.toJson(title));
    }

    /** Record a derived scalar in the JSON document (callers print
     *  their own text form; this only feeds the machine output). */
    void
    note(const std::string &key, double value)
    {
        notes[key] = value;
    }

    /** Attach a full RunResult (counters + histograms) to the JSON
     *  document, keyed under "runs". */
    void
    attachRun(const sim::RunResult &result)
    {
        runs.push(sim::toJson(result));
    }

  private:
    void
    parseArgs(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto value = [&](const char *flag) -> std::string {
                std::string prefix = std::string(flag) + "=";
                if (arg.rfind(prefix, 0) == 0 &&
                    arg.size() > prefix.size())
                    return arg.substr(prefix.size());
                if (arg == flag && i + 1 < argc)
                    return argv[++i];
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            };
            if (arg == "--help" || arg == "-h") {
                // Usage text and docs/FLAGS.md render from one table.
                std::printf("usage: %s %s\n", argv[0],
                            cli::usageLine(cli::benchHarnessDocs())
                                .c_str());
                std::exit(0);
            } else if (arg == "--profile") {
                obs::Profiler::setEnabled(true);
                profileEnabled = true;
                std::printf("  [profiling enabled]\n");
            } else if (arg.rfind("--jobs", 0) == 0) {
                std::string spec = value("--jobs");
                if (spec == "auto") {
                    exec::setDefaultJobs(0);
                } else {
                    char *end = nullptr;
                    unsigned long n = std::strtoul(spec.c_str(), &end, 10);
                    if (end == nullptr || *end != '\0' || n == 0) {
                        std::fprintf(stderr,
                                     "--jobs expects a positive integer "
                                     "or 'auto', got '%s'\n",
                                     spec.c_str());
                        std::exit(2);
                    }
                    exec::setDefaultJobs(static_cast<unsigned>(n));
                }
            } else if (arg.rfind("--cache", 0) == 0) {
                std::string dir = value("--cache");
                if (auto opened = exec::ResultCache::openGlobal(dir);
                    !opened.ok()) {
                    std::fprintf(stderr, "%s\n",
                                 opened.error().render().c_str());
                    std::exit(2);
                }
                std::printf("  [result cache: %s]\n", dir.c_str());
            } else if (arg.rfind("--json", 0) == 0) {
                jsonPath = value("--json");
            } else if (arg.rfind("--trace-spans", 0) == 0) {
                // Checked before --trace: that branch matches by prefix.
                spanPath = value("--trace-spans");
            } else if (arg.rfind("--trace", 0) == 0) {
                tracePath = value("--trace");
            } else if (arg.rfind("--inject", 0) == 0) {
                auto plan = rt::parseFaultPlan(value("--inject"));
                if (!plan.ok()) {
                    std::fprintf(stderr, "%s\n",
                                 plan.error().render().c_str());
                    std::exit(2);
                }
                sim::setDefaultFaultPlan(plan.value());
                injectSpec = rt::faultPlanSpec(plan.value());
                std::printf("  [fault injection: %s]\n",
                            injectSpec.c_str());
            } else {
                std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
                std::exit(2);
            }
        }
    }

    void
    writeSpans(const std::vector<exec::ExecReport> &reports,
               const std::vector<obs::ProfRecord> &records)
    {
        std::ofstream out(spanPath, std::ios::out | std::ios::trunc);
        if (!out.is_open()) {
            std::fprintf(stderr, "cannot open %s\n", spanPath.c_str());
            return;
        }
        out << spanTimeline(reports, records).dump() << '\n';
        std::printf("[span timeline written to %s]\n", spanPath.c_str());
    }

    void
    writeJson(const std::vector<exec::ExecReport> &reports,
              std::vector<obs::ProfRecord> records)
    {
        obs::JsonValue doc = obs::JsonValue::object();
        doc["schema"] = "dcfb-bench-v1";
        doc["figure"] = figure;
        doc["claim"] = claim;
        // Provenance: enough to attribute any cached or served result
        // back to the build and run windows that produced it.
        obs::JsonValue meta = obs::JsonValue::object();
        meta["git"] = DCFB_GIT_DESCRIBE;
        meta["build_type"] = DCFB_BUILD_TYPE;
        meta["build_flags"] = DCFB_BUILD_FLAGS;
        obs::JsonValue win = obs::JsonValue::object();
        win["warm"] = windows().warm;
        win["measure"] = windows().measure;
        meta["windows"] = std::move(win);
        // Resource provenance (dcfb-bench-v1 additions; ru_maxrss is
        // kilobytes on Linux).
        rusage ru{};
        if (getrusage(RUSAGE_SELF, &ru) == 0) {
            meta["peak_rss_bytes"] =
                static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
            meta["cpu_user_s"] = static_cast<double>(ru.ru_utime.tv_sec) +
                static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
            meta["cpu_sys_s"] = static_cast<double>(ru.ru_stime.tv_sec) +
                static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
        }
        if (exec::ResultCache *cache = exec::ResultCache::global()) {
            exec::ResultCacheStats cs = cache->stats();
            obs::JsonValue c = obs::JsonValue::object();
            c["schema"] = exec::kCacheSchema;
            c["dir"] = cache->dir();
            c["hits"] = cs.hits;
            c["misses"] = cs.misses;
            c["stores"] = cs.stores;
            c["rejects"] = cs.rejects;
            c["tmp_reaped"] = cs.tmpReaped;
            meta["cache"] = std::move(c);
        }
        doc["meta"] = std::move(meta);
        if (!injectSpec.empty())
            doc["inject"] = injectSpec;
        doc["tables"] = std::move(tables);
        if (!notes.members().empty())
            doc["notes"] = std::move(notes);
        if (!runs.items().empty())
            doc["runs"] = std::move(runs);
        // Scheduling telemetry: one entry per sweep the bench ran.
        // Serial sweeps are omitted so a `--jobs 1` document stays
        // bit-identical to the historical serial format.
        obs::JsonValue execs = obs::JsonValue::array();
        for (const auto &report : reports) {
            if (report.jobs <= 1)
                continue;
            obs::JsonValue e = obs::JsonValue::object();
            e["label"] = report.label;
            e["jobs"] = static_cast<std::uint64_t>(report.jobs);
            e["cells"] = report.cells;
            e["wall_s"] = report.wallSeconds;
            e["busy_s"] = report.busySeconds;
            e["occupancy"] = report.occupancy();
            obs::JsonValue cells = obs::JsonValue::array();
            for (const auto &cell : report.cellTimes) {
                obs::JsonValue c = obs::JsonValue::object();
                c["cell"] = cell.label;
                c["wall_s"] = cell.seconds;
                cells.push(std::move(c));
            }
            e["cell_wall_s"] = std::move(cells);
            execs.push(std::move(e));
        }
        if (!execs.items().empty())
            doc["exec"] = std::move(execs);
        // Per-cell timing records (--profile only, so default documents
        // stay bit-identical to the pre-profiler format).  profJson
        // sorts cells by (workload, design), making the section stable
        // under any --jobs count.
        if (profileEnabled)
            doc["prof"] = obs::profJson(std::move(records));
        std::ofstream out(jsonPath, std::ios::out | std::ios::trunc);
        if (!out.is_open()) {
            std::fprintf(stderr, "cannot open %s\n", jsonPath.c_str());
            return;
        }
        out << doc.dump(2) << '\n';
        std::printf("\n[json report written to %s]\n", jsonPath.c_str());
    }

    std::string figure;
    std::string claim;
    std::string jsonPath;
    std::string tracePath;
    std::string spanPath;
    std::string injectSpec;
    bool traceOpened = false;
    bool profileEnabled = false;
    obs::JsonValue tables = obs::JsonValue::array();
    obs::JsonValue notes = obs::JsonValue::object();
    obs::JsonValue runs = obs::JsonValue::array();
};

} // namespace dcfb::bench

#endif // DCFB_BENCH_COMMON_H
