/**
 * @file
 * Shared helpers for the per-figure bench harnesses.
 *
 * Each bench binary regenerates one table or figure of the paper: same
 * rows/series, measured on the synthetic server workloads.  Absolute
 * numbers differ from the paper's testbed; EXPERIMENTS.md records the
 * paper-vs-measured comparison.
 *
 * Every bench routes its output through a bench::Harness, which adds
 * these flags on top of the text tables (see EXPERIMENTS.md for the
 * schemas); each takes its value as `--flag value` or `--flag=value`:
 *
 *   --json <file>   also write every reported table (same cells as the
 *                   text output) plus recorded scalars as one JSON
 *                   document -- the BENCH_*.json regression format
 *   --trace <file>  stream miss-attribution events from every simulated
 *                   run into <file> as JSONL; runs buffer per thread and
 *                   merge at close, so the sweep still parallelizes
 *   --inject <spec> seeded fault injection applied to every run, e.g.
 *                   drop:rate=0.5,seed=3 (see README "Robustness")
 *   --jobs <n>      worker threads for experiment sweeps (default: auto,
 *                   one per hardware thread; --jobs 1 reproduces the
 *                   historical serial runner bit for bit)
 *   --profile       time every simulated cell (setup/warm/measure wall
 *                   split plus sampled per-phase cycle-loop attribution)
 *                   and emit the records as the JSON document's "prof"
 *                   section.  Simulated results are unchanged; see
 *                   DESIGN.md section 9 for the overhead model.
 *
 * The authoritative flag reference is docs/FLAGS.md, generated from
 * src/cli/flag_docs.cpp (which also feeds --help below).  A `--json` or
 * `--trace` path that cannot be created exits 2 before any cell runs.
 *
 * Every `--json` document's "meta" section also records the process's
 * peak RSS and CPU time (peak_rss_bytes, cpu_user_s, cpu_sys_s, from
 * getrusage) so regression archives carry resource provenance.
 */

#ifndef DCFB_BENCH_COMMON_H
#define DCFB_BENCH_COMMON_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "cli/flag_docs.h"
#include "exec/grid.h"
#include "exec/schedule.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "rt/faults.h"
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
        // Fail at the CLI, not after the sweep: both output files must
        // be creatable before any cell runs.  The --json probe creates
        // the file, so a failed --trace open removes it again unless it
        // was there before.
        bool json_created = false;
        if (!jsonPath.empty()) {
            std::error_code ec;
            json_created = !std::filesystem::exists(jsonPath, ec);
            if (!std::ofstream(jsonPath, std::ios::out | std::ios::app)) {
                std::fprintf(stderr, "cannot open %s\n", jsonPath.c_str());
                std::exit(2);
            }
        }
        if (!tracePath.empty() && !obs::Tracing::open(tracePath)) {
            if (json_created) {
                std::error_code ec;
                std::filesystem::remove(jsonPath, ec);
            }
            std::exit(2);
        }
        banner(figure_, claim_);
    }

    ~Harness()
    {
        if (!tracePath.empty())
            obs::Tracing::close();
        if (!jsonPath.empty())
            writeJson(exec::ExecLog::drain(), obs::Profiler::drain());
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
            // A flag matches as `--flag` or `--flag=value` only, so a
            // misspelt `--jobs4` is an unknown argument, not `--jobs`.
            auto is = [&](const char *flag) {
                std::size_t n = std::strlen(flag);
                return arg.compare(0, n, flag) == 0 &&
                    (arg.size() == n || arg[n] == '=');
            };
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
            } else if (is("--jobs")) {
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
            } else if (is("--json")) {
                jsonPath = value("--json");
            } else if (is("--trace")) {
                tracePath = value("--trace");
            } else if (is("--inject")) {
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
    writeJson(const std::vector<exec::ExecReport> &reports,
              std::vector<obs::ProfRecord> records)
    {
        obs::JsonValue doc = obs::JsonValue::object();
        doc["schema"] = "dcfb-bench-v1";
        doc["figure"] = figure;
        doc["claim"] = claim;
        // Provenance: enough to attribute the report to the build and
        // run windows that produced it.
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
    std::string injectSpec;
    bool profileEnabled = false;
    obs::JsonValue tables = obs::JsonValue::array();
    obs::JsonValue notes = obs::JsonValue::object();
    obs::JsonValue runs = obs::JsonValue::array();
};

} // namespace dcfb::bench

#endif // DCFB_BENCH_COMMON_H
