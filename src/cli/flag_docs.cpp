#include "cli/flag_docs.h"

#include <sstream>

namespace dcfb::cli {

namespace {

/** The tables are built once, on first use. */
std::vector<BinaryDoc>
buildDocs()
{
    std::vector<BinaryDoc> docs;

    // -- shared bench harness --------------------------------------------
    BinaryDoc bench;
    bench.binary = "bench harnesses";
    bench.synopsis =
        "fig01_footprint_miss … fig19_competitors, tab01_empty_ftq, "
        "tab02_storage, sec7j_dvllc [flags]";
    bench.description =
        "Every per-figure bench binary routes its arguments through "
        "`bench::Harness` (bench/bench_common.h) and accepts the same "
        "flag set.  With no flags a bench prints its text tables and is "
        "bit-identical to the historical serial runner.";
    bench.flags = {
        {"--json", "<file>", "",
         "also write every reported table plus recorded scalars as one "
         "dcfb-bench-v1 JSON document", false},
        {"--trace", "<file>", "",
         "stream miss-attribution events from every simulated run "
         "(*.jsonl -> JSONL, else Chrome trace-event format)", false},
        {"--trace-spans", "<file>", "",
         "write a span timeline (Chrome trace-event JSON) of the whole "
         "process, drawn from the cell and profiler records: one "
         "exec.cell event per cell on its worker's track, with "
         "sim.setup/warm/measure inside it; turns the profiler on",
         false},
        {"--inject", "<spec>", "off",
         "seeded fault injection applied to every run, e.g. "
         "drop:rate=0.5,seed=3 (README \"Robustness\")", false},
        {"--jobs", "<n>|auto", "auto",
         "worker threads for experiment sweeps (auto = one per hardware "
         "thread; --jobs 1 reproduces the serial runner bit for bit)",
         false},
        {"--cache", "<dir>", "off",
         "persistent content-addressed result cache; cells already "
         "computed under <dir> are served from it", false},
        {"--profile", "", "off",
         "time every simulated cell (setup/warm/measure wall split plus "
         "sampled per-phase cycle-loop attribution) and emit the records "
         "as the JSON document's \"prof\" section", false},
    };
    docs.push_back(std::move(bench));

    // -- dcfb-golden -----------------------------------------------------
    BinaryDoc golden;
    golden.binary = "dcfb-golden";
    golden.synopsis = "dcfb-golden [OUTDIR]";
    golden.description =
        "Golden-corpus generator: simulates every cell in "
        "tests/golden_cells.h and writes one RunResult JSON per cell.  "
        "Run through scripts/update_golden.py, which refuses to "
        "regenerate over a dirty git tree or a foreign machine context.";
    golden.flags = {
        {"OUTDIR", "", "tests/golden", "output directory", false},
    };
    docs.push_back(std::move(golden));

    return docs;
}

} // namespace

const std::vector<BinaryDoc> &
allBinaryDocs()
{
    static const std::vector<BinaryDoc> docs = buildDocs();
    return docs;
}

const BinaryDoc &
benchHarnessDocs()
{
    return allBinaryDocs().front();
}

std::string
usageLine(const BinaryDoc &doc)
{
    std::ostringstream out;
    bool first = true;
    for (const auto &f : doc.flags) {
        if (!first)
            out << ' ';
        first = false;
        if (!f.required)
            out << '[';
        out << f.name;
        if (!f.arg.empty())
            out << ' ' << f.arg;
        if (!f.required)
            out << ']';
    }
    return out.str();
}

namespace {

/** Escape '|' so metavariables like `<n>|auto` survive table cells. */
std::string
cell(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '|')
            out += "\\|";
        else
            out += c;
    }
    return out;
}

} // namespace

std::string
flagsMarkdown()
{
    std::ostringstream out;
    out << "# Command-line reference\n"
        << "\n"
        << "<!-- Generated by dcfb-docgen; do not edit by hand.\n"
        << "     Regenerate: build/bin/dcfb-docgen --out docs/FLAGS.md\n"
        << "     CI checks:  build/bin/dcfb-docgen --check docs/FLAGS.md "
           "-->\n"
        << "\n"
        << "Every flag of every user-facing binary, rendered from the "
           "tables in\n"
        << "`src/cli/flag_docs.cpp` — the same tables the binaries' own "
           "`--help`\n"
        << "output comes from.  See `docs/SCHEMAS.md` for the JSON "
           "documents the\n"
        << "`--json` flags emit.\n";
    for (const auto &doc : allBinaryDocs()) {
        out << "\n## " << doc.binary << "\n\n"
            << "```\n" << doc.synopsis << "\n```\n\n"
            << doc.description << "\n\n"
            << "| Flag | Argument | Default | Description |\n"
            << "|---|---|---|---|\n";
        for (const auto &f : doc.flags) {
            std::string name = f.name;
            if (f.required)
                name += " (required)";
            out << "| `" << cell(name) << "` | "
                << (f.arg.empty() ? "—" : "`" + cell(f.arg) + "`")
                << " | "
                << (f.def.empty() ? "—" : "`" + cell(f.def) + "`")
                << " | " << cell(f.help) << " |\n";
        }
    }
    return out.str();
}

} // namespace dcfb::cli
