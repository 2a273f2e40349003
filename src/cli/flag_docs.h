/**
 * @file
 * Single source of truth for every user-facing command-line flag.
 *
 * The bench harness parser (bench/bench_common.h) renders its
 * `--help`/usage text from these tables, and `tools/dcfb-docgen`
 * renders `docs/FLAGS.md` from the same tables — so a flag added to the
 * parser without a table entry is missing from its own --help, and a
 * table entry without regenerating the doc fails the CI docs job
 * (`dcfb-docgen --check docs/FLAGS.md`).
 */

#ifndef DCFB_CLI_FLAG_DOCS_H
#define DCFB_CLI_FLAG_DOCS_H

#include <string>
#include <vector>

namespace dcfb::cli {

/** One documented flag (or positional argument when name lacks "--"). */
struct FlagDoc
{
    std::string name;     //!< "--jobs"
    std::string arg;      //!< metavariable, "" for booleans
    std::string def;      //!< rendered default, "" when none applies
    std::string help;     //!< one-line description
    bool required = false;
};

/** One binary (or subcommand) and its flags. */
struct BinaryDoc
{
    std::string binary;      //!< e.g. "dcfb-golden"
    std::string synopsis;    //!< one-line invocation form
    std::string description; //!< short prose paragraph
    std::vector<FlagDoc> flags;
};

/** Every documented binary, in the order docs/FLAGS.md presents them. */
const std::vector<BinaryDoc> &allBinaryDocs();

/** The shared bench-harness table (used by bench_common.h --help). */
const BinaryDoc &benchHarnessDocs();

/** "[--json <file>] [--trace <file>] ..." for one table. */
std::string usageLine(const BinaryDoc &doc);

/** The full docs/FLAGS.md document (trailing newline included). */
std::string flagsMarkdown();

} // namespace dcfb::cli

#endif // DCFB_CLI_FLAG_DOCS_H
