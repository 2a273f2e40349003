/**
 * @file
 * Persistent, content-addressed store of RunResults.
 *
 * Every entry is one JSON file `<key>.json` under the cache directory,
 * where `<key>` is the FNV-1a hash of the run's canonical fingerprint
 * (exec/fingerprint.h).  Entries are the same RunResult cells the
 * `dcfb-bench-v1` reports carry, wrapped with the fingerprint that
 * produced them:
 *
 *     {"schema": "dcfb-cache-v2", "key": "<hex>",
 *      "fingerprint": {...}, "result": {...RunResult...}}
 *
 * Durability rules:
 *  - writes are atomic: the entry is written to a same-directory temp
 *    file and rename(2)d into place, so a crash mid-write leaves at
 *    worst a stray `*.tmp.*` file that lookups ignore; open() reaps
 *    such leftovers (counted as `tmp_reaped`) so crash debris never
 *    accumulates;
 *  - loads are fully validated (parse, schema, key, stored fingerprint
 *    == expected fingerprint) and report failures as typed rt::Errors;
 *    `get()` treats any invalid entry as a miss, unlinks it, and lets
 *    the caller recompute — corruption can cost time, never wrong
 *    results;
 *  - the stored-fingerprint comparison also guards against hash
 *    collisions: a colliding entry is detected and recomputed rather
 *    than served.
 *
 * Thread safety: get()/put() may be called concurrently from experiment
 * workers.  File operations are naturally safe (atomic rename, whole
 * -file reads); the hit/miss/store/reject counters are guarded by a
 * mutex.
 */

#ifndef DCFB_EXEC_RESULT_CACHE_H
#define DCFB_EXEC_RESULT_CACHE_H

#include <mutex>
#include <optional>
#include <string>

#include "exec/fingerprint.h"
#include "rt/error.h"
#include "sim/simulator.h"

namespace dcfb::exec {

/** Counter snapshot for the bench reports' `meta.cache` section. */
struct ResultCacheStats
{
    std::uint64_t hits = 0;     //!< lookups served from disk
    std::uint64_t misses = 0;   //!< lookups with no entry on disk
    std::uint64_t stores = 0;   //!< entries written
    std::uint64_t rejects = 0;  //!< invalid/corrupt/colliding entries dropped
    std::uint64_t tmpReaped = 0; //!< stray temp files removed at open()
};

class ResultCache
{
  public:
    /** Bind to @p dir (created on open()). */
    explicit ResultCache(std::string dir);

    /** Create the directory if needed; error when uncreatable. */
    rt::Expected<void> open();

    const std::string &dir() const { return directory; }

    /** Filesystem path of @p key's entry. */
    std::string entryPath(const std::string &key) const;

    /**
     * Validated load of @p key's entry.  Errors distinguish a plain
     * miss (ErrorKind::Result, context miss=1) from a rejected entry
     * (unreadable / unparsable / wrong schema / fingerprint mismatch).
     * Pure read: no counters, no unlink — the seam the crash-safety
     * tests probe.
     */
    rt::Expected<sim::RunResult>
    load(const std::string &key, const obs::JsonValue &expect_fp) const;

    /**
     * Cache read with the production policy: a valid entry is a hit;
     * a missing entry is a miss; an invalid entry is counted as a
     * reject, unlinked, and reported as a miss so the caller
     * recomputes.
     */
    std::optional<sim::RunResult>
    get(const std::string &key, const obs::JsonValue &fp);

    /** Atomically persist @p result under @p key. */
    rt::Expected<void> put(const std::string &key, const obs::JsonValue &fp,
                           const sim::RunResult &result);

    ResultCacheStats stats() const;

    // -- process-global instance (the `--cache` flag) ---------------------
    /** Open @p dir as the process-wide cache; replaces any prior one. */
    static rt::Expected<void> openGlobal(const std::string &dir);

    /** The process-wide cache; nullptr when `--cache` is off. */
    static ResultCache *global();

    /** Drop the process-wide cache (tests). */
    static void closeGlobal();

  private:
    std::string directory;
    mutable std::mutex mutex;
    ResultCacheStats counters;
};

/**
 * simulate() through the process-wide result cache: on a hit the stored
 * RunResult is returned without simulating; on a miss the cell is
 * simulated and the result persisted.  With no global cache open this
 * is exactly sim::simulate() — the `--cache`-off path stays bit-
 * identical to the direct runner (enforced by tests/test_exec.cpp).
 */
sim::RunResult simulateCached(const sim::SystemConfig &config,
                              const sim::RunWindows &windows);

} // namespace dcfb::exec

#endif // DCFB_EXEC_RESULT_CACHE_H
