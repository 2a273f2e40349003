/**
 * @file
 * Canonical run fingerprints for the content-addressed result cache.
 *
 * A fingerprint is a JSON document covering *every* knob that shapes a
 * RunResult: the full workload-profile parameterization, the preset and
 * all structure configs, the run seed, the functional-warmup length,
 * the fault-injection spec, and the warm/measure windows — plus the
 * cache schema version so a layout change invalidates old entries
 * wholesale.  Two runs with equal fingerprints produce bit-identical
 * RunResults (simulation is deterministic); the cache key is an FNV-1a
 * hash of the compact fingerprint serialization.
 *
 * Deliberately excluded: `rt::IntegrityConfig` (sweep cadence and
 * watchdog thresholds never change a successful run's counters — see
 * FaultIntegrity.DisablingIntegrityKeepsResultsIdentical) and the
 * resolved `program` pointer (it is a pure function of the profile).
 *
 * Maintenance rule: when a result-shaping field is added to
 * SystemConfig or a nested config struct, it MUST be added here and
 * `kCacheSchema` MUST be bumped.  tests/test_exec.cpp pins the key of a
 * reference config to catch accidental fingerprint drift.
 */

#ifndef DCFB_EXEC_FINGERPRINT_H
#define DCFB_EXEC_FINGERPRINT_H

#include <cstdint>
#include <string>

#include "obs/json.h"
#include "sim/config.h"
#include "sim/simulator.h"

namespace dcfb::exec {

/** Cache entry schema / fingerprint version.  Bump on layout change. */
inline constexpr const char *kCacheSchema = "dcfb-cache-v2";

/** The canonical fingerprint document for one (config, windows) run. */
obs::JsonValue fingerprint(const sim::SystemConfig &config,
                           const sim::RunWindows &windows);

/** FNV-1a 64-bit hash of @p text, rendered as 16 lowercase hex chars. */
std::string fnv1aHex(const std::string &text);

/** Content-addressed key: fnv1aHex of the compact fingerprint dump. */
std::string cacheKey(const sim::SystemConfig &config,
                     const sim::RunWindows &windows);

} // namespace dcfb::exec

#endif // DCFB_EXEC_FINGERPRINT_H
