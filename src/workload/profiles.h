/**
 * @file
 * The seven server-workload profiles of Table IV.
 *
 * Each profile is a parameterization of the synthetic program generator
 * tuned so that the *motivation* characteristics the paper reports land
 * in the right bands (sequential-miss fraction 65-80 %, Fig. 2;
 * dominant-discontinuity-branch rate ~80 %, Fig. 7; Shotgun footprint
 * miss ratio 4-31 %, Fig. 1).  Knobs are then held fixed for every
 * evaluation experiment.  EXPERIMENTS.md records paper-vs-measured.
 */

#ifndef DCFB_WORKLOAD_PROFILES_H
#define DCFB_WORKLOAD_PROFILES_H

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rt/error.h"
#include "workload/cfg.h"

namespace dcfb::workload {

/** Names follow the paper's figures. */
std::vector<std::string> serverWorkloadNames();

/**
 * Profile for @p name; an unknown name yields an rt::Error listing the
 * known profiles.
 * @param variable_length build the VL-ISA flavour of the workload
 */
rt::Expected<WorkloadProfile> tryServerProfile(const std::string &name,
                                               bool variable_length = false);

/** tryServerProfile() for legacy callers: raises rt::Exception. */
WorkloadProfile serverProfile(const std::string &name,
                              bool variable_length = false);

/** All seven profiles, paper order. */
std::vector<WorkloadProfile> allServerProfiles(bool variable_length = false);

/**
 * Canonical key covering every knob that shapes the built program.
 * Keying on the full parameterization (not just the name) keeps custom
 * or tweaked profiles from aliasing a stock entry.  The ImageCache
 * keys on it.
 */
std::string profileKey(const WorkloadProfile &profile);

/** A built program shared immutably across experiment cells. */
using ProgramRef = std::shared_ptr<const Program>;

/**
 * Cache of built workload images.
 *
 * Building a profile's program (CFG layout + code-image emission +
 * data-footprint plan) dominates experiment setup, and an N-way
 * parallel grid would otherwise pay it once per (workload x design)
 * cell.  The cache builds each profile once and hands every caller the
 * same `shared_ptr<const Program>`; a built Program is never mutated
 * (the trace walker, pre-decoders and warmup only read it), so sharing
 * one image across concurrently-running cells is safe.
 *
 * Keyed by the full profile parameterization -- two profiles that share
 * a name but differ in any knob (e.g. the fixed-length and VL-ISA
 * flavours of a workload) get distinct entries, while repeated requests
 * for the same flavour hit.  Thread-safe; builds are serialized, which
 * is fine because grids resolve their images up front on one thread.
 */
class ImageCache
{
  public:
    /** The shared Program for @p profile, building it on first use. */
    ProgramRef get(const WorkloadProfile &profile);

    /** get() for the named server profile (tryServerProfile errors
     *  propagate as rt::Exception). */
    ProgramRef server(const std::string &name, bool variable_length = false);

    /** Programs built (cache misses) so far. */
    std::size_t built() const;

    /** Requests served from the cache (hits) so far. */
    std::size_t hits() const;

    /** Drop every entry (images survive while callers hold refs). */
    void clear();

    /** The process-wide cache every experiment runner shares. */
    static ImageCache &global();

  private:
    mutable std::mutex mutex;
    std::map<std::string, ProgramRef> cache; //!< keyed by profile knobs
    std::size_t misses = 0;
    std::size_t lookups = 0;
};

} // namespace dcfb::workload

#endif // DCFB_WORKLOAD_PROFILES_H
