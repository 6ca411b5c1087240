/**
 * @file
 * Declarative scenario description for the cloud-at-scale engine
 * (ROADMAP item 1): a datacenter of identical sockets serving a
 * seeded stream of tenants with diurnal load, purchased shaper
 * tiers, SLAs and rule-based autoscaling.
 *
 * The on-disk format is the shared `key = value` text of
 * base/kv_text.hh: one pair per line, `#` comments, line-numbered
 * errors. Everything a run depends on is either in this struct or
 * derived from it, so scenarioHash() can guard checkpoint warm-starts
 * the same way ckpt::configHash guards socket snapshots.
 */

#ifndef MITTS_CLOUD_SCENARIO_HH
#define MITTS_CLOUD_SCENARIO_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "base/kv_text.hh"
#include "base/types.hh"

namespace mitts::cloud
{

/** Parse/validation failure; message carries file:line context. */
using ScenarioError = ConfigError;

struct ScenarioConfig
{
    std::string name = "scenario";
    std::uint64_t seed = 12345;

    // Datacenter shape. One socket = one cycle-accurate System; one
    // core = one rentable slot.
    unsigned sockets = 1;
    unsigned coresPerSocket = 4;

    /** Engine window: SLA accounting, arrivals/departures and
     *  diurnal re-modulation all happen on these boundaries. */
    Tick windowCycles = 10'000;
    Tick durationCycles = 200'000;

    // Population process (see population.hh).
    double arrivalsPerWindow = 0.5; ///< peak rate, diurnally scaled
    double meanResidencyWindows = 4.0;
    Tick diurnalPeriod = 0; ///< cycles per day; 0 = flat load
    double diurnalMin = 0.25; ///< trough load as fraction of peak
    unsigned maxTenants = 0; ///< cap on generated arrivals; 0 = none

    /** Workload catalog: registry profile names tenants draw from
     *  (uniformly). Multithreaded profiles are forced to one thread
     *  (a slot is one core). */
    std::vector<std::string> profiles = {"mcf", "libquantum", "gcc",
                                         "apache"};

    /** Tier draw weights, parallel to Marketplace::tier order;
     *  empty = uniform. Shorter vectors pad with zeros. */
    std::vector<double> tierWeights;

    // Rule-based autoscaling (per slot; see engine.cc).
    bool autoscaler = true;
    /** Shaper-stall fraction at/above which a slot upgrades. */
    double upgradeStallFraction = 0.10;
    /** Shaper-stall fraction at/below which a slot downgrades. */
    double downgradeStallFraction = 0.005;

    /** A bandwidth SLA only counts as violated in windows where the
     *  slot's shaper demonstrably throttled the tenant (shaper-stall
     *  fraction at or above this); a tenant that was never held back
     *  was not "denied" bandwidth. */
    double demandStallFraction = 0.25;

    // Telemetry (per socket, under the scenario output directory).
    bool telemetry = false;
    Tick sampleInterval = 10'000;
};

/** Parse from a stream; `what` names the source in errors. */
ScenarioConfig parseScenario(std::istream &in,
                             const std::string &what);

/** Parse a scenario file; throws ScenarioError on I/O or syntax. */
ScenarioConfig parseScenarioFile(const std::string &path);

/** Throws ScenarioError unless every field is self-consistent
 *  (window divides duration, fractions in range, ...). Profile names
 *  are resolved against the registry here too. */
void validateScenario(const ScenarioConfig &sc);

/** FNV-1a over every field; guards engine checkpoint warm-starts. */
std::uint64_t scenarioHash(const ScenarioConfig &sc);

} // namespace mitts::cloud

#endif // MITTS_CLOUD_SCENARIO_HH
