#include "cloud/population.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "base/logging.hh"
#include "base/random.hh"

namespace mitts::cloud
{

double
TenantPopulation::diurnalFactor(const ScenarioConfig &sc, Tick t)
{
    if (sc.diurnalPeriod == 0)
        return 1.0;
    const double phase =
        static_cast<double>(t % sc.diurnalPeriod) /
        static_cast<double>(sc.diurnalPeriod);
    // Raised cosine: trough at phase 0, peak at phase 0.5.
    const double wave =
        0.5 * (1.0 - std::cos(2.0 * 3.14159265358979323846 * phase));
    return sc.diurnalMin + (1.0 - sc.diurnalMin) * wave;
}

TenantPopulation::TenantPopulation(const ScenarioConfig &sc,
                                   unsigned num_tiers)
{
    MITTS_ASSERT(num_tiers > 0, "population needs a tier menu");
    Random rng(sc.seed ^ 0x9E3779B97F4A7C15ULL);

    // Effective tier weights: the configured prefix, padded with
    // uniform weight 1 when unset.
    std::vector<double> weights(num_tiers, 0.0);
    double wsum = 0.0;
    for (unsigned i = 0; i < num_tiers; ++i) {
        weights[i] = i < sc.tierWeights.size() ? sc.tierWeights[i]
                     : sc.tierWeights.empty()  ? 1.0
                                               : 0.0;
        wsum += weights[i];
    }
    if (wsum <= 0.0) {
        // Degenerate weights: fall back to uniform.
        weights.assign(num_tiers, 1.0);
        wsum = static_cast<double>(num_tiers);
    }

    unsigned id = 0;
    for (Tick w = 0; w < sc.durationCycles; w += sc.windowCycles) {
        const double lambda =
            sc.arrivalsPerWindow * diurnalFactor(sc, w);
        // Integer part plus a Bernoulli draw on the remainder: the
        // expected count per window is exactly lambda and the draw
        // sequence is a pure function of the seed.
        const double whole = std::floor(lambda);
        unsigned count = static_cast<unsigned>(whole);
        if (rng.chance(lambda - whole))
            ++count;
        for (unsigned k = 0; k < count; ++k) {
            if (sc.maxTenants > 0 && id >= sc.maxTenants)
                return;
            TenantSpec t;
            t.id = id;
            char buf[16];
            std::snprintf(buf, sizeof(buf), "t%04u", id);
            t.name = buf;
            t.arriveAt = w;
            // Exponential residency, rounded up to whole windows. A
            // stay past the run's end never departs, so the draw is
            // capped there; that also keeps the cast to Tick in range.
            const double u = rng.real(); // [0, 1)
            const double windows =
                -std::log(1.0 - u) * sc.meanResidencyWindows;
            const double capped = std::min(
                std::max(1.0, std::ceil(windows)),
                static_cast<double>(sc.durationCycles / sc.windowCycles +
                                    1));
            t.residencyCycles =
                static_cast<Tick>(capped) * sc.windowCycles;
            t.profileIdx = static_cast<unsigned>(
                rng.below(sc.profiles.size()));
            // Weighted tier draw.
            double x = rng.real() * wsum;
            unsigned tier = num_tiers - 1;
            for (unsigned i = 0; i < num_tiers; ++i) {
                if (x < weights[i]) {
                    tier = i;
                    break;
                }
                x -= weights[i];
            }
            t.tierIdx = tier;
            arrivals_.push_back(std::move(t));
            ++id;
        }
    }
}

} // namespace mitts::cloud
