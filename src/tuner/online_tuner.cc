#include "tuner/online_tuner.hh"

#include <algorithm>

#include "base/logging.hh"
#include "sched/frfcfs.hh"
#include "telemetry/telemetry.hh"
#include "tuner/offline_tuner.hh"

namespace mitts
{

OnlineTuner::OnlineTuner(System &sys, const OnlineTunerOptions &opts)
    : Clocked("online_tuner"), sys_(sys), opts_(opts),
      rng_(opts.seed), numCores_(sys.numCores()),
      spec_(sys.config().binSpec),
      aloneRate_(numCores_, 0.0),
      epochStartCompleted_(numCores_, 0),
      epochStartStall_(numCores_, 0),
      epochStartInstr_(numCores_, 0)
{
    MITTS_ASSERT(sys.config().gate == GateKind::Mitts,
                 "online tuner requires MITTS shapers");
    if (!dynamic_cast<RankedFrfcfs *>(&sys_.scheduler())) {
        warn("online tuner: scheduler has no priority boost; "
             "alone-rate measurement degrades to stall fractions");
    }
    if (sys_.telemetry())
        registerTelemetry(*sys_.telemetry());
    startConfigPhase(0);
}

void
OnlineTuner::registerTelemetry(telemetry::Telemetry &t)
{
    probes_.release();
    probes_.attach(&t.probes());
    using telemetry::ProbeKind;
    probes_.add("tuner.config_switches", ProbeKind::Counter,
                [this](Tick) {
                    return static_cast<double>(configSwitches_);
                });
    probes_.add("tuner.generation", ProbeKind::Gauge, [this](Tick) {
        return static_cast<double>(generation_);
    });
    probes_.add("tuner.best_fitness", ProbeKind::Gauge, [this](Tick) {
        return bestFitness_;
    });
    probes_.add("tuner.epoch_avg_slowdown", ProbeKind::Gauge,
                [this](Tick) { return lastAvgSlowdown_; });
    probes_.add("tuner.epoch_max_slowdown", ProbeKind::Gauge,
                [this](Tick) { return lastMaxSlowdown_; });
    if (t.trace()) {
        trace_ = t.trace();
        traceTrack_ = trace_->track("online_tuner");
    }
}

void
OnlineTuner::startConfigPhase(Tick now)
{
    ++configPhases_;
    configPhaseStart_ = now;
    state_ = State::Measure;
    measureEpochsLeft_ = numCores_;
    boostedCore_ = 0;
    if (auto *rf = dynamic_cast<RankedFrfcfs *>(&sys_.scheduler()))
        rf->setBoostedCore(boostedCore_);
    generation_ = 0;
    childIdx_ = 0;
    fitness_.assign(opts_.population, 0.0);
    bestFitness_ = 0.0;
    bestGenome_.clear();

    // Seed the population: canonical shapes plus random genomes.
    const std::size_t len =
        static_cast<std::size_t>(spec_.numBins) * numCores_;
    population_.clear();
    const std::uint32_t level =
        std::max<std::uint32_t>(1, spec_.maxCredits / 16);
    Genome uniform(len, level);
    population_.push_back(uniform);
    Genome burst(len, 0);
    for (unsigned c = 0; c < numCores_; ++c) {
        burst[c * spec_.numBins] = 4 * level;
        burst[c * spec_.numBins + spec_.numBins - 1] = level;
    }
    population_.push_back(burst);
    while (population_.size() < opts_.population) {
        Genome g(len, 0);
        const double density = 0.2 + 0.8 * rng_.real();
        const double scale_exp = rng_.real();
        const auto scale = static_cast<std::uint32_t>(std::max(
            1.0, static_cast<double>(spec_.maxCredits) * scale_exp *
                     scale_exp));
        for (auto &gene : g) {
            gene = rng_.chance(density)
                       ? static_cast<std::uint32_t>(
                             rng_.below(scale + 1))
                       : 0;
        }
        population_.push_back(std::move(g));
    }
    if (opts_.projection) {
        for (auto &g : population_)
            opts_.projection(g);
    }

    beginEpoch(now);
}

void
OnlineTuner::beginEpoch(Tick now)
{
    epochStartTick_ = now;
    epochEndsAt_ = now + opts_.epochLength;
    for (unsigned c = 0; c < numCores_; ++c) {
        epochStartCompleted_[c] = sys_.memController().completed(c);
        epochStartStall_[c] = sys_.core(c).memStallCycles();
        epochStartInstr_[c] = sys_.core(c).instructions();
    }
}

void
OnlineTuner::applyConfigs(const Genome &g, Tick now)
{
    auto configs = genomeToConfigs(g, spec_, numCores_);
    for (unsigned c = 0; c < numCores_; ++c) {
        sys_.setShaperConfig(static_cast<CoreId>(c), configs[c]);
        sys_.core(c).stallFor(opts_.softwareOverhead, now);
    }
    overheadApplied_ += opts_.softwareOverhead;
    ++configSwitches_;
    if (trace_)
        trace_->instant(traceTrack_, "tuner", "config_switch", now);
}

double
OnlineTuner::measureFitness() const
{
    const double len = static_cast<double>(opts_.epochLength);
    double sum_slowdown = 0.0;
    double max_slowdown = 0.0;
    std::uint64_t instr = 0;
    for (unsigned c = 0; c < numCores_; ++c) {
        const double shared =
            static_cast<double>(sys_.memController().completed(c) -
                                epochStartCompleted_[c]) /
            len;
        double ratio = 1.0;
        if (shared > 1e-12 && aloneRate_[c] > 1e-12)
            ratio = std::max(1.0, aloneRate_[c] / shared);
        const double stall_frac =
            static_cast<double>(sys_.core(c).memStallCycles() -
                                epochStartStall_[c]) /
            len;
        const double slowdown = (1.0 - opts_.alpha) * ratio +
                                opts_.alpha * (1.0 + stall_frac);
        sum_slowdown += slowdown;
        max_slowdown = std::max(max_slowdown, slowdown);
        instr += sys_.core(c).instructions() - epochStartInstr_[c];
    }
    lastAvgSlowdown_ =
        sum_slowdown / std::max(1u, numCores_);
    lastMaxSlowdown_ = max_slowdown;

    switch (opts_.objective) {
      case Objective::Performance:
        return static_cast<double>(instr);
      case Objective::Throughput:
        return static_cast<double>(numCores_) /
               std::max(1e-9, sum_slowdown);
      case Objective::Fairness:
        return 1.0 / std::max(1e-9, max_slowdown);
      case Objective::PerfPerCost:
        // Priced objectives are offline concerns; fall back to raw
        // throughput online.
        return static_cast<double>(instr);
    }
    return 0.0;
}

void
OnlineTuner::stepGeneration(Tick now)
{
    (void)now;
    // Track champion.
    for (std::size_t i = 0; i < population_.size(); ++i) {
        if (bestGenome_.empty() || fitness_[i] > bestFitness_) {
            bestFitness_ = fitness_[i];
            bestGenome_ = population_[i];
        }
    }
    ++generation_;
    if (generation_ >= opts_.generations)
        return;

    // Elites + tournament offspring (same operators as the offline
    // GA, driven by this tuner's deterministic stream).
    std::vector<std::size_t> order(population_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    // stable_sort: equal-fitness genomes tie-break by index so
    // elite selection is identical on every standard library.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return fitness_[a] > fitness_[b];
                     });

    auto tourney = [&]() -> const Genome & {
        std::size_t best = rng_.below(population_.size());
        for (int i = 0; i < 2; ++i) {
            const std::size_t cand = rng_.below(population_.size());
            if (fitness_[cand] > fitness_[best])
                best = cand;
        }
        return population_[best];
    };

    std::vector<Genome> next;
    next.push_back(population_[order[0]]);
    if (population_.size() > 1)
        next.push_back(population_[order[1]]);
    while (next.size() < opts_.population) {
        const Genome &a = tourney();
        const Genome &b = tourney();
        Genome child(a.size());
        for (std::size_t i = 0; i < child.size(); ++i)
            child[i] = rng_.chance(0.5) ? a[i] : b[i];
        for (auto &gene : child) {
            if (rng_.chance(0.10)) {
                gene = rng_.chance(0.5)
                           ? static_cast<std::uint32_t>(
                                 rng_.below(spec_.maxCredits + 1))
                           : std::min<std::uint32_t>(
                                 spec_.maxCredits,
                                 gene + static_cast<std::uint32_t>(
                                            rng_.below(gene / 2 + 2)));
            }
        }
        if (opts_.projection)
            opts_.projection(child);
        next.push_back(std::move(child));
    }
    population_ = std::move(next);
    std::fill(fitness_.begin(), fitness_.end(), 0.0);
}

void
OnlineTuner::closeEpoch(Tick now)
{
    auto *rf = dynamic_cast<RankedFrfcfs *>(&sys_.scheduler());
    const double len = static_cast<double>(now - epochStartTick_);

    switch (state_) {
      case State::Measure: {
        // Record the boosted core's service rate as its alone rate.
        if (boostedCore_ != kNoCore && len > 0) {
            aloneRate_[boostedCore_] =
                static_cast<double>(
                    sys_.memController().completed(boostedCore_) -
                    epochStartCompleted_[boostedCore_]) /
                len;
        }
        --measureEpochsLeft_;
        if (measureEpochsLeft_ > 0) {
            ++boostedCore_;
            if (rf)
                rf->setBoostedCore(boostedCore_);
            beginEpoch(now);
            return;
        }
        boostedCore_ = kNoCore;
        if (rf)
            rf->setBoostedCore(kNoCore);
        // Begin evaluating children.
        state_ = State::Eval;
        childIdx_ = 0;
        applyConfigs(population_[childIdx_], now);
        beginEpoch(now);
        return;
      }
      case State::Eval: {
        fitness_[childIdx_] = measureFitness();
        ++childIdx_;
        if (childIdx_ >= population_.size()) {
            stepGeneration(now);
            childIdx_ = 0;
            if (generation_ >= opts_.generations) {
                // CONFIG_PHASE over: run with the winner.
                best_ = genomeToConfigs(bestGenome_, spec_,
                                        numCores_);
                applyConfigs(bestGenome_, now);
                state_ = State::Run;
                if (trace_ && configPhaseStart_ != kTickNever) {
                    trace_->duration(traceTrack_, "tuner",
                                     "config_phase",
                                     configPhaseStart_, now);
                    configPhaseStart_ = kTickNever;
                }
                nextPhaseAt_ = opts_.phaseLength
                                   ? now + opts_.phaseLength
                                   : kTickNever;
                return;
            }
        }
        applyConfigs(population_[childIdx_], now);
        beginEpoch(now);
        return;
      }
      case State::Run:
        return;
    }
}

void
OnlineTuner::tick(Tick now)
{
    if (state_ == State::Run) {
        if (now >= nextPhaseAt_)
            startConfigPhase(now);
        return;
    }
    if (now >= epochEndsAt_)
        closeEpoch(now);
}

void
OnlineTuner::checkpoint(ckpt::Archive &a)
{
    a.rng(rng_);
    a.enumByte(state_, State::Run, "online tuner state");
    a.u64(epochEndsAt_);
    a.u64(nextPhaseAt_);
    a.narrow(configPhases_, "online tuner config-phase count");
    a.narrow(boostedCore_, "online tuner boosted core");
    a.check(boostedCore_ == kNoCore ||
                (boostedCore_ >= 0 &&
                 static_cast<unsigned>(boostedCore_) < numCores_),
            "online tuner boosted core is not a core");
    a.vecF64(aloneRate_);
    a.vecU64(epochStartCompleted_);
    a.vecU64(epochStartStall_);
    a.vecU64(epochStartInstr_);
    a.check(aloneRate_.size() == numCores_ &&
                epochStartCompleted_.size() == numCores_ &&
                epochStartStall_.size() == numCores_ &&
                epochStartInstr_.size() == numCores_,
            "online tuner per-core state does not match the core count");
    a.u64(epochStartTick_);
    a.narrow(measureEpochsLeft_, "online tuner measure-epoch count");
    // Measure boosts each core in turn: startConfigPhase and
    // closeEpoch keep boosted core + epochs left at the core count.
    a.check(state_ != State::Measure ||
                (boostedCore_ != kNoCore &&
                 std::uint64_t{measureEpochsLeft_} +
                         static_cast<unsigned>(boostedCore_) ==
                     numCores_),
            "online tuner measure-epoch count does not match its "
            "boosted core");
    a.seq(population_, [&](Genome &g) { a.vecU32(g); });
    a.vecF64(fitness_);
    a.check(fitness_.size() == population_.size(),
            "online tuner fitness count does not match its population");
    a.narrow(childIdx_, "online tuner child index");
    a.check(population_.empty() || childIdx_ < population_.size(),
            "online tuner child index is outside its population");
    a.narrow(generation_, "online tuner generation");
    a.vecU32(bestGenome_);
    a.f64(bestFitness_);
    a.seq(best_, [&](BinConfig &c) { binConfig(a, c); });
    a.u64(overheadApplied_);
    a.u64(configPhaseStart_);
    a.u64(configSwitches_);
    a.f64(lastAvgSlowdown_);
    a.f64(lastMaxSlowdown_);
}

} // namespace mitts
