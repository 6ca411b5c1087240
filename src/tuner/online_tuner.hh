/**
 * @file
 * Online genetic-algorithm auto-tuner (paper Sec. IV-B, Fig. 10).
 *
 * Runs *inside* the simulation as a software runtime: a CONFIG_PHASE
 * of `generations` intervals, each evaluating every child
 * configuration for one EPOCH, followed by a RUN_PHASE using the
 * winner. Slowdowns are measured online MISE-style: one core per
 * epoch is boosted to highest priority at the memory controller and
 * its service rate recorded as the alone-rate estimate. Each runtime
 * invocation stalls the cores for a modelled software overhead.
 * Optionally re-enters CONFIG_PHASE at fixed phase boundaries
 * (phase-based online MITTS).
 */

#ifndef MITTS_TUNER_ONLINE_TUNER_HH
#define MITTS_TUNER_ONLINE_TUNER_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "ckpt/serialize.hh"
#include "sim/clocked.hh"
#include "system/system.hh"
#include "telemetry/probe.hh"
#include "tuner/ga.hh"
#include "tuner/objective.hh"

namespace mitts
{

namespace telemetry
{
class Telemetry;
class TraceEventWriter;
} // namespace telemetry

struct OnlineTunerOptions
{
    Tick epochLength = 20'000;   ///< paper EPOCH size
    unsigned population = 30;    ///< children per generation
    unsigned generations = 20;
    Tick softwareOverhead = 5'000; ///< core stall per runtime call
    Objective objective = Objective::Throughput;
    double alpha = 0.5;          ///< slowdown blend weight
    std::uint64_t seed = 0xBEEF;
    /** Re-run CONFIG_PHASE every `phaseLength` cycles (0 = once). */
    Tick phaseLength = 0;
    /** Optional constraint projection on candidate genomes. */
    GeneticAlgorithm::Projection projection;
};

class OnlineTuner : public Clocked, public ckpt::Serializable
{
  public:
    /**
     * @param sys   system whose shapers are tuned (gate must be
     *              Mitts and the scheduler FR-FCFS-based so the
     *              measurement boost is available)
     */
    OnlineTuner(System &sys, const OnlineTunerOptions &opts);

    void tick(Tick now) override;

    /**
     * RUN_PHASE sleeps until the next phase boundary (forever when
     * phase-based re-tuning is off); CONFIG_PHASE acts only at epoch
     * ends. Both deadlines move exclusively inside tick().
     */
    Tick
    nextWakeTick(Tick now) const override
    {
        if (state_ == State::Run)
            return std::max(nextPhaseAt_, now + 1);
        return std::max(epochEndsAt_, now + 1);
    }

    /** Winner of the most recent CONFIG_PHASE (empty before that). */
    const std::vector<BinConfig> &bestConfigs() const { return best_; }

    bool inRunPhase() const { return state_ == State::Run; }
    unsigned configPhasesRun() const { return configPhases_; }

    /** Total modelled software overhead applied so far. */
    Tick overheadApplied() const { return overheadApplied_; }

    /**
     * Register time-series probes (config switches, generation,
     * champion fitness, last-epoch slowdowns) and trace events
     * (CONFIG_PHASE/RUN_PHASE durations, per-switch instants). Called
     * automatically from the constructor when the system has a
     * telemetry hub.
     */
    void registerTelemetry(telemetry::Telemetry &t);

  protected:
    /** Checkpoint the whole runtime: GA population, measurement
     *  bookkeeping, phase state and the RNG stream. */
    void checkpoint(ckpt::Archive &a) override;

  private:
    enum class State
    {
        Measure, ///< initial alone-rate measurement epochs
        Eval,    ///< evaluating one child per epoch
        Run,     ///< RUN_PHASE with the winner
    };

    void startConfigPhase(Tick now);
    void beginEpoch(Tick now);
    void closeEpoch(Tick now);
    void applyConfigs(const Genome &g, Tick now);
    double measureFitness() const;
    void stepGeneration(Tick now);

    System &sys_;
    // detlint-transient(construction-time config; never mutated after build)
    OnlineTunerOptions opts_;
    Random rng_;
    unsigned numCores_;
    // detlint-transient(bin-spec template fixed at construction)
    BinSpec spec_;

    State state_ = State::Measure;
    Tick epochEndsAt_ = 0;
    Tick nextPhaseAt_ = 0;
    unsigned configPhases_ = 0;

    // Measurement bookkeeping.
    CoreId boostedCore_ = kNoCore;
    std::vector<double> aloneRate_;
    std::vector<std::uint64_t> epochStartCompleted_;
    std::vector<std::uint64_t> epochStartStall_;
    std::vector<std::uint64_t> epochStartInstr_;
    Tick epochStartTick_ = 0;
    unsigned measureEpochsLeft_ = 0;

    // GA state (generational, evaluated one child per epoch).
    std::vector<Genome> population_;
    std::vector<double> fitness_;
    std::size_t childIdx_ = 0;
    unsigned generation_ = 0;
    Genome bestGenome_;
    double bestFitness_ = 0.0;
    std::vector<BinConfig> best_;

    Tick overheadApplied_ = 0;

    // Telemetry (null/empty unless a hub was attached).
    // detlint-transient(probe wiring re-registered on rebuild, not state)
    telemetry::ProbeOwner probes_;
    telemetry::TraceEventWriter *trace_ = nullptr;
    // detlint-transient(trace-track id re-registered on rebuild)
    int traceTrack_ = 0;
    Tick configPhaseStart_ = kTickNever; ///< open CONFIG_PHASE
    std::uint64_t configSwitches_ = 0;
    mutable double lastAvgSlowdown_ = 1.0; ///< last measured epoch
    mutable double lastMaxSlowdown_ = 1.0;
};

} // namespace mitts

#endif // MITTS_TUNER_ONLINE_TUNER_HH
