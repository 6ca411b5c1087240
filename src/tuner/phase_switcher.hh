/**
 * @file
 * Phase-based configuration switching (paper Sec. IV-D: "we also
 * evaluate phase-based online/offline MITTS by dividing an
 * application into five phases and optimizing MITTS configuration
 * for each phase").
 *
 * The offline variant: a per-phase schedule of bin configurations,
 * applied to a core's shaper as the core crosses instruction-count
 * phase boundaries. The schedules come from a per-phase offline GA
 * (or any other source); this component is the runtime that swaps
 * them in, the OS-visible half of the paper's "MITTS bin
 * configurations are exposed in a set of configuration registers".
 */

#ifndef MITTS_TUNER_PHASE_SWITCHER_HH
#define MITTS_TUNER_PHASE_SWITCHER_HH

#include <algorithm>
#include <vector>

#include "ckpt/serialize.hh"
#include "sim/clocked.hh"
#include "system/system.hh"

namespace mitts
{

/** Per-core phase schedule: config[i] applies during phase i. */
struct PhaseSchedule
{
    CoreId core = 0;
    /** Retired instructions per phase (the phase length). */
    std::uint64_t phaseInstructions = 0;
    /** One configuration per phase; cycles back after the last. */
    std::vector<BinConfig> configs;
};

class PhaseSwitcher : public Clocked, public ckpt::Serializable
{
  public:
    PhaseSwitcher(std::string name, System &sys,
                  std::vector<PhaseSchedule> schedules,
                  Tick check_period = 500);

    void tick(Tick now) override;

    /** Instruction counts are only polled at the periodic check. */
    Tick
    nextWakeTick(Tick now) const override
    {
        return std::max(nextCheckAt_, now + 1);
    }

    /** Phase the core is currently in. */
    unsigned currentPhase(CoreId core) const;

    std::uint64_t switches() const { return switches_; }

  protected:
    void
    checkpoint(ckpt::Archive &a) override
    {
        a.expect(applied_.size(), "phase switcher schedule mismatch");
        for (std::size_t i = 0; i < applied_.size(); ++i) {
            unsigned &p = applied_[i];
            a.narrow(p, "phase switcher phase");
            a.check(p == ~0u || p < schedules_[i].configs.size(),
                    "phase switcher phase is not a phase of its schedule");
        }
        a.u64(nextCheckAt_);
        a.u64(switches_);
    }

  private:
    System &sys_;
    // Configured schedule (restore bounds applied_ by it); applied_ is
    // the mutable cursor.
    std::vector<PhaseSchedule> schedules_;
    std::vector<unsigned> applied_; ///< phase index currently applied
    // detlint-transient(construction-time config; never mutated after build)
    Tick checkPeriod_;
    Tick nextCheckAt_ = 0;
    std::uint64_t switches_ = 0;
};

} // namespace mitts

#endif // MITTS_TUNER_PHASE_SWITCHER_HH
