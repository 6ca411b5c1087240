/**
 * @file
 * Deterministic synthetic trace generator driven by an AppProfile.
 */

#ifndef MITTS_TRACE_SYNTH_TRACE_HH
#define MITTS_TRACE_SYNTH_TRACE_HH

#include <cstdint>
#include <vector>

#include "base/random.hh"
#include "trace/app_profile.hh"
#include "trace/trace_source.hh"

namespace mitts
{

class SyntheticTrace : public TraceSource
{
  public:
    /**
     * @param profile    behaviour parameters
     * @param base_addr  start of this application's address space
     * @param seed       stream seed (per core/thread)
     * @param thread_id  thread within a multithreaded application;
     *                   offsets the phase schedule so pipeline stages
     *                   (ferret) are out of step
     */
    SyntheticTrace(const AppProfile &profile, Addr base_addr,
                   std::uint64_t seed, unsigned thread_id = 0);

    TraceOp next() override;
    void reset() override;

  protected:
    void checkpoint(ckpt::Archive &a) override;

  private:
    const PhaseSpec &currentPhase() const;
    void advancePhase();
    Addr randomBlock(Addr region_bytes);

    // construction config; phase cursor is the mutable state
    AppProfile profile_;
    // detlint-transient(construction-time config; never mutated after build)
    Addr base_;
    // detlint-transient(construction seed; live RNG state is checkpointed instead)
    std::uint64_t seed_;
    // detlint-transient(construction-time config; never mutated after build)
    unsigned threadId_;
    Random rng_;

    // Markov burst state.
    bool inBurst_ = false;
    std::uint32_t burstOps_ = 0;
    std::uint32_t calmOps_ = 0;

    // Stream state.
    Addr streamBlock_ = 0;
    unsigned streamLeft_ = 0;
    unsigned streamOpInBlock_ = 0;

    // Warm-tier run state.
    Addr warmBlock_ = 0;
    unsigned warmLeft_ = 0;

    // Geometric-sampling cache.
    double cachedMemFrac_ = -1.0;
    double cachedInvLog_ = 0.0;

    // Phase state.
    std::size_t phaseIdx_ = 0;
    std::uint64_t opsInPhase_ = 0;

    static const PhaseSpec kDefaultPhase;
};

/** Fixed list of operations, looping; for unit tests. */
class ScriptedTrace : public TraceSource
{
  public:
    explicit ScriptedTrace(std::vector<TraceOp> ops)
        : ops_(std::move(ops))
    {
    }

    TraceOp
    next() override
    {
        const TraceOp op = ops_[idx_];
        idx_ = (idx_ + 1) % ops_.size();
        return op;
    }

    void reset() override { idx_ = 0; }

  protected:
    void
    checkpoint(ckpt::Archive &a) override
    {
        a.narrow(idx_, "scripted trace cursor");
        a.check(idx_ < ops_.size(), "scripted trace cursor out of range");
    }

  private:
    // trace content injected at construction; only the cursor is mutable
    std::vector<TraceOp> ops_;
    std::size_t idx_ = 0;
};

} // namespace mitts

#endif // MITTS_TRACE_SYNTH_TRACE_HH
