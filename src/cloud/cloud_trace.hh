/**
 * @file
 * Per-slot trace source for the cloud engine. A slot's trace is a
 * revolving door: each admitted tenant gets a fresh SyntheticTrace
 * built from its registry profile and a seed derived from the slot
 * seed and the tenant's global id, so a tenant's memory behaviour
 * does not depend on who rented the slot before it.
 *
 * The datacenter diurnal curve modulates intensity by stretching
 * instruction gaps deterministically (a carry accumulator keeps the
 * long-run stretch exact without touching the inner RNG), so load
 * shaping is reproducible bit-for-bit across kernels and thread
 * counts.
 */

#ifndef MITTS_CLOUD_CLOUD_TRACE_HH
#define MITTS_CLOUD_CLOUD_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "base/types.hh"
#include "trace/synth_trace.hh"
#include "trace/trace_source.hh"

namespace mitts::cloud
{

class CloudTrace : public TraceSource
{
  public:
    /** `base` / `seed_base` come from the socket System's per-core
     *  expansion (the traceFactory arguments). */
    CloudTrace(Addr base, std::uint64_t seed_base);

    /** Install tenant `generation`'s workload. The profile is looked
     *  up in the registry (names only, so a checkpoint can rebuild
     *  it) and forced single-threaded. */
    void occupy(const std::string &profile_name,
                std::uint64_t generation);

    /** Tear down the resident workload (slot becomes free). */
    void vacate();

    bool occupied() const { return occupied_; }
    const std::string &profileName() const { return profileName_; }

    /** Gap stretch factor >= 1 (1 / diurnal load factor). */
    void setStretch(double stretch);
    double stretch() const { return stretch_; }

    // TraceSource
    TraceOp next() override;
    void reset() override;

  protected:
    void checkpoint(ckpt::Archive &a) override;

  private:
    void rebuild();

    // construction config; read by rebuild() on restore
    Addr base_;
    // construction config; read by rebuild() on restore
    std::uint64_t seedBase_;

    bool occupied_ = false;
    std::string profileName_;
    std::uint64_t generation_ = 0;
    double stretch_ = 1.0;
    double gapCarry_ = 0.0;
    std::unique_ptr<SyntheticTrace> inner_;
};

} // namespace mitts::cloud

#endif // MITTS_CLOUD_CLOUD_TRACE_HH
