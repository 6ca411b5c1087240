/**
 * @file
 * Global congestion feedback for MITTS shapers (paper Sec. III-C
 * future work): "more complex schemes are possible which communicate
 * short-term congestion to the MITTS units which then proportionally
 * scale-down resources until the congestion is resolved".
 *
 * A small controller watches the memory controller's queue occupancy
 * and broadcasts a scale factor to every shaper; shapers multiply
 * their replenish values by it, so an oversubscribed chip degrades
 * proportionally instead of through FIFO back-pressure alone.
 */

#ifndef MITTS_SHAPER_CONGESTION_HH
#define MITTS_SHAPER_CONGESTION_HH

#include <algorithm>
#include <vector>

#include "base/stats.hh"
#include "memctrl/mem_controller.hh"
#include "shaper/mitts_shaper.hh"
#include "sim/clocked.hh"

namespace mitts
{

struct CongestionConfig
{
    Tick checkPeriod = 1'000;  ///< occupancy sampling period
    double highWatermark = 0.75; ///< scale down above this occupancy
    double lowWatermark = 0.25;  ///< scale back up below this
    double scaleStep = 0.25;     ///< multiplicative step per period
    double minScale = 0.25;      ///< floor (never fully starve)
};

class CongestionController : public Clocked, public ckpt::Serializable
{
  public:
    CongestionController(std::string name, const CongestionConfig &cfg,
                         const MemController &mc,
                         std::vector<MittsShaper *> shapers);

    void tick(Tick now) override;

    /** Occupancy is only sampled at the periodic check. */
    Tick
    nextWakeTick(Tick now) const override
    {
        return std::max(nextCheckAt_, now + 1);
    }

    double scale() const { return scale_; }
    stats::Group &statsGroup() { return stats_; }

  protected:
    /** Checkpoint the broadcast scale and check schedule. Shapers
     *  save their own congestion scale, so no re-apply on restore. */
    void
    checkpoint(ckpt::Archive &a) override
    {
        a.f64(scale_);
        a.u64(nextCheckAt_);
        a.group(stats_);
    }

  private:
    void apply();

    // detlint-transient(construction-time config; never mutated after build)
    CongestionConfig cfg_;
    const MemController &mc_;
    std::vector<MittsShaper *> shapers_;
    double scale_ = 1.0;
    Tick nextCheckAt_;

    stats::Group stats_;
    stats::Counter &scaleDowns_;
    stats::Counter &scaleUps_;
    stats::Average &occupancy_;
};

} // namespace mitts

#endif // MITTS_SHAPER_CONGESTION_HH
