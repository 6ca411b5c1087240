#include "shaper/congestion.hh"

#include <algorithm>

namespace mitts
{

CongestionController::CongestionController(
    std::string name, const CongestionConfig &cfg,
    const MemController &mc, std::vector<MittsShaper *> shapers)
    : Clocked(std::move(name)), cfg_(cfg), mc_(mc),
      shapers_(std::move(shapers)), nextCheckAt_(cfg.checkPeriod),
      stats_(this->name()),
      scaleDowns_(stats_.addCounter("scale_downs")),
      scaleUps_(stats_.addCounter("scale_ups")),
      occupancy_(stats_.addAverage("queue_occupancy"))
{
}

void
CongestionController::tick(Tick now)
{
    if (now < nextCheckAt_)
        return;
    nextCheckAt_ += cfg_.checkPeriod;

    const double occ = static_cast<double>(mc_.queueSize()) /
                       static_cast<double>(
                           std::max(1u, mc_.queueCapacity()));
    occupancy_.sample(occ);

    if (occ > cfg_.highWatermark && scale_ > cfg_.minScale) {
        scale_ = std::max(cfg_.minScale,
                          scale_ * (1.0 - cfg_.scaleStep));
        scaleDowns_.inc();
        apply();
    } else if (occ < cfg_.lowWatermark && scale_ < 1.0) {
        scale_ = std::min(1.0, scale_ * (1.0 + cfg_.scaleStep));
        scaleUps_.inc();
        apply();
    }
}

void
CongestionController::apply()
{
    for (auto *shaper : shapers_) {
        if (shaper)
            shaper->setCongestionScale(scale_);
    }
}

} // namespace mitts
