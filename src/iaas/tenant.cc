#include "iaas/tenant.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mitts
{

Tenant::Tenant(std::string name, const PricingModel &pricing,
               std::vector<MittsShaper *> shapers)
    : name_(std::move(name)), pricing_(pricing),
      shapers_(std::move(shapers))
{
    MITTS_ASSERT(!shapers_.empty(), "tenant needs at least one core");
    for (auto *s : shapers_)
        MITTS_ASSERT(s, "tenant shaper must not be null");
    current_ = shapers_.front()->config();
}

void
Tenant::purchase(const BinConfig &cfg, Tick now)
{
    accrue(now);
    current_ = cfg;
    for (auto *shaper : shapers_)
        shaper->setConfig(cfg, now);
}

double
Tenant::currentRate() const
{
    // Per-period price: bandwidth charges plus the core rental,
    // normalized to one replenishment period. Delegates to
    // PricingModel::tenantPrice so the two stay one convention.
    return pricing_.tenantPrice(current_, numCores());
}

void
Tenant::accrue(Tick now)
{
    if (now <= accruedTo_)
        return;
    const double periods =
        static_cast<double>(now - accruedTo_) /
        static_cast<double>(current_.spec.replenishPeriod);
    charges_ += periods * currentRate();
    accruedTo_ = now;
}

double
Tenant::bill(Tick now)
{
    accrue(now);
    return charges_;
}

void
Tenant::checkpoint(ckpt::Archive &a)
{
    binConfig(a, current_);
    a.u64(accruedTo_);
    a.f64(charges_);
}

AutoScaler::AutoScaler(std::string name, Tenant &tenant,
                       Tick check_period)
    : Clocked(std::move(name)), tenant_(tenant),
      checkPeriod_(check_period),
      stats_(this->name()),
      reconfigs_(stats_.addCounter("reconfigurations")),
      ruleFirings_(stats_.addCounter("rule_firings"))
{
    MITTS_ASSERT(check_period > 0, "check period must be positive");
}

void
AutoScaler::schedule(ScheduledReconfig entry)
{
    schedule_.push_back(std::move(entry));
    // stable_sort: same-cycle entries apply in registration order on
    // every standard library.
    std::stable_sort(schedule_.begin(), schedule_.end(),
                     [](const ScheduledReconfig &a,
                        const ScheduledReconfig &b) {
                         return a.at < b.at;
                     });
}

void
AutoScaler::addRule(ReconfigRule rule)
{
    MITTS_ASSERT(rule.trigger && rule.action,
                 "rule needs trigger and action");
    rules_.push_back(std::move(rule));
}

Tick
AutoScaler::nextWakeTick(Tick now) const
{
    // Schedule entries land on their exact cycle; rule checks happen
    // at nextCheckAt_ (tick() advances it even with no rules
    // registered, so the check phase stays aligned across skips).
    Tick wake = nextCheckAt_;
    if (!schedule_.empty())
        wake = std::min(wake, schedule_.front().at);
    return std::max(wake, now + 1);
}

void
AutoScaler::checkpoint(ckpt::Archive &a)
{
    a.expect(checkPeriod_, "auto-scaler check period mismatch");
    a.u64(nextCheckAt_);
    a.seq(schedule_, [&](ScheduledReconfig &e) {
        a.u64(e.at);
        binConfig(a, e.config);
    });
    a.expect(rules_.size(),
             "auto-scaler rule count mismatch: re-register the same "
             "rules before loadState");
    for (auto &rule : rules_)
        a.u64(rule.lastFiredAt);
    a.group(stats_);
}

void
AutoScaler::tick(Tick now)
{
    // Apply due schedule entries (cheap check before the period
    // gate so entries land on their exact cycle).
    while (!schedule_.empty() && schedule_.front().at <= now) {
        tenant_.purchase(schedule_.front().config, now);
        reconfigs_.inc();
        schedule_.erase(schedule_.begin());
    }

    if (now < nextCheckAt_)
        return;
    nextCheckAt_ = now + checkPeriod_;

    for (auto &rule : rules_) {
        const bool cooled =
            rule.lastFiredAt == kTickNever ||
            (rule.cooldown > 0 &&
             now >= rule.lastFiredAt + rule.cooldown);
        if (!cooled)
            continue;
        if (rule.trigger(now)) {
            rule.action(now);
            rule.lastFiredAt = now;
            ruleFirings_.inc();
            reconfigs_.inc();
        }
    }
}

} // namespace mitts
