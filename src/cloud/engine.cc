#include "cloud/engine.hh"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "base/logging.hh"

namespace mitts::cloud
{

namespace
{

/** Validate before any member that derives from the scenario. */
ScenarioConfig
checkedScenario(ScenarioConfig sc)
{
    validateScenario(sc);
    return sc;
}

std::string
fmtF(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

} // namespace

CloudEngine::CloudEngine(const ScenarioConfig &sc,
                         std::string out_dir,
                         SimulationConfig sim_cfg)
    : sc_(checkedScenario(sc)), outDir_(std::move(out_dir)),
      simCfg_(sim_cfg),
      pricing_(), market_(BinSpec{}, pricing_),
      population_(sc_, market_.numTiers()), parked_(BinSpec{})
{
    for (unsigned si = 0; si < sc_.sockets; ++si)
        buildSocket(si);
    admission_ = std::make_unique<AdmissionControl>(socketConfig(0),
                                                    market_);
}

CloudEngine::~CloudEngine() = default;

SystemConfig
CloudEngine::socketConfig(unsigned si) const
{
    SystemConfig cfg;
    for (unsigned c = 0; c < sc_.coresPerSocket; ++c) {
        const std::string slot = "slot" + std::to_string(c);
        cfg.apps.push_back(slot);
        AppProfile p;
        p.name = slot;
        p.numThreads = 1;
        cfg.customProfiles.push_back(p);
        cfg.mittsConfigs.push_back(parked_);
    }
    cfg.gate = GateKind::Mitts;
    cfg.mc.latencyHistograms = true;
    cfg.sim = simCfg_;
    // Decorrelate sockets; the per-core trace seeds then fan out from
    // this via each System's master RNG.
    cfg.seed = sc_.seed + 0x9E3779B97F4A7C15ULL * (si + 1);
    cfg.telemetry.enabled = sc_.telemetry;
    cfg.telemetry.sampleInterval = sc_.sampleInterval;
    if (sc_.telemetry && !outDir_.empty())
        cfg.telemetry.outDir =
            outDir_ + "/socket" + std::to_string(si);
    return cfg;
}

void
CloudEngine::buildSocket(unsigned si)
{
    auto S = std::make_unique<Socket>();
    Socket *sp = S.get();

    SystemConfig cfg = socketConfig(si);
    cfg.traceFactory = [sp](CoreId, unsigned, const AppProfile &,
                            Addr base, std::uint64_t seed,
                            unsigned) -> std::unique_ptr<TraceSource> {
        auto t = std::make_unique<CloudTrace>(base, seed);
        sp->traces.push_back(t.get());
        return t;
    };
    S->sys = std::make_unique<System>(cfg);
    MITTS_ASSERT(S->traces.size() == sc_.coresPerSocket,
                 "trace factory not called once per core");

    // Every slot starts empty: cores halted, shapers parked.
    for (unsigned c = 0; c < sc_.coresPerSocket; ++c)
        S->sys->core(static_cast<CoreId>(c)).setHalted(true);

    S->monitor = std::make_unique<SlaMonitor>(
        *S->sys, sc_.windowCycles, sc_.demandStallFraction);
    S->sys->sim().add(S->monitor.get());
    S->sys->sim().addStats(&S->monitor->statsGroup());
    if (S->sys->telemetry())
        S->monitor->registerTelemetry(*S->sys->telemetry());

    const std::string sock = "socket" + std::to_string(si);
    for (unsigned c = 0; c < sc_.coresPerSocket; ++c) {
        auto tenant = std::make_unique<Tenant>(
            sock + ".slot" + std::to_string(c), pricing_,
            std::vector<MittsShaper *>{
                S->sys->shaper(static_cast<CoreId>(c))});
        auto scaler = std::make_unique<AutoScaler>(
            sock + ".scaler" + std::to_string(c), *tenant,
            sc_.windowCycles);
        if (sc_.autoscaler) {
            ReconfigRule rule;
            rule.cooldown = 2 * sc_.windowCycles;
            rule.trigger = [this, si, c](Tick t) {
                Socket &s = *sockets_[si];
                Slot &sl = s.slots[c];
                const MittsShaper *sh =
                    s.sys->shaper(static_cast<CoreId>(c));
                const std::uint64_t issued = sh->issued();
                const std::uint64_t stalls = sh->stallCycles();
                const std::uint64_t d_issued =
                    issued - sl.lastIssued;
                const std::uint64_t d_stall =
                    stalls - sl.lastStalls;
                const Tick elapsed = t - sl.lastRuleCheckAt;
                sl.lastIssued = issued;
                sl.lastStalls = stalls;
                sl.lastRuleCheckAt = t;
                if (sl.record < 0 || elapsed == 0)
                    return false;
                const double frac =
                    static_cast<double>(d_stall) /
                    static_cast<double>(elapsed);
                if (frac >= sc_.upgradeStallFraction &&
                    market_.upgradeOf(sl.tierIdx) >= 0) {
                    sl.pendingScale = 1;
                    return true;
                }
                if (frac <= sc_.downgradeStallFraction &&
                    d_issued > 0 &&
                    market_.downgradeOf(sl.tierIdx) >= 0) {
                    sl.pendingScale = -1;
                    return true;
                }
                return false;
            };
            rule.action = [this, si, c](Tick t) {
                Slot &sl = sockets_[si]->slots[c];
                const int dir = sl.pendingScale;
                sl.pendingScale = 0;
                if (dir != 0)
                    applyScale(si, c, dir, t);
            };
            scaler->addRule(std::move(rule));
        }
        S->sys->sim().add(scaler.get());
        S->sys->sim().addStats(&scaler->statsGroup());
        S->tenants.push_back(std::move(tenant));
        S->scalers.push_back(std::move(scaler));
    }
    S->slots.resize(sc_.coresPerSocket);

    // Checkpoint extras, fixed order (monitor, then per-core scaler
    // and tenant) — mirrored exactly before a restore because this
    // runs at construction.
    S->sys->addCheckpointExtra("cloud.monitor", S->monitor.get());
    for (unsigned c = 0; c < sc_.coresPerSocket; ++c) {
        S->sys->addCheckpointExtra(
            "cloud.scaler" + std::to_string(c),
            S->scalers[c].get());
        S->sys->addCheckpointExtra(
            "cloud.tenant" + std::to_string(c),
            S->tenants[c].get());
    }

    sockets_.push_back(std::move(S));
}

void
CloudEngine::runUntil(Tick target)
{
    if (target > sc_.durationCycles)
        target = sc_.durationCycles;
    MITTS_ASSERT(target % sc_.windowCycles == 0,
                 "runUntil target must be a window multiple");
    while (now_ < target) {
        boundaryActions(now_);
        for (auto &S : sockets_)
            S->sys->run(sc_.windowCycles);
        now_ += sc_.windowCycles;
    }
}

void
CloudEngine::boundaryActions(Tick t)
{
    // 1. Departures (socket-major, core-minor).
    for (unsigned si = 0; si < sockets_.size(); ++si) {
        for (unsigned c = 0; c < sc_.coresPerSocket; ++c) {
            const Slot &sl = sockets_[si]->slots[c];
            if (sl.record >= 0 && sl.departAt <= t)
                depart(si, c, t);
        }
    }

    // 2. Arrivals, in population order.
    const auto &arrivals = population_.arrivals();
    while (nextArrival_ < arrivals.size() &&
           arrivals[nextArrival_].arriveAt <= t) {
        tryAdmit(arrivals[nextArrival_], t);
        ++nextArrival_;
    }

    // 3. Diurnal re-modulation: low datacenter load = long gaps.
    const double stretch =
        1.0 / TenantPopulation::diurnalFactor(sc_, t);
    for (auto &S : sockets_) {
        for (CloudTrace *tr : S->traces) {
            if (tr->occupied())
                tr->setStretch(stretch);
        }
    }
}

void
CloudEngine::tryAdmit(const TenantSpec &spec, Tick t)
{
    records_.push_back(TenantRecord{});
    TenantRecord &rec = records_.back();
    rec.spec = spec;
    rec.finalTier = spec.tierIdx;

    const SlotLoad cand{sc_.profiles[spec.profileIdx],
                        spec.tierIdx};
    bool any_free = false;
    bool decided = false;
    for (unsigned si = 0; si < sockets_.size(); ++si) {
        Socket &S = *sockets_[si];
        int free_slot = -1;
        std::vector<SlotLoad> residents;
        for (unsigned c = 0; c < sc_.coresPerSocket; ++c) {
            const Slot &sl = S.slots[c];
            if (sl.record < 0) {
                if (free_slot < 0)
                    free_slot = static_cast<int>(c);
            } else {
                const TenantSpec &rs = records_[sl.record].spec;
                residents.push_back(
                    {sc_.profiles[rs.profileIdx], sl.tierIdx});
            }
        }
        if (free_slot < 0)
            continue;
        any_free = true;
        const AdmissionDecision d =
            admission_->decide(residents, cand);
        if (d.admit || !decided) {
            rec.reason = d.reason;
            rec.aggDelayBoundCycles = d.aggDelayBoundCycles;
            rec.analyticMeanLatency = d.analyticMeanLatency;
            decided = true;
        }
        if (d.admit) {
            admit(si, static_cast<unsigned>(free_slot),
                  static_cast<unsigned>(records_.size() - 1), t);
            return;
        }
    }
    if (!any_free)
        rec.reason = "capacity: no free slot";
}

void
CloudEngine::admit(unsigned si, unsigned c, unsigned rec_idx,
                   Tick t)
{
    Socket &S = *sockets_[si];
    Slot &sl = S.slots[c];
    TenantRecord &rec = records_[rec_idx];
    const Tier &tier = market_.tier(rec.spec.tierIdx);
    const auto core_id = static_cast<CoreId>(c);

    S.traces[c]->occupy(sc_.profiles[rec.spec.profileIdx],
                        rec.spec.id);
    S.sys->core(core_id).flushTraceCursor();
    S.sys->core(core_id).setHalted(false);

    // Billing: everything accrued before this instant (including
    // parked-core rental) belongs to the provider, not the tenant.
    sl.billBase = S.tenants[c]->bill(t);
    S.tenants[c]->purchase(tier.config, t);
    S.monitor->occupy(core_id, rec.spec.id, tier.slaP99Cycles,
                      tier.slaMinGBps);

    sl.record = static_cast<int>(rec_idx);
    sl.departAt = t + rec.spec.residencyCycles;
    sl.tierIdx = rec.spec.tierIdx;
    sl.winBase = S.monitor->windowsObserved(core_id);
    sl.latBase = S.monitor->latencyViolations(core_id);
    sl.bwBase = S.monitor->bandwidthViolations(core_id);
    sl.lastIssued = S.sys->shaper(core_id)->issued();
    sl.lastStalls = S.sys->shaper(core_id)->stallCycles();
    sl.lastRuleCheckAt = t;
    sl.pendingScale = 0;

    rec.admitted = true;
    rec.socket = static_cast<int>(si);
    rec.slot = c;
    rec.admittedAt = t;
}

void
CloudEngine::depart(unsigned si, unsigned c, Tick t)
{
    Socket &S = *sockets_[si];
    Slot &sl = S.slots[c];
    TenantRecord &rec = records_[sl.record];
    const auto core_id = static_cast<CoreId>(c);

    rec.departed = true;
    rec.departedAt = t;
    rec.finalTier = sl.tierIdx;
    rec.windows = S.monitor->windowsObserved(core_id) - sl.winBase;
    rec.latencyViolations =
        S.monitor->latencyViolations(core_id) - sl.latBase;
    rec.bandwidthViolations =
        S.monitor->bandwidthViolations(core_id) - sl.bwBase;

    // Park the shaper; the purchase settles the stay's accruals.
    S.tenants[c]->purchase(parked_, t);
    rec.bill = S.tenants[c]->accruedCharges() - sl.billBase;

    S.monitor->vacate(core_id);
    S.traces[c]->vacate();
    S.sys->core(core_id).flushTraceCursor();
    S.sys->core(core_id).setHalted(true);

    sl = Slot{};
}

void
CloudEngine::applyScale(unsigned si, unsigned c, int dir, Tick t)
{
    Socket &S = *sockets_[si];
    Slot &sl = S.slots[c];
    if (sl.record < 0)
        return;
    const int nt = dir > 0 ? market_.upgradeOf(sl.tierIdx)
                           : market_.downgradeOf(sl.tierIdx);
    if (nt < 0)
        return;
    const Tier &tier = market_.tier(static_cast<unsigned>(nt));
    S.tenants[c]->purchase(tier.config, t);
    S.monitor->updateSla(static_cast<CoreId>(c),
                         tier.slaP99Cycles, tier.slaMinGBps);
    sl.tierIdx = static_cast<unsigned>(nt);
    TenantRecord &rec = records_[sl.record];
    if (dir > 0)
        ++rec.upgrades;
    else
        ++rec.downgrades;
}

void
CloudEngine::settleResidents()
{
    for (unsigned si = 0; si < sockets_.size(); ++si) {
        Socket &S = *sockets_[si];
        for (unsigned c = 0; c < sc_.coresPerSocket; ++c) {
            Slot &sl = S.slots[c];
            if (sl.record < 0)
                continue;
            const auto core_id = static_cast<CoreId>(c);
            TenantRecord &rec = records_[sl.record];
            S.tenants[c]->accrue(now_);
            rec.bill =
                S.tenants[c]->accruedCharges() - sl.billBase;
            rec.finalTier = sl.tierIdx;
            rec.windows =
                S.monitor->windowsObserved(core_id) - sl.winBase;
            rec.latencyViolations =
                S.monitor->latencyViolations(core_id) - sl.latBase;
            rec.bandwidthViolations =
                S.monitor->bandwidthViolations(core_id) -
                sl.bwBase;
        }
    }
}

void
CloudEngine::writeBillingCsv(std::ostream &os)
{
    settleResidents();
    os << "id,name,profile,tier_requested,tier_final,status,reason,"
          "socket,slot,arrive_at,admitted_at,departed_at,windows,"
          "latency_violations,bandwidth_violations,upgrades,"
          "downgrades,agg_delay_bound,analytic_latency,bill\n";
    for (const TenantRecord &r : records_) {
        const char *status = !r.admitted  ? "rejected"
                             : r.departed ? "departed"
                                          : "resident";
        os << r.spec.id << ',' << r.spec.name << ','
           << sc_.profiles[r.spec.profileIdx] << ','
           << market_.tier(r.spec.tierIdx).name << ','
           << market_.tier(r.finalTier).name << ',' << status << ','
           << '"' << r.reason << '"' << ',' << r.socket << ','
           << (r.admitted ? static_cast<int>(r.slot) : -1) << ','
           << r.spec.arriveAt << ',' << r.admittedAt << ','
           << r.departedAt << ',' << r.windows << ','
           << r.latencyViolations << ',' << r.bandwidthViolations
           << ',' << r.upgrades << ',' << r.downgrades << ','
           << fmtF(r.aggDelayBoundCycles) << ','
           << fmtF(r.analyticMeanLatency) << ',' << fmtF(r.bill)
           << '\n';
    }
}

void
CloudEngine::writeSummary(std::ostream &os)
{
    settleResidents();
    std::uint64_t admitted = 0, departed = 0, rejected = 0;
    std::uint64_t windows = 0, lat_v = 0, bw_v = 0;
    std::uint64_t upgrades = 0, downgrades = 0;
    double billed = 0.0;
    std::vector<std::pair<std::string, unsigned>> reject_reasons;
    std::vector<unsigned> by_tier(market_.numTiers(), 0);
    for (const TenantRecord &r : records_) {
        if (!r.admitted) {
            ++rejected;
            bool found = false;
            for (auto &rr : reject_reasons) {
                if (rr.first == r.reason) {
                    ++rr.second;
                    found = true;
                    break;
                }
            }
            if (!found)
                reject_reasons.emplace_back(r.reason, 1);
            continue;
        }
        ++admitted;
        if (r.departed)
            ++departed;
        windows += r.windows;
        lat_v += r.latencyViolations;
        bw_v += r.bandwidthViolations;
        upgrades += r.upgrades;
        downgrades += r.downgrades;
        billed += r.bill;
        ++by_tier[r.finalTier];
    }
    os << "scenario " << sc_.name << " @ " << now_ << " cycles\n";
    os << "tenants: " << records_.size() << " arrived, " << admitted
       << " admitted, " << rejected << " rejected, " << departed
       << " departed, " << (admitted - departed) << " resident\n";
    for (const auto &rr : reject_reasons)
        os << "  rejected [" << rr.first << "]: " << rr.second
           << "\n";
    os << "tiers (final): ";
    for (unsigned i = 0; i < market_.numTiers(); ++i)
        os << market_.tier(i).name << "=" << by_tier[i]
           << (i + 1 < market_.numTiers() ? " " : "\n");
    os << "autoscaling: " << upgrades << " upgrades, " << downgrades
       << " downgrades\n";
    os << "sla: " << windows << " tenant-windows, " << lat_v
       << " latency violations, " << bw_v
       << " bandwidth violations";
    if (windows > 0)
        os << " (" << fmtF(static_cast<double>(lat_v + bw_v) /
                           static_cast<double>(windows))
           << " per window)";
    os << "\n";
    os << "billed: " << fmtF(billed) << "\n";
}

void
CloudEngine::dumpStats(std::ostream &os) const
{
    for (unsigned si = 0; si < sockets_.size(); ++si) {
        os << "=== socket " << si << " ===\n";
        sockets_[si]->sys->dumpStats(os);
    }
}

void
CloudEngine::writeReports(const std::string &dir, bool stats,
                          std::ostream &out)
{
    if (dir.empty()) {
        writeSummary(out);
        out << "\n";
        writeBillingCsv(out);
        if (stats) {
            out << "\n---- statistics ----\n";
            dumpStats(out);
        }
        return;
    }
    std::filesystem::create_directories(dir);
    std::ofstream bill(dir + "/billing.csv");
    writeBillingCsv(bill);
    std::ostringstream summary;
    writeSummary(summary);
    std::ofstream(dir + "/summary.txt") << summary.str();
    out << summary.str() << "billing:  " << dir << "/billing.csv\n";
    if (stats) {
        std::ofstream sf(dir + "/stats.txt");
        dumpStats(sf);
        out << "stats:    " << dir << "/stats.txt\n";
    }
}

void
CloudEngine::finalizeTelemetry()
{
    for (auto &S : sockets_)
        S->sys->finalizeTelemetry();
}

void
CloudEngine::saveCheckpoint(const std::string &dir)
{
    std::filesystem::create_directories(dir);
    for (unsigned si = 0; si < sockets_.size(); ++si)
        sockets_[si]->sys->saveCheckpoint(
            dir + "/socket" + std::to_string(si) + ".mitts");
    ckpt::Writer w;
    ckpt::Archive a(w);
    walkSections(a);
    w.writeFile(dir + "/cloud.mitts", scenarioHash(sc_));
}

void
CloudEngine::restoreCheckpoint(const std::string &dir)
{
    MITTS_ASSERT(now_ == 0 && records_.empty(),
                 "restore into a fresh engine");
    for (unsigned si = 0; si < sockets_.size(); ++si)
        sockets_[si]->sys->restoreCheckpoint(
            dir + "/socket" + std::to_string(si) + ".mitts");
    ckpt::Reader r = ckpt::Reader::fromFile(dir + "/cloud.mitts",
                                            scenarioHash(sc_));
    ckpt::Archive a(r);
    walkSections(a);
}

void
CloudEngine::walkSections(ckpt::Archive &a)
{
    a.beginSection("cloud");
    a.u64(now_);
    a.u64(nextArrival_);
    a.endSection();
    // Every socket runs every window, so images from one save share
    // the datacenter's cycle; a mismatch means a mixed directory.
    for (unsigned si = 0; si < sockets_.size(); ++si) {
        const Tick at = sockets_[si]->sys->sim().now();
        if (at != now_ && !a.saving())
            throw ckpt::Error("socket " + std::to_string(si) +
                              " image is at cycle " +
                              std::to_string(at) +
                              ", the datacenter at " +
                              std::to_string(now_));
    }

    a.beginSection("slots");
    for (auto &S : sockets_) {
        for (Slot &sl : S->slots) {
            a.narrow(sl.record, "cloud slot record");
            a.u64(sl.departAt);
            a.narrow(sl.tierIdx, "cloud slot tier");
            a.f64(sl.billBase);
            a.u64(sl.winBase);
            a.u64(sl.latBase);
            a.u64(sl.bwBase);
            a.u64(sl.lastIssued);
            a.u64(sl.lastStalls);
            a.u64(sl.lastRuleCheckAt);
            a.narrow(sl.pendingScale, "cloud slot scale direction");
        }
    }
    a.endSection();

    a.beginSection("records");
    std::uint64_t n = records_.size();
    a.u64(n);
    a.check(n == nextArrival_ && n <= population_.arrivals().size(),
            "cloud checkpoint record count inconsistent with the "
            "population");
    if (!a.saving()) {
        records_.assign(n, TenantRecord{});
        for (std::uint64_t i = 0; i < n; ++i)
            records_[i].spec = population_.arrivals()[i];
    }
    for (TenantRecord &rec : records_) {
        a.b(rec.admitted);
        a.b(rec.departed);
        a.str(rec.reason);
        a.narrow(rec.socket, "cloud record socket");
        a.narrow(rec.slot, "cloud record slot");
        a.u64(rec.admittedAt);
        a.u64(rec.departedAt);
        a.narrow(rec.finalTier, "cloud record tier");
        a.narrow(rec.upgrades, "cloud record upgrade count");
        a.narrow(rec.downgrades, "cloud record downgrade count");
        a.f64(rec.bill);
        a.u64(rec.windows);
        a.u64(rec.latencyViolations);
        a.u64(rec.bandwidthViolations);
        a.f64(rec.aggDelayBoundCycles);
        a.f64(rec.analyticMeanLatency);
    }
    a.endSection();
    if (!a.saving())
        validateIndices();
}

void
CloudEngine::validateIndices() const
{
    const long long tiers = market_.numTiers();
    const long long records = static_cast<long long>(records_.size());
    const long long sockets = static_cast<long long>(sockets_.size());
    auto fail = [](const std::string &what, long long v, long long n,
                   const char *unit) {
        throw ckpt::Error("cloud checkpoint: " + what + " " +
                          std::to_string(v) + " is out of range (" +
                          std::to_string(n) + " " + unit + ")");
    };
    for (unsigned si = 0; si < sockets_.size(); ++si) {
        for (unsigned c = 0; c < sockets_[si]->slots.size(); ++c) {
            const Slot &sl = sockets_[si]->slots[c];
            auto name = [&](const char *field) {
                return "slot " + std::to_string(si) + "." +
                       std::to_string(c) + " " + field;
            };
            if (sl.record < -1 || sl.record >= records)
                fail(name("record"), sl.record, records, "records");
            if (sl.tierIdx >= tiers)
                fail(name("tier"), sl.tierIdx, tiers, "tiers");
        }
    }
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const TenantRecord &rec = records_[i];
        auto name = [&](const char *field) {
            return "record " + std::to_string(i) + " " + field;
        };
        if (rec.finalTier >= tiers)
            fail(name("tier"), rec.finalTier, tiers, "tiers");
        if (rec.socket < -1 || rec.socket >= sockets)
            fail(name("socket"), rec.socket, sockets, "sockets");
        if (rec.slot >= sc_.coresPerSocket)
            fail(name("slot"), rec.slot, sc_.coresPerSocket,
                 "slots per socket");
    }
}

} // namespace mitts::cloud
