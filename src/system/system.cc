#include "system/system.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/random.hh"
#include "ckpt/config_hash.hh"
#include "sched/fair_queue.hh"
#include "sched/frfcfs.hh"
#include "telemetry/telemetry.hh"
#include "trace/app_profile.hh"

namespace mitts
{

System::System(const SystemConfig &cfg) : cfg_(cfg), sim_(cfg_.sim)
{
    MITTS_ASSERT(!cfg_.apps.empty(), "system needs at least one app");
    sim_.events().setHandler(this);

    MITTS_ASSERT(cfg_.customProfiles.empty() ||
                     cfg_.customProfiles.size() == cfg_.apps.size(),
                 "customProfiles must parallel apps");

    // Expand applications into cores (one core per thread).
    coresOfApp_.resize(cfg_.apps.size());
    appCompletedAt_.assign(cfg_.apps.size(), kTickNever);
    for (unsigned a = 0; a < cfg_.apps.size(); ++a) {
        const AppProfile &prof = cfg_.customProfiles.empty()
                                     ? appProfile(cfg_.apps[a])
                                     : cfg_.customProfiles[a];
        for (unsigned t = 0; t < prof.numThreads; ++t) {
            appOfCore_.push_back(a);
            coresOfApp_[a].push_back(static_cast<CoreId>(numCores_));
            ++numCores_;
        }
    }

    if (cfg_.telemetry.enabled)
        telemetry_ = std::make_unique<telemetry::Telemetry>(
            cfg_.telemetry, cfg_.cpuGhz);

    // Memory controller (DRAM lives inside it).
    McConfig mc_cfg = cfg_.mc;
    if (cfg_.gate == GateKind::Mitts && cfg_.useSmoothingFifo)
        mc_cfg.smoothingFifoDepth = 32;
    mc_ = std::make_unique<MemController>("mc", mc_cfg, cfg_.dram,
                                          sim_.events());
    mc_->initPerCore(numCores_);
    mc_->setVerifyIssueGate(sim_.verifySkip());

    // Shared LLC.
    llc_ = std::make_unique<SharedLlc>("llc", cfg_.llc, numCores_,
                                       pool_, sim_.events());
    llc_->setDownstream(mc_.get());
    mc_->setLlc(llc_.get());
    if (cfg_.noc.enabled) {
        noc_ = std::make_unique<MeshNoc>(cfg_.noc);
        llc_->setNoc(noc_.get());
    }

    buildScheduler();

    // Per-core structures.
    Random master(cfg_.seed);
    shapers_.assign(numCores_, nullptr);
    staticGates_.assign(numCores_, nullptr);
    MittsShaper *app_shared_shaper = nullptr;
    unsigned prev_app = ~0u;

    for (unsigned c = 0; c < numCores_; ++c) {
        const unsigned app = appOfCore_[c];
        const AppProfile &prof = cfg_.customProfiles.empty()
                                     ? appProfile(cfg_.apps[app])
                                     : cfg_.customProfiles[app];
        const unsigned thread =
            c - static_cast<unsigned>(coresOfApp_[app].front());
        const Addr base = static_cast<Addr>(app + 1) << 30;

        const std::uint64_t trace_seed = master.next();
        if (cfg_.traceFactory)
            traces_.push_back(cfg_.traceFactory(
                static_cast<CoreId>(c), app, prof, base, trace_seed,
                thread));
        else
            traces_.push_back(std::make_unique<SyntheticTrace>(
                prof, base, trace_seed, thread));
        MITTS_ASSERT(traces_.back(),
                     "trace factory returned null");

        l1s_.push_back(std::make_unique<L1Cache>(
            "l1." + std::to_string(c), cfg_.l1,
            static_cast<CoreId>(c), pool_));

        cores_.push_back(std::make_unique<Core>(
            "core." + std::to_string(c), static_cast<CoreId>(c),
            cfg_.core, traces_.back().get(), l1s_.back().get()));

        l1s_[c]->setClient(cores_[c].get());
        l1s_[c]->setDownstream(llc_.get());
        llc_->setL1(static_cast<CoreId>(c), l1s_[c].get());

        // Source gate selection.
        SourceGate *gate = nullptr;
        switch (cfg_.gate) {
          case GateKind::Mitts: {
            BinConfig bin_cfg =
                c < cfg_.mittsConfigs.size()
                    ? cfg_.mittsConfigs[c]
                    : BinConfig::uniform(cfg_.binSpec,
                                         cfg_.binSpec.maxCredits);
            if (cfg_.sharedShaperPerApp) {
                if (app != prev_app) {
                    auto shaper = std::make_unique<MittsShaper>(
                        "mitts.app" + std::to_string(app), bin_cfg,
                        cfg_.hybridMethod);
                    app_shared_shaper = shaper.get();
                    ownedGates_.push_back(std::move(shaper));
                    prev_app = app;
                }
                gate = app_shared_shaper;
                shapers_[c] = app_shared_shaper;
            } else {
                auto shaper = std::make_unique<MittsShaper>(
                    "mitts." + std::to_string(c), bin_cfg,
                    cfg_.hybridMethod);
                shapers_[c] = shaper.get();
                gate = shaper.get();
                ownedGates_.push_back(std::move(shaper));
            }
            break;
          }
          case GateKind::Static: {
            const double interval =
                c < cfg_.staticIntervals.size()
                    ? cfg_.staticIntervals[c]
                    : 154.0; // 1 GB/s at 2.4 GHz, 64B blocks
            auto sg = std::make_unique<StaticRateGate>(
                "static." + std::to_string(c), interval,
                cfg_.staticBucketDepth);
            staticGates_[c] = sg.get();
            gate = sg.get();
            ownedGates_.push_back(std::move(sg));
            break;
          }
          case GateKind::None: {
            // Scheduler-owned gates (FST, MemGuard) slot in here.
            if (cfg_.sched == SchedulerKind::Fst) {
                gate = static_cast<FstScheduler *>(sched_.get())
                           ->gate(static_cast<CoreId>(c));
            } else if (cfg_.sched == SchedulerKind::MemGuard) {
                gate = static_cast<MemGuardController *>(
                           extraClocked_.get())
                           ->gate(static_cast<CoreId>(c));
            }
            break;
          }
        }
        if (gate) {
            l1s_[c]->setGate(gate);
            llc_->setGate(static_cast<CoreId>(c), gate);
        }
    }

    // Optional congestion feedback over the shapers.
    if (cfg_.gate == GateKind::Mitts && cfg_.congestionFeedback) {
        congestionCtrl_ = std::make_unique<CongestionController>(
            "congestion", cfg_.congestion, *mc_, shapers_);
    }

    // Tick order: sampler -> cores -> L1s -> LLC -> controllers ->
    // MC. The sampler ticks first so a window closing at cycle N sees
    // the state the components left at the end of cycle N-1.
    if (telemetry_)
        sim_.add(&telemetry_->sampler());
    for (auto &core : cores_)
        sim_.add(core.get());
    for (auto &l1 : l1s_)
        sim_.add(l1.get());
    sim_.add(llc_.get());
    if (extraClocked_)
        sim_.add(extraClocked_.get());
    if (congestionCtrl_)
        sim_.add(congestionCtrl_.get());
    sim_.add(mc_.get());

    // Stats registration.
    for (auto &core : cores_)
        sim_.addStats(&core->statsGroup());
    for (auto &l1 : l1s_)
        sim_.addStats(&l1->statsGroup());
    sim_.addStats(&llc_->statsGroup());
    if (noc_)
        sim_.addStats(&noc_->statsGroup());
    sim_.addStats(&mc_->statsGroup());
    sim_.addStats(&mc_->dram().statsGroup());
    for (auto *shaper : shapers_) {
        if (shaper && (!cfg_.sharedShaperPerApp ||
                       shaper != app_shared_shaper))
            sim_.addStats(&shaper->statsGroup());
    }
    if (cfg_.sharedShaperPerApp && app_shared_shaper)
        sim_.addStats(&app_shared_shaper->statsGroup());
    if (congestionCtrl_)
        sim_.addStats(&congestionCtrl_->statsGroup());

    // Probe / trace-track registration.
    if (telemetry_) {
        for (auto &core : cores_)
            core->registerTelemetry(*telemetry_);
        llc_->registerTelemetry(*telemetry_);
        mc_->registerTelemetry(*telemetry_);
        std::vector<MittsShaper *> seen;
        for (auto *shaper : shapers_) {
            if (!shaper || std::find(seen.begin(), seen.end(),
                                     shaper) != seen.end())
                continue;
            seen.push_back(shaper);
            shaper->registerTelemetry(*telemetry_);
        }
    }
}

System::~System()
{
    // Flush telemetry while the probed components are still alive.
    finalizeTelemetry();
}

void
System::finalizeTelemetry()
{
    if (telemetry_)
        telemetry_->finalize(sim_.now());
}

void
System::buildScheduler()
{
    switch (cfg_.sched) {
      case SchedulerKind::Frfcfs:
        sched_ = std::make_unique<FrfcfsScheduler>();
        break;
      case SchedulerKind::Fcfs:
        sched_ = std::make_unique<FcfsScheduler>();
        break;
      case SchedulerKind::FairQueue:
        sched_ = std::make_unique<FairQueueScheduler>(numCores_);
        break;
      case SchedulerKind::Atlas:
        sched_ = std::make_unique<AtlasScheduler>(numCores_,
                                                  cfg_.atlas);
        break;
      case SchedulerKind::Tcm: {
        TcmConfig t = cfg_.tcm;
        t.seed = cfg_.seed ^ 0x7C3Du;
        sched_ = std::make_unique<TcmScheduler>(numCores_, t);
        break;
      }
      case SchedulerKind::Fst: {
        FstConfig f = cfg_.fst;
        f.maxRate = 1.0 / static_cast<double>(cfg_.dram.tBURST);
        sched_ = std::make_unique<FstScheduler>(numCores_, f);
        break;
      }
      case SchedulerKind::MemGuard: {
        sched_ = std::make_unique<FrfcfsScheduler>();
        MemGuardConfig m = cfg_.memguard;
        m.peakRequestsPerCycle =
            1.0 / static_cast<double>(cfg_.dram.tBURST);
        auto ctrl = std::make_unique<MemGuardController>(
            schedulerCliName(SchedulerKind::MemGuard), numCores_, m);
        ctrl->setMemController(mc_.get());
        extraClocked_ = std::move(ctrl);
        break;
      }
      case SchedulerKind::Mise:
        sched_ = std::make_unique<MiseScheduler>(numCores_, cfg_.mise);
        break;
    }
    sched_->setMonitor(this);
    mc_->setScheduler(sched_.get());
}

std::uint64_t
System::instructions(CoreId core) const
{
    return cores_[core]->instructions();
}

std::uint64_t
System::memStallCycles(CoreId core) const
{
    return cores_[core]->memStallCycles();
}

void
System::setShaperConfig(CoreId core, const BinConfig &cfg)
{
    if (shapers_[core])
        shapers_[core]->setConfig(cfg, sim_.now());
}

std::vector<AppResult>
System::runUntilInstructions(std::uint64_t instr_target,
                             Tick max_cycles)
{
    std::vector<AppResult> results(numApps());
    for (unsigned a = 0; a < numApps(); ++a)
        results[a].name = cfg_.apps[a];

    const Tick end = sim_.now() + max_cycles;
    // Completion state lives in appCompletedAt_ (not a local) so a
    // run resumed from a checkpoint reports the original completion
    // cycles of apps that finished before the snapshot. A recorded
    // completion only stands while the app still meets the current
    // target; calling again with a larger target re-opens the app.
    unsigned remaining = 0;
    for (unsigned a = 0; a < numApps(); ++a) {
        if (appCompletedAt_[a] != kTickNever) {
            for (CoreId c : coresOfApp_[a]) {
                if (cores_[c]->instructions() < instr_target) {
                    appCompletedAt_[a] = kTickNever;
                    break;
                }
            }
        }
        if (appCompletedAt_[a] == kTickNever)
            ++remaining;
    }
    while (remaining > 0 && sim_.now() < end) {
        // Run a small batch between completion checks; run() rather
        // than step() so globally idle stretches inside the batch are
        // skipped while completedAt still lands on the same 32-cycle
        // check boundaries in both modes.
        sim_.run(std::min<Tick>(32, end - sim_.now()));
        for (unsigned a = 0; a < numApps(); ++a) {
            if (appCompletedAt_[a] != kTickNever)
                continue;
            bool all_done = true;
            for (CoreId c : coresOfApp_[a]) {
                if (cores_[c]->instructions() < instr_target) {
                    all_done = false;
                    break;
                }
            }
            if (all_done) {
                appCompletedAt_[a] = sim_.now();
                --remaining;
            }
        }
        // Batch boundaries are the only cycle counts this loop can
        // stop at, so they are the only safe checkpoint instants: a
        // restored run re-enters the loop exactly here.
        if (batchCallback_)
            batchCallback_(sim_.now());
    }

    for (unsigned a = 0; a < numApps(); ++a) {
        std::uint64_t instr = 0, stall = 0;
        for (CoreId c : coresOfApp_[a]) {
            instr += cores_[c]->instructions();
            stall += cores_[c]->memStallCycles();
        }
        results[a].instructions = instr;
        results[a].memStallCycles = stall;
        results[a].completed = appCompletedAt_[a] != kTickNever;
        results[a].completedAt =
            results[a].completed ? appCompletedAt_[a] : sim_.now();
    }
    return results;
}

std::uint64_t
System::checkpointHash() const
{
    return ckpt::configHash(cfg_);
}

void
System::fire(const EventDesc &d, Tick when)
{
    switch (d.kind) {
      case EventDesc::Kind::LlcFill:
        l1s_[d.req->core]->fill(d.req, when);
        return;
      case EventDesc::Kind::MemComplete:
        mc_->complete(d.req, when);
        return;
    }
}

void
System::validate(const EventDesc &d) const
{
    switch (d.kind) {
      case EventDesc::Kind::LlcFill:
        if (!d.req || d.req->core < 0 ||
            static_cast<unsigned>(d.req->core) >= numCores_)
            throw ckpt::Error("fill event request invalid");
        return;
      case EventDesc::Kind::MemComplete:
        if (!d.req)
            throw ckpt::Error("completion event without request");
        return;
    }
}

void
System::saveCheckpoint(const std::string &path)
{
    ckpt::Writer w;

    w.beginSection("system");
    w.u64(numCores_);
    w.vecU64(appCompletedAt_);
    w.endSection();

    w.beginSection("sim");
    sim_.saveState(w);
    w.endSection();

    w.beginSection("traces");
    w.u64(traces_.size());
    for (const auto &t : traces_)
        t->saveState(w);
    w.endSection();

    w.beginSection("cores");
    for (const auto &c : cores_)
        c->saveState(w);
    w.endSection();

    w.beginSection("l1s");
    for (const auto &l1 : l1s_)
        l1->saveState(w);
    w.endSection();

    w.beginSection("llc");
    llc_->saveState(w);
    w.endSection();

    if (noc_) {
        w.beginSection("noc");
        noc_->saveState(w);
        w.endSection();
    }

    w.beginSection("sched");
    sched_->saveState(w);
    w.endSection();

    if (extraClocked_) {
        auto *s =
            dynamic_cast<ckpt::Serializable *>(extraClocked_.get());
        MITTS_ASSERT(s, "extra clocked component not serializable");
        w.beginSection(schedulerCliName(SchedulerKind::MemGuard));
        s->saveState(w);
        w.endSection();
    }

    if (congestionCtrl_) {
        w.beginSection("congestion");
        congestionCtrl_->saveState(w);
        w.endSection();
    }

    // Shapers may be shared across cores (per-app); save each unique
    // instance once, in first-core order, which is deterministic.
    w.beginSection("shapers");
    {
        std::vector<const MittsShaper *> seen;
        for (const auto *sh : shapers_) {
            if (sh && std::find(seen.begin(), seen.end(), sh) ==
                          seen.end())
                seen.push_back(sh);
        }
        w.u64(seen.size());
        for (const auto *sh : seen)
            sh->saveState(w);
    }
    w.endSection();

    w.beginSection("gates");
    {
        std::vector<const StaticRateGate *> gates;
        for (const auto *g : staticGates_) {
            if (g)
                gates.push_back(g);
        }
        w.u64(gates.size());
        for (const auto *g : gates)
            g->saveState(w);
    }
    w.endSection();

    // The memory controller serializes its DRAM channels inline and
    // references in-flight requests, which alias entries interned by
    // the LLC section above — order matters.
    w.beginSection("mc");
    mc_->saveState(w);
    w.endSection();

    w.beginSection("events");
    sim_.events().saveState(w);
    w.endSection();

    if (telemetry_) {
        w.beginSection("telemetry");
        telemetry_->saveState(w);
        w.endSection();
    }

    for (const auto &[name, s] : ckptExtras_) {
        w.beginSection("extra." + name);
        s->saveState(w);
        w.endSection();
    }

    w.writeFile(path, checkpointHash());
}

void
System::restoreCheckpoint(const std::string &path)
{
    if (sim_.now() != 0)
        throw ckpt::Error(
            "restore requires a freshly constructed system");

    ckpt::Reader r = ckpt::Reader::fromFile(path, checkpointHash());
    r.bindPool(pool_);

    r.beginSection("system");
    if (r.u64() != numCores_)
        throw ckpt::Error("checkpoint core count mismatch");
    appCompletedAt_ = r.vecU64();
    if (appCompletedAt_.size() != cfg_.apps.size())
        throw ckpt::Error("checkpoint app count mismatch");
    r.endSection();

    r.beginSection("sim");
    sim_.loadState(r);
    r.endSection();

    r.beginSection("traces");
    if (r.u64() != traces_.size())
        throw ckpt::Error("checkpoint trace count mismatch");
    for (const auto &t : traces_)
        t->loadState(r);
    r.endSection();

    r.beginSection("cores");
    for (const auto &c : cores_)
        c->loadState(r);
    r.endSection();

    r.beginSection("l1s");
    for (const auto &l1 : l1s_)
        l1->loadState(r);
    r.endSection();

    // A fill completes every load its MSHR lists; each must still
    // wait in its core's window, or the fill would abort the run.
    for (unsigned c = 0; c < numCores_; ++c) {
        for (const Mshr &m : l1s_[c]->mshrs().entries()) {
            if (!m.valid)
                continue;
            for (SeqNum seq : m.waitingLoads) {
                if (!cores_[c]->awaitsFill(seq))
                    throw ckpt::Error(
                        "L1 " + std::to_string(c) +
                        " MSHR waits for seq " + std::to_string(seq) +
                        ", which is not a load waiting in core " +
                        std::to_string(c) + "'s window");
            }
        }
    }

    r.beginSection("llc");
    llc_->loadState(r);
    r.endSection();

    if (noc_) {
        r.beginSection("noc");
        noc_->loadState(r);
        r.endSection();
    }

    r.beginSection("sched");
    sched_->loadState(r);
    r.endSection();

    if (extraClocked_) {
        auto *s =
            dynamic_cast<ckpt::Serializable *>(extraClocked_.get());
        MITTS_ASSERT(s, "extra clocked component not serializable");
        r.beginSection(schedulerCliName(SchedulerKind::MemGuard));
        s->loadState(r);
        r.endSection();
    }

    if (congestionCtrl_) {
        r.beginSection("congestion");
        congestionCtrl_->loadState(r);
        r.endSection();
    }

    r.beginSection("shapers");
    {
        std::vector<MittsShaper *> seen;
        for (auto *sh : shapers_) {
            if (sh && std::find(seen.begin(), seen.end(), sh) ==
                          seen.end())
                seen.push_back(sh);
        }
        if (r.u64() != seen.size())
            throw ckpt::Error("checkpoint shaper count mismatch");
        for (auto *sh : seen)
            sh->loadState(r);
    }
    r.endSection();

    r.beginSection("gates");
    {
        std::vector<StaticRateGate *> gates;
        for (auto *g : staticGates_) {
            if (g)
                gates.push_back(g);
        }
        if (r.u64() != gates.size())
            throw ckpt::Error("checkpoint gate count mismatch");
        for (auto *g : gates)
            g->loadState(r);
    }
    r.endSection();

    r.beginSection("mc");
    mc_->loadState(r);
    r.endSection();

    r.beginSection("events");
    sim_.events().loadState(r);
    r.endSection();

    if (telemetry_) {
        r.beginSection("telemetry");
        telemetry_->loadState(r);
        r.endSection();
    }

    for (const auto &[name, s] : ckptExtras_) {
        r.beginSection("extra." + name);
        s->loadState(r);
        r.endSection();
    }

    if (r.remainingSections() != 0)
        throw ckpt::Error(
            "checkpoint holds sections this system cannot restore "
            "(component registration mismatch)");
}

} // namespace mitts
