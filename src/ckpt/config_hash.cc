#include "ckpt/config_hash.hh"

#include <string>

#include "base/fnv.hh"
#include "system/config.hh"

namespace mitts::ckpt
{

namespace
{

void
hashPhase(Fnv &h, const PhaseSpec &p)
{
    h.u64(p.lengthOps);
    h.f64(p.intensityScale);
    h.f64(p.streamScale);
    h.f64(p.idleScale);
}

void
hashProfile(Fnv &h, const AppProfile &p)
{
    h.str(p.name);
    h.f64(p.memFraction);
    h.f64(p.writeFraction);
    h.u64(p.workingSetBytes);
    h.f64(p.hotFraction);
    h.u64(p.hotSetBytes);
    h.f64(p.midFraction);
    h.u64(p.midSetBytes);
    h.f64(p.warmFraction);
    h.u64(p.warmSetBytes);
    h.u64(p.warmRunBlocks);
    h.f64(p.streamFraction);
    h.u64(p.streamLenBlocks);
    h.u64(p.streamRegionBytes);
    h.u64(p.streamOpsPerBlock);
    h.f64(p.chainFraction);
    h.f64(p.burstEnterProb);
    h.f64(p.burstExitProb);
    h.f64(p.burstIntensityScale);
    h.f64(p.burstHotScale);
    h.f64(p.burstWarmBias);
    h.u64(p.burstLenOps);
    h.u64(p.burstMinGapOps);
    h.f64(p.idleFraction);
    h.u64(p.idleGapInstrs);
    h.u64(p.phases.size());
    for (const auto &ph : p.phases)
        hashPhase(h, ph);
    h.u64(p.numThreads);
}

void
hashBinSpec(Fnv &h, const BinSpec &s)
{
    h.u64(s.numBins);
    h.u64(s.intervalLength);
    h.u64(s.replenishPeriod);
    h.u64(s.maxCredits);
    h.u64(static_cast<std::uint64_t>(s.policy));
}

void
hashBinConfig(Fnv &h, const BinConfig &c)
{
    hashBinSpec(h, c.spec);
    h.u64(c.credits.size());
    for (auto k : c.credits)
        h.u64(k);
}

void
hashDram(Fnv &h, const DramConfig &d)
{
    h.u64(d.numBanks);
    h.u64(d.rowBytes);
    h.u64(static_cast<std::uint64_t>(d.addressMap));
    h.u64(d.capacityBytes);
    h.u64(d.tCL);
    h.u64(d.tWL);
    h.u64(d.tRCD);
    h.u64(d.tRP);
    h.u64(d.tRAS);
    h.u64(d.tWR);
    h.u64(d.tBURST);
    h.u64(d.tRRD);
    h.u64(d.tFAW);
    h.u64(d.tREFI);
    h.u64(d.tRFC);
    h.b(d.refreshEnabled);
}

/**
 * Shared body of configHash / prefixConfigHash. With
 * `include_shaping` false the per-core credit values, static-gate
 * intervals and bucket depth are skipped so configurations that
 * differ only in shaping collapse onto one prefix key.
 */
std::uint64_t
hashConfig(const SystemConfig &cfg, bool include_shaping)
{
    Fnv h;
    h.u64(cfg.apps.size());
    for (const auto &a : cfg.apps)
        h.str(a);
    h.u64(cfg.customProfiles.size());
    for (const auto &p : cfg.customProfiles)
        hashProfile(h, p);

    h.u64(cfg.core.width);
    h.u64(cfg.core.windowSize);
    h.f64(cfg.core.nonMemIpc);

    h.u64(cfg.l1.sizeBytes);
    h.u64(cfg.l1.assoc);
    h.u64(cfg.l1.mshrs);
    h.u64(cfg.l1.mshrTargets);
    h.u64(cfg.l1.hitLatency);

    h.u64(cfg.llc.sizeBytes);
    h.u64(cfg.llc.assoc);
    h.u64(cfg.llc.numBanks);
    h.u64(cfg.llc.bankQueueDepth);
    h.u64(cfg.llc.maxOutstandingMisses);
    h.u64(cfg.llc.hitLatency);
    h.u64(cfg.llc.fillToL1Latency);
    h.u64(cfg.llc.histBins);
    h.u64(cfg.llc.histBinWidth);

    h.u64(cfg.mc.queueDepth);
    h.u64(cfg.mc.numChannels);
    h.u64(cfg.mc.writeDrainHigh);
    h.u64(cfg.mc.writeDrainLow);
    h.u64(cfg.mc.smoothingFifoDepth);
    h.b(cfg.mc.latencyHistograms);
    h.u64(cfg.mc.latencyHistBins);
    h.f64(cfg.mc.latencyHistBinWidth);

    h.b(cfg.noc.enabled);
    h.u64(cfg.noc.width);
    h.u64(cfg.noc.height);
    h.u64(cfg.noc.hopLatency);
    h.u64(cfg.noc.linkOccupancy);

    hashDram(h, cfg.dram);

    // The CLI name, not the enum ordinal: editing the registry must
    // not shift other schedulers' hashes.
    h.str(schedulerCliName(cfg.sched));
    h.f64(cfg.tcm.clusterThresh);
    h.u64(cfg.tcm.quantum);
    h.u64(cfg.tcm.shuffleInterval);
    h.u64(cfg.tcm.seed);
    h.u64(cfg.atlas.quantum);
    h.f64(cfg.atlas.alpha);
    h.u64(cfg.atlas.starvationThreshold);
    h.u64(cfg.mise.epochLength);
    h.u64(cfg.mise.intervalLength);
    h.f64(cfg.mise.alpha);
    h.u64(cfg.fst.interval);
    h.f64(cfg.fst.unfairnessThresh);
    h.f64(cfg.fst.maxRate);
    h.f64(cfg.fst.burstCap);
    h.u64(cfg.fst.epochLength);
    h.u64(cfg.memguard.period);
    h.f64(cfg.memguard.guaranteedFraction);
    h.f64(cfg.memguard.peakRequestsPerCycle);
    h.u64(cfg.memguard.weights.size());
    for (double w : cfg.memguard.weights)
        h.f64(w);

    h.u64(static_cast<std::uint64_t>(cfg.gate));
    hashBinSpec(h, cfg.binSpec);
    h.u64(static_cast<std::uint64_t>(cfg.hybridMethod));
    if (include_shaping) {
        h.u64(cfg.mittsConfigs.size());
        for (const auto &c : cfg.mittsConfigs)
            hashBinConfig(h, c);
    }
    h.b(cfg.sharedShaperPerApp);
    h.b(cfg.useSmoothingFifo);
    h.b(cfg.congestionFeedback);
    h.u64(cfg.congestion.checkPeriod);
    h.f64(cfg.congestion.highWatermark);
    h.f64(cfg.congestion.lowWatermark);
    h.f64(cfg.congestion.scaleStep);
    h.f64(cfg.congestion.minScale);

    if (include_shaping) {
        h.u64(cfg.staticIntervals.size());
        for (double v : cfg.staticIntervals)
            h.f64(v);
        h.f64(cfg.staticBucketDepth);
    }

    h.u64(cfg.seed);
    h.f64(cfg.cpuGhz);

    // A trace factory cannot be hashed; record its presence so a
    // plain config never validates against a factory-built system's
    // checkpoint. The factory owner (the cloud engine) covers the
    // factory's parameters with its own scenario hash.
    h.b(static_cast<bool>(cfg.traceFactory));

    // cfg.sim is intentionally excluded (see header). Telemetry
    // options are behavioural (they decide what state exists) except
    // for the output directory.
    h.b(cfg.telemetry.enabled);
    h.u64(cfg.telemetry.sampleInterval);
    h.b(cfg.telemetry.traceEvents);
    h.u64(cfg.telemetry.ringWindows);
    h.u64(cfg.telemetry.maxTraceEvents);

    return h.value();
}

} // namespace

std::uint64_t
configHash(const SystemConfig &cfg)
{
    return hashConfig(cfg, true);
}

std::uint64_t
prefixConfigHash(const SystemConfig &cfg)
{
    return hashConfig(cfg, false);
}

} // namespace mitts::ckpt
