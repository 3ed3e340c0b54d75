#include "testbed/platform.hh"

#include "common/logging.hh"
#include "core/dtm/basic_policies.hh"

namespace memtherm
{

namespace
{

/** Common Chapter 5 simulator knobs (Section 5.2.1 mechanisms). */
void
applyCh5Defaults(SimConfig &cfg)
{
    cfg.dvfs = xeon5160Dvfs();
    cfg.nCores = 4;
    cfg.perSocketL2 = true; // two dual-core sockets, one L2 each
    cfg.window = 0.1;
    cfg.dtmInterval = 1.0;  // the policy daemon wakes once per second
    cfg.dtmOverhead = 0.0;  // "overhead is virtually non-existent"
    cfg.rotationSlice = 0.1; // default Linux time slice (100 ms)
    // AMB sensors update every 1344 bus cycles and are noisy (high
    // spikes are visible in Fig. 5.4); readings quantize to 0.5 C.
    cfg.sensorNoiseSigma = 0.2;
    cfg.sensorQuant = 0.5;
    // Xeon 5160 pair: idle-dominated power, dynamic part follows
    // V^2 * f * activity (calibrated to the -15.5% CDVFS saving of
    // Section 5.4.4).
    cfg.cpuPowerActivity = ActivityCpuPowerModel(xeon5160Dvfs(), 2,
                                                 35.0, 25.0, 1.0);
    cfg.copiesPerApp = 10;
    cfg.traceSample = 1.0;
}

} // namespace

void
Platform::setAmbTdp(Celsius tdp)
{
    ambTdp = tdp;
    sim.limits.ambTdp = tdp;
    sim.limits.ambTrp = tdp - 1.0;
    const Celsius top = tdp - 2.0;
    ambBounds = {top - 12.0, top - 8.0, top - 4.0, top};
}

Platform
pe1950()
{
    Platform p;
    p.name = "PE1950";
    p.bwCaps = {std::numeric_limits<double>::infinity(), 4.0, 3.0, 2.0};
    p.safetyCap = 2.0;

    SimConfig cfg;
    applyCh5Defaults(cfg);
    cfg.org = MemoryOrgConfig{1, 2}; // one channel, two DIMMs

    // Platform cooling calibration (see file header): no-DTM stable in
    // the mid-90s at full load, ~60 C idle in the 26 C room.
    CoolingConfig cooling;
    cooling.spreader = HeatSpreader::AOHS;
    cooling.velocity = AirVelocity::MPS_1_5;
    cooling.psiAmb = 5.2;
    cooling.psiDramToAmb = 5.6;
    cooling.psiDram = 3.0;
    cooling.psiAmbToDram = 4.0;
    cooling.tauAmb = 50.0;
    cooling.tauDram = 100.0;
    cfg.cooling = cooling;

    AmbientParams amb;
    amb.tInlet = 26.0;
    amb.psiCpuMemXi = 0.0;
    amb.psiCpuPower = 0.08; // CPUs slightly misaligned with the DIMMs
    amb.tauCpuDram = 20.0;
    cfg.ambient = amb;

    // FSB-attached single FBDIMM channel.
    cfg.memPerf.peakBandwidth = 4.5;
    cfg.memPerf.idleLatencyNs = 120.0;

    cfg.limits.dramTdp = 85.0;
    cfg.limits.dramTrp = 84.0;

    p.sim = cfg;
    p.setAmbTdp(90.0); // artificial TDP (Section 5.3.1)
    return p;
}

Platform
sr1500al()
{
    Platform p;
    p.name = "SR1500AL";
    p.bwCaps = {std::numeric_limits<double>::infinity(), 5.0, 4.0, 3.0};
    p.safetyCap = 3.0;

    SimConfig cfg;
    applyCh5Defaults(cfg);
    cfg.org = MemoryOrgConfig{1, 4}; // one channel, four DIMMs

    CoolingConfig cooling;
    cooling.spreader = HeatSpreader::AOHS;
    cooling.velocity = AirVelocity::MPS_1_5;
    cooling.psiAmb = 6.0;
    cooling.psiDramToAmb = 5.5;
    cooling.psiDram = 3.0;
    cooling.psiAmbToDram = 4.0;
    cooling.tauAmb = 50.0;
    cooling.tauDram = 100.0;
    cfg.cooling = cooling;

    AmbientParams amb;
    amb.tInlet = 36.0; // hot box
    amb.psiCpuMemXi = 0.0;
    amb.psiCpuPower = 0.13; // one CPU directly upstream of the DIMMs
    amb.tauCpuDram = 20.0;
    cfg.ambient = amb;

    cfg.memPerf.peakBandwidth = 6.4;
    cfg.memPerf.idleLatencyNs = 120.0;

    cfg.limits.dramTdp = 85.0;
    cfg.limits.dramTrp = 84.0;

    p.sim = cfg;
    p.setAmbTdp(100.0);
    return p;
}

std::unique_ptr<DtmPolicy>
makeCh5Policy(const Platform &p, const std::string &name)
{
    if (name == "No-limit")
        return std::make_unique<NoLimitPolicy>();

    // DRAM devices are never the Chapter 5 hot spot ("the memory hot
    // spots are AMBs"); park the DRAM boundaries far out of reach.
    EmergencyLevels levels(p.ambBounds, {200.0, 210.0, 220.0, 230.0});
    Celsius release = p.ambBounds.back(); // top level never latches

    auto act = [&](GBps cap, int cores, std::size_t dvfs) {
        DtmAction a;
        a.memoryOn = true;
        a.bandwidthCap = cap;
        a.activeCores = cores;
        a.dvfsLevel = std::max(dvfs, p.dvfsFloor);
        return a;
    };
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const auto &caps = p.bwCaps;

    if (name == "DTM-BW") {
        return std::make_unique<LeveledPolicy>(
            "DTM-BW", levels,
            std::vector<DtmAction>{act(caps[0], 4, 0), act(caps[1], 4, 0),
                                   act(caps[2], 4, 0), act(caps[3], 4, 0),
                                   act(p.safetyCap, 4, 0)},
            release, 199.0);
    }
    if (name == "DTM-ACG") {
        // At least one core per socket stays up to keep both L2s in use
        // (Section 5.2.2); the top level adds the open-loop safety cap.
        return std::make_unique<LeveledPolicy>(
            "DTM-ACG", levels,
            std::vector<DtmAction>{act(kInf, 4, 0), act(kInf, 3, 0),
                                   act(kInf, 2, 0),
                                   act(p.safetyCap, 2, 0),
                                   act(p.safetyCap, 2, 0)},
            release, 199.0);
    }
    if (name == "DTM-CDVFS") {
        return std::make_unique<LeveledPolicy>(
            "DTM-CDVFS", levels,
            std::vector<DtmAction>{act(kInf, 4, 0), act(kInf, 4, 1),
                                   act(kInf, 4, 2),
                                   act(p.safetyCap, 4, 3),
                                   act(p.safetyCap, 4, 3)},
            release, 199.0);
    }
    if (name == "Safety") {
        // No DTM policy; only the chipset's open-loop row-activation cap
        // engages near the TDP (the Fig. 5.4 measurement protocol).
        EmergencyLevels guard({p.ambTdp - 0.5, p.ambTdp - 0.3,
                               p.ambTdp - 0.1, p.ambTdp},
                              {200.0, 210.0, 220.0, 230.0});
        return std::make_unique<LeveledPolicy>(
            "Safety", guard,
            std::vector<DtmAction>{act(kInf, 4, 0), act(kInf, 4, 0),
                                   act(kInf, 4, 0),
                                   act(p.safetyCap, 4, 0),
                                   act(p.safetyCap, 4, 0)},
            p.ambTdp - 0.5, 199.0);
    }
    if (name == "DTM-COMB") {
        return std::make_unique<LeveledPolicy>(
            "DTM-COMB", levels,
            std::vector<DtmAction>{act(kInf, 4, 0), act(kInf, 3, 1),
                                   act(kInf, 2, 2),
                                   act(p.safetyCap, 2, 3),
                                   act(p.safetyCap, 2, 3)},
            release, 199.0);
    }
    fatal("makeCh5Policy: unknown policy '" + name + "'");
}

PolicyFactory
ch5PolicyFactory(const Platform &p)
{
    return [p](const SimConfig &, const std::string &name) {
        return makeCh5Policy(p, name);
    };
}

ExperimentEngine::Run
ch5EngineRun(const Platform &p, const Workload &w,
             const std::string &policy_name)
{
    SimConfig cfg = p.sim;
    // The SR1500AL no-limit baseline runs at a 26 C room ambient.
    if (policy_name == "No-limit" && cfg.ambient.tInlet > 26.0)
        cfg.ambient.tInlet = 26.0;
    return {std::move(cfg), w, policy_name, ch5PolicyFactory(p)};
}

std::vector<std::string>
ch5PolicyNames()
{
    return {"DTM-BW", "DTM-ACG", "DTM-CDVFS", "DTM-COMB"};
}

} // namespace memtherm
