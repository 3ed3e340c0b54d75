#include "core/sim/thermal_simulator.hh"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace memtherm
{

namespace
{

/** Apply sensor quantization and noise to an exact temperature. */
Celsius
senseTemp(Celsius exact, double sigma, double quant, Rng &rng)
{
    Celsius t = exact;
    if (sigma > 0.0)
        t += sigma * rng.gaussian();
    if (quant > 0.0)
        t = std::floor(t / quant) * quant;
    return t;
}

} // namespace

SimConfig
makeCh4Config(const CoolingConfig &cooling, bool integrated)
{
    SimConfig cfg;
    cfg.cooling = cooling;
    cfg.ambient =
        integrated ? integratedAmbient(cooling) : isolatedAmbient(cooling);
    cfg.ambient.psiCpuMemXi *= kXiCalibration;
    return cfg;
}

ThermalSimulator::ThermalSimulator(SimConfig c) : cfg(std::move(c))
{
    panicIfNot(cfg.window > 0.0, "ThermalSimulator: window must be > 0");
    panicIfNot(cfg.dtmInterval >= cfg.window,
               "ThermalSimulator: DTM interval must be >= window");
    panicIfNot(cfg.nCores >= 1, "ThermalSimulator: need >= 1 core");
}

ThermalSimulator::Lane::Lane(const SimConfig &cfg, const Workload &mix,
                             ThermalBatchState &state, int lane_index)
    : batch(mix, cfg.copiesPerApp, cfg.instrScale),
      ambient(cfg.ambient),
      mem(cfg.org, cfg.cooling, DimmPowerModel{}, ambient.temperature(),
          cfg.trafficShares, state, lane_index, cfg.bankGrid),
      sensorRng(cfg.sensorSeed),
      nextRotation(cfg.rotationSlice),
      nextTrace(cfg.traceSample)
{
    res.workload = mix.name;
    res.ambTrace = TimeSeries(cfg.traceSample);
    res.dramTrace = TimeSeries(cfg.traceSample);
    res.inletTrace = TimeSeries(cfg.traceSample);
    res.cpuPowerTrace = TimeSeries(cfg.traceSample);
    res.bwTrace = TimeSeries(cfg.traceSample);

    // Core slots; round-robin dispatch from the batch queue.
    slot.assign(static_cast<std::size_t>(cfg.nCores), nullptr);
    for (auto &s : slot)
        s = batch.nextPending();
    baseMpki.resize(slot.size());

    // The machine idles long enough before the run for temperatures to
    // settle (the measurement protocol of Section 5.4.1). Refresh power
    // is not set yet, so the settled state is refresh-free; the feedback
    // edge engages from the first window.
    mem.resetToStable(0.0, 0.0, ambient.temperature());

    if (!cfg.refresh.empty()) {
        const std::size_t n =
            static_cast<std::size_t>(cfg.org.nDimmsPerChannel);
        res.refreshBwLossPerDimm.assign(n, 0.0);
        res.refreshEnergyPerDimm.assign(n, 0.0);
    }
    if (cfg.bankGrid) {
        res.bankGridX = cfg.bankGrid->x;
        res.bankGridZ = cfg.bankGrid->z;
    }

    live = !batch.done() && t < cfg.maxSimTime;
}

ThermalSimulator::Lane::Lane(const Lane &src, ThermalBatchState &state,
                             int lane_index)
    : res(src.res),
      batch(src.batch),
      slot(src.slot),
      baseMpki(src.baseMpki),
      ambient(src.ambient),
      mem(src.mem, state, lane_index),
      sensorRng(src.sensorRng),
      action(src.action),
      reading(src.reading),
      remapBurstGb(src.remapBurstGb),
      nextDtm(src.nextDtm),
      nextRotation(src.nextRotation),
      nextTrace(src.nextTrace),
      rotation(src.rotation),
      decided(src.decided),
      t(src.t),
      live(src.live),
      pendingCpuPower(src.pendingCpuPower),
      pendingInlet(src.pendingInlet),
      pendingRead(src.pendingRead),
      pendingWrite(src.pendingWrite)
{
    // slot holds pointers into src.batch's pool; rebase them onto the
    // copied pool (same indices — the pools are element-wise copies).
    for (auto &s : slot)
        s = batch.at(src.batch.indexOf(s));
}

void
ThermalSimulator::reserveScratch(Scratch &scratch) const
{
    const std::size_t n_cores = static_cast<std::size_t>(cfg.nCores);
    scratch.occupied.reserve(n_cores);
    scratch.scheduled.reserve(n_cores);
    scratch.sharers.reserve(n_cores);
    scratch.tasks.reserve(n_cores);
    scratch.taskMpki.reserve(n_cores);
    scratch.activities.reserve(n_cores);
    scratch.perf.ips.reserve(n_cores);
    scratch.perf.taskTraffic.reserve(n_cores);
}

void
ThermalSimulator::senseLane(Lane &lane) const
{
    MemoryThermalSample cur = lane.mem.current();
    lane.reading.amb = senseTemp(cur.hottestAmb, cfg.sensorNoiseSigma,
                                 cfg.sensorQuant, lane.sensorRng);
    lane.reading.dram = senseTemp(cur.hottestDram, cfg.sensorNoiseSigma,
                                  cfg.sensorQuant, lane.sensorRng);
    lane.reading.inlet = lane.ambient.temperature();
    // Exact per-DIMM temperatures (ideal sensors) — feeding them
    // through the noisy scalar path would consume extra RNG
    // draws and shift every pinned golden.
    lane.mem.currentPerDimm(lane.reading.ambPerDimm,
                            lane.reading.dramPerDimm);
}

void
ThermalSimulator::applyDecision(Lane &lane, const DtmAction &a) const
{
    lane.action = a;
    if (!a.trafficShares.empty()) {
        double moved = lane.mem.setTrafficShares(a.trafficShares);
        lane.remapBurstGb = moved * cfg.remapCostGbPerShare;
    }
    lane.nextDtm += cfg.dtmInterval;
    lane.decided = true;
}

void
ThermalSimulator::windowPre(Lane &lane, Scratch &scratch) const
{
    const Seconds dt = cfg.window;
    const Seconds eps = dt * 1e-6;
    const GHz fmax = cfg.dvfs.maxFreq();

    std::vector<BatchJob::Instance *> &slot = lane.slot;
    std::vector<std::size_t> &occupied = scratch.occupied;
    std::vector<std::size_t> &scheduled = scratch.scheduled;
    std::vector<double> &sharers = scratch.sharers;
    std::vector<CoreTask> &tasks = scratch.tasks;
    std::vector<double> &task_mpki = scratch.taskMpki;
    std::vector<double> &activities = scratch.activities;
    WindowPerf &perf = scratch.perf;

    // --- schedule: pick the slots that run this window --------------
    if (lane.t + eps >= lane.nextRotation) {
        ++lane.rotation;
        lane.nextRotation += cfg.rotationSlice;
    }
    occupied.clear();
    for (std::size_t i = 0; i < slot.size(); ++i)
        if (slot[i])
            occupied.push_back(i);

    int n_active = std::clamp(lane.action.activeCores, 0,
                              static_cast<int>(occupied.size()));
    bool time_shared =
        n_active > 0 && n_active < static_cast<int>(occupied.size());
    scheduled.clear();
    for (int k = 0; k < n_active; ++k) {
        std::size_t pick = (lane.rotation + static_cast<std::size_t>(k)) %
                           occupied.size();
        scheduled.push_back(occupied[pick]);
    }
    std::sort(scheduled.begin(), scheduled.end());

    // --- L2 sharer counts -------------------------------------------
    // Chapter 4: one shared L2 across all cores. Chapter 5: one L2
    // per 2-core socket.
    sharers.assign(scheduled.size(),
                   static_cast<double>(scheduled.size()));
    if (cfg.perSocketL2) {
        for (std::size_t i = 0; i < scheduled.size(); ++i) {
            std::size_t socket = scheduled[i] / 2;
            double n = 0.0;
            for (std::size_t j : scheduled)
                if (j / 2 == socket)
                    n += 1.0;
            sharers[i] = n;
        }
    }

    // --- build level-1 window tasks ----------------------------------
    const DvfsState &dv = cfg.dvfs.at(lane.action.dvfsLevel);
    tasks.clear();
    task_mpki.clear();
    for (std::size_t i = 0; i < scheduled.size(); ++i) {
        const BatchJob::Instance *inst = slot[scheduled[i]];
        const AppDescriptor &app = *inst->app;
        Lane::BaseMpki &base = lane.baseMpki[scheduled[i]];
        if (base.app != inst->app || base.sharers != sharers[i])
            base = {inst->app, sharers[i],
                    mpkiAtSharers(app.cache, sharers[i])};
        double mpki = base.mpki * phaseFactor(app, inst->cpuTime);
        if (time_shared) {
            mpki += switchMpki(app.refillLines, app.nominalGips,
                               cfg.rotationSlice);
        }
        CoreTask task;
        task.cpiCore = app.cpiCore;
        task.mpki = mpki;
        task.writeFrac = app.writeFrac;
        task.specFrac = app.specFrac;
        task.mlpOverlap = app.mlpOverlap;
        tasks.push_back(task);
        task_mpki.push_back(mpki);
    }

    GBps cap = lane.action.memoryOn ? lane.action.bandwidthCap : 0.0;
    if (cfg.refresh.empty()) {
        solvePerfWindow(tasks, dv.freq, fmax, cap, cfg.memPerf, perf);
    } else {
        // Refresh feedback (temperature -> performance): each DIMM's
        // current DRAM temperature selects a refresh band. Refresh
        // steals the band's bandwidth fraction from the DIMM's share of
        // the sustainable bandwidth and scales the idle latency
        // (AL-DRAM timing margins), so the level-1 solve sees a derated
        // memory system this window; the band's refresh power is staged
        // into the thermal model's power evaluation below. Re-read
        // every window, so the rate follows the temperature at window
        // granularity.
        lane.mem.currentPerDimm(scratch.refreshAmb, scratch.refreshDram);
        const std::vector<double> &shares = lane.mem.trafficShares();
        const std::size_t n_dimms = scratch.refreshDram.size();
        scratch.refreshPower.resize(n_dimms);
        double loss_frac = 0.0;
        double lat_mult = 0.0;
        for (std::size_t i = 0; i < n_dimms; ++i) {
            const RefreshBand &band =
                cfg.refresh.bandAt(scratch.refreshDram[i]);
            const double share =
                shares.empty() ? 1.0 / static_cast<double>(n_dimms)
                               : shares[i];
            loss_frac += share * band.bwFraction;
            lat_mult += share * band.latencyMult;
            scratch.refreshPower[i] = band.dramPower;
            lane.res.refreshBwLossPerDimm[i] +=
                cfg.memPerf.peakBandwidth * cfg.memPerf.maxUtilization *
                share * band.bwFraction * dt;
            lane.res.refreshEnergyPerDimm[i] += band.dramPower * dt;
        }
        MemSystemPerf derated = cfg.memPerf;
        derated.peakBandwidth *= std::max(0.0, 1.0 - loss_frac);
        derated.idleLatencyNs *= lat_mult;
        lane.mem.setRefreshDramPower(scratch.refreshPower);
        solvePerfWindow(tasks, dv.freq, fmax, cap, derated, perf);
    }

    // DTM control overhead: a decision window loses dtmOverhead of
    // useful execution time (Table 4.1).
    double progress_scale = 1.0;
    if (lane.decided && cfg.dtmOverhead > 0.0) {
        progress_scale =
            std::max(0.0, 1.0 - cfg.dtmOverhead / cfg.window);
    }

    // --- progress + retirement ---------------------------------------
    double sum_v_ipc = 0.0;
    for (std::size_t i = 0; i < scheduled.size(); ++i) {
        BatchJob::Instance *inst = slot[scheduled[i]];
        double instrs = perf.ips[i] * dt * progress_scale;
        inst->remainingInstr -= instrs;
        inst->cpuTime += dt;
        lane.res.totalInstr += instrs;
        lane.res.totalL2Misses += instrs * task_mpki[i] / 1000.0;
        sum_v_ipc += dv.volts * (perf.ips[i] / (fmax * 1e9));
        if (inst->remainingInstr <= 0.0) {
            lane.batch.retire(inst);
            slot[scheduled[i]] = lane.batch.nextPending();
        }
    }

    GBps read = perf.totalRead * progress_scale;
    GBps write = perf.totalWrite * progress_scale;
    if (lane.remapBurstGb > 0.0) {
        // Migration cost: the page-copy burst of a remap rides in
        // the window that applied it — half reads (source DIMMs),
        // half writes (destination). It heats the memory and counts
        // as traffic but retires no instructions, so remapping is
        // never free.
        GBps burst = lane.remapBurstGb / dt;
        read += 0.5 * burst;
        write += 0.5 * burst;
        lane.remapBurstGb = 0.0;
    }
    lane.res.totalReadGB += read * dt;
    lane.res.totalWriteGB += write * dt;

    // --- power + staged thermal --------------------------------------
    Watts cpu_power;
    if (cfg.cpuPowerActivity) {
        activities.clear();
        if (lane.action.memoryOn) {
            for (std::size_t i = 0; i < scheduled.size(); ++i) {
                double cpi_total = dv.freq * 1e9 /
                                   std::max(perf.ips[i], 1.0);
                activities.push_back(std::clamp(
                    tasks[i].cpiCore / cpi_total, 0.0, 1.0));
            }
        }
        cpu_power =
            cfg.cpuPowerActivity->power(activities, lane.action.dvfsLevel);
    } else {
        bool halted = !lane.action.memoryOn;
        cpu_power = cfg.cpuPowerTable.power(
            halted ? 0 : n_active, lane.action.dvfsLevel, halted);
    }

    Celsius inlet = lane.ambient.advance(sum_v_ipc, cpu_power, dt);
    lane.mem.stageAdvance(read, write, inlet, dt);

    lane.pendingCpuPower = cpu_power;
    lane.pendingInlet = inlet;
    lane.pendingRead = read;
    lane.pendingWrite = write;
}

void
ThermalSimulator::windowPost(Lane &lane) const
{
    const Seconds dt = cfg.window;
    const Seconds eps = dt * 1e-6;

    MemoryThermalSample ms = lane.mem.finishAdvance(dt);

    lane.res.memEnergy += ms.subsystemPower * dt;
    lane.res.cpuEnergy += lane.pendingCpuPower * dt;
    lane.res.maxAmb = std::max(lane.res.maxAmb, ms.hottestAmb);
    lane.res.maxDram = std::max(lane.res.maxDram, ms.hottestDram);
    if (ms.hottestAmb > cfg.limits.ambTdp)
        lane.res.timeAboveAmbTdp += dt;
    if (ms.hottestDram > cfg.limits.dramTdp)
        lane.res.timeAboveDramTdp += dt;

    if (lane.t + eps >= lane.nextTrace) {
        lane.res.ambTrace.add(ms.hottestAmb);
        lane.res.dramTrace.add(ms.hottestDram);
        lane.res.inletTrace.add(lane.pendingInlet);
        lane.res.cpuPowerTrace.add(lane.pendingCpuPower);
        lane.res.bwTrace.add(lane.pendingRead + lane.pendingWrite);
        lane.nextTrace += cfg.traceSample;
    }

    lane.t += dt;
    lane.live = !lane.batch.done() && lane.t < cfg.maxSimTime;
}

void
ThermalSimulator::finalizeLane(Lane &lane) const
{
    lane.res.completed = lane.batch.done();
    lane.res.runningTime = lane.t;
    std::vector<DimmTemps> peaks = lane.mem.dimmPeaks();
    lane.res.peakAmbPerDimm.reserve(peaks.size());
    lane.res.peakDramPerDimm.reserve(peaks.size());
    for (const DimmTemps &p : peaks) {
        lane.res.peakAmbPerDimm.push_back(p.amb);
        lane.res.peakDramPerDimm.push_back(p.dram);
    }
    lane.res.avgPowerPerDimm = lane.mem.dimmAvgPower();
    lane.res.peakBankDramPerDimm = lane.mem.bankPeaks();
}

SimResult
ThermalSimulator::run(const Workload &mix, DtmPolicy &policy) const
{
    Scratch scratch;
    return std::move(runBatch(mix, {&policy}, scratch).front());
}

std::vector<SimResult>
ThermalSimulator::runBatch(const Workload &mix,
                           const std::vector<DtmPolicy *> &policies,
                           Scratch &scratch, BatchStats *stats) const
{
    const std::size_t n_pol = policies.size();
    panicIfNot(n_pol >= 1, "runBatch: need >= 1 policy");
    for (DtmPolicy *p : policies) {
        panicIfNot(p != nullptr, "runBatch: null policy");
        p->reset();
    }
    reserveScratch(scratch);

    ThermalBatchState state(static_cast<int>(n_pol),
                            cfg.org.nDimmsPerChannel,
                            cfg.bankGrid ? cfg.bankGrid->cells() : 0);

    /// One shared trajectory: a lane plus the policies riding on it.
    struct Group
    {
        Lane lane;
        std::vector<std::size_t> members; ///< indices into `policies`
    };
    std::vector<Group> groups;
    // Every fork moves >= 1 member into a fresh group, so the total
    // group count over the whole run never exceeds n_pol. Reserving
    // that bound keeps references stable across mid-loop push_backs.
    groups.reserve(n_pol);
    {
        Group g{Lane(cfg, mix, state, 0), {}};
        g.members.resize(n_pol);
        for (std::size_t m = 0; m < n_pol; ++m)
            g.members[m] = m;
        groups.push_back(std::move(g));
    }
    int next_lane = 1;

    BatchStats local;
    const Seconds eps = cfg.window * 1e-6;
    // Per-decision scratch: the members' actions, the position of each
    // distinct action, and each member's index into `uniq`.
    std::vector<DtmAction> actions;
    std::vector<std::size_t> uniq;
    std::vector<std::size_t> bucket;

    for (;;) {
        bool any_live = false;
        for (const Group &g : groups)
            any_live |= g.lane.live;
        if (!any_live)
            break;

        // --- decide phase: sense once per group, ask every member's
        //     policy, fork the lane where their actions diverge --------
        const std::size_t n_at_start = groups.size();
        for (std::size_t gi = 0; gi < n_at_start; ++gi) {
            Group &g = groups[gi];
            if (!g.lane.live)
                continue;
            g.lane.decided = false;
            if (!(g.lane.t + eps >= g.lane.nextDtm))
                continue;
            // Sense BEFORE forking: the sensor draws land in the shared
            // RNG, so every member's stream position matches the one
            // draw its from-scratch run would have made here.
            senseLane(g.lane);
            actions.clear();
            for (std::size_t m : g.members)
                actions.push_back(
                    policies[m]->decide(g.lane.reading, g.lane.t));
            // Partition members by action equality, first-seen order.
            uniq.clear();
            bucket.clear();
            for (std::size_t i = 0; i < actions.size(); ++i) {
                std::size_t b = 0;
                while (b < uniq.size() && !(actions[uniq[b]] == actions[i]))
                    ++b;
                if (b == uniq.size())
                    uniq.push_back(i);
                bucket.push_back(b);
            }
            // Forked groups clone the PRE-decision lane (g.lane is not
            // mutated until after every clone is taken), then each gets
            // its own action applied — exactly what its members' from-
            // scratch runs would have computed at this window.
            for (std::size_t b = 1; b < uniq.size(); ++b) {
                panicIfNot(next_lane < static_cast<int>(n_pol),
                           "runBatch: lane budget exceeded");
                groups.push_back(
                    Group{Lane(g.lane, state, next_lane), {}});
                ++next_lane;
                for (std::size_t i = 0; i < bucket.size(); ++i)
                    if (bucket[i] == b)
                        groups.back().members.push_back(g.members[i]);
                applyDecision(groups.back().lane, actions[uniq[b]]);
                ++local.forks;
            }
            applyDecision(g.lane, actions[uniq[0]]);
            std::size_t kept = 0;
            for (std::size_t i = 0; i < bucket.size(); ++i)
                if (bucket[i] == 0)
                    g.members[kept++] = g.members[i];
            g.members.resize(kept);
        }
        // Groups appended above already carry this window's decision
        // (decided = true, nextDtm advanced) and take the window step
        // with everyone else below.

        // --- pre phase: schedule, solve, progress, power, stage -------
        for (Group &g : groups)
            if (g.lane.live)
                windowPre(g.lane, scratch);

        // --- the shared temperature sweep, lane by lane ---------------
        for (Group &g : groups)
            if (g.lane.live)
                g.lane.mem.commitStaged();

        // --- post phase: peaks, energy, traces, clock -----------------
        for (Group &g : groups) {
            if (!g.lane.live)
                continue;
            windowPost(g.lane);
            local.simulatedWindows += 1.0;
            local.logicalWindows += static_cast<double>(g.members.size());
        }
    }

    std::vector<SimResult> out(n_pol);
    for (Group &g : groups) {
        finalizeLane(g.lane);
        for (std::size_t k = 0; k < g.members.size(); ++k) {
            const std::size_t m = g.members[k];
            if (k + 1 == g.members.size())
                out[m] = std::move(g.lane.res);
            else
                out[m] = g.lane.res;
            out[m].policy = policies[m]->name();
        }
    }
    if (stats)
        *stats = local;
    return out;
}

} // namespace memtherm
