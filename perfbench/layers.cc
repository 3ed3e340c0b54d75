/**
 * @file
 * Per-layer replay for the traced run.
 *
 * The simulator calls the level-1 solve, the refresh derate, the power
 * model, the thermal advance, the ambient node and the scheduler
 * privately inside ThermalSimulator::windowPre, so the benchmark cannot
 * time them in place. Instead it replays a run's window loop itself,
 * calling each layer's public function in the simulator's order with a
 * span around each call. The replay's result is checked bit-identical
 * to the engine's, which pins every replayed call to the value the
 * simulator computed. Host ns per call times the untraced run's call
 * counts gives each layer's time.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include "cache/miss_model.hh"
#include "core/sim/thermal_simulator.hh"
#include "perfbench.hh"
#include "workloads/app_descriptor.hh"

namespace perfbench
{

using namespace memtherm;

namespace
{

/** ThermalSimulator's sensor model: quantization and Gaussian noise. */
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

/** Span clock: lap() returns ns since the previous lap, minus one read. */
class Lap
{
  public:
    explicit Lap(double read_ns) : readNs(read_ns), last(Clock::now()) {}

    void restart() { last = Clock::now(); }

    double
    lap()
    {
        const auto now = Clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(now - last).count();
        last = now;
        return std::max(0.0, ns - readNs);
    }

  private:
    double readNs;
    Clock::time_point last;
};

/** Cost of one steady-clock read (ns), subtracted from every span. */
double
clockReadNs()
{
    // Median over batches of back-to-back reads: one read's share of a
    // span, which every lap subtracts.
    constexpr int kBatches = 15;
    constexpr int kReads = 2000;
    std::vector<double> per;
    for (int b = 0; b < kBatches; ++b) {
        const auto t0 = Clock::now();
        Clock::time_point sink = t0;
        for (int i = 0; i < kReads; ++i)
            sink = std::max(sink, Clock::now());
        per.push_back(
            std::chrono::duration<double, std::nano>(sink - t0).count() /
            kReads);
    }
    std::nth_element(per.begin(), per.begin() + kBatches / 2, per.end());
    return per[kBatches / 2];
}

} // namespace

SimResult
replayRun(const ExperimentEngine::Run &r, LayerReplay &out)
{
    static const double kReadNs = clockReadNs();
    const SimConfig &cfg = r.cfg;
    std::unique_ptr<DtmPolicy> policy = buildPolicy(r);
    policy->reset();

    ThermalBatchState state(1, cfg.org.nDimmsPerChannel,
                            cfg.bankGrid ? cfg.bankGrid->cells() : 0);
    ThermalSimulator::Lane lane(cfg, r.workload, state, 0);
    lane.res.policy = policy->name();

    std::vector<std::size_t> occupied, scheduled;
    std::vector<double> sharers, task_mpki, activities;
    std::vector<CoreTask> tasks;
    WindowPerf perf;
    std::vector<Celsius> ref_amb, ref_dram;
    std::vector<Watts> ref_power;

    const Seconds dt = cfg.window;
    const Seconds eps = dt * 1e-6;
    const GHz fmax = cfg.dvfs.maxFreq();
    Lap span(kReadNs);

    while (lane.live) {
        // --- sense + decide at interval boundaries (untimed here: the
        //     decide() decorator times the real calls) ------------------
        lane.decided = false;
        if (lane.t + eps >= lane.nextDtm) {
            MemoryThermalSample cur = lane.mem.current();
            lane.reading.amb = senseTemp(cur.hottestAmb, cfg.sensorNoiseSigma,
                                         cfg.sensorQuant, lane.sensorRng);
            lane.reading.dram = senseTemp(cur.hottestDram,
                                          cfg.sensorNoiseSigma,
                                          cfg.sensorQuant, lane.sensorRng);
            lane.reading.inlet = lane.ambient.temperature();
            lane.mem.currentPerDimm(lane.reading.ambPerDimm,
                                    lane.reading.dramPerDimm);
            const DtmAction a = policy->decide(lane.reading, lane.t);
            lane.action = a;
            if (!a.trafficShares.empty()) {
                lane.remapBurstGb = lane.mem.setTrafficShares(a.trafficShares) *
                                    cfg.remapCostGbPerShare;
            }
            lane.nextDtm += cfg.dtmInterval;
            lane.decided = true;
        }
        span.restart();

        // --- sched: rotation, sharers, the window's task set ----------
        if (lane.t + eps >= lane.nextRotation) {
            ++lane.rotation;
            lane.nextRotation += cfg.rotationSlice;
        }
        occupied.clear();
        for (std::size_t i = 0; i < lane.slot.size(); ++i)
            if (lane.slot[i])
                occupied.push_back(i);
        const int n_active = std::clamp(lane.action.activeCores, 0,
                                        static_cast<int>(occupied.size()));
        const bool time_shared =
            n_active > 0 && n_active < static_cast<int>(occupied.size());
        scheduled.clear();
        for (int k = 0; k < n_active; ++k)
            scheduled.push_back(
                occupied[(lane.rotation + static_cast<std::size_t>(k)) %
                         occupied.size()]);
        std::sort(scheduled.begin(), scheduled.end());
        sharers.assign(scheduled.size(),
                       static_cast<double>(scheduled.size()));
        if (cfg.perSocketL2) {
            for (std::size_t i = 0; i < scheduled.size(); ++i) {
                double n = 0.0;
                for (std::size_t j : scheduled)
                    if (j / 2 == scheduled[i] / 2)
                        n += 1.0;
                sharers[i] = n;
            }
        }
        const DvfsState &dv = cfg.dvfs.at(lane.action.dvfsLevel);
        tasks.clear();
        task_mpki.clear();
        for (std::size_t i = 0; i < scheduled.size(); ++i) {
            const BatchJob::Instance *inst = lane.slot[scheduled[i]];
            const AppDescriptor &app = *inst->app;
            double mpki = mpkiAtSharers(app.cache, sharers[i]) *
                          phaseFactor(app, inst->cpuTime);
            if (time_shared)
                mpki += switchMpki(app.refillLines, app.nominalGips,
                                   cfg.rotationSlice);
            CoreTask task;
            task.cpiCore = app.cpiCore;
            task.mpki = mpki;
            task.writeFrac = app.writeFrac;
            task.specFrac = app.specFrac;
            task.mlpOverlap = app.mlpOverlap;
            tasks.push_back(task);
            task_mpki.push_back(mpki);
        }
        out.schedNs += span.lap();

        // --- refresh derate -------------------------------------------
        const GBps cap = lane.action.memoryOn ? lane.action.bandwidthCap : 0.0;
        MemSystemPerf mem = cfg.memPerf;
        if (!cfg.refresh.empty()) {
            lane.mem.currentPerDimm(ref_amb, ref_dram);
            const std::vector<double> &shares = lane.mem.trafficShares();
            const std::size_t n_dimms = ref_dram.size();
            ref_power.resize(n_dimms);
            double loss_frac = 0.0;
            double lat_mult = 0.0;
            for (std::size_t i = 0; i < n_dimms; ++i) {
                const RefreshBand &band = cfg.refresh.bandAt(ref_dram[i]);
                const double share =
                    shares.empty() ? 1.0 / static_cast<double>(n_dimms)
                                   : shares[i];
                loss_frac += share * band.bwFraction;
                lat_mult += share * band.latencyMult;
                ref_power[i] = band.dramPower;
                lane.res.refreshBwLossPerDimm[i] +=
                    cfg.memPerf.peakBandwidth * cfg.memPerf.maxUtilization *
                    share * band.bwFraction * dt;
                lane.res.refreshEnergyPerDimm[i] += band.dramPower * dt;
            }
            mem.peakBandwidth *= std::max(0.0, 1.0 - loss_frac);
            mem.idleLatencyNs *= lat_mult;
            lane.mem.setRefreshDramPower(ref_power);
            out.refreshNs += span.lap();
            ++out.refreshWindows;
        }

        // --- level-1 solve --------------------------------------------
        solvePerfWindow(tasks, dv.freq, fmax, cap, mem, perf);
        out.solveNs += span.lap();

        // --- sched: progress + retirement -----------------------------
        const double progress_scale =
            lane.decided && cfg.dtmOverhead > 0.0
                ? std::max(0.0, 1.0 - cfg.dtmOverhead / cfg.window)
                : 1.0;
        double sum_v_ipc = 0.0;
        for (std::size_t i = 0; i < scheduled.size(); ++i) {
            BatchJob::Instance *inst = lane.slot[scheduled[i]];
            const double instrs = perf.ips[i] * dt * progress_scale;
            inst->remainingInstr -= instrs;
            inst->cpuTime += dt;
            lane.res.totalInstr += instrs;
            lane.res.totalL2Misses += instrs * task_mpki[i] / 1000.0;
            sum_v_ipc += dv.volts * (perf.ips[i] / (fmax * 1e9));
            if (inst->remainingInstr <= 0.0) {
                lane.batch.retire(inst);
                lane.slot[scheduled[i]] = lane.batch.nextPending();
            }
        }
        GBps read = perf.totalRead * progress_scale;
        GBps write = perf.totalWrite * progress_scale;
        if (lane.remapBurstGb > 0.0) {
            const GBps burst = lane.remapBurstGb / dt;
            read += 0.5 * burst;
            write += 0.5 * burst;
            lane.remapBurstGb = 0.0;
        }
        lane.res.totalReadGB += read * dt;
        lane.res.totalWriteGB += write * dt;
        out.schedNs += span.lap();

        // --- CPU power + ambient node ---------------------------------
        Watts cpu_power;
        if (cfg.cpuPowerActivity) {
            activities.clear();
            if (lane.action.memoryOn)
                for (std::size_t i = 0; i < scheduled.size(); ++i) {
                    const double cpi_total =
                        dv.freq * 1e9 / std::max(perf.ips[i], 1.0);
                    activities.push_back(std::clamp(
                        tasks[i].cpiCore / cpi_total, 0.0, 1.0));
                }
            cpu_power = cfg.cpuPowerActivity->power(activities,
                                                    lane.action.dvfsLevel);
        } else {
            const bool halted = !lane.action.memoryOn;
            cpu_power = cfg.cpuPowerTable.power(halted ? 0 : n_active,
                                                lane.action.dvfsLevel, halted);
        }
        const Celsius inlet = lane.ambient.advance(sum_v_ipc, cpu_power, dt);
        out.ambientNs += span.lap();

        // --- FBDIMM power (the evaluation stageAdvance repeats) -------
        const Watts power = lane.mem.subsystemPower(read, write);
        const double power_ns = span.lap();
        out.powerNs += power_ns;

        // --- thermal stage / sweep / fold -----------------------------
        lane.mem.stageAdvance(read, write, inlet, dt);
        lane.mem.commitStaged();
        const MemoryThermalSample ms = lane.mem.finishAdvance(dt);
        out.thermalNs += std::max(0.0, span.lap() - power_ns);
        if (ms.subsystemPower != power)
            ++out.powerMismatches;
        ++out.windows;

        // --- window bookkeeping (ThermalSimulator::windowPost) ---------
        lane.res.memEnergy += ms.subsystemPower * dt;
        lane.res.cpuEnergy += cpu_power * dt;
        lane.res.maxAmb = std::max(lane.res.maxAmb, ms.hottestAmb);
        lane.res.maxDram = std::max(lane.res.maxDram, ms.hottestDram);
        if (ms.hottestAmb > cfg.limits.ambTdp)
            lane.res.timeAboveAmbTdp += dt;
        if (ms.hottestDram > cfg.limits.dramTdp)
            lane.res.timeAboveDramTdp += dt;
        if (lane.t + eps >= lane.nextTrace) {
            lane.res.ambTrace.add(ms.hottestAmb);
            lane.res.dramTrace.add(ms.hottestDram);
            lane.res.inletTrace.add(inlet);
            lane.res.cpuPowerTrace.add(cpu_power);
            lane.res.bwTrace.add(read + write);
            lane.nextTrace += cfg.traceSample;
        }
        lane.t += dt;
        lane.live = !lane.batch.done() && lane.t < cfg.maxSimTime;
    }

    // --- ThermalSimulator::finalizeLane ---------------------------------
    lane.res.completed = lane.batch.done();
    lane.res.runningTime = lane.t;
    for (const DimmTemps &p : lane.mem.dimmPeaks()) {
        lane.res.peakAmbPerDimm.push_back(p.amb);
        lane.res.peakDramPerDimm.push_back(p.dram);
    }
    lane.res.avgPowerPerDimm = lane.mem.dimmAvgPower();
    lane.res.peakBankDramPerDimm = lane.mem.bankPeaks();
    return std::move(lane.res);
}

double
forkNsPerCall(const ExperimentEngine::Run &r, int reps)
{
    // The widest batch a workload forks into: one lane per policy of
    // the Chapter 4 lineup.
    constexpr int kLanes = 8;
    const SimConfig &cfg = r.cfg;
    ThermalBatchState state(kLanes, cfg.org.nDimmsPerChannel,
                            cfg.bankGrid ? cfg.bankGrid->cells() : 0);
    ThermalSimulator::Lane src(cfg, r.workload, state, 0);
    std::vector<ThermalSimulator::Lane> forks;
    forks.reserve(kLanes - 1);
    double ns = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        forks.clear();
        const auto t0 = Clock::now();
        for (int k = 1; k < kLanes; ++k)
            forks.emplace_back(src, state, k);
        ns += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                  .count();
    }
    return ns / (static_cast<double>(reps) * (kLanes - 1));
}

} // namespace perfbench
