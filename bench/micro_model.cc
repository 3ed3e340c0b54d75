/**
 * @file
 * google-benchmark microbenchmarks of the analytic models that dominate
 * MEMSpot's per-window cost.
 */

#include <benchmark/benchmark.h>

#include <limits>

#include "core/sim/experiment.hh"

using namespace memtherm;

namespace
{

constexpr double kNoCap = std::numeric_limits<double>::infinity();

/** A memory-bound streaming task (high miss rate, high MLP). */
CoreTask
streamTask()
{
    CoreTask t;
    t.mpki = 60.0;
    t.writeFrac = 0.4;
    t.mlpOverlap = 0.84;
    return t;
}

/**
 * Time the allocation-free solvePerfWindow() overload the simulator's
 * window loop calls, reusing one WindowPerf across iterations.
 */
void
solveLoop(benchmark::State &state, const std::vector<CoreTask> &tasks,
          GBps cap, const MemSystemPerf &mem)
{
    WindowPerf p;
    for (auto _ : state) {
        solvePerfWindow(tasks, 3.2, 3.2, cap, mem, p);
        benchmark::DoNotOptimize(p.totalRead);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_SolvePerfWindowUnsaturated(benchmark::State &state)
{
    std::vector<CoreTask> tasks(4);
    for (auto &t : tasks)
        t.mpki = 8.0;
    solveLoop(state, tasks, kNoCap, {});
}

void
BM_SolvePerfWindowSaturated(benchmark::State &state)
{
    std::vector<CoreTask> tasks(4);
    for (auto &t : tasks)
        t.mpki = 60.0;
    solveLoop(state, tasks, 6.4, {});
}

void
BM_SolvePerfWindowMixedCapped(benchmark::State &state)
{
    // Three streamers and a compute-bound task under a DTM-BW style cap:
    // the streamers absorb the queueing latency.
    std::vector<CoreTask> tasks(3, streamTask());
    CoreTask compute;
    compute.cpiCore = 0.8;
    compute.mpki = 0.2;
    tasks.push_back(compute);
    solveLoop(state, tasks, 6.4, {});
}

void
BM_SolvePerfWindowRefreshDerated(benchmark::State &state)
{
    // A doubled-refresh band steals bandwidth and an AL-DRAM tier cuts
    // idle latency, so four streamers overrun the derated channel: the
    // utilization clamp holds at the idle latency and the solver falls
    // back to bracket midpoints.
    std::vector<CoreTask> tasks(4, streamTask());
    MemSystemPerf mem;
    mem.peakBandwidth *= 1.0 - 0.032;
    mem.idleLatencyNs *= 0.85;
    solveLoop(state, tasks, kNoCap, mem);
}

void
BM_MemoryThermalAdvance(benchmark::State &state)
{
    MemoryThermalModel m(MemoryOrgConfig{4, 4}, coolingAohs15(),
                         DimmPowerModel{}, 50.0);
    for (auto _ : state) {
        MemoryThermalSample s = m.advance(10.0, 3.0, 50.0, 0.01);
        benchmark::DoNotOptimize(s.hottestAmb);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_MemSpotWindow(benchmark::State &state)
{
    // End-to-end per-window cost of the level-2 simulator.
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 1;
    cfg.instrScale = 0.02;
    ThermalSimulator sim(cfg);
    Workload w1 = workloadMix("W1");
    for (auto _ : state) {
        auto policy = makeCh4Policy("DTM-ACG");
        SimResult r = sim.run(w1, *policy);
        benchmark::DoNotOptimize(r.runningTime);
    }
}

BENCHMARK(BM_SolvePerfWindowUnsaturated);
BENCHMARK(BM_SolvePerfWindowSaturated);
BENCHMARK(BM_SolvePerfWindowMixedCapped);
BENCHMARK(BM_SolvePerfWindowRefreshDerated);
BENCHMARK(BM_MemoryThermalAdvance);
BENCHMARK(BM_MemSpotWindow)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
