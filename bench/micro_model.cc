/**
 * @file
 * google-benchmark microbenchmarks of the analytic models that dominate
 * MEMSpot's per-window cost, and of the result codec that dominates a
 * streamed bank-grid grid's I/O.
 */

#include <benchmark/benchmark.h>

#include <limits>
#include <string>

#include "common/json.hh"
#include "common/rng.hh"
#include "core/sim/experiment.hh"
#include "core/sim/result_codec.hh"

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
    // utilization clamp holds at the idle latency and the solve runs in
    // its clamp regime.
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
BM_MemoryThermalAdvanceBankGrid(benchmark::State &state)
{
    // A 4x8 organization under a 32x16 grid of random bank weights: the
    // bank-grid overlay's cost on top of the lumped advance. The traffic
    // steps between levels, so the DIMMs heat and cool in turn.
    BankGridConfig grid{32, 16, {}};
    Rng rng(20261018);
    double sum = 0.0;
    for (int c = 0; c < grid.cells(); ++c)
        sum += grid.weights.emplace_back(rng.uniform());
    for (double &w : grid.weights)
        w /= sum;
    MemoryThermalModel m(MemoryOrgConfig{4, 8}, coolingAohs15(),
                         DimmPowerModel{}, 50.0, {}, grid);
    const GBps reads[] = {10.0, 2.0, 14.0, 6.0};
    std::size_t i = 0;
    for (auto _ : state) {
        MemoryThermalSample s = m.advance(reads[i++ % 4], 3.0, 50.0, 0.01);
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

/**
 * One stream record's result at the bank-grid stream benchmark's
 * largest shape: 8 DIMMs per channel under a 32x16 bank grid (4096
 * per-bank peaks), refresh arrays, and five 110-sample traces.
 */
SimResult
gridRecord()
{
    Rng rng(20261018);
    SimResult r;
    r.workload = "W1";
    r.policy = "DTM-TS";
    r.completed = true;
    for (double *v : {&r.runningTime, &r.totalInstr, &r.totalReadGB,
                      &r.totalWriteGB, &r.totalL2Misses, &r.memEnergy,
                      &r.cpuEnergy, &r.maxAmb, &r.maxDram,
                      &r.timeAboveAmbTdp, &r.timeAboveDramTdp})
        *v = rng.uniform(0.0, 100.0);
    for (std::vector<double> *v :
         {&r.peakAmbPerDimm, &r.peakDramPerDimm, &r.avgPowerPerDimm,
          &r.refreshBwLossPerDimm, &r.refreshEnergyPerDimm})
        for (int d = 0; d < 8; ++d)
            v->push_back(rng.uniform(40.0, 90.0));
    r.bankGridX = 32;
    r.bankGridZ = 16;
    for (int c = 0; c < 8 * 512; ++c)
        r.peakBankDramPerDimm.push_back(rng.uniform(70.0, 80.0));
    for (TimeSeries *t : {&r.ambTrace, &r.dramTrace, &r.inletTrace,
                          &r.cpuPowerTrace, &r.bwTrace}) {
        *t = TimeSeries(0.01);
        for (int k = 0; k < 110; ++k)
            t->add(rng.uniform(0.0, 100.0));
    }
    return r;
}

/** gridRecord() as the `result` payload of a stream line. */
std::string
gridRecordText()
{
    std::string text;
    JsonWriter w(text);
    writeResult(w, gridRecord(), true);
    return text;
}

void
BM_ResultEncode(benchmark::State &state)
{
    const SimResult r = gridRecord();
    std::string text;
    for (auto _ : state) {
        text.clear();
        JsonWriter w(text);
        writeResult(w, r, true);
        benchmark::DoNotOptimize(text.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() *
                                                      text.size()));
}

void
BM_ResultScanLine(benchmark::State &state)
{
    // What a resume scan does with a payload: check it, decode nothing.
    const std::string text = gridRecordText();
    for (auto _ : state) {
        JsonReader in(text);
        in.skipValue();
        in.finish();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() *
                                                      text.size()));
}

void
BM_ResultDecode(benchmark::State &state)
{
    const std::string text = gridRecordText();
    for (auto _ : state) {
        JsonReader in(text);
        SimResult r = readResult(in, "result", true);
        benchmark::DoNotOptimize(r.maxAmb);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() *
                                                      text.size()));
}

BENCHMARK(BM_SolvePerfWindowUnsaturated);
BENCHMARK(BM_SolvePerfWindowSaturated);
BENCHMARK(BM_SolvePerfWindowMixedCapped);
BENCHMARK(BM_SolvePerfWindowRefreshDerated);
BENCHMARK(BM_MemoryThermalAdvance);
BENCHMARK(BM_MemoryThermalAdvanceBankGrid);
BENCHMARK(BM_MemSpotWindow)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ResultEncode)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ResultScanLine)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ResultDecode)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
