/**
 * @file
 * Tests for batched lockstep execution and shared-prefix caching: the
 * ThermalBatchState SoA container, fork-from-snapshot bit-identity for
 * every registered policy family (including mid-run remap share state
 * and the sensor-noise RNG stream position), chunked engine execution,
 * failure isolation, equivalence-class derivation, and scenario-level
 * batched-vs-scalar equality.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "core/sim/engine.hh"
#include "core/sim/registry.hh"
#include "core/sim/scenario.hh"
#include "core/thermal/thermal_batch.hh"

namespace memtherm
{
namespace
{

/**
 * A configuration that exercises every batching hazard at once: noisy
 * sensors (the fork must preserve the RNG stream position), a skewed
 * traffic shape plus a remap period (the remap family migrates shares
 * mid-run), and a batch small enough to finish fast.
 */
SimConfig
batchyConfig()
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 2;
    cfg.sensorNoiseSigma = 0.3;
    cfg.sensorSeed = 20260808;
    cfg.trafficShares = {0.55, 0.25, 0.12, 0.08};
    cfg.remapInterval = 0.25;
    return cfg;
}

PolicyBuildContext
contextOf(const SimConfig &cfg)
{
    return PolicyBuildContext{cfg.dtmInterval, cfg.emergencyLevels,
                              cfg.remapInterval, cfg.remapHysteresis,
                              cfg.trafficShares};
}

/** The reference: one run simulated on its own, without the engine. */
SimResult
simulateAlone(const ExperimentEngine::Run &r)
{
    ThermalSimulator sim(r.cfg);
    return sim.run(r.workload, *PolicyRegistry::instance().make(
                                   r.policy, contextOf(r.cfg)));
}

/** Exact (bitwise) equality of two results, traces included. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.runningTime, b.runningTime);
    EXPECT_EQ(a.totalInstr, b.totalInstr);
    EXPECT_EQ(a.totalReadGB, b.totalReadGB);
    EXPECT_EQ(a.totalWriteGB, b.totalWriteGB);
    EXPECT_EQ(a.totalL2Misses, b.totalL2Misses);
    EXPECT_EQ(a.memEnergy, b.memEnergy);
    EXPECT_EQ(a.cpuEnergy, b.cpuEnergy);
    EXPECT_EQ(a.maxAmb, b.maxAmb);
    EXPECT_EQ(a.maxDram, b.maxDram);
    EXPECT_EQ(a.timeAboveAmbTdp, b.timeAboveAmbTdp);
    EXPECT_EQ(a.timeAboveDramTdp, b.timeAboveDramTdp);
    EXPECT_EQ(a.peakAmbPerDimm, b.peakAmbPerDimm);
    EXPECT_EQ(a.peakDramPerDimm, b.peakDramPerDimm);
    EXPECT_EQ(a.avgPowerPerDimm, b.avgPowerPerDimm);
    EXPECT_EQ(a.refreshBwLossPerDimm, b.refreshBwLossPerDimm);
    EXPECT_EQ(a.refreshEnergyPerDimm, b.refreshEnergyPerDimm);
    EXPECT_EQ(a.bankGridX, b.bankGridX);
    EXPECT_EQ(a.bankGridZ, b.bankGridZ);
    EXPECT_EQ(a.peakBankDramPerDimm, b.peakBankDramPerDimm);
    EXPECT_EQ(a.ambTrace.values(), b.ambTrace.values());
    EXPECT_EQ(a.dramTrace.values(), b.dramTrace.values());
    EXPECT_EQ(a.inletTrace.values(), b.inletTrace.values());
    EXPECT_EQ(a.cpuPowerTrace.values(), b.cpuPowerTrace.values());
    EXPECT_EQ(a.bwTrace.values(), b.bwTrace.values());
}

TEST(ThermalBatchState, InitAndLaneSlices)
{
    ThermalBatchState st(3, 4);
    EXPECT_EQ(st.lanes(), 3);
    EXPECT_EQ(st.dimms(), 4);
    st.initLane(1, 10.0, 2.0, 42.0);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(st.ambTemp(1)[i], 42.0);
        EXPECT_EQ(st.dramTemp(1)[i], 42.0);
        EXPECT_EQ(st.peakAmb(1)[i], 42.0);
        EXPECT_EQ(st.peakDram(1)[i], 42.0);
        EXPECT_EQ(st.energy(1)[i], 0.0);
    }
    EXPECT_EQ(st.energyTime(1), 0.0);
}

TEST(ThermalBatchState, AdvanceMatchesExponentialStep)
{
    ThermalBatchState st(1, 2);
    st.initLane(0, 10.0, 2.0, 50.0);
    st.stableAmb(0)[0] = 90.0;
    st.stableAmb(0)[1] = 70.0;
    st.stableDram(0)[0] = 80.0;
    st.stableDram(0)[1] = 60.0;
    const Seconds dt = 0.5;
    st.ensureDecay(dt);
    st.advanceLane(0);
    const double da = 1.0 - std::exp(-dt / 10.0);
    const double dd = 1.0 - std::exp(-dt / 2.0);
    EXPECT_EQ(st.ambTemp(0)[0], 50.0 + (90.0 - 50.0) * da);
    EXPECT_EQ(st.ambTemp(0)[1], 50.0 + (70.0 - 50.0) * da);
    EXPECT_EQ(st.dramTemp(0)[0], 50.0 + (80.0 - 50.0) * dd);
    EXPECT_EQ(st.dramTemp(0)[1], 50.0 + (60.0 - 50.0) * dd);
}

TEST(ThermalBatchState, ZeroStepIsIdentity)
{
    ThermalBatchState st(1, 2, 3);
    st.initLane(0, 50.0, 100.0, 75.0);
    for (int i = 0; i < 2; ++i) {
        st.stableAmb(0)[i] = 120.0;
        st.stableDram(0)[i] = 120.0;
    }
    for (int i = 0; i < 2; ++i)
        st.stableBankSpread(0)[i] = 120.0;
    st.ensureDecay(0.0);
    st.advanceLane(0);
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(st.ambTemp(0)[i], 75.0);
        EXPECT_EQ(st.dramTemp(0)[i], 75.0);
        // Every cell, D + s·V, stays at 75 for any slope s.
        EXPECT_EQ(st.bankSpread(0)[i], 0.0);
        ASSERT_EQ(st.bankHullSize(0)[i], 1);
        EXPECT_EQ(st.bankHull(0, i)->v, 0.0);
        EXPECT_EQ(st.bankHull(0, i)->d, 75.0);
    }
}

TEST(ThermalBatchState, NeverOvershootsStable)
{
    // Heating toward 100 and cooling toward 60 from either side: every
    // step stays between the start and the target.
    ThermalBatchState st(2, 1);
    st.initLane(0, 50.0, 100.0, 40.0);
    st.initLane(1, 50.0, 100.0, 110.0);
    st.stableAmb(0)[0] = st.stableDram(0)[0] = 100.0;
    st.stableAmb(1)[0] = st.stableDram(1)[0] = 60.0;
    st.ensureDecay(1.0);
    for (int k = 0; k < 10000; ++k) {
        st.advanceLane(0);
        st.advanceLane(1);
        EXPECT_LE(st.ambTemp(0)[0], 100.0 + 1e-9);
        EXPECT_LE(st.dramTemp(0)[0], 100.0 + 1e-9);
        EXPECT_GE(st.ambTemp(1)[0], 60.0 - 1e-9);
        EXPECT_GE(st.dramTemp(1)[0], 60.0 - 1e-9);
    }
    EXPECT_NEAR(st.ambTemp(0)[0], 100.0, 1e-9);
    EXPECT_NEAR(st.dramTemp(1)[0], 60.0, 1e-9);
}

TEST(ThermalBatchState, CopyLaneIsExact)
{
    ThermalBatchState st(2, 3);
    st.initLane(0, 5.0, 1.0, 33.0);
    st.initLane(1, 5.0, 1.0, 0.0);
    st.stableAmb(0)[0] = 61.0;
    st.stableDram(0)[2] = 71.5;
    st.energy(0)[1] = 123.25;
    st.energyTime(0) = 7.0;
    st.copyLane(1, 0);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(st.ambTemp(1)[i], st.ambTemp(0)[i]);
        EXPECT_EQ(st.dramTemp(1)[i], st.dramTemp(0)[i]);
        EXPECT_EQ(st.peakAmb(1)[i], st.peakAmb(0)[i]);
        EXPECT_EQ(st.peakDram(1)[i], st.peakDram(0)[i]);
        EXPECT_EQ(st.energy(1)[i], st.energy(0)[i]);
    }
    EXPECT_EQ(st.energyTime(1), 7.0);
}

TEST(ThermalBatchState, Panics)
{
    EXPECT_THROW(ThermalBatchState(0, 4), PanicError);
    EXPECT_THROW(ThermalBatchState(1, 0), PanicError);
    ThermalBatchState st(1, 2);
    EXPECT_THROW(st.initLane(1, 1.0, 1.0, 0.0), PanicError);
    EXPECT_THROW(st.initLane(0, 0.0, 1.0, 0.0), PanicError);
    EXPECT_THROW(st.ensureDecay(-1.0), PanicError);
}

/**
 * The central pin: for EVERY registered policy, the batched run forked
 * from the shared prefix is bit-identical to a from-scratch run — a
 * one-policy batch, which never forks.
 * All registry policies ride in one batch, so every family's divergence
 * point forces a fork, the remap family carries migrated share state
 * across it, and the noisy sensors pin the RNG stream position.
 */
TEST(RunBatch, ForkedRunsBitIdenticalToScalarForEveryPolicy)
{
    const SimConfig cfg = batchyConfig();
    const Workload mix = workloadMix("W1");
    const std::vector<std::string> names =
        PolicyRegistry::instance().names();
    ASSERT_GE(names.size(), 8u);

    ThermalSimulator sim(cfg);
    ThermalSimulator::Scratch scratch;

    std::vector<std::unique_ptr<DtmPolicy>> policies;
    std::vector<DtmPolicy *> ptrs;
    for (const auto &n : names) {
        policies.push_back(
            PolicyRegistry::instance().make(n, contextOf(cfg)));
        ptrs.push_back(policies.back().get());
    }

    BatchStats stats;
    std::vector<SimResult> batched =
        sim.runBatch(mix, ptrs, scratch, &stats);
    ASSERT_EQ(batched.size(), names.size());

    // The batch must have actually forked and actually shared: a zero
    // fork count would make the fork-identity claim vacuous, and a zero
    // hit rate would mean no prefix was ever shared.
    EXPECT_GT(stats.forks, 0u);
    EXPECT_GT(stats.hitRate(), 0.0);
    EXPECT_LE(stats.simulatedWindows, stats.logicalWindows);

    double window_sum = 0.0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        auto fresh =
            PolicyRegistry::instance().make(names[i], contextOf(cfg));
        SimResult single = sim.run(mix, *fresh);
        expectIdentical(batched[i], single);
        window_sum += single.runningTime / cfg.window;
    }
    // Logical windows account every run's full trajectory.
    EXPECT_NEAR(stats.logicalWindows, window_sum, 1e-6 * window_sum);
}

/**
 * Fork-identity survives the temperature->refresh feedback edge. The
 * refresh model reads the lane's own per-DIMM DRAM temperatures every
 * window and feeds power back into the same lane, so a forked lane that
 * mis-copied any thermal state would diverge within one window. Every
 * registered policy rides in one refresh-coupled batch and must stay
 * bit-identical to its unforked one-lane run.
 */
TEST(RunBatch, ForkedRunsBitIdenticalUnderRefreshCoupling)
{
    SimConfig cfg = batchyConfig();
    cfg.refresh = refreshCatalog().get("ddr2_2x");
    const Workload mix = workloadMix("W1");
    const std::vector<std::string> names =
        PolicyRegistry::instance().names();

    ThermalSimulator sim(cfg);
    ThermalSimulator::Scratch scratch;

    std::vector<std::unique_ptr<DtmPolicy>> policies;
    std::vector<DtmPolicy *> ptrs;
    for (const auto &n : names) {
        policies.push_back(
            PolicyRegistry::instance().make(n, contextOf(cfg)));
        ptrs.push_back(policies.back().get());
    }

    BatchStats stats;
    std::vector<SimResult> batched =
        sim.runBatch(mix, ptrs, scratch, &stats);
    ASSERT_EQ(batched.size(), names.size());
    EXPECT_GT(stats.forks, 0u);
    EXPECT_GT(stats.hitRate(), 0.0);

    for (std::size_t i = 0; i < names.size(); ++i) {
        auto fresh =
            PolicyRegistry::instance().make(names[i], contextOf(cfg));
        SimResult single = sim.run(mix, *fresh);
        expectIdentical(batched[i], single);
        // The coupling actually ran: the nominal DDR2 band charges
        // every DIMM a nonzero refresh tax from the first window.
        ASSERT_FALSE(batched[i].refreshBwLossPerDimm.empty());
        for (double loss : batched[i].refreshBwLossPerDimm)
            EXPECT_GT(loss, 0.0);
        for (Joules e : batched[i].refreshEnergyPerDimm)
            EXPECT_GT(e, 0.0);
    }
}

/** Identical policies never diverge: one lane serves the whole batch. */
TEST(RunBatch, IdenticalPoliciesShareTheEntireRun)
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 1;
    const Workload mix = workloadMix("W2");
    ThermalSimulator sim(cfg);
    ThermalSimulator::Scratch scratch;

    auto a = PolicyRegistry::instance().make("No-limit", contextOf(cfg));
    auto b = PolicyRegistry::instance().make("No-limit", contextOf(cfg));
    std::vector<DtmPolicy *> ptrs{a.get(), b.get()};
    BatchStats stats;
    std::vector<SimResult> batched =
        sim.runBatch(mix, ptrs, scratch, &stats);
    expectIdentical(batched[0], batched[1]);
    EXPECT_EQ(stats.forks, 0u);
    EXPECT_NEAR(stats.hitRate(), 0.5, 1e-9);
}

/** Collects results positionally; failures recorded by index. */
class TestSink : public RunSink
{
  public:
    explicit TestSink(std::size_t n) : results(n), ok(n, false) {}

    void onResult(std::size_t i, SimResult &&r, double) override
    {
        results[i] = std::move(r);
        ok[i] = true;
    }

    void onFailure(std::size_t i, std::exception_ptr) override
    {
        failed.push_back(i);
    }

    std::vector<SimResult> results;
    std::vector<bool> ok;
    std::vector<std::size_t> failed;
};

std::vector<ExperimentEngine::Run>
classRuns(const SimConfig &cfg, const Workload &mix,
          const std::vector<std::string> &policy_names)
{
    std::vector<ExperimentEngine::Run> runs;
    for (const auto &n : policy_names)
        runs.push_back({cfg, mix, n, {}});
    return runs;
}

/**
 * Engine-level batching: every chunk width gives results bit-identical
 * to simulating each run alone, under both the inline (1-thread) and
 * threaded engines. Width 1 is one-lane chunks: they never fork, share
 * nothing, and credit each run its own window count.
 */
TEST(RunBatched, EveryChunkWidthMatchesScalarEngine)
{
    const SimConfig cfg = batchyConfig();
    const Workload mix = workloadMix("W1");
    const std::vector<std::string> names{"No-limit", "DTM-TS", "DTM-BW",
                                         "DTM-ACG", "DTM-CDVFS"};
    auto runs = classRuns(cfg, mix, names);
    const std::vector<ExperimentEngine::RunClass> classes{
        {0, runs.size()}};

    std::vector<SimResult> reference;
    for (const auto &r : runs)
        reference.push_back(simulateAlone(r));

    for (int width : {1, 2, 3, 5, 0}) {
        for (int threads : {1, 3}) {
            ExperimentEngine engine(threads);
            TestSink sink(runs.size());
            BatchStats stats;
            engine.runBatched(runs, classes, width, sink, &stats);
            EXPECT_TRUE(sink.failed.empty());
            for (std::size_t i = 0; i < runs.size(); ++i) {
                ASSERT_TRUE(sink.ok[i]);
                expectIdentical(sink.results[i], reference[i]);
            }
            EXPECT_GT(stats.logicalWindows, 0.0);
            EXPECT_GE(stats.logicalWindows, stats.simulatedWindows);
            if (width == 1) {
                double window_sum = 0.0;
                for (const SimResult &r : reference)
                    window_sum += r.runningTime / cfg.window;
                EXPECT_EQ(stats.forks, 0u);
                EXPECT_EQ(stats.hitRate(), 0.0);
                EXPECT_NEAR(stats.logicalWindows, window_sum,
                            1e-6 * window_sum);
            }
        }
    }
}

/** A bad policy fails only its own run; chunk-mates still complete. */
TEST(RunBatched, PolicyBuildFailureIsIsolated)
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 1;
    const Workload mix = workloadMix("W1");
    auto runs = classRuns(cfg, mix, {"No-limit", "bogus", "DTM-TS"});
    const std::vector<ExperimentEngine::RunClass> classes{{0, 3}};

    ExperimentEngine engine(1);
    TestSink sink(3);
    engine.runBatched(runs, classes, 3, sink, nullptr);
    ASSERT_EQ(sink.failed.size(), 1u);
    EXPECT_EQ(sink.failed[0], 1u);
    EXPECT_TRUE(sink.ok[0]);
    EXPECT_TRUE(sink.ok[2]);

    // The surviving runs are still bit-identical to scalar execution.
    expectIdentical(sink.results[0], simulateAlone(runs[0]));
    expectIdentical(sink.results[2], simulateAlone(runs[2]));
}

TEST(RunBatched, RejectsNonTilingClasses)
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 1;
    auto runs = classRuns(cfg, workloadMix("W1"), {"No-limit", "DTM-TS"});
    ExperimentEngine engine(1);
    TestSink sink(2);
    EXPECT_THROW(engine.runBatched(runs, {{0, 1}}, 2, sink, nullptr),
                 PanicError);
    EXPECT_THROW(engine.runBatched(runs, {{1, 1}, {0, 1}}, 2, sink,
                                   nullptr),
                 PanicError);
}

/** lower() derives one class per (point, workload), policy-fastest. */
TEST(Scenario, EquivalenceClassesFromLowering)
{
    ScenarioSpec spec;
    spec.name = "classes";
    spec.workloads = {"W1", "W2"};
    spec.policies = {"No-limit", "DTM-TS", "DTM-BW"};
    spec.sweepTInlet = {30.0, 44.0};
    spec.copiesPerApp = 1;

    LoweredScenario low = spec.lower();
    ASSERT_EQ(low.totalRuns(), 12u);
    ASSERT_EQ(low.classes.size(), 4u);
    std::size_t base = 0;
    for (const auto &c : low.classes) {
        EXPECT_EQ(c.first, base);
        EXPECT_EQ(c.count, 3u);
        base += c.count;
    }
}

/** Platform runs are singleton classes (per-policy config tweaks). */
TEST(Scenario, PlatformScenariosGetSingletonClasses)
{
    ScenarioSpec spec;
    spec.name = "plat";
    spec.platform = "SR1500AL";
    spec.workloads = {"W1"};
    spec.policies = {"No-limit", "DTM-BW"};
    spec.copiesPerApp = 1;

    LoweredScenario low = spec.lower();
    ASSERT_EQ(low.classes.size(), low.totalRuns());
    for (std::size_t i = 0; i < low.classes.size(); ++i) {
        EXPECT_EQ(low.classes[i].first, i);
        EXPECT_EQ(low.classes[i].count, 1u);
    }
}

/** Scenario-level: batched execution equals scalar, run for run. */
TEST(Scenario, RunScenarioBatchedMatchesScalar)
{
    ScenarioSpec spec;
    spec.name = "batched_vs_scalar";
    spec.workloads = {"W1"};
    spec.policies = {"No-limit", "DTM-TS", "DTM-BW", "DTM-ACG"};
    spec.copiesPerApp = 1;
    spec.sensorNoiseSigma = 0.25;
    spec.sensorSeed = 77;

    ExperimentEngine engine(2);
    ScenarioResults scalar = runScenario(spec, engine);
    BatchStats stats;
    ScenarioResults batched =
        runScenarioBatched(spec, engine, 4, &stats);

    ASSERT_TRUE(scalar.errors.empty());
    ASSERT_TRUE(batched.errors.empty());
    ASSERT_EQ(batched.points.size(), scalar.points.size());
    for (std::size_t p = 0; p < scalar.points.size(); ++p) {
        EXPECT_EQ(batched.points[p].label, scalar.points[p].label);
        for (const auto &[w, by_policy] : scalar.points[p].suite) {
            for (const auto &[pol, r] : by_policy) {
                ASSERT_TRUE(
                    batched.points[p].suite.at(w).count(pol));
                expectIdentical(batched.points[p].suite.at(w).at(pol),
                                r);
            }
        }
    }
    EXPECT_GT(stats.hitRate(), 0.0);
}

/**
 * Width 0 ("< 1 = one chunk per class") batches the whole class: the
 * same results and the same batch counters as a width equal to the
 * policy count — not a silent fall-back to scalar execution.
 */
TEST(Scenario, RunScenarioBatchedWidthZeroIsOneChunkPerClass)
{
    ScenarioSpec spec;
    spec.name = "width_zero";
    spec.workloads = {"W1"};
    spec.policies = {"No-limit", "DTM-TS", "DTM-BW", "DTM-ACG"};
    spec.copiesPerApp = 1;
    spec.sensorNoiseSigma = 0.25;
    spec.sensorSeed = 77;
    spec.sweepTInlet = {38.0, 50.0};

    ExperimentEngine engine(1);
    BatchStats zero, full;
    const ScenarioResults a = runScenarioBatched(spec, engine, 0, &zero);
    const ScenarioResults b = runScenarioBatched(
        spec, engine, static_cast<int>(spec.policies.size()), &full);

    EXPECT_EQ(toJson(a, true).dump(), toJson(b, true).dump());
    EXPECT_GT(zero.logicalWindows, 0.0);
    EXPECT_GT(zero.hitRate(), 0.0);
    EXPECT_EQ(zero.logicalWindows, full.logicalWindows);
    EXPECT_EQ(zero.simulatedWindows, full.simulatedWindows);
    EXPECT_EQ(zero.forks, full.forks);
}

} // namespace
} // namespace memtherm
