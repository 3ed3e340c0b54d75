/**
 * @file
 * Tests for batched execution and shared-prefix caching: the one-run
 * ThermalState and its Eq. 3.5 step, fork-from-snapshot bit-identity for
 * every registered policy family (including mid-run remap share state
 * and the sensor-noise RNG stream position), chunked engine execution,
 * failure isolation and the class contract, equivalence-class
 * derivation, and scenario-level batched-vs-scalar equality.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "core/sim/engine.hh"
#include "core/sim/registry.hh"
#include "core/sim/scenario.hh"
#include "core/thermal/thermal_batch.hh"

#include "../common/result_identity.hh"

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

TEST(ThermalState, AdvanceMatchesExponentialStep)
{
    ThermalState st(2);
    st.reset(10.0, 2.0, 50.0);
    st.stableAmb = {90.0, 70.0};
    st.stableDram = {80.0, 60.0};
    const Seconds dt = 0.5;
    st.ensureDecay(dt);
    st.advance();
    const double da = 1.0 - std::exp(-dt / 10.0);
    const double dd = 1.0 - std::exp(-dt / 2.0);
    EXPECT_EQ(st.amb[0], 50.0 + (90.0 - 50.0) * da);
    EXPECT_EQ(st.amb[1], 50.0 + (70.0 - 50.0) * da);
    EXPECT_EQ(st.dram[0], 50.0 + (80.0 - 50.0) * dd);
    EXPECT_EQ(st.dram[1], 50.0 + (60.0 - 50.0) * dd);
}

TEST(ThermalState, ZeroStepIsIdentity)
{
    ThermalState st(2, {0, 3, 6});
    st.reset(50.0, 100.0, 75.0);
    st.stableAmb = st.stableDram = st.stableSpread = {120.0, 120.0};
    st.ensureDecay(0.0);
    st.advance();
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(st.amb[i], 75.0);
        EXPECT_EQ(st.dram[i], 75.0);
        // Every cell, D + s·V, stays at 75 for any slope s.
        EXPECT_EQ(st.spread[i], 0.0);
        ASSERT_EQ(st.hullSize[i], 1);
        EXPECT_EQ(st.bankHull(i)->v, 0.0);
        EXPECT_EQ(st.bankHull(i)->d, 75.0);
    }
}

TEST(ThermalState, NeverOvershootsStable)
{
    // Heating toward 100 and cooling toward 60 from either side: every
    // step stays between the start and the target.
    ThermalState heat(1), cool(1);
    heat.reset(50.0, 100.0, 40.0);
    cool.reset(50.0, 100.0, 110.0);
    heat.stableAmb = heat.stableDram = {100.0};
    cool.stableAmb = cool.stableDram = {60.0};
    heat.ensureDecay(1.0);
    cool.ensureDecay(1.0);
    for (int k = 0; k < 10000; ++k) {
        heat.advance();
        cool.advance();
        EXPECT_LE(heat.amb[0], 100.0 + 1e-9);
        EXPECT_LE(heat.dram[0], 100.0 + 1e-9);
        EXPECT_GE(cool.amb[0], 60.0 - 1e-9);
        EXPECT_GE(cool.dram[0], 60.0 - 1e-9);
    }
    EXPECT_NEAR(heat.amb[0], 100.0, 1e-9);
    EXPECT_NEAR(cool.dram[0], 60.0, 1e-9);
}

TEST(ThermalState, Panics)
{
    EXPECT_THROW(ThermalState(0), PanicError);
    EXPECT_THROW(ThermalState(1, {0, 0}), PanicError);   // empty block
    EXPECT_THROW(ThermalState(2, {0, 3}), PanicError);   // one per DIMM
    EXPECT_THROW(ThermalState(1, {1, 3}), PanicError);   // from 0
    ThermalState st(2);
    EXPECT_THROW(st.reset(0.0, 1.0, 0.0), PanicError);
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

/**
 * A class whose runs do not share their config and workload name is
 * refused before any run starts: a chunk simulates its first run's
 * config and workload for every member.
 */
TEST(RunBatched, MismatchedClassPanics)
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 1;
    auto runs = classRuns(cfg, workloadMix("W1"), {"No-limit", "DTM-TS"});
    runs[1].cfg.ambient.tInlet += 1.0;
    ExperimentEngine engine(1);
    TestSink sink(2);
    EXPECT_THROW(engine.runBatched(runs, {{0, 2}}, 2, sink, nullptr),
                 PanicError);
    EXPECT_FALSE(sink.ok[0] || sink.ok[1]); // refused before any run

    runs[1].cfg = cfg;
    runs[1].workload = workloadMix("W2");
    EXPECT_THROW(engine.runBatched(runs, {{0, 2}}, 2, sink, nullptr),
                 PanicError);

    // Singleton classes may differ in anything.
    engine.runBatched(runs, {{0, 1}, {1, 1}}, 2, sink, nullptr);
    EXPECT_TRUE(sink.ok[0] && sink.ok[1]);
}

/**
 * Config equality is value equality on the bank grid: a hand-built
 * equal grid in a payload of its own still makes one class with a
 * lowered run's, and a grid one weight apart does not.
 */
TEST(RunBatched, EqualGridsInSeparatePayloadsShareAClass)
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 1;
    const BankGridConfig grid{2, 2, {0.4, 0.3, 0.2, 0.1}};
    cfg.bankGrid = grid;
    auto runs = classRuns(cfg, workloadMix("W1"), {"No-limit", "DTM-TS"});
    ASSERT_EQ(runs[0].cfg.bankGrid.get(), runs[1].cfg.bankGrid.get());
    runs[1].cfg.bankGrid = BankGridConfig{grid};
    EXPECT_NE(runs[0].cfg.bankGrid.get(), runs[1].cfg.bankGrid.get());
    EXPECT_TRUE(runs[0].cfg == runs[1].cfg);

    ExperimentEngine engine(1);
    TestSink sink(2);
    engine.runBatched(runs, {{0, 2}}, 2, sink, nullptr);
    ASSERT_TRUE(sink.ok[0] && sink.ok[1]);
    expectIdentical(sink.results[1], simulateAlone(runs[1]));

    BankGridConfig other = grid;
    other.weights[3] = 0.1 + 1e-12;
    runs[1].cfg.bankGrid = other;
    EXPECT_FALSE(runs[0].cfg == runs[1].cfg);
    EXPECT_THROW(engine.runBatched(runs, {{0, 2}}, 2, sink, nullptr),
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

/**
 * Classes follow config content: PE1950's runs of one workload share
 * one config, while SR1500AL's "No-limit" run moves to a 26 C room
 * ambient and is a class of its own.
 */
TEST(Scenario, PlatformClassesFollowConfigContent)
{
    ScenarioSpec spec;
    spec.name = "plat";
    spec.workloads = {"W1"};
    spec.policies = {"No-limit", "DTM-BW", "DTM-ACG"};
    spec.copiesPerApp = 1;

    spec.platform = "SR1500AL";
    LoweredScenario low = spec.lower();
    ASSERT_EQ(low.classes.size(), 2u);
    EXPECT_EQ(low.classes[0].first, 0u);
    EXPECT_EQ(low.classes[0].count, 1u);
    EXPECT_EQ(low.classes[1].first, 1u);
    EXPECT_EQ(low.classes[1].count, 2u);

    spec.platform = "PE1950";
    low = spec.lower();
    ASSERT_EQ(low.classes.size(), 1u);
    EXPECT_EQ(low.classes[0].count, 3u);
}

/**
 * The Chapter 5 paper grids: 8 workloads x 5 policies lower to 8
 * classes on PE1950 and 16 on SR1500AL, with equal configs inside each
 * class and a config change at every boundary inside one workload.
 */
TEST(Scenario, PaperPlatformGridsLowerToContentClasses)
{
    const std::string dir =
        std::string(MEMTHERM_SOURCE_DIR) + "/examples/scenarios/paper/";
    for (const auto &[name, want] :
         {std::pair<std::string, std::size_t>{"ch5_pe1950", 8},
          {"ch5_sr1500al", 16}}) {
        const LoweredScenario low =
            ScenarioSpec::load(dir + name + ".json").lower();
        std::vector<const ExperimentEngine::Run *> runs;
        for (const auto &pt : low.points)
            for (const auto &r : pt.runs)
                runs.push_back(&r);
        ASSERT_EQ(runs.size(), 40u) << name;
        EXPECT_EQ(low.classes.size(), want) << name;
        for (const auto &c : low.classes) {
            for (std::size_t i = c.first + 1; i < c.first + c.count; ++i) {
                EXPECT_TRUE(runs[i]->cfg == runs[c.first]->cfg) << name;
                EXPECT_EQ(runs[i]->workload.name,
                          runs[c.first]->workload.name)
                    << name;
            }
            const std::size_t next = c.first + c.count;
            if (next < runs.size() &&
                runs[next]->workload.name == runs[c.first]->workload.name) {
                EXPECT_FALSE(runs[next]->cfg == runs[c.first]->cfg) << name;
            }
        }
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
    ScenarioResults scalar = runScenarioBatched(spec, engine, 1);
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

/**
 * runScenario() picks its chunk width from the grid and the engine;
 * whatever it picks, every example scenario and both Chapter 5 paper
 * grids (at one copy) serialize byte for byte like the scalar
 * reference, at 1 thread (whole classes) and 4 (split classes).
 */
TEST(Scenario, RunScenarioMatchesScalarOnEveryExample)
{
    namespace fs = std::filesystem;
    const fs::path root = fs::path(MEMTHERM_SOURCE_DIR) / "examples" /
                          "scenarios";
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(root))
        if (entry.path().extension() == ".json")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    ASSERT_GE(files.size(), 11u);
    files.push_back(root / "paper" / "ch5_pe1950.json");
    files.push_back(root / "paper" / "ch5_sr1500al.json");

    ExperimentEngine one(1), four(4);
    for (const fs::path &f : files) {
        ScenarioSpec spec = ScenarioSpec::load(f.string());
        if (f.parent_path().filename() == "paper") {
            spec.copiesPerApp = 1;
            spec.sweepCopies.clear();
        }
        const std::string scalar =
            toJson(runScenarioBatched(spec, one, 1), true).dump();
        EXPECT_EQ(toJson(runScenario(spec, one), true).dump(), scalar)
            << f.filename() << " at 1 thread";
        EXPECT_EQ(toJson(runScenario(spec, four), true).dump(), scalar)
            << f.filename() << " at 4 threads";
    }
}

/**
 * The level-1 solve's work count. On ch4_baseline and policy_sweep at
 * one copy, a solve averages at most 3.6 demand passes, the fill pass
 * included: 3/4 of the 4.83 and 4.90 the cold-started solver made (a
 * pass at the idle latency, 2.8 Newton iterations, the fill). Starting
 * from the run's previous root, it makes 3.01 on both (gcc 12); the
 * bound leaves room for FP contraction on other compilers.
 */
TEST(Scenario, WarmStartedSolvesMakeFewerDemandPasses)
{
    const std::string dir =
        std::string(MEMTHERM_SOURCE_DIR) + "/examples/scenarios/";
    ExperimentEngine engine(1);
    for (const char *name : {"ch4_baseline", "policy_sweep"}) {
        ScenarioSpec spec = ScenarioSpec::load(dir + name + ".json");
        spec.copiesPerApp = 1;
        spec.sweepCopies.clear();
        BatchStats stats;
        runScenario(spec, engine, &stats);
        EXPECT_GT(stats.demandPasses, stats.simulatedWindows) << name;
        EXPECT_LT(stats.passesPerSolve(), 3.6) << name;
    }
}

/**
 * A fork carries the run's previous level-1 root: a lane's copy holds
 * the source's root, so the fork's next solve starts where the source's
 * would. The whole-run pins above compare outputs, which a lost root
 * moves only at rounding, if at all.
 */
TEST(RunBatch, ForkCopiesThePreviousLevel1Root)
{
    const SimConfig cfg = batchyConfig();
    ThermalSimulator::Lane lane(cfg, workloadMix("W1"));
    EXPECT_EQ(lane.perfLatencyNs, 0.0); // the first solve starts cold
    lane.perfLatencyNs = 131.25;
    const ThermalSimulator::Lane fork(lane);
    EXPECT_EQ(fork.perfLatencyNs, 131.25);
    ASSERT_EQ(fork.slot.size(), lane.slot.size());
    for (std::size_t i = 0; i < lane.slot.size(); ++i)
        EXPECT_EQ(fork.batch.indexOf(fork.slot[i]),
                  lane.batch.indexOf(lane.slot[i]));
}

} // namespace
} // namespace memtherm
