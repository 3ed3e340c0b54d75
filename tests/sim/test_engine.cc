/**
 * @file
 * Unit tests for the parallel ExperimentEngine: thread-count resolution,
 * bit-exact determinism of parallel vs. serial execution, the RunSink
 * contract, and a golden-value regression pinning single-run results to
 * the seed model.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common/logging.hh"
#include "core/sim/engine.hh"

namespace memtherm
{
namespace
{

/** Small Chapter 4 setup shared by the engine tests. */
SimConfig
smallConfig()
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 2;
    return cfg;
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
    EXPECT_EQ(a.ambTrace.values(), b.ambTrace.values());
    EXPECT_EQ(a.dramTrace.values(), b.dramTrace.values());
    EXPECT_EQ(a.inletTrace.values(), b.inletTrace.values());
    EXPECT_EQ(a.cpuPowerTrace.values(), b.cpuPowerTrace.values());
    EXPECT_EQ(a.bwTrace.values(), b.bwTrace.values());
}

/** Records everything the engine hands it, for the sink-contract tests. */
class RecordingSink : public RunSink
{
  public:
    void onResult(std::size_t i, SimResult &&r, double wall_s) override
    {
        results.emplace_back(i, std::move(r));
        wall.push_back(wall_s);
    }

    void onFailure(std::size_t i, std::exception_ptr err) override
    {
        failures.emplace_back(i, err);
    }

    std::vector<std::pair<std::size_t, SimResult>> results;
    std::vector<double> wall;
    std::vector<std::pair<std::size_t, std::exception_ptr>> failures;
};

/** Every run's result by index, through the engine's one dispatcher. */
std::vector<SimResult>
runAll(ExperimentEngine &engine,
       const std::vector<ExperimentEngine::Run> &runs)
{
    std::vector<ExperimentEngine::RunClass> singletons;
    for (std::size_t i = 0; i < runs.size(); ++i)
        singletons.push_back({i, 1});
    RecordingSink sink;
    engine.runBatched(runs, singletons, 1, sink);
    EXPECT_TRUE(sink.failures.empty());
    std::vector<SimResult> out(runs.size());
    for (auto &[i, r] : sink.results)
        out[i] = std::move(r);
    return out;
}

/** The reference: one run simulated on its own, without the engine. */
SimResult
simulateAlone(const ExperimentEngine::Run &r)
{
    ThermalSimulator sim(r.cfg);
    return sim.run(r.workload, *makeCh4Policy(r.policy, r.cfg.dtmInterval));
}

TEST(ExperimentEngine, ThreadCountResolution)
{
    EXPECT_EQ(ExperimentEngine(1).threads(), 1);
    EXPECT_EQ(ExperimentEngine(3).threads(), 3);
    EXPECT_GE(ExperimentEngine::defaultThreads(), 1);

    setenv("MEMTHERM_THREADS", "5", 1);
    EXPECT_EQ(ExperimentEngine::defaultThreads(), 5);
    EXPECT_EQ(ExperimentEngine(0).threads(), 5);
    EXPECT_EQ(ExperimentEngine(2).threads(), 2); // explicit wins
    unsetenv("MEMTHERM_THREADS");
}

TEST(ExperimentEngine, InvalidThreadCountsFallBackToHardware)
{
    // Each value warns and falls back to hardware concurrency: the whole
    // string must be an integer in [1, INT_MAX]. The trailing-junk count
    // differs from the fallback, so a prefix parse cannot pass.
    const char *saved = std::getenv("MEMTHERM_THREADS");
    const std::string restore = saved ? saved : "";
    unsetenv("MEMTHERM_THREADS");
    const int hw = ExperimentEngine::defaultThreads();
    for (const std::string &bad :
         {std::to_string(hw + 1) + "x", std::string("99999999999"),
          std::string("0"), std::string("-3")}) {
        setenv("MEMTHERM_THREADS", bad.c_str(), 1);
        EXPECT_EQ(ExperimentEngine::defaultThreads(), hw) << bad;
    }
    if (saved)
        setenv("MEMTHERM_THREADS", restore.c_str(), 1);
    else
        unsetenv("MEMTHERM_THREADS");
}

/**
 * Cap the address space a little above what the process maps, so a few
 * workers start and the rest get no stack, then ask for 1000 threads.
 * Exits 3 on the FatalError, 0 if every thread started. (Unused under
 * ASan, whose shadow memory does not fit the cap.)
 */
[[noreturn, maybe_unused]] void
startThreadsUnderAddressCap()
{
    long pages = 0;
    std::ifstream("/proc/self/statm") >> pages;
    const rlim_t cap =
        static_cast<rlim_t>(pages * sysconf(_SC_PAGESIZE)) + (64 << 20);
    const rlimit limit{cap, cap};
    setrlimit(RLIMIT_AS, &limit);
    // Destroying a condition variable that started workers still wait on
    // can hang instead of aborting; end that case too.
    alarm(20);
    try {
        ExperimentEngine engine(1000);
    } catch (const FatalError &e) {
        std::cerr << e.what() << std::endl;
        std::exit(3);
    }
    std::exit(0);
}

TEST(ExperimentEngine, UnstartableThreadCountIsFatalNotAnAbort)
{
#ifdef __SANITIZE_ADDRESS__
    GTEST_SKIP() << "ASan maps more address space than the cap allows";
#else
    // The constructor must join the workers it started and report the
    // count: destroying a joinable std::thread would abort instead.
    EXPECT_EXIT(startThreadsUnderAddressCap(), ::testing::ExitedWithCode(3),
                "engine: cannot start 1000 worker threads \\([0-9]+ "
                "started\\)");
#endif
}

TEST(ExperimentEngine, ParallelMatchesSerialBitExactly)
{
    SimConfig cfg = smallConfig();
    std::vector<ExperimentEngine::Run> runs;
    for (const char *w : {"W1", "W4"})
        for (const char *p : {"No-limit", "DTM-TS", "DTM-ACG+PID"})
            runs.push_back({cfg, workloadMix(w), p, {}});

    // The reference: the historical serial loop, one simulator reused
    // across runs (each run re-seeds its own sensor RNG stream from
    // cfg.sensorSeed, so run order cannot leak between results).
    ThermalSimulator sim(cfg);
    std::vector<SimResult> serial;
    for (const auto &r : runs)
        serial.push_back(
            sim.run(r.workload, *makeCh4Policy(r.policy, cfg.dtmInterval)));

    // A pooled engine and a one-thread (inline) engine both agree.
    for (int threads : {4, 1}) {
        ExperimentEngine engine(threads);
        std::vector<SimResult> got = runAll(engine, runs);
        for (std::size_t i = 0; i < runs.size(); ++i) {
            SCOPED_TRACE(std::to_string(threads) + " thread(s), " +
                         runs[i].workload.name + "/" + runs[i].policy);
            expectIdentical(got[i], serial[i]);
        }
    }
}

TEST(ExperimentEngine, ScratchReuseAcrossHeterogeneousRuns)
{
    // One worker executes both runs back to back with one Scratch; a
    // fresh engine runs them in separate batches. Any cross-run leakage
    // through the scratch buffers would diverge.
    SimConfig cfg4 = smallConfig();
    SimConfig cfg8 = smallConfig();
    cfg8.nCores = 8;
    cfg8.cpuPowerTable = TableCpuPowerModel{8};
    Workload w1 = workloadMix("W1");

    ExperimentEngine seq(1);
    std::vector<SimResult> chained = runAll(
        seq, {{cfg8, w1, "DTM-ACG", {}}, {cfg4, w1, "DTM-ACG", {}}});

    ExperimentEngine fresh1(1), fresh2(1);
    std::vector<SimResult> alone8 =
        runAll(fresh1, {{cfg8, w1, "DTM-ACG", {}}});
    std::vector<SimResult> alone4 =
        runAll(fresh2, {{cfg4, w1, "DTM-ACG", {}}});

    expectIdentical(chained[0], alone8[0]);
    expectIdentical(chained[1], alone4[0]);
}

TEST(ExperimentEngine, SinkReceivesEveryRunExactlyOnce)
{
    SimConfig cfg = smallConfig();
    Workload w1 = workloadMix("W1");
    std::vector<ExperimentEngine::Run> runs{
        {cfg, w1, "No-limit", {}},
        {cfg, w1, "DTM-BW", {}},
        {cfg, w1, "DTM-TS", {}},
    };

    ExperimentEngine engine(4);
    RecordingSink sink;
    engine.run(runs, sink);
    ASSERT_EQ(sink.results.size(), runs.size());
    EXPECT_TRUE(sink.failures.empty());

    std::vector<bool> seen(runs.size(), false);
    for (const auto &[i, r] : sink.results) {
        ASSERT_LT(i, runs.size());
        EXPECT_FALSE(seen[i]) << "index " << i << " delivered twice";
        seen[i] = true;
        SCOPED_TRACE("run " + std::to_string(i));
        expectIdentical(r, simulateAlone(runs[i]));
    }
    for (double w : sink.wall)
        EXPECT_GE(w, 0.0);
}

TEST(ExperimentEngine, SinkIsolatesPerRunFailures)
{
    SimConfig cfg = smallConfig();
    Workload w1 = workloadMix("W1");
    // Run 1 fails at policy construction; the rest must still deliver.
    std::vector<ExperimentEngine::Run> runs{
        {cfg, w1, "No-limit", {}},
        {cfg, w1, "not-a-policy", {}},
        {cfg, w1, "DTM-BW", {}},
    };

    ExperimentEngine engine(2);
    RecordingSink sink;
    engine.run(runs, sink); // must not throw
    ASSERT_EQ(sink.failures.size(), 1u);
    EXPECT_EQ(sink.failures[0].first, 1u);
    EXPECT_THROW(std::rethrow_exception(sink.failures[0].second),
                 FatalError);
    ASSERT_EQ(sink.results.size(), 2u);
}

/**
 * Golden regression: single-run results must stay bit-compatible with
 * the seed model (values captured from the pre-engine serial simulator
 * at copiesPerApp = 4). A tight relative tolerance (1e-9) guards
 * against accidental model drift while tolerating FP-contraction
 * differences across compilers.
 */
TEST(ExperimentEngine, GoldenSingleRunRegression)
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 4;
    Workload w1 = workloadMix("W1");

    struct Golden
    {
        const char *policy;
        double runningTime, totalInstr, totalReadGB, totalWriteGB;
        double totalL2Misses, memEnergy, cpuEnergy, maxAmb, maxDram;
        double timeAboveAmbTdp;
    };
    const Golden goldens[] = {
        {"No-limit", 52.839999999998057, 208073310463.33276,
         709.69764028742793, 207.86325668079581, 9920390319.6735783,
         6893.4374632337567, 13703.255000001236, 112.16090148399269,
         79.249043801909778, 15.439999999999715},
        {"DTM-ACG", 63.009999999996033, 208126113185.9162,
         637.58129234000114, 192.5737074714973, 8931736234.944952,
         7649.0557728926588, 13195.790000001522, 109.36011129133601,
         78.4633038644576, 0.0},
        {"DTM-CDVFS+PID", 65.699999999996706, 208075313472.96118,
         687.4861431146926, 206.41235944805516, 9844933639.7374935,
         8036.8237674004495, 11698.669750002215, 109.83255692828109,
         78.690995731864703, 0.0},
    };

    auto near = [](double v, double g) {
        double tol = std::abs(g) * 1e-9 + 1e-12;
        EXPECT_NEAR(v, g, tol);
    };

    ThermalSimulator sim(cfg);
    for (const Golden &g : goldens) {
        SCOPED_TRACE(g.policy);
        auto policy = makeCh4Policy(g.policy, cfg.dtmInterval);
        SimResult r = sim.run(w1, *policy);
        near(r.runningTime, g.runningTime);
        near(r.totalInstr, g.totalInstr);
        near(r.totalReadGB, g.totalReadGB);
        near(r.totalWriteGB, g.totalWriteGB);
        near(r.totalL2Misses, g.totalL2Misses);
        near(r.memEnergy, g.memEnergy);
        near(r.cpuEnergy, g.cpuEnergy);
        near(r.maxAmb, g.maxAmb);
        near(r.maxDram, g.maxDram);
        near(r.timeAboveAmbTdp, g.timeAboveAmbTdp);
    }
}

} // namespace
} // namespace memtherm
