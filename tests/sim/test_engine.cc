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

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "core/sim/engine.hh"

#include "../common/result_identity.hh"

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
 * helpers start and the rest get no stack, then run a batch that asks
 * for 1000 threads: 1000 one-lane runs whose policy factory throws, so
 * each chunk ends at once. Exits 3 on the FatalError, 0 if every thread
 * started. (Unused under ASan, whose shadow memory does not fit the
 * cap.)
 */
[[noreturn, maybe_unused]] void
startThreadsUnderAddressCap()
{
    const PolicyFactory refuse = [](const SimConfig &, const std::string &)
        -> std::unique_ptr<DtmPolicy> { throw FatalError("no policy"); };
    const std::vector<ExperimentEngine::Run> runs(
        1000, {smallConfig(), workloadMix("W1"), "refused", refuse});
    ExperimentEngine engine(1000);
    RecordingSink sink;

    long pages = 0;
    std::ifstream("/proc/self/statm") >> pages;
    const rlim_t cap =
        static_cast<rlim_t>(pages * sysconf(_SC_PAGESIZE)) + (64 << 20);
    const rlimit limit{cap, cap};
    setrlimit(RLIMIT_AS, &limit);
    // A join that never returns would hang the death test; end that case
    // too.
    alarm(20);
    try {
        engine.run(runs, sink);
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
    // The batch must join the helpers it started and report the count:
    // destroying a joinable std::thread would abort instead.
    EXPECT_EXIT(startThreadsUnderAddressCap(), ::testing::ExitedWithCode(3),
                "engine: cannot start 1000 worker threads \\([0-9]+ "
                "started\\)");
#endif
}

/** The process's thread count (`Threads:` in /proc/self/status). */
std::optional<int>
processThreads()
{
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("Threads:", 0) == 0)
            return std::stoi(line.substr(8));
    return std::nullopt;
}

/**
 * processThreads() once it holds still: a joined thread is counted until
 * the kernel reaps it, a moment after the join returns.
 */
std::optional<int>
settledThreads()
{
    std::optional<int> n = processThreads();
    for (int tries = 0; tries < 1000; ++tries) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const std::optional<int> again = processThreads();
        if (again == n)
            break;
        n = again;
    }
    return n;
}

/** Records the process's thread count, and the thread, at each result. */
class ThreadCountingSink : public RunSink
{
  public:
    void onResult(std::size_t, SimResult &&, double) override
    {
        counts.push_back(processThreads().value_or(-1));
        callers.push_back(std::this_thread::get_id());
    }

    void onFailure(std::size_t, std::exception_ptr) override
    {
        ADD_FAILURE() << "no run may fail";
    }

    std::vector<int> counts;
    std::vector<std::thread::id> callers;
};

TEST(ExperimentEngine, ThreadsStartOnlyForABatchsChunks)
{
    // ThreadSanitizer starts a thread of its own with the first user
    // thread; start one here so that it counts as idle.
    std::thread([] {}).join();
    const std::optional<int> idle = settledThreads();
    if (!idle)
        GTEST_SKIP() << "no Threads: line in /proc/self/status";
    ASSERT_LE(*idle, 56); // so every count below stays <= 64

    // Building the engine starts nothing; its threads belong to a batch.
    ExperimentEngine engine(8);
    EXPECT_EQ(processThreads(), idle);

    // An empty run list has no chunk to start a thread for.
    ThreadCountingSink none;
    engine.run({}, none);
    EXPECT_TRUE(none.counts.empty());
    EXPECT_EQ(processThreads(), idle);

    SimConfig cfg = smallConfig();
    cfg.copiesPerApp = 1;
    const Workload w1 = workloadMix("W1");

    // One chunk runs on the calling thread alone.
    ThreadCountingSink one;
    engine.run({{cfg, w1, "No-limit", {}}}, one);
    ASSERT_EQ(one.counts.size(), 1u);
    EXPECT_EQ(one.counts[0], *idle);
    EXPECT_EQ(one.callers[0], std::this_thread::get_id());

    // Two chunks: the calling thread and at most one helper, gone once
    // the call returns.
    ThreadCountingSink two;
    engine.run({{cfg, w1, "No-limit", {}}, {cfg, w1, "DTM-TS", {}}}, two);
    ASSERT_EQ(two.counts.size(), 2u);
    for (int n : two.counts)
        EXPECT_LE(n, *idle + 1);
    EXPECT_EQ(settledThreads(), idle);
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

    // A four-thread engine and a one-thread engine both agree.
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
    // One thread executes both runs back to back with one Scratch; a
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
