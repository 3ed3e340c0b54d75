/**
 * @file
 * Unit and property tests for the analytic performance model, plus a
 * differential test of the solver against a bisection reference (the
 * PerfModelOracle suite, run as the `test_perf_model_oracle` ctest under
 * the `property` label).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "cpu/perf_model.hh"

namespace memtherm
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

CoreTask
streamTask()
{
    CoreTask t;
    t.cpiCore = 0.6;
    t.mpki = 40.0;
    t.writeFrac = 0.4;
    t.specFrac = 0.1;
    t.mlpOverlap = 0.84;
    return t;
}

CoreTask
computeTask()
{
    CoreTask t;
    t.cpiCore = 0.8;
    t.mpki = 0.2;
    t.writeFrac = 0.2;
    t.specFrac = 0.05;
    t.mlpOverlap = 0.5;
    return t;
}

TEST(PerfModel, EmptyTaskList)
{
    WindowPerf p = solvePerfWindow({}, 3.2, 3.2, kInf, {});
    EXPECT_TRUE(p.ips.empty());
    EXPECT_DOUBLE_EQ(p.totalRead + p.totalWrite, 0.0);
}

TEST(PerfModel, SingleTaskUnsaturated)
{
    MemSystemPerf mem;
    WindowPerf p = solvePerfWindow({streamTask()}, 3.2, 3.2, kInf, mem);
    ASSERT_EQ(p.ips.size(), 1u);
    EXPECT_GT(p.ips[0], 0.5e9);
    EXPECT_FALSE(p.saturated);
    // Latency stays near idle at low utilization.
    EXPECT_LT(p.latencyNs, mem.idleLatencyNs * 1.2);
}

TEST(PerfModel, ReadWriteSplitMatchesWriteFrac)
{
    CoreTask t = streamTask();
    t.specFrac = 0.0;
    WindowPerf p = solvePerfWindow({t}, 3.2, 3.2, kInf, {});
    EXPECT_NEAR(p.totalWrite / p.totalRead, t.writeFrac, 1e-9);
}

TEST(PerfModel, FourTasksSaturateChannel)
{
    MemSystemPerf mem;
    std::vector<CoreTask> tasks(4, streamTask());
    for (auto &t : tasks)
        t.mpki = 120.0;
    WindowPerf p = solvePerfWindow(tasks, 3.2, 3.2, kInf, mem);
    EXPECT_TRUE(p.saturated);
    double total = p.totalRead + p.totalWrite;
    EXPECT_LE(total, mem.peakBandwidth * mem.maxUtilization + 1e-6);
    // The queueing knee is soft: delivery approaches the cap from below.
    EXPECT_GT(total, mem.peakBandwidth * mem.maxUtilization * 0.85);
}

TEST(PerfModel, HardCapRespected)
{
    std::vector<CoreTask> tasks(4, streamTask());
    WindowPerf p = solvePerfWindow(tasks, 3.2, 3.2, 6.4, {});
    EXPECT_LE(p.totalRead + p.totalWrite, 6.4 + 1e-9);
    EXPECT_TRUE(p.saturated);
}

TEST(PerfModel, ThroughputMonotoneInCap)
{
    // Delivered throughput must be continuous and non-decreasing in the
    // cap — the regression that motivated the queueing fixed point.
    std::vector<CoreTask> tasks(4, streamTask());
    double prev = 0.0;
    for (double cap = 2.0; cap < 26.0; cap += 0.5) {
        WindowPerf p = solvePerfWindow(tasks, 3.2, 3.2, cap, {});
        double total = p.totalRead + p.totalWrite;
        EXPECT_GE(total, prev - 1e-6) << "cap " << cap;
        prev = total;
    }
}

TEST(PerfModel, ComputeTaskKeepsRateUnderContention)
{
    // A compute-bound task shares the window with three heavy streamers;
    // the streamers absorb the queueing latency.
    MemSystemPerf mem;
    std::vector<CoreTask> tasks(3, streamTask());
    for (auto &t : tasks)
        t.mpki = 60.0;
    tasks.push_back(computeTask());
    WindowPerf p = solvePerfWindow(tasks, 3.2, 3.2, 6.4, mem);
    WindowPerf solo = solvePerfWindow({computeTask()}, 3.2, 3.2, kInf, mem);
    EXPECT_GT(p.ips[3], 0.8 * solo.ips[0]);
    // Streamers lose far more.
    WindowPerf stream_solo =
        solvePerfWindow({tasks[0]}, 3.2, 3.2, kInf, mem);
    EXPECT_LT(p.ips[0], 0.5 * stream_solo.ips[0]);
}

TEST(PerfModel, MemoryOffStopsMissingTasks)
{
    std::vector<CoreTask> tasks{streamTask(), computeTask()};
    tasks[1].mpki = 0.0;
    WindowPerf p = solvePerfWindow(tasks, 3.2, 3.2, 0.0, {});
    EXPECT_DOUBLE_EQ(p.ips[0], 0.0);
    EXPECT_GT(p.ips[1], 0.0); // pure-compute task keeps running
    EXPECT_DOUBLE_EQ(p.totalRead + p.totalWrite, 0.0);
}

TEST(PerfModel, LowerFrequencyLowersDemand)
{
    std::vector<CoreTask> tasks(4, streamTask());
    WindowPerf fast = solvePerfWindow(tasks, 3.2, 3.2, kInf, {});
    WindowPerf slow = solvePerfWindow(tasks, 0.8, 3.2, kInf, {});
    EXPECT_LT(slow.totalRead + slow.totalWrite,
              fast.totalRead + fast.totalWrite);
    // ... but memory-bound work degrades sub-linearly with frequency.
    EXPECT_GT(slow.ips[0], 0.4 * fast.ips[0]);
}

TEST(PerfModel, SpeculativeTrafficScalesWithFrequency)
{
    CoreTask t = streamTask();
    t.writeFrac = 0.0;
    WindowPerf fast = solvePerfWindow({t}, 3.2, 3.2, kInf, {});
    WindowPerf slow = solvePerfWindow({t}, 1.6, 3.2, kInf, {});
    double fast_bpi = fast.totalRead * 1e9 / fast.ips[0];
    double slow_bpi = slow.totalRead * 1e9 / slow.ips[0];
    // Bytes per instruction shrink at lower frequency (fewer speculative
    // fetches) — the DTM-CDVFS traffic-reduction mechanism (Sec. 4.4.2).
    EXPECT_LT(slow_bpi, fast_bpi);
    EXPECT_NEAR(fast_bpi / slow_bpi, (1.0 + 0.1) / (1.0 + 0.05), 1e-6);
}

TEST(PerfModel, HigherMpkiMeansMoreTraffic)
{
    CoreTask lo = streamTask(), hi = streamTask();
    hi.mpki = lo.mpki * 2.0;
    WindowPerf a = solvePerfWindow({lo}, 3.2, 3.2, kInf, {});
    WindowPerf b = solvePerfWindow({hi}, 3.2, 3.2, kInf, {});
    EXPECT_GT(b.totalRead, a.totalRead);
    EXPECT_LT(b.ips[0], a.ips[0]);
}

TEST(PerfModel, InvalidArgsPanic)
{
    EXPECT_THROW(solvePerfWindow({streamTask()}, 0.0, 3.2, kInf, {}),
                 PanicError);
    EXPECT_THROW(solvePerfWindow({streamTask()}, 3.2, 1.6, kInf, {}),
                 PanicError);
    EXPECT_THROW(solvePerfWindow({streamTask()}, 3.2, 3.2, -1.0, {}),
                 PanicError);
}

/**
 * Property sweep: conservation — per-task traffic sums to the totals —
 * and positivity across a grid of operating points.
 */
class PerfSweep : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(PerfSweep, ConservationAndBounds)
{
    auto [freq, cap] = GetParam();
    std::vector<CoreTask> tasks{streamTask(), streamTask(), computeTask(),
                                streamTask()};
    WindowPerf p = solvePerfWindow(tasks, freq, 3.2, cap, {});
    double sum = 0.0;
    for (GBps t : p.taskTraffic)
        sum += t;
    EXPECT_NEAR(sum, p.totalRead + p.totalWrite, 1e-9);
    for (double ips : p.ips) {
        EXPECT_GE(ips, 0.0);
        EXPECT_LT(ips, freq * 1e9 / 0.4); // bounded by core CPI
    }
    EXPECT_LE(p.totalRead + p.totalWrite, std::min(cap, 21.3) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PerfSweep,
    ::testing::Combine(::testing::Values(0.8, 1.6, 2.8, 3.2),
                       ::testing::Values(3.2, 6.4, 12.8, 19.2, 25.6)));

/**
 * Reference solver for the differential test below: the original
 * algorithm, which doubles an upper bracket until it holds the queueing
 * fixed point and then runs 60 fixed bisection steps, re-evaluating every
 * task's demand at each step.
 */
WindowPerf
bisectionReference(const std::vector<CoreTask> &tasks, GHz freq, GHz fmax,
                   GBps cap, const MemSystemPerf &mem)
{
    struct Demand
    {
        double ips;
        GBps read;
        GBps write;
    };
    auto task_demand = [&](const CoreTask &t, double latency_ns) {
        double stall_cpi =
            t.mpki / 1000.0 * latency_ns * freq * (1.0 - t.mlpOverlap);
        Demand d;
        d.ips = freq * 1e9 / (t.cpiCore + stall_cpi);
        double miss_rate = d.ips * t.mpki / 1000.0;
        double spec = t.specFrac * (freq / fmax);
        d.read = miss_rate * mem.lineBytes * (1.0 + spec) / bytesPerGB;
        d.write = miss_rate * mem.lineBytes * t.writeFrac / bytesPerGB;
        return d;
    };
    auto total_demand = [&](double latency_ns) {
        GBps total = 0.0;
        for (const auto &t : tasks) {
            Demand d = task_demand(t, latency_ns);
            total += d.read + d.write;
        }
        return total;
    };

    WindowPerf out;
    if (tasks.empty())
        return out;
    GBps cap_eff = std::min(cap, mem.peakBandwidth * mem.maxUtilization);
    if (cap_eff <= 1e-9) {
        out.latencyNs = kInf;
        out.saturated = true;
        for (const auto &t : tasks) {
            out.ips.push_back(t.mpki <= 0.0 ? freq * 1e9 / t.cpiCore : 0.0);
            out.taskTraffic.push_back(0.0);
        }
        return out;
    }

    const double l0 = mem.idleLatencyNs;
    const double qk = mem.queueFactor;
    const double rho_max = 0.9999;
    auto implied = [&](double latency) {
        double rho = std::min(total_demand(latency) / cap_eff, rho_max);
        return l0 * (1.0 + qk * rho / (1.0 - rho));
    };
    double lo = l0;
    double hi = std::max(l0 * 2.0, implied(l0));
    while (hi < implied(hi) && hi < l0 * 1e7)
        hi *= 2.0;
    for (int i = 0; i < 60; ++i) {
        double mid = 0.5 * (lo + hi);
        if (mid < implied(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    out.latencyNs = hi;
    out.saturated = total_demand(hi) / cap_eff > 0.85;
    for (const auto &t : tasks) {
        Demand d = task_demand(t, hi);
        out.ips.push_back(d.ips);
        out.taskTraffic.push_back(d.read + d.write);
        out.totalRead += d.read;
        out.totalWrite += d.write;
    }
    return out;
}

/** |a - b| within @p rel of the larger magnitude (exact when both are 0). */
::testing::AssertionResult
relNear(const char *what, double a, double b, double rel = 1e-12)
{
    if (std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b)))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << what << ": " << a << " vs reference " << b << " (rel diff "
           << std::abs(a - b) / std::max(std::abs(a), std::abs(b)) << ")";
}

/**
 * Differential property: over seeded random task sets, operating points,
 * DTM caps and refresh-derated memory systems, the Newton solver agrees
 * with the bisection reference to 1e-12 relative in every output, decides
 * `saturated` identically, and reproduces the shut-down path exactly.
 */
TEST(PerfModelOracle, NewtonMatchesBisectionReference)
{
    const double caps[] = {kInf, 0.0, 1e-6, 0.5, 6.4, 19.2};
    const GHz fmax = 3.2;
    Rng rng(0x5eed0f1e7ULL);
    WindowPerf got;
    for (int n = 0; n < 20000; ++n) {
        SCOPED_TRACE("case " + std::to_string(n));
        std::vector<CoreTask> tasks(1 + rng.below(8));
        for (auto &t : tasks) {
            t.cpiCore = rng.uniform(0.3, 2.0);
            t.mpki = rng.uniform() < 0.15 ? 0.0 : rng.uniform(0.0, 150.0);
            t.writeFrac = rng.uniform(0.0, 0.6);
            t.specFrac = rng.uniform(0.0, 0.3);
            t.mlpOverlap = rng.uniform(0.0, 0.99);
        }
        GHz freq = rng.uniform() < 0.5 ? fmax : rng.uniform(0.4, fmax);
        GBps cap = caps[rng.below(std::size(caps))];
        // The refresh derate: bandwidth lost to refresh and AL-DRAM
        // latency multipliers scale the memory system every window.
        MemSystemPerf mem;
        if (rng.uniform() < 0.5) {
            mem.peakBandwidth *= 1.0 - rng.uniform(0.0, 0.1);
            mem.idleLatencyNs *= rng.uniform(0.85, 1.0);
        }

        WindowPerf want = bisectionReference(tasks, freq, fmax, cap, mem);
        solvePerfWindow(tasks, freq, fmax, cap, mem, got);
        ASSERT_EQ(got.ips.size(), tasks.size());
        ASSERT_EQ(got.taskTraffic.size(), tasks.size());
        ASSERT_EQ(got.saturated, want.saturated);
        if (std::isinf(want.latencyNs)) {
            // Shut-down path: bit-exact.
            EXPECT_EQ(got.latencyNs, want.latencyNs);
            EXPECT_EQ(got.ips, want.ips);
            EXPECT_EQ(got.taskTraffic, want.taskTraffic);
            EXPECT_EQ(got.totalRead, 0.0);
            EXPECT_EQ(got.totalWrite, 0.0);
            continue;
        }
        ASSERT_TRUE(relNear("latencyNs", got.latencyNs, want.latencyNs));
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            ASSERT_TRUE(relNear("ips", got.ips[i], want.ips[i]));
            ASSERT_TRUE(
                relNear("taskTraffic", got.taskTraffic[i], want.taskTraffic[i]));
        }
        ASSERT_TRUE(relNear("totalRead", got.totalRead, want.totalRead));
        ASSERT_TRUE(relNear("totalWrite", got.totalWrite, want.totalWrite));
    }
}

} // namespace
} // namespace memtherm
