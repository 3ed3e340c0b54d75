/**
 * @file
 * Property tests over the (workload x policy x cooling) grid: every DTM
 * policy must keep the system near or below its thermal design points,
 * conserve the batch's instruction volume, and complete. Sensor-noise
 * injection checks robustness of the decision loop. The RC step itself
 * is checked against its closed form (Eq. 3.5) over seeded random time
 * steps and time constants.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/sim/experiment.hh"
#include "core/thermal/ambient_model.hh"
#include "core/thermal/thermal_batch.hh"

namespace memtherm
{
namespace
{

SimConfig
gridConfig(bool aohs)
{
    SimConfig cfg = makeCh4Config(aohs ? coolingAohs15() : coolingFdhs10(),
                                  false);
    cfg.copiesPerApp = 3;
    return cfg;
}

using GridParam = std::tuple<std::string, std::string, bool>;

class PolicyGrid : public ::testing::TestWithParam<GridParam>
{
};

TEST_P(PolicyGrid, SafetyConservationCompletion)
{
    auto [workload, policy_name, aohs] = GetParam();
    SimConfig cfg = gridConfig(aohs);
    ThermalSimulator sim(cfg);
    Workload w = workloadMix(workload);

    auto base_policy = makeCh4Policy("No-limit");
    auto policy = makeCh4Policy(policy_name);
    SimResult base = sim.run(w, *base_policy);
    SimResult r = sim.run(w, *policy);

    // Completion.
    ASSERT_TRUE(r.completed);
    // Conservation: the batch executes the same instruction volume under
    // any policy (within the retirement-granularity slack of one window).
    EXPECT_NEAR(r.totalInstr, base.totalInstr, 0.01 * base.totalInstr);
    // Thermal safety: one DTM interval of inertia past the trigger is
    // the worst case; beyond that the policy failed.
    EXPECT_LE(r.maxAmb, cfg.limits.ambTdp + 0.1);
    EXPECT_LE(r.maxDram, cfg.limits.dramTdp + 0.1);
    // A thermally constrained policy can't beat no-limit by more than
    // the cache-contention bonus allows.
    EXPECT_GT(r.runningTime, 0.85 * base.runningTime);
    // Energy accounting is positive and consistent.
    EXPECT_GT(r.memEnergy, 0.0);
    EXPECT_GT(r.cpuEnergy, 0.0);
    EXPECT_GE(r.avgBandwidth(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Ch4, PolicyGrid,
    ::testing::Combine(::testing::Values("W1", "W4", "W6", "W8"),
                       ::testing::Values("DTM-TS", "DTM-BW", "DTM-ACG",
                                         "DTM-CDVFS", "DTM-ACG+PID",
                                         "DTM-CDVFS+PID"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<GridParam> &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           std::get<1>(info.param) +
                           (std::get<2>(info.param) ? "_AOHS" : "_FDHS");
        for (char &c : name)
            if (c == '-' || c == '+')
                c = '_';
        return name;
    });

/**
 * Eq. 3.5 in closed form: after holding the stable temperature at
 * @p t_inf for @p dt, a node that started at @p t0 sits at
 * T_inf + (T0 - T_inf) e^(-dt/tau). Evaluated in long double so the
 * oracle does not share the simulator's rounding.
 */
double
closedFormStep(double t0, double t_inf, double dt, double tau)
{
    using ld = long double;
    const ld e = std::exp(-static_cast<ld>(dt) / static_cast<ld>(tau));
    return static_cast<double>(t_inf + (static_cast<ld>(t0) - t_inf) * e);
}

/** Log-uniform draw in [lo, hi): time steps and constants span decades. */
double
logUniform(Rng &rng, double lo, double hi)
{
    return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

void
expectRelNear(double got, double want)
{
    EXPECT_NEAR(got, want, 1e-12 * std::abs(want));
}

TEST(ClosedFormRcStep, OneLaneStepMatchesExponential)
{
    Rng rng(20261017);
    for (int trial = 0; trial < 500; ++trial) {
        const int dimms = 1 + static_cast<int>(rng.below(8));
        const int cells = static_cast<int>(rng.below(4));
        const Seconds tau_amb = logUniform(rng, 1e-3, 1e3);
        const Seconds tau_dram = logUniform(rng, 1e-3, 1e3);
        const Seconds dt = logUniform(rng, 1e-6, 1e4);
        const Celsius t0 = rng.uniform(20.0, 130.0);

        std::vector<int> hull_start;
        for (int d = 0; cells > 0 && d <= dimms; ++d)
            hull_start.push_back(d * cells);
        ThermalState st(dimms, hull_start);
        st.reset(tau_amb, tau_dram, t0);
        std::vector<double> amb_inf(dimms), dram_inf(dimms);
        std::vector<double> spread_inf(dimms);
        for (int i = 0; i < dimms; ++i) {
            st.stableAmb[i] = amb_inf[i] = rng.uniform(20.0, 130.0);
            st.stableDram[i] = dram_inf[i] = rng.uniform(20.0, 130.0);
        }
        if (cells > 0)
            for (int i = 0; i < dimms; ++i)
                st.stableSpread[i] = spread_inf[i] = rng.uniform(0.0, 40.0);
        st.ensureDecay(dt);
        st.advance();

        for (int i = 0; i < dimms; ++i) {
            expectRelNear(st.amb[i],
                          closedFormStep(t0, amb_inf[i], dt, tau_amb));
            expectRelNear(st.dram[i],
                          closedFormStep(t0, dram_inf[i], dt, tau_dram));
        }
        // The bank spread shares the DRAM node's time constant, from 0;
        // so a cell of slope s, D + s·V, takes the exact step from t0
        // towards its own target, dram_inf + s·spread_inf.
        for (int i = 0; i < dimms && cells > 0; ++i) {
            const double v = st.spread[i];
            // From 0, a 1 - exp(-dt / tau) near 0 carries rounding
            // relative to the target, not to V.
            EXPECT_NEAR(v, closedFormStep(0.0, spread_inf[i], dt, tau_dram),
                        1e-12 * spread_inf[i]);
            for (int c = 0; c < cells; ++c) {
                const double s = rng.uniform(-1.0, 3.0);
                expectRelNear(st.dram[i] + s * v,
                              closedFormStep(t0, dram_inf[i] +
                                                     s * spread_inf[i],
                                             dt, tau_dram));
            }
        }
    }
}

TEST(ClosedFormRcStep, IntegratedAmbientStepMatchesExponential)
{
    Rng rng(20261018);
    for (int trial = 0; trial < 500; ++trial) {
        AmbientParams p;
        p.tInlet = rng.uniform(20.0, 60.0);
        p.psiCpuMemXi = rng.uniform(0.5, 5.0);
        p.psiCpuPower = rng.uniform(0.0, 0.1);
        p.tauCpuDram = logUniform(rng, 1e-3, 1e3);
        const double sum_v_ipc = rng.uniform(0.0, 8.0);
        const Watts cpu_power = rng.uniform(0.0, 200.0);
        const Seconds dt = logUniform(rng, 1e-6, 1e4);

        AmbientModel m(p);
        const Celsius got = m.advance(sum_v_ipc, cpu_power, dt);
        const long double t_inf =
            static_cast<long double>(p.tInlet) +
            static_cast<long double>(p.psiCpuMemXi) * sum_v_ipc +
            static_cast<long double>(p.psiCpuPower) * cpu_power;
        expectRelNear(got,
                      closedFormStep(p.tInlet, static_cast<double>(t_inf),
                                     dt, p.tauCpuDram));
        EXPECT_EQ(got, m.temperature());
    }
}

TEST(SensorNoise, PolicyStaysSafeWithNoisySensors)
{
    // Failure injection: quantized, noisy sensors (as on the real AMBs)
    // must not break thermal safety — at most a small excursion over the
    // TDP bounded by the noise amplitude.
    SimConfig cfg = gridConfig(true);
    cfg.sensorNoiseSigma = 0.5;
    cfg.sensorQuant = 0.5;
    ThermalSimulator sim(cfg);
    for (const char *name : {"DTM-BW", "DTM-ACG+PID"}) {
        auto policy = makeCh4Policy(name);
        SimResult r = sim.run(workloadMix("W1"), *policy);
        EXPECT_TRUE(r.completed) << name;
        EXPECT_LE(r.maxAmb, cfg.limits.ambTdp + 3.0 * 0.5) << name;
    }
}

TEST(SensorNoise, DifferentSeedsDifferentRuns)
{
    SimConfig cfg = gridConfig(true);
    cfg.sensorNoiseSigma = 0.5;
    ThermalSimulator sim1(cfg);
    cfg.sensorSeed = 1234;
    ThermalSimulator sim2(cfg);
    auto p1 = makeCh4Policy("DTM-BW");
    auto p2 = makeCh4Policy("DTM-BW");
    SimResult a = sim1.run(workloadMix("W1"), *p1);
    SimResult b = sim2.run(workloadMix("W1"), *p2);
    EXPECT_NE(a.runningTime, b.runningTime);
    // But both within a whisker of each other — noise must not dominate.
    EXPECT_NEAR(a.runningTime, b.runningTime, 0.05 * a.runningTime);
}

TEST(DtmIntervalProperty, ResultsStableAcrossReasonableIntervals)
{
    // Fig. 4.11's premise: 10/20/100 ms intervals agree within a few
    // percent (the thermal time constants are tens of seconds).
    SimConfig base = gridConfig(true);
    std::vector<double> times;
    for (Seconds itv : {0.01, 0.02, 0.1}) {
        SimConfig cfg = base;
        cfg.dtmInterval = itv;
        ThermalSimulator sim(cfg);
        auto policy = makeCh4Policy("DTM-BW");
        times.push_back(sim.run(workloadMix("W2"), *policy).runningTime);
    }
    for (double t : times)
        EXPECT_NEAR(t, times[0], 0.04 * times[0]);
}

TEST(BatchTail, FewerThanFourAppsAtTheEnd)
{
    // Section 5.3.2: at the end of a batch fewer than four applications
    // run; the simulator must wind down rather than stall.
    SimConfig cfg = gridConfig(true);
    cfg.copiesPerApp = 1;
    ThermalSimulator sim(cfg);
    auto policy = makeCh4Policy("No-limit");
    SimResult r = sim.run(workloadMix("W5"), *policy);
    EXPECT_TRUE(r.completed);
}

TEST(Extremes, SingleCorePlatform)
{
    SimConfig cfg = gridConfig(true);
    cfg.nCores = 1;
    ThermalSimulator sim(cfg);
    auto policy = makeCh4Policy("DTM-TS");
    SimResult r = sim.run(workloadMix("W1"), *policy);
    EXPECT_TRUE(r.completed);
    EXPECT_LE(r.maxAmb, cfg.limits.ambTdp + 0.1);
}

TEST(Extremes, TinyThermalHeadroom)
{
    // An almost-impossible envelope: correctness (no TDP breach), even
    // if progress is slow.
    SimConfig cfg = gridConfig(true);
    cfg.copiesPerApp = 1;
    cfg.instrScale = 0.3;
    cfg.ambient.tInlet = 58.0;
    cfg.maxSimTime = 3000.0;
    ThermalSimulator sim(cfg);
    auto policy = makeCh4Policy("DTM-ACG");
    SimResult r = sim.run(workloadMix("W8"), *policy);
    EXPECT_LE(r.maxAmb, cfg.limits.ambTdp + 0.1);
}

} // namespace
} // namespace memtherm
