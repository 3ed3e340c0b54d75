/**
 * @file
 * Unit tests for the DRAM-ambient model (Eq. 3.6, Table 3.3).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "core/thermal/ambient_model.hh"

namespace memtherm
{
namespace
{

TEST(AmbientModel, IsolatedIsConstant)
{
    AmbientModel m(isolatedAmbient(coolingAohs15()));
    EXPECT_FALSE(m.integrated());
    EXPECT_DOUBLE_EQ(m.temperature(), 50.0);
    // Even with furious CPU activity the isolated ambient does not move.
    m.advance(10.0, 0.0, 100.0);
    EXPECT_DOUBLE_EQ(m.temperature(), 50.0);
}

TEST(AmbientModel, Equation36Stable)
{
    AmbientModel m(integratedAmbient(coolingAohs15()));
    EXPECT_TRUE(m.integrated());
    // TA_stable = 45 + 1.5 * sum(V * IPC).
    EXPECT_NEAR(m.stable(6.2), 45.0 + 1.5 * 6.2, 1e-12);
}

TEST(AmbientModel, CpuPreheatsAirByAboutTenDegrees)
{
    // Four cores at 1.55 V and IPC ~1 preheat the cooling air by ~9 degC
    // (Section 5.4.3 reports ~10 degC on the real machine).
    AmbientModel m(integratedAmbient(coolingAohs15()));
    double sum_v_ipc = 4 * 1.55 * 1.0;
    EXPECT_NEAR(m.stable(sum_v_ipc) - 45.0, 9.3, 0.5);
}

TEST(AmbientModel, AdvanceFollowsRcDynamics)
{
    AmbientParams p = integratedAmbient(coolingAohs15());
    AmbientModel m(p);
    double sum_v_ipc = 4.0;
    // One tau: 1 - 1/e of the gap covered.
    m.advance(sum_v_ipc, 0.0, p.tauCpuDram);
    double gap = m.stable(sum_v_ipc) - p.tInlet;
    double expected = p.tInlet + gap * (1.0 - std::exp(-1.0));
    EXPECT_NEAR(m.temperature(), expected, 1e-9);
}

TEST(AmbientModel, ZeroStepIsIdentity)
{
    AmbientModel m(integratedAmbient(coolingAohs15()));
    m.advance(8.0, 0.0, 0.0);
    EXPECT_EQ(m.temperature(), 45.0);
}

TEST(AmbientModel, ManySmallStepsEqualOneBigStep)
{
    AmbientModel a(integratedAmbient(coolingAohs15()));
    AmbientModel b(integratedAmbient(coolingAohs15()));
    a.advance(4.0, 0.0, 10.0);
    for (int i = 0; i < 1000; ++i)
        b.advance(4.0, 0.0, 0.01);
    EXPECT_NEAR(a.temperature(), b.temperature(), 1e-9);
}

TEST(AmbientModel, NeverOvershootsStable)
{
    // Heat toward the stable point, then cool toward the bare inlet:
    // no step crosses the target it is relaxing toward.
    AmbientModel m(integratedAmbient(coolingAohs15()));
    const Celsius hot = m.stable(8.0);
    for (int i = 0; i < 10000; ++i) {
        m.advance(8.0, 0.0, 1.0);
        EXPECT_LE(m.temperature(), hot + 1e-9);
    }
    EXPECT_NEAR(m.temperature(), hot, 1e-9);
    for (int i = 0; i < 10000; ++i) {
        m.advance(0.0, 0.0, 1.0);
        EXPECT_GE(m.temperature(), 45.0 - 1e-9);
    }
    EXPECT_NEAR(m.temperature(), 45.0, 1e-9);
}

TEST(AmbientModel, InvalidArgsPanic)
{
    AmbientParams p = integratedAmbient(coolingAohs15());
    AmbientModel m(p);
    EXPECT_THROW(m.advance(4.0, 0.0, -1.0), PanicError);
    p.tauCpuDram = 0.0;
    EXPECT_THROW(AmbientModel{p}, PanicError);
}

TEST(AmbientModel, LowerVoltageLowersAmbient)
{
    // The DTM-CDVFS mechanism: dropping V and IPC lowers the stable
    // memory ambient temperature.
    AmbientModel m(integratedAmbient(coolingFdhs10()));
    double full = m.stable(4 * 1.55 * 1.0);
    double scaled = m.stable(4 * 1.15 * 0.5);
    EXPECT_GT(full - scaled, 3.0);
}

TEST(AmbientModel, ResetRestoresInlet)
{
    AmbientModel m(integratedAmbient(coolingAohs15()));
    m.advance(8.0, 0.0, 100.0);
    EXPECT_GT(m.temperature(), 45.0);
    m.reset(45.0);
    EXPECT_DOUBLE_EQ(m.temperature(), 45.0);
}

} // namespace
} // namespace memtherm
