/**
 * @file
 * Unit tests for the whole-subsystem thermal model, including the
 * paper-consistency checks of DESIGN.md Section 6.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/thermal/memory_thermal.hh"

namespace memtherm
{
namespace
{

MemoryThermalModel
makeModel(const CoolingConfig &cooling, Celsius t0)
{
    return MemoryThermalModel(MemoryOrgConfig{4, 4}, cooling,
                              DimmPowerModel{}, t0);
}

TEST(MemoryThermal, HotDimmExceedsAmbTdpUnderAohs15)
{
    // DESIGN.md check: a fully loaded channel (~14+ GB/s system) must push
    // the hottest AMB past its 110 degC TDP under AOHS_1.5 at 50 degC
    // ambient — otherwise no thermal emergency would ever occur.
    auto m = makeModel(coolingAohs15(), 50.0);
    EXPECT_GT(m.stableHottestAmb(12.0, 4.0, 50.0), 110.0);
    // ... while a 6.4 GB/s-capped system settles below the TDP
    // (the paper's Fig. 4.6 shows BW throttling between 6.4 and 12.8).
    EXPECT_LT(m.stableHottestAmb(5.0, 1.4, 50.0), 110.0);
}

TEST(MemoryThermal, DramBindsFirstUnderFdhs10)
{
    // Section 4.4.1: under FDHS_1.0 the DRAMs usually enter thermal
    // emergency before the AMBs; under AOHS_1.5 the AMBs enter first.
    auto fdhs = makeModel(coolingFdhs10(), 45.0);
    GBps rd = 12.0, wr = 4.0;
    double amb_margin =
        110.0 - fdhs.stableHottestAmb(rd, wr, 45.0);
    double dram_margin =
        85.0 - fdhs.stableHottestDram(rd, wr, 45.0);
    EXPECT_LT(dram_margin, amb_margin);
    EXPECT_LT(dram_margin, 0.0); // actually in emergency

    auto aohs = makeModel(coolingAohs15(), 50.0);
    double amb_margin2 = 110.0 - aohs.stableHottestAmb(rd, wr, 50.0);
    double dram_margin2 = 85.0 - aohs.stableHottestDram(rd, wr, 50.0);
    EXPECT_LT(amb_margin2, dram_margin2);
}

TEST(MemoryThermal, FirstDimmIsHottest)
{
    // Uniform interleave: DIMM 0 carries the most bypass traffic, so its
    // AMB runs hottest.
    auto m = makeModel(coolingAohs15(), 50.0);
    m.advance(12.0, 4.0, 50.0, 500.0);
    auto temps = m.dimmTemps();
    ASSERT_EQ(temps.size(), 4u);
    for (std::size_t i = 1; i < temps.size(); ++i)
        EXPECT_GT(temps[0].amb, temps[i].amb);
}

TEST(MemoryThermal, SubsystemPowerScalesWithChannels)
{
    auto m1 = MemoryThermalModel(MemoryOrgConfig{1, 4}, coolingAohs15(),
                                 DimmPowerModel{}, 50.0);
    auto m4 = MemoryThermalModel(MemoryOrgConfig{4, 4}, coolingAohs15(),
                                 DimmPowerModel{}, 50.0);
    // Same per-channel traffic load in both.
    Watts p1 = m1.subsystemPower(3.0, 1.0);
    Watts p4 = m4.subsystemPower(12.0, 4.0);
    EXPECT_NEAR(p4, 4.0 * p1, 1e-9);
}

TEST(MemoryThermal, IdlePowerIsTensOfWatts)
{
    // 16 DIMMs at ~5-6 W idle each: the static floor is large, which is
    // why FBDIMM power is dominated by its static component (Sec. 5.4.4).
    auto m = makeModel(coolingAohs15(), 50.0);
    Watts idle = m.subsystemPower(0.0, 0.0);
    EXPECT_GT(idle, 80.0);
    EXPECT_LT(idle, 120.0);
}

TEST(MemoryThermal, AdvanceTracksStable)
{
    auto m = makeModel(coolingAohs15(), 50.0);
    for (int i = 0; i < 400; ++i)
        m.advance(8.0, 2.0, 50.0, 10.0);
    MemoryThermalSample cur = m.current();
    EXPECT_NEAR(cur.hottestAmb, m.stableHottestAmb(8.0, 2.0, 50.0), 1e-5);
    EXPECT_NEAR(cur.hottestDram, m.stableHottestDram(8.0, 2.0, 50.0), 1e-5);
}

TEST(MemoryThermal, CoolingAfterLoadRemoval)
{
    auto m = makeModel(coolingAohs15(), 50.0);
    m.advance(12.0, 4.0, 50.0, 1000.0);
    Celsius hot = m.current().hottestAmb;
    m.advance(0.0, 0.0, 50.0, 1000.0);
    Celsius cooled = m.current().hottestAmb;
    EXPECT_LT(cooled, hot);
    EXPECT_NEAR(cooled, m.stableHottestAmb(0.0, 0.0, 50.0), 0.5);
}

TEST(MemoryThermal, ResetRestoresAllNodes)
{
    auto m = makeModel(coolingAohs15(), 50.0);
    m.advance(12.0, 4.0, 50.0, 100.0);
    m.reset(50.0);
    for (const auto &t : m.dimmTemps()) {
        EXPECT_DOUBLE_EQ(t.amb, 50.0);
        EXPECT_DOUBLE_EQ(t.dram, 50.0);
    }
    // Peaks and energy restart too.
    for (const auto &t : m.dimmPeaks()) {
        EXPECT_DOUBLE_EQ(t.amb, 50.0);
        EXPECT_DOUBLE_EQ(t.dram, 50.0);
    }
    for (Watts p : m.dimmAvgPower())
        EXPECT_EQ(p, 0.0);
}

TEST(MemoryThermal, ExplicitUniformSharesMatchUnsetBitExactly)
{
    // The traffic_shape contract: an explicit uniform vector takes the
    // same code path with the same per-DIMM fractions, so every query
    // and every advance is bit-identical to leaving the shares empty.
    auto plain = makeModel(coolingAohs15(), 50.0);
    auto shaped = MemoryThermalModel(MemoryOrgConfig{4, 4}, coolingAohs15(),
                                     DimmPowerModel{}, 50.0,
                                     {0.25, 0.25, 0.25, 0.25});
    EXPECT_EQ(plain.subsystemPower(9.0, 3.0),
              shaped.subsystemPower(9.0, 3.0));
    EXPECT_EQ(plain.stableHottestAmb(9.0, 3.0, 50.0),
              shaped.stableHottestAmb(9.0, 3.0, 50.0));
    for (int i = 0; i < 50; ++i) {
        plain.advance(9.0, 3.0, 50.0, 10.0);
        shaped.advance(9.0, 3.0, 50.0, 10.0);
    }
    auto a = plain.dimmTemps(), b = shaped.dimmTemps();
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].amb, b[i].amb);
        EXPECT_EQ(a[i].dram, b[i].dram);
    }
    EXPECT_EQ(plain.dimmAvgPower(), shaped.dimmAvgPower());
}

TEST(MemoryThermal, SkewedSharesMoveTheHotSpotDownTheChain)
{
    // All local traffic on the last DIMM: its DRAMs must run hottest
    // even though the head AMBs still relay the bypass stream.
    auto m = MemoryThermalModel(MemoryOrgConfig{4, 4}, coolingAohs15(),
                                DimmPowerModel{}, 50.0,
                                {0.0, 0.0, 0.0, 1.0});
    m.advance(12.0, 4.0, 50.0, 500.0);
    auto temps = m.dimmTemps();
    ASSERT_EQ(temps.size(), 4u);
    for (std::size_t i = 0; i + 1 < temps.size(); ++i)
        EXPECT_GT(temps[3].dram, temps[i].dram);
}

TEST(MemoryThermal, DimmAvgPowerTracksSubsystemPower)
{
    auto m = makeModel(coolingAohs15(), 50.0);
    // Before any advance the accumulators are empty: all zeros.
    for (double p : m.dimmAvgPower())
        EXPECT_EQ(p, 0.0);

    // Constant operating point: the per-DIMM means, summed over the
    // representative channel and scaled by the channel count, recover
    // the subsystem power.
    for (int i = 0; i < 10; ++i)
        m.advance(8.0, 2.0, 50.0, 10.0);
    auto avg = m.dimmAvgPower();
    ASSERT_EQ(avg.size(), 4u);
    double channel = 0.0;
    for (double p : avg) {
        EXPECT_GT(p, 0.0);
        channel += p;
    }
    EXPECT_NEAR(channel * 4, m.subsystemPower(8.0, 2.0), 1e-9);

    // Resets restart the accumulation window.
    m.reset(50.0);
    for (double p : m.dimmAvgPower())
        EXPECT_EQ(p, 0.0);
    m.resetToStable(8.0, 2.0, 50.0);
    for (double p : m.dimmAvgPower())
        EXPECT_EQ(p, 0.0);
}

TEST(MemoryThermal, ShareArityMismatchPanics)
{
    EXPECT_THROW(MemoryThermalModel(MemoryOrgConfig{4, 4}, coolingAohs15(),
                                    DimmPowerModel{}, 50.0, {0.5, 0.5}),
                 PanicError);
}

TEST(MemoryThermal, CurrentPerDimmMatchesDimmTemps)
{
    auto m = makeModel(coolingAohs15(), 50.0);
    m.advance(12.0, 4.0, 50.0, 100.0);
    std::vector<Celsius> amb, dram;
    m.currentPerDimm(amb, dram);
    auto temps = m.dimmTemps();
    ASSERT_EQ(amb.size(), temps.size());
    ASSERT_EQ(dram.size(), temps.size());
    for (std::size_t i = 0; i < temps.size(); ++i) {
        EXPECT_EQ(amb[i], temps[i].amb);
        EXPECT_EQ(dram[i], temps[i].dram);
    }
    // Fill-in-place contract: oversized buffers shrink to the chain.
    amb.assign(9, -1.0);
    dram.assign(9, -1.0);
    m.currentPerDimm(amb, dram);
    EXPECT_EQ(amb.size(), temps.size());
    EXPECT_EQ(amb[0], temps[0].amb);
}

TEST(MemoryThermal, MidRunShareSwapKeepsPowerAccounting)
{
    // A remap mid-run must not disturb the energy bookkeeping: the
    // per-DIMM means, summed over the channel and scaled by the channel
    // count, still recover the time-weighted subsystem power across the
    // swap.
    auto m = MemoryThermalModel(MemoryOrgConfig{4, 4}, coolingAohs15(),
                                DimmPowerModel{}, 50.0,
                                {0.5, 0.5 / 3, 0.5 / 3, 0.5 / 3});
    Joules energy = 0.0;
    Seconds elapsed = 0.0;
    for (int i = 0; i < 10; ++i) {
        auto s = m.advance(8.0, 2.0, 50.0, 10.0);
        energy += s.subsystemPower * 10.0;
        elapsed += 10.0;
    }
    double moved = m.setTrafficShares({0.25, 0.25, 0.25, 0.25});
    EXPECT_NEAR(moved, 0.25, 1e-12); // 0.5 -> 0.25 on DIMM 0
    for (int i = 0; i < 10; ++i) {
        auto s = m.advance(8.0, 2.0, 50.0, 10.0);
        energy += s.subsystemPower * 10.0;
        elapsed += 10.0;
    }
    auto avg = m.dimmAvgPower();
    double channel = 0.0;
    for (double p : avg)
        channel += p;
    EXPECT_NEAR(channel * 4, energy / elapsed, 1e-9);
}

TEST(MemoryThermal, RemapToUniformBitIdenticalToFreshUniform)
{
    // Remapping a skewed model to uniform mid-run must land it on
    // exactly the uniform code path: bit-identical to clearing the
    // shares on a fork carrying the same thermal state, and every
    // state-independent query bit-identical to a genuinely fresh
    // uniform model.
    ThermalBatchState state(2, 4);
    MemoryThermalModel viaExplicit(MemoryOrgConfig{4, 4}, coolingAohs15(),
                                   DimmPowerModel{}, 50.0,
                                   {0.5, 0.5 / 3, 0.5 / 3, 0.5 / 3},
                                   state, 0);
    viaExplicit.advance(12.0, 4.0, 50.0, 50.0);

    MemoryThermalModel viaEmpty(viaExplicit, state, 1);
    viaExplicit.setTrafficShares({0.25, 0.25, 0.25, 0.25});
    viaEmpty.setTrafficShares({});
    for (int i = 0; i < 20; ++i) {
        viaExplicit.advance(12.0, 4.0, 50.0, 10.0);
        viaEmpty.advance(12.0, 4.0, 50.0, 10.0);
    }
    auto a = viaExplicit.dimmTemps(), b = viaEmpty.dimmTemps();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].amb, b[i].amb);
        EXPECT_EQ(a[i].dram, b[i].dram);
    }

    auto fresh = makeModel(coolingAohs15(), 50.0);
    EXPECT_EQ(viaEmpty.subsystemPower(12.0, 4.0),
              fresh.subsystemPower(12.0, 4.0));
    EXPECT_EQ(viaEmpty.stableHottestAmb(12.0, 4.0, 50.0),
              fresh.stableHottestAmb(12.0, 4.0, 50.0));
    EXPECT_EQ(viaEmpty.stableHottestDram(12.0, 4.0, 50.0),
              fresh.stableHottestDram(12.0, 4.0, 50.0));
}

TEST(MemoryThermal, ForkStaysInItsSourceState)
{
    // A fork copies a lane within one ThermalBatchState; a source in
    // any other state (or an owning model's private one) panics.
    ThermalBatchState a(2, 4), b(2, 4);
    MemoryThermalModel m(MemoryOrgConfig{4, 4}, coolingAohs15(),
                         DimmPowerModel{}, 50.0, {}, a, 0);
    m.advance(12.0, 4.0, 50.0, 5.0);
    MemoryThermalModel fork(m, a, 1);
    EXPECT_EQ(fork.lane(), 1);
    auto x = m.dimmTemps(), y = fork.dimmTemps();
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].amb, y[i].amb);
        EXPECT_EQ(x[i].dram, y[i].dram);
    }
    EXPECT_THROW(MemoryThermalModel(m, b, 1), PanicError);
    auto owning = makeModel(coolingAohs15(), 50.0);
    EXPECT_THROW(MemoryThermalModel(owning, a, 1), PanicError);
}

TEST(MemoryThermal, SetTrafficSharesValidates)
{
    auto m = makeModel(coolingAohs15(), 50.0);
    EXPECT_THROW(m.setTrafficShares({0.5, 0.5}), PanicError);
    EXPECT_THROW(m.setTrafficShares({-0.1, 0.4, 0.4, 0.3}), PanicError);
    EXPECT_THROW(m.setTrafficShares({0.3, 0.3, 0.3, 0.3}), PanicError);
    // A valid swap reports the share fraction moved; a no-op reports 0.
    EXPECT_NEAR(m.setTrafficShares({0.4, 0.2, 0.2, 0.2}), 0.15, 1e-12);
    EXPECT_EQ(m.setTrafficShares({0.4, 0.2, 0.2, 0.2}), 0.0);
}

} // namespace
} // namespace memtherm
