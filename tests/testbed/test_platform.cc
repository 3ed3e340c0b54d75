/**
 * @file
 * Tests for the Chapter 5 testbed emulation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "testbed/platform.hh"

namespace memtherm
{
namespace
{

TEST(Platform, Pe1950Description)
{
    Platform p = pe1950();
    EXPECT_EQ(p.name, "PE1950");
    EXPECT_DOUBLE_EQ(p.ambTdp, 90.0);
    // Table 5.1 boundaries and caps.
    EXPECT_EQ(p.ambBounds, (std::vector<Celsius>{76, 80, 84, 88}));
    EXPECT_DOUBLE_EQ(p.bwCaps[3], 2.0);
    // Two DIMMs on one channel.
    EXPECT_EQ(p.sim.org.nChannels, 1);
    EXPECT_EQ(p.sim.org.nDimmsPerChannel, 2);
    EXPECT_TRUE(p.sim.perSocketL2);
    EXPECT_DOUBLE_EQ(p.sim.dtmInterval, 1.0);
}

TEST(Platform, Sr1500alDescription)
{
    Platform p = sr1500al();
    EXPECT_DOUBLE_EQ(p.ambTdp, 100.0);
    EXPECT_EQ(p.ambBounds, (std::vector<Celsius>{86, 90, 94, 98}));
    EXPECT_DOUBLE_EQ(p.bwCaps[3], 3.0);
    EXPECT_EQ(p.sim.org.nDimmsPerChannel, 4);
    // Hot box at 36 C; stronger CPU->memory coupling than the PE1950.
    EXPECT_DOUBLE_EQ(p.sim.ambient.tInlet, 36.0);
    EXPECT_GT(p.sim.ambient.psiCpuPower, pe1950().sim.ambient.psiCpuPower);
}

TEST(Platform, Sr1500alVariants)
{
    // The TDP carries the TRP and the Table 5.1 boundaries with it.
    Platform p = sr1500al();
    p.setAmbTdp(90.0);
    EXPECT_DOUBLE_EQ(p.ambTdp, 90.0);
    EXPECT_DOUBLE_EQ(p.sim.limits.ambTdp, 90.0);
    EXPECT_DOUBLE_EQ(p.sim.limits.ambTrp, 89.0);
    EXPECT_EQ(p.ambBounds, (std::vector<Celsius>{76, 80, 84, 88}));
}

TEST(Platform, PolicyFactory)
{
    Platform p = sr1500al();
    for (const char *name : {"No-limit", "DTM-BW", "DTM-ACG", "DTM-CDVFS",
                             "DTM-COMB", "Safety"}) {
        auto policy = makeCh5Policy(p, name);
        ASSERT_NE(policy, nullptr);
    }
    EXPECT_THROW(makeCh5Policy(p, "DTM-TS"), FatalError);
}

TEST(Platform, PolicyActionsFollowTable51)
{
    Platform p = sr1500al();
    ThermalReading cold{70.0, 50.0, 40.0};
    ThermalReading l2{87.0, 50.0, 45.0};
    ThermalReading l4{95.0, 50.0, 46.0};

    auto bw = makeCh5Policy(p, "DTM-BW");
    EXPECT_TRUE(std::isinf(bw->decide(cold, 0.0).bandwidthCap));
    EXPECT_DOUBLE_EQ(bw->decide(l2, 1.0).bandwidthCap, 5.0);
    EXPECT_DOUBLE_EQ(bw->decide(l4, 2.0).bandwidthCap, 3.0);

    auto acg = makeCh5Policy(p, "DTM-ACG");
    EXPECT_EQ(acg->decide(cold, 0.0).activeCores, 4);
    EXPECT_EQ(acg->decide(l2, 1.0).activeCores, 3);
    // L4 keeps two cores (one per socket) plus the safety cap.
    DtmAction top = acg->decide(l4, 2.0);
    EXPECT_EQ(top.activeCores, 2);
    EXPECT_DOUBLE_EQ(top.bandwidthCap, 3.0);

    auto comb = makeCh5Policy(p, "DTM-COMB");
    DtmAction c = comb->decide(l2, 0.0);
    EXPECT_EQ(c.activeCores, 3);
    EXPECT_EQ(c.dvfsLevel, 1u);
}

TEST(Platform, DvfsFloorPinsFrequency)
{
    Platform p = sr1500al();
    p.dvfsFloor = 3;
    auto bw = makeCh5Policy(p, "DTM-BW");
    ThermalReading cold{70.0, 50.0, 40.0};
    EXPECT_EQ(bw->decide(cold, 0.0).dvfsLevel, 3u);
}

TEST(Platform, MemoryNeverShutsDownOnTestbeds)
{
    // Chapter 5 policies rely on the open-loop cap, not full shutdown.
    Platform p = pe1950();
    for (const std::string &name : ch5PolicyNames()) {
        auto policy = makeCh5Policy(p, name);
        ThermalReading scorching{99.0, 60.0, 40.0};
        EXPECT_TRUE(policy->decide(scorching, 0.0).memoryOn) << name;
    }
}

/** Integration: short runs reproduce the headline Chapter 5 orderings. */
TEST(Platform, Sr1500alOrderings)
{
    Platform plat = sr1500al();
    Workload w1 = workloadMix("W1");
    auto run = [&](const char *name) {
        SimConfig cfg = plat.sim;
        cfg.copiesPerApp = 4;
        if (std::string(name) == "No-limit")
            cfg.ambient.tInlet = 26.0;
        ThermalSimulator sim(cfg);
        auto policy = makeCh5Policy(plat, name);
        return sim.run(w1, *policy);
    };
    SimResult base = run("No-limit");
    SimResult bw = run("DTM-BW");
    SimResult cdvfs = run("DTM-CDVFS");

    // BW degrades significantly on the SR1500AL (Section 5.4.2).
    EXPECT_GT(bw.runningTime, base.runningTime * 1.25);
    // CDVFS beats BW via the cooler memory inlet...
    EXPECT_LT(cdvfs.runningTime, bw.runningTime);
    EXPECT_LT(cdvfs.inletTrace.mean(), bw.inletTrace.mean());
    // ...and uses less CPU power (Section 5.4.4).
    EXPECT_LT(cdvfs.avgCpuPower(), bw.avgCpuPower() * 0.95);
}

} // namespace
} // namespace memtherm
