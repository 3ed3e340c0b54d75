/**
 * @file
 * Tests for the traffic-remapping DTM policy family
 * (core/dtm/remap_policy.hh): migration mechanics on synthetic
 * readings, the registry entries, and the two acceptance pins —
 * DTM-TS+remap bit-identical to DTM-TS when no emergency ever occurs,
 * and a strict hot-DIMM payoff on the hot_dimm0 traffic shape.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/dtm/remap_policy.hh"
#include "core/sim/experiment.hh"
#include "core/sim/registry.hh"

#include "../common/result_identity.hh"

namespace memtherm
{
namespace
{

/** A reading with per-DIMM AMB temperatures (DRAMs parked cold). */
ThermalReading
perDimmReading(Celsius amb, std::vector<Celsius> amb_per_dimm)
{
    ThermalReading r;
    r.amb = amb;
    r.dram = 70.0;
    r.inlet = 50.0;
    r.dramPerDimm.assign(amb_per_dimm.size(), 70.0);
    r.ambPerDimm = std::move(amb_per_dimm);
    return r;
}

RemapConfig
unitConfig()
{
    RemapConfig rc;
    rc.interval = 1.0;
    rc.hysteresis = 2.0;
    return rc; // default ThermalLimits: AMB TDP 110, DRAM TDP 85
}

TEST(RemapPolicy, GreedyMovesStepFromHottestToColdest)
{
    RemapPolicy p(RemapPolicy::Band::Greedy, unitConfig());
    auto a = p.decide(perDimmReading(111.0, {111.0, 100.0, 95.0, 90.0}),
                      0.0);
    ASSERT_EQ(a.trafficShares.size(), 4u);
    EXPECT_DOUBLE_EQ(a.trafficShares[0], 0.20); // uniform 0.25 - step
    EXPECT_DOUBLE_EQ(a.trafficShares[1], 0.25);
    EXPECT_DOUBLE_EQ(a.trafficShares[2], 0.25);
    EXPECT_DOUBLE_EQ(a.trafficShares[3], 0.30); // coldest gains the step
    // Remapping never touches the scalar actuators.
    EXPECT_TRUE(a.memoryOn);
    EXPECT_EQ(a.activeCores, DtmAction{}.activeCores);
}

TEST(RemapPolicy, NoActionBelowTdpOrBetweenBoundaries)
{
    RemapPolicy p(RemapPolicy::Band::Greedy, unitConfig());
    // Cool at the boundary: nothing moves.
    EXPECT_TRUE(p.decide(perDimmReading(105.0, {105.0, 100.0, 95.0, 90.0}),
                         0.0)
                    .trafficShares.empty());
    // Hot, but between boundaries: nothing moves either.
    EXPECT_TRUE(p.decide(perDimmReading(111.0, {111.0, 100.0, 95.0, 90.0}),
                         0.5)
                    .trafficShares.empty());
    // Hot at the next boundary: one step.
    EXPECT_EQ(p.decide(perDimmReading(111.0, {111.0, 100.0, 95.0, 90.0}),
                       1.0)
                  .trafficShares.size(),
              4u);
    // A reading without the per-DIMM vectors can never remap.
    ThermalReading scalar;
    scalar.amb = 115.0;
    EXPECT_TRUE(p.decide(scalar, 2.0).trafficShares.empty());
}

TEST(RemapPolicy, HysteresisKeepsMigratingUntilReleaseBand)
{
    // Greedy stops the moment the sensor drops below TDP; the banded
    // variant latches at the crossing and keeps migrating until the
    // sensor is a full band below (110 - 2 = 108 here).
    RemapPolicy greedy(RemapPolicy::Band::Greedy, unitConfig());
    RemapPolicy hyst(RemapPolicy::Band::Hysteresis, unitConfig());
    auto hot = perDimmReading(111.0, {111.0, 100.0, 95.0, 90.0});
    auto warm = perDimmReading(109.0, {109.0, 100.0, 95.0, 90.0});
    auto cool = perDimmReading(107.5, {107.5, 100.0, 95.0, 90.0});

    EXPECT_FALSE(greedy.decide(hot, 0.0).trafficShares.empty());
    EXPECT_FALSE(hyst.decide(hot, 0.0).trafficShares.empty());
    EXPECT_TRUE(hyst.isLatched());

    EXPECT_TRUE(greedy.decide(warm, 1.0).trafficShares.empty());
    EXPECT_FALSE(hyst.decide(warm, 1.0).trafficShares.empty());

    EXPECT_TRUE(hyst.decide(cool, 2.0).trafficShares.empty());
    EXPECT_FALSE(hyst.isLatched());
    // Released: a warm (but sub-TDP) boundary no longer migrates.
    EXPECT_TRUE(hyst.decide(warm, 3.0).trafficShares.empty());
}

TEST(RemapPolicy, SourceMustHoldShare)
{
    // DIMM 0 is hottest purely from bypass traffic but holds no local
    // share; the hottest *contributing* DIMM gives up the step instead.
    RemapConfig rc = unitConfig();
    rc.initialShares = {0.0, 1.0, 0.0, 0.0};
    RemapPolicy p(RemapPolicy::Band::Greedy, rc);
    auto a = p.decide(perDimmReading(111.0, {111.0, 110.0, 90.0, 80.0}),
                      0.0);
    ASSERT_EQ(a.trafficShares.size(), 4u);
    EXPECT_DOUBLE_EQ(a.trafficShares[0], 0.0);
    EXPECT_DOUBLE_EQ(a.trafficShares[1], 0.95);
    EXPECT_DOUBLE_EQ(a.trafficShares[3], 0.05);
}

TEST(RemapPolicy, ResetRestoresTheInitialDistribution)
{
    RemapConfig rc = unitConfig();
    rc.initialShares = {0.5, 0.5 / 3, 0.5 / 3, 0.5 / 3};
    RemapPolicy p(RemapPolicy::Band::Hysteresis, rc);
    auto hot = perDimmReading(111.0, {111.0, 100.0, 95.0, 90.0});
    EXPECT_FALSE(p.decide(hot, 0.0).trafficShares.empty());
    EXPECT_NE(p.shares(), rc.initialShares);
    p.reset();
    EXPECT_FALSE(p.isLatched());
    auto a = p.decide(hot, 0.0);
    ASSERT_EQ(a.trafficShares.size(), 4u);
    // First post-reset migration starts from the initial shares again.
    EXPECT_DOUBLE_EQ(a.trafficShares[0], 0.45);
}

TEST(RemapPolicy, RegistryBuildsTheFamily)
{
    auto &reg = PolicyRegistry::instance();
    for (const char *name :
         {"DTM-remap", "DTM-remap-hyst", "DTM-TS+remap"}) {
        ASSERT_TRUE(reg.contains(name)) << name;
        PolicyBuildContext ctx;
        ctx.remapInterval = 0.5;
        ctx.trafficShares = {0.4, 0.2, 0.2, 0.2};
        auto p = reg.make(name, ctx);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_EQ(p->name(), name);
    }
}

TEST(RemapPolicy, TsCompositionShutsDownAndMigrates)
{
    ThermalLimits lim;
    TsRemapPolicy p(TsPolicy(lim.ambTdp, lim.ambTrp, lim.dramTdp,
                             lim.dramTrp),
                    unitConfig());
    auto a = p.decide(perDimmReading(111.0, {111.0, 100.0, 95.0, 90.0}),
                      0.0);
    EXPECT_FALSE(a.memoryOn);                   // the TS half latched
    EXPECT_EQ(a.trafficShares.size(), 4u);      // the remap half moved
    EXPECT_TRUE(p.ts().isShutdown());
    EXPECT_TRUE(p.remap().isLatched());
}

// ---- acceptance pins --------------------------------------------------

SimResult
runWith(const SimConfig &cfg, const std::string &policy_name)
{
    ThermalSimulator sim(cfg);
    auto policy = PolicyRegistry::instance().make(
        policy_name,
        PolicyBuildContext{cfg.dtmInterval, cfg.emergencyLevels,
                           cfg.remapInterval, cfg.remapHysteresis,
                           cfg.trafficShares});
    return sim.run(workloadMix("W1"), *policy);
}

TEST(RemapPolicy, TsRemapBitIdenticalToTsWithoutEmergency)
{
    // Uniform interleave keeps W1 below both TDPs, so neither the TS
    // half nor the remap half ever acts — the composition must be
    // bit-identical to plain DTM-TS (remap is inert until a thermal
    // emergency exists).
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 2;
    SimResult ts = runWith(cfg, "DTM-TS");
    SimResult both = runWith(cfg, "DTM-TS+remap");
    EXPECT_LT(ts.maxAmb, cfg.limits.ambTdp); // precondition: no emergency
    expectIdentical(ts, both, CompareNames::No);
}

TEST(RemapPolicy, RemapLowersHotDimmPeakOnHotDimm0)
{
    // The payoff experiment in miniature (the hot_dimm_remap scenario
    // pins the full grid): with half the channel traffic on DIMM 0,
    // migration must strictly lower the hottest DIMM's peak AMB vs
    // No-limit while finishing faster than DTM-TS's shutdown cycling.
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 2;
    cfg.trafficShares = trafficShapeCatalog().get("hot_dimm0", 4);
    cfg.remapInterval = 0.25;
    SimResult nolimit = runWith(cfg, "No-limit");
    SimResult ts = runWith(cfg, "DTM-TS");
    SimResult remap = runWith(cfg, "DTM-remap");

    ASSERT_FALSE(remap.peakAmbPerDimm.empty());
    EXPECT_GT(nolimit.maxAmb, cfg.limits.ambTdp); // a real emergency
    EXPECT_LT(remap.maxAmb, nolimit.maxAmb);
    EXPECT_LT(remap.peakAmbPerDimm[0], nolimit.peakAmbPerDimm[0]);
    EXPECT_LT(remap.runningTime, ts.runningTime);
    // The migration cost is charged: more bytes move than under
    // No-limit's identical compute schedule.
    EXPECT_GT(remap.totalReadGB + remap.totalWriteGB,
              nolimit.totalReadGB + nolimit.totalWriteGB);
}

} // namespace
} // namespace memtherm
