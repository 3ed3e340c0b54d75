/**
 * @file
 * Tests for the temperature-coupled refresh model: band selection, the
 * DDR2/AL-DRAM catalog and its runtime add, the refresh=none bit-identity
 * guarantee, monotone bandwidth loss as a DIMM's DRAM temperature
 * crosses the 2x band, and the result-document schema-version
 * accept/reject matrix.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/sim/refresh_model.hh"
#include "core/sim/registry.hh"
#include "core/sim/scenario.hh"
#include "core/sim/thermal_simulator.hh"
#include "core/thermal/thermal_params.hh"

namespace memtherm
{
namespace
{

TEST(RefreshModel, BandAtPicksTheLastBandAtOrBelow)
{
    RefreshModel m;
    m.bands = {{-273.15, 0.01, 0.1, 1.0},
               {55.0, 0.02, 0.2, 1.0},
               {85.0, 0.04, 0.4, 1.0}};
    EXPECT_EQ(m.bandAt(20.0).bwFraction, 0.01);
    EXPECT_EQ(m.bandAt(54.999).bwFraction, 0.01);
    EXPECT_EQ(m.bandAt(55.0).bwFraction, 0.02); // inclusive lower edge
    EXPECT_EQ(m.bandAt(84.999).bwFraction, 0.02);
    EXPECT_EQ(m.bandAt(85.0).bwFraction, 0.04);
    EXPECT_EQ(m.bandAt(200.0).bwFraction, 0.04);
    EXPECT_THROW(RefreshModel{}.bandAt(50.0), PanicError);
}

TEST(RefreshModel, Ddr2CatalogDoublesAtTheDramTdp)
{
    const RefreshModel m = ddr2DoubleRefreshModel();
    ASSERT_EQ(m.bands.size(), 2u);
    const Celsius tdp = ThermalLimits{}.dramTdp;
    EXPECT_EQ(m.bands[1].minTemp, tdp);

    const RefreshBand &cool = m.bandAt(tdp - 1.0);
    const RefreshBand &hot = m.bandAt(tdp);
    EXPECT_GT(cool.bwFraction, 0.0);
    EXPECT_GT(cool.dramPower, 0.0);
    EXPECT_EQ(hot.bwFraction, 2.0 * cool.bwFraction);
    EXPECT_EQ(hot.dramPower, 2.0 * cool.dramPower);
    EXPECT_EQ(cool.latencyMult, 1.0);
    EXPECT_EQ(hot.latencyMult, 1.0);
}

TEST(RefreshModel, AldramCatalogTightensTimingsWhenCool)
{
    const RefreshModel m = aldramRefreshModel();
    // Cold silicon runs faster than the datasheet point...
    EXPECT_LT(m.bandAt(30.0).latencyMult, m.bandAt(60.0).latencyMult);
    EXPECT_LT(m.bandAt(60.0).latencyMult, 1.0);
    // ...the nominal band is the datasheet, and the hot band still
    // doubles refresh like plain DDR2.
    EXPECT_EQ(m.bandAt(75.0).latencyMult, 1.0);
    const Celsius tdp = ThermalLimits{}.dramTdp;
    EXPECT_EQ(m.bandAt(tdp).bwFraction, 2.0 * m.bandAt(75.0).bwFraction);
}

TEST(RefreshCatalog, SeededModelsAndRuntimeAddReplaces)
{
    // Name lookups and the unknown-name diagnostic are covered for every
    // catalog in test_registry; these are the refresh catalog's values.
    auto &cat = refreshCatalog();
    const std::vector<std::string> names = cat.names();
    ASSERT_GE(names.size(), 3u);
    EXPECT_EQ(names[0], "none");
    EXPECT_EQ(names[1], "ddr2_2x");
    EXPECT_EQ(names[2], "aldram");
    EXPECT_TRUE(cat.get("none").empty());
    EXPECT_FALSE(cat.get("ddr2_2x").empty());

    RefreshModel custom;
    custom.bands = {{-273.15, 0.05, 0.5, 1.0}};
    cat.add("test_custom_refresh", custom);
    ASSERT_TRUE(cat.contains("test_custom_refresh"));
    EXPECT_EQ(cat.get("test_custom_refresh").bands[0].bwFraction, 0.05);

    custom.bands[0].bwFraction = 0.07;
    cat.add("test_custom_refresh", custom);
    EXPECT_EQ(cat.get("test_custom_refresh").bands[0].bwFraction, 0.07);
    EXPECT_EQ(cat.names().size(), names.size() + 1); // replaced in place
}

SimConfig
refreshTestConfig()
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 2;
    cfg.trafficShares = {0.55, 0.15, 0.15, 0.15};
    return cfg;
}

/**
 * The compatibility contract: refresh="none" (the empty model) is
 * bit-identical to never touching the knob. Everything downstream —
 * committed goldens, stream resumes, batched fork identity — leans on
 * this being exact, not merely close.
 */
TEST(RefreshCoupling, NoneIsBitIdenticalToKnobUnset)
{
    const SimConfig unset = refreshTestConfig();
    SimConfig none = refreshTestConfig();
    none.refresh = refreshCatalog().get("none");

    for (const char *policy : {"No-limit", "DTM-TS"}) {
        PolicyBuildContext ctx{unset.dtmInterval, unset.emergencyLevels,
                               unset.remapInterval, unset.remapHysteresis,
                               unset.trafficShares};
        auto p1 = PolicyRegistry::instance().make(policy, ctx);
        auto p2 = PolicyRegistry::instance().make(policy, ctx);
        SimResult a = ThermalSimulator(unset).run(workloadMix("W1"), *p1);
        SimResult b = ThermalSimulator(none).run(workloadMix("W1"), *p2);
        EXPECT_TRUE(toJson(a, true) == toJson(b, true)) << policy;
        EXPECT_TRUE(a.refreshBwLossPerDimm.empty());
        EXPECT_TRUE(b.refreshBwLossPerDimm.empty());
    }
}

/**
 * Monotone bandwidth loss across the 2x band. Cool operating point:
 * every DIMM sits in the nominal band, so per-share-normalized loss is
 * uniform across DIMMs. Hot operating point (degraded fan, 45 C room,
 * deep batch): the skewed DIMM crosses the 85 C threshold, its refresh
 * rate doubles, and its per-share-normalized loss strictly exceeds a
 * cool DIMM's in the same run.
 */
TEST(RefreshCoupling, BandwidthLossMonotoneAcrossTheDoubleBand)
{
    const Workload mix = workloadMix("W1");

    SimConfig cool = refreshTestConfig();
    cool.refresh = refreshCatalog().get("ddr2_2x");
    PolicyBuildContext ctx{cool.dtmInterval, cool.emergencyLevels,
                           cool.remapInterval, cool.remapHysteresis,
                           cool.trafficShares};
    auto p = PolicyRegistry::instance().make("No-limit", ctx);
    SimResult rc = ThermalSimulator(cool).run(mix, *p);
    ASSERT_TRUE(rc.completed);
    ASSERT_LT(rc.maxDram, ThermalLimits{}.dramTdp);
    ASSERT_EQ(rc.refreshBwLossPerDimm.size(), 4u);
    const auto perShare = [](const SimResult &r, const SimConfig &cfg,
                             std::size_t i) {
        return r.refreshBwLossPerDimm[i] / cfg.trafficShares[i];
    };
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_GT(rc.refreshBwLossPerDimm[i], 0.0);
        EXPECT_NEAR(perShare(rc, cool, i), perShare(rc, cool, 0),
                    1e-9 * perShare(rc, cool, 0));
    }

    SimConfig hot = makeCh4Config(coolingFdhs10(), false);
    hot.copiesPerApp = 12;
    hot.ambient.tInlet = 45.0;
    hot.trafficShares = {0.55, 0.15, 0.15, 0.15};
    hot.refresh = refreshCatalog().get("ddr2_2x");
    PolicyBuildContext hctx{hot.dtmInterval, hot.emergencyLevels,
                            hot.remapInterval, hot.remapHysteresis,
                            hot.trafficShares};
    auto hp = PolicyRegistry::instance().make("No-limit", hctx);
    SimResult rh = ThermalSimulator(hot).run(mix, *hp);
    ASSERT_GT(rh.maxDram, ThermalLimits{}.dramTdp);
    ASSERT_EQ(rh.refreshBwLossPerDimm.size(), 4u);
    // DIMM 0 spent time in the 2x band; DIMM 3 did not (or far less):
    // its normalized loss rate must be strictly higher.
    EXPECT_GT(perShare(rh, hot, 0), 1.05 * perShare(rh, hot, 3));
    // And the doubled refresh's power feedback registers as extra
    // refresh energy on the hot DIMM.
    ASSERT_EQ(rh.refreshEnergyPerDimm.size(), 4u);
    EXPECT_GT(rh.refreshEnergyPerDimm[0], 1.05 * rh.refreshEnergyPerDimm[3]);
}

/** Result-document schema versions: absent = v1, newer = refused. */
TEST(SchemaVersion, AcceptRejectMatrix)
{
    auto docWith = [](const Json *version) {
        Json doc = Json::object();
        doc.set("scenario", "t");
        if (version)
            doc.set("schema_version", *version);
        doc.set("points", Json::array());
        return doc;
    };

    EXPECT_EQ(resultSchemaVersionOf(docWith(nullptr), "t"), 1);
    Json v1(1.0);
    EXPECT_EQ(resultSchemaVersionOf(docWith(&v1), "t"), 1);
    Json vCur(static_cast<double>(kResultSchemaVersion));
    EXPECT_EQ(resultSchemaVersionOf(docWith(&vCur), "t"),
              kResultSchemaVersion);

    Json vFuture(static_cast<double>(kResultSchemaVersion + 1));
    try {
        resultSchemaVersionOf(docWith(&vFuture), "somewhere");
        FAIL() << "future schema version must be refused";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("newer than"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("somewhere"),
                  std::string::npos)
            << e.what();
    }

    for (double bad : {0.0, -2.0, 1.5}) {
        Json v(bad);
        EXPECT_THROW(resultSchemaVersionOf(docWith(&v), "t"), FatalError)
            << bad;
    }
    Json str("2");
    EXPECT_THROW(resultSchemaVersionOf(docWith(&str), "t"), FatalError);
}

} // namespace
} // namespace memtherm
