/**
 * @file
 * Unit tests for the declarative scenario API: lossless JSON round-trips
 * (including every shipped example scenario), sweep lowering, platform
 * scenarios, registry-backed diagnostics, and the acceptance pin — a
 * scenario run is bit-identical to simulating each hand-built
 * configuration on its own (ThermalSimulator::run, no engine).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/sim/registry.hh"
#include "core/sim/scenario.hh"
#include "testbed/platform.hh"

#include "../common/result_identity.hh"

#ifndef MEMTHERM_SOURCE_DIR
#error "tests need MEMTHERM_SOURCE_DIR (set by CMakeLists.txt)"
#endif

namespace memtherm
{
namespace
{

std::string
scenarioPath(const std::string &file)
{
    return std::string(MEMTHERM_SOURCE_DIR) + "/examples/scenarios/" + file;
}

/**
 * The independent reference for one run: a fresh simulator and the
 * Chapter 4 policy its configuration selects, without the engine or the
 * scenario layer.
 */
SimResult
simulateAlone(const SimConfig &cfg, const std::string &workload,
              const std::string &policy)
{
    ThermalSimulator sim(cfg);
    auto p = PolicyRegistry::instance().get(
        policy, {.dtmInterval = cfg.dtmInterval,
                 .emergencyLevels = cfg.emergencyLevels});
    return sim.run(workloadCatalog().get(workload), *p);
}

TEST(ScenarioSpec, FullSpecRoundTripsLosslessly)
{
    ScenarioSpec s;
    s.name = "everything";
    s.description = "all knobs set";
    s.cooling = "FDHS_1.0";
    s.ambient = "integrated";
    s.tInlet = 47.25;
    s.copiesPerApp = 3;
    s.instrScale = 0.5;
    s.maxSimTime = 1234.5;
    s.dtmInterval = 0.02;
    s.remapInterval = 0.04;
    s.remapHysteresis = 1.5;
    s.sensorNoiseSigma = 0.75;
    s.sensorQuant = 0.5;
    s.sensorSeed = 1234567;
    s.emergencyLevels = "pe1950";
    s.dvfs = "xeon5160";
    s.memoryOrg = MemoryOrgSpec{"2x4", std::nullopt};
    s.workloads = {"W1", "swimx4"};
    s.policies = {"No-limit", "DTM-BW+PID"};
    s.trafficShape = TrafficShapeSpec{"hot_dimm0", {}};
    s.sweepMemoryOrg = {MemoryOrgSpec{"1x4", std::nullopt},
                        MemoryOrgSpec{"", MemoryOrgConfig{2, 8}}};
    s.sweepTrafficShape = {TrafficShapeSpec{"front_heavy", {}},
                           TrafficShapeSpec{"back_heavy", {}}};
    s.sweepCooling = {"AOHS_1.5", "AOHS_3.0"};
    s.sweepTInlet = {46.0, 50.5};
    s.sweepCopies = {2, 4};
    s.sweepSensorNoise = {0.0, 0.1};
    s.sweepDtmInterval = {0.01, 0.05};
    s.sweepEmergencyLevels = {"ch4", "sr1500al"};
    s.sweepDvfs = {"simulated_cmp", "xeon5160"};
    s.refresh = RefreshSpec{"aldram", {}};
    s.sweepRefresh = {RefreshSpec{"none", {}},
                      RefreshSpec{"", {{-273.15, 0.016, 0.15, 1.0},
                                       {85.0, 0.032, 0.3, 1.1}}}};
    s.interactionDegree = 1.25;
    s.rotationSlice = 0.05;
    s.sweepInteractionDegree = {1.0, 2.0};
    s.sweepRotationSlice = {0.02, 0.1};

    Json j = s.toJson();
    ScenarioSpec back = ScenarioSpec::fromJson(Json::parse(j.dump()));
    EXPECT_EQ(back, s);
    // parse -> serialize -> parse is a fixed point at the JSON level too.
    EXPECT_EQ(back.toJson(), j);
}

TEST(ScenarioSpec, ExampleScenariosRoundTripAndLower)
{
    const char *files[] = {"ch4_baseline.json", "fan_failure.json",
                           "datacenter_ambient.json", "sensor_noise.json",
                           "dtm_sensitivity.json", "memory_org.json",
                           "hot_dimm.json", "hot_dimm_remap.json",
                           "refresh_runaway.json"};
    for (const char *f : files) {
        SCOPED_TRACE(f);
        ScenarioSpec spec = ScenarioSpec::load(scenarioPath(f));
        EXPECT_NO_THROW(spec.validate());

        // parse -> serialize -> parse is identical.
        Json j = spec.toJson();
        ScenarioSpec back = ScenarioSpec::fromJson(Json::parse(j.dump()));
        EXPECT_EQ(back, spec);
        EXPECT_EQ(back.toJson(), j);

        LoweredScenario low = spec.lower();
        EXPECT_FALSE(low.points.empty());
        EXPECT_EQ(low.totalRuns(), low.points.size() *
                                       spec.workloads.size() *
                                       spec.policies.size());
    }
}

TEST(ScenarioSpec, SweepLoweringSpansTheGrid)
{
    ScenarioSpec s;
    s.name = "grid";
    s.tInlet = 40.0; // superseded by the sweep axis below
    s.copiesPerApp = 9;
    s.workloads = {"W1"};
    s.policies = {"No-limit", "DTM-TS"};
    s.sweepCooling = {"AOHS_1.5", "FDHS_1.0"};
    s.sweepTInlet = {46.0, 52.0};
    s.sweepSensorNoise = {0.0, 0.5};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 8u); // 2 coolings x 2 inlets x 2 noises
    EXPECT_EQ(low.totalRuns(), 8u * 1u * 2u);

    EXPECT_EQ(low.points[0].label, "cooling=AOHS_1.5,inlet=46,noise=0");
    EXPECT_EQ(low.points.back().label,
              "cooling=FDHS_1.0,inlet=52,noise=0.5");

    for (const auto &pt : low.points) {
        EXPECT_EQ(pt.cfg.copiesPerApp, 9);       // scalar override holds
        EXPECT_NE(pt.cfg.ambient.tInlet, 40.0);  // axis wins over scalar
        ASSERT_EQ(pt.runs.size(), 2u);
        EXPECT_EQ(pt.runs[0].policy, "No-limit");
        EXPECT_EQ(pt.runs[1].policy, "DTM-TS");
        EXPECT_EQ(pt.runs[0].workload.name, "W1");
    }
    // The cooling axis rebuilds the ambient for each cooling setup.
    EXPECT_EQ(low.points[0].cfg.cooling.name(), "AOHS_1.5");
    EXPECT_EQ(low.points.back().cfg.cooling.name(), "FDHS_1.0");
    EXPECT_EQ(low.points.back().cfg.ambient.tInlet, 52.0);
}

TEST(ScenarioSpec, NewAxesLowerAcrossTheGrid)
{
    ScenarioSpec s;
    s.name = "knobs";
    s.workloads = {"W1"};
    s.policies = {"DTM-CDVFS"};
    s.sweepDtmInterval = {0.01, 0.1};
    s.sweepEmergencyLevels = {"ch4", "sr1500al"};
    s.sweepDvfs = {"simulated_cmp", "xeon5160"};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 8u); // 2 intervals x 2 ladders x 2 tables
    EXPECT_EQ(low.points[0].label,
              "dtm=0.01,levels=ch4,dvfs=simulated_cmp");
    EXPECT_EQ(low.points.back().label,
              "dtm=0.1,levels=sr1500al,dvfs=xeon5160");

    // The coordinates land in the configurations.
    EXPECT_EQ(low.points[0].cfg.dtmInterval, 0.01);
    EXPECT_EQ(low.points.back().cfg.dtmInterval, 0.1);
    ASSERT_TRUE(low.points[0].cfg.emergencyLevels.has_value());
    EXPECT_EQ(low.points[0].cfg.emergencyLevels->ambBounds(),
              emergencyLevelCatalog().get("ch4").ambBounds());
    ASSERT_TRUE(low.points.back().cfg.emergencyLevels.has_value());
    EXPECT_EQ(low.points.back().cfg.emergencyLevels->ambBounds(),
              emergencyLevelCatalog().get("sr1500al").ambBounds());
    EXPECT_EQ(low.points[0].cfg.dvfs.maxFreq(),
              simulatedCmpDvfs().maxFreq());
    EXPECT_EQ(low.points.back().cfg.dvfs.maxFreq(),
              xeon5160Dvfs().maxFreq());

    // Scalar overrides: the axis supersedes the matching member, other
    // members hold everywhere.
    s.sweepEmergencyLevels.clear();
    s.emergencyLevels = "pe1950";
    s.dvfs = "xeon5160";
    s.dtmInterval = 0.5; // superseded by the dtm axis
    low = s.lower();
    ASSERT_EQ(low.points.size(), 4u);
    for (const auto &pt : low.points) {
        EXPECT_NE(pt.cfg.dtmInterval, 0.5);
        ASSERT_TRUE(pt.cfg.emergencyLevels.has_value());
        EXPECT_EQ(pt.cfg.emergencyLevels->ambBounds(),
                  emergencyLevelCatalog().get("pe1950").ambBounds());
    }
    // The dvfs axis wins over the scalar dvfs member.
    EXPECT_EQ(low.points[0].cfg.dvfs.maxFreq(),
              simulatedCmpDvfs().maxFreq());

    // Unknown names report the valid keys.
    s.sweepDvfs = {"warp9"};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("warp9"), std::string::npos) << msg;
        EXPECT_NE(msg.find("xeon5160"), std::string::npos) << msg;
    }
    s.sweepDvfs = {"simulated_cmp"};
    s.sweepEmergencyLevels = {"nosuch"};
    EXPECT_THROW(s.lower(), FatalError);

    // A decision period below the simulator window shrinks the window
    // with it; longer ones keep the 10 ms window.
    s.sweepEmergencyLevels.clear();
    s.sweepDtmInterval = {0.001, 0.1};
    low = s.lower();
    ASSERT_EQ(low.points.size(), 2u);
    EXPECT_EQ(low.points[0].cfg.window, 0.001);
    EXPECT_EQ(low.points[0].runs[0].cfg.window, 0.001);
    EXPECT_EQ(low.points[1].cfg.window, 0.01);
}

/**
 * The Figs. 4.13/4.14 and 5.15 axes: the interaction degree scales the
 * integrated model's xi calibration, the rotation slice lands in the
 * configuration and shrinks the window when it is shorter.
 */
TEST(ScenarioSpec, InteractionDegreeAndRotationSliceLower)
{
    ScenarioSpec s;
    s.name = "figs";
    s.cooling = "FDHS_1.0";
    s.ambient = "integrated";
    s.workloads = {"W1"};
    s.policies = {"DTM-ACG"};
    s.sweepInteractionDegree = {1.0, 2.0};
    s.sweepRotationSlice = {0.005, 0.1};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 4u);
    EXPECT_EQ(low.points[0].label, "degree=1,slice=0.005");
    EXPECT_EQ(low.points[3].label, "degree=2,slice=0.1");
    EXPECT_EQ(low.points[0].cfg.ambient.psiCpuMemXi, 1.0 * kXiCalibration);
    EXPECT_EQ(low.points[3].cfg.ambient.psiCpuMemXi, 2.0 * kXiCalibration);
    EXPECT_EQ(low.points[0].cfg.rotationSlice, 0.005);
    EXPECT_EQ(low.points[0].cfg.window, 0.005);
    EXPECT_EQ(low.points[3].cfg.rotationSlice, 0.1);
    EXPECT_EQ(low.points[3].cfg.window, 0.01);
    // The default degree (1.5) is the integrated model as shipped.
    s.sweepInteractionDegree.clear();
    s.interactionDegree = 1.5;
    EXPECT_EQ(s.lower().points[0].cfg.ambient.psiCpuMemXi,
              makeCh4Config(coolingFdhs10(), true).ambient.psiCpuMemXi);

    // The degree needs the integrated ambient, and platforms calibrate
    // their own coupling.
    s.ambient = "isolated";
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "config.interaction_degree needs the integrated "
                      "ambient"),
                  std::string::npos)
            << e.what();
    }
    ScenarioSpec plat;
    plat.name = "plat";
    plat.platform = "PE1950";
    plat.workloads = {"W1"};
    plat.policies = {"DTM-ACG"};
    plat.sweepInteractionDegree = {1.0};
    EXPECT_THROW(plat.lower(), FatalError);
    plat.sweepInteractionDegree.clear();
    plat.sweepRotationSlice = {0.02};
    EXPECT_EQ(plat.lower().points[0].runs[0].cfg.window, 0.02);

    // Bounds: a degree >= 0, a slice > 0.
    s.ambient = "integrated";
    s.interactionDegree = -1.0;
    EXPECT_THROW(s.lower(), FatalError);
    s.interactionDegree.reset();
    s.sweepRotationSlice = {0.0};
    EXPECT_THROW(s.lower(), FatalError);
}

TEST(ScenarioSpec, PlatformVariantsShiftTheTdpAndTheDvfsFloor)
{
    const Platform tdp88 = platformCatalog().get("PE1950_tdp88");
    EXPECT_EQ(tdp88.ambTdp, 88.0);
    EXPECT_EQ(tdp88.sim.limits.ambTdp, 88.0);
    EXPECT_EQ(tdp88.sim.limits.ambTrp, 87.0);
    EXPECT_EQ(tdp88.ambBounds, (std::vector<Celsius>{74, 78, 82, 86}));
    EXPECT_EQ(platformCatalog().get("PE1950_tdp92").ambBounds,
              (std::vector<Celsius>{78, 82, 86, 90}));
    // The rule reproduces the stock testbeds' own tables.
    Platform pe = pe1950();
    pe.setAmbTdp(90.0);
    EXPECT_EQ(pe.ambBounds, pe1950().ambBounds);
    EXPECT_EQ(platformCatalog().get("SR1500AL_tdp90").ambBounds,
              (std::vector<Celsius>{76, 80, 84, 88}));
    EXPECT_EQ(platformCatalog().get("SR1500AL_2GHz").dvfsFloor, 3u);
    EXPECT_EQ(platformCatalog().get("SR1500AL").dvfsFloor, 0u);

    // A platform scenario's policies honor the floor.
    ScenarioSpec s;
    s.name = "slow";
    s.platform = "SR1500AL_2GHz";
    s.workloads = {"W1"};
    s.policies = {"DTM-BW"};
    const LoweredScenario low = s.lower();
    const auto &run = low.points[0].runs[0];
    auto policy = run.factory(run.cfg, run.policy);
    EXPECT_EQ(policy->decide({70.0, 50.0, 40.0}, 0.0).dvfsLevel, 3u);
}

TEST(ScenarioSpec, MemoryOrgAxisLowersAcrossTheGrid)
{
    ScenarioSpec s;
    s.name = "orgs";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.sweepMemoryOrg = {MemoryOrgSpec{"1x4", std::nullopt},
                        MemoryOrgSpec{"ch4_4x4", std::nullopt},
                        MemoryOrgSpec{"", MemoryOrgConfig{2, 8}}};
    s.sweepTInlet = {46.0, 50.0};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 6u); // 3 orgs x 2 inlets
    // The org axis leads the label (it is the most structural knob).
    EXPECT_EQ(low.points[0].label, "org=1x4,inlet=46");
    EXPECT_EQ(low.points[1].label, "org=1x4,inlet=50");
    EXPECT_EQ(low.points[4].label, "org=2x8,inlet=46");
    EXPECT_EQ(low.points.back().label, "org=2x8,inlet=50");

    // The coordinates land in the configurations.
    EXPECT_EQ(low.points[0].cfg.org, (MemoryOrgConfig{1, 4}));
    EXPECT_EQ(low.points[2].cfg.org, (MemoryOrgConfig{4, 4}));
    EXPECT_EQ(low.points.back().cfg.org, (MemoryOrgConfig{2, 8}));

    // The scalar override applies when no axis sweeps the org, and the
    // axis supersedes it when one does.
    s.sweepMemoryOrg.clear();
    s.memoryOrg = MemoryOrgSpec{"8x2", std::nullopt};
    low = s.lower();
    ASSERT_EQ(low.points.size(), 2u);
    EXPECT_EQ(low.points[0].label, "inlet=46");
    for (const auto &pt : low.points)
        EXPECT_EQ(pt.cfg.org, (MemoryOrgConfig{8, 2}));
    s.sweepMemoryOrg = {MemoryOrgSpec{"", MemoryOrgConfig{2, 2}}};
    low = s.lower();
    for (const auto &pt : low.points)
        EXPECT_EQ(pt.cfg.org, (MemoryOrgConfig{2, 2}));
}

TEST(ScenarioSpec, RejectsBadMemoryOrganizations)
{
    ScenarioSpec base;
    base.name = "badorg";
    base.workloads = {"W1"};
    base.policies = {"No-limit"};

    // Non-positive counts, in the override and on the axis.
    for (auto bad : {MemoryOrgConfig{0, 4}, MemoryOrgConfig{4, 0},
                     MemoryOrgConfig{-2, 4}}) {
        SCOPED_TRACE(bad.nChannels);
        ScenarioSpec s = base;
        s.memoryOrg = MemoryOrgSpec{"", bad};
        EXPECT_THROW(s.lower(), FatalError);
        s = base;
        s.sweepMemoryOrg = {MemoryOrgSpec{"", bad}};
        EXPECT_THROW(s.lower(), FatalError);
    }
    try {
        ScenarioSpec s = base;
        s.memoryOrg = MemoryOrgSpec{"", MemoryOrgConfig{0, 4}};
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(">= 1 channel"),
                  std::string::npos)
            << e.what();
    }

    // Unknown catalog names list the valid keys.
    ScenarioSpec s = base;
    s.memoryOrg = MemoryOrgSpec{"16x16", std::nullopt};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("16x16"), std::string::npos) << msg;
        EXPECT_NE(msg.find("ch4_4x4"), std::string::npos) << msg;
    }

    // Duplicates collapse sweep points; comparison is by the *resolved*
    // organization, so a catalog name and an equal inline pair collide.
    s = base;
    s.sweepMemoryOrg = {MemoryOrgSpec{"2x4", std::nullopt},
                        MemoryOrgSpec{"2x4", std::nullopt}};
    EXPECT_THROW(s.lower(), FatalError);
    s = base;
    s.sweepMemoryOrg = {MemoryOrgSpec{"ch4_4x4", std::nullopt},
                        MemoryOrgSpec{"", MemoryOrgConfig{4, 4}}};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("duplicate sweep.memory_org"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("same organization as 'ch4_4x4'"),
                  std::string::npos)
            << msg;
    }

    // Platform scenarios fix the testbed's DIMM population.
    s = base;
    s.platform = "SR1500AL";
    s.policies = {"No-limit"};
    s.memoryOrg = MemoryOrgSpec{"2x4", std::nullopt};
    EXPECT_THROW(s.lower(), FatalError);
    s.memoryOrg = {};
    s.sweepMemoryOrg = {MemoryOrgSpec{"2x4", std::nullopt}};
    EXPECT_THROW(s.lower(), FatalError);
}

TEST(ScenarioSpec, MemoryOrgParsesNamesAndInlineObjects)
{
    ScenarioSpec s = ScenarioSpec::fromJson(Json::parse(R"({
        "name": "orgjson",
        "config": {"memory_org": "2x4"},
        "workloads": ["W1"],
        "policies": ["No-limit"],
        "sweep": {"memory_org": ["1x4", {"channels": 2, "dimms": 8}]}
    })"));
    EXPECT_EQ(s.memoryOrg.name, "2x4");
    ASSERT_EQ(s.sweepMemoryOrg.size(), 2u);
    EXPECT_EQ(s.sweepMemoryOrg[0].name, "1x4");
    ASSERT_TRUE(s.sweepMemoryOrg[1].value.has_value());
    EXPECT_EQ(*s.sweepMemoryOrg[1].value, (MemoryOrgConfig{2, 8}));
    EXPECT_EQ(s.sweepMemoryOrg[1].label(), "2x8");

    // Lossless round-trip, inline objects included.
    Json j = s.toJson();
    ScenarioSpec back = ScenarioSpec::fromJson(Json::parse(j.dump()));
    EXPECT_EQ(back, s);
    EXPECT_EQ(back.toJson(), j);

    // Malformed orgs fail loudly.
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"memory_org": 4}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"memory_org": {"channels": 4}}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"memory_org":
                         {"channels": 4, "dimms": 2.5}}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"memory_org":
                         {"channels": 4, "dimms": 4, "ranks": 2}}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"memory_org": ""}})")),
                 FatalError);

    // A default-constructed (empty) sweep entry has no serialized form
    // and no organization to resolve: both paths fail loudly.
    ScenarioSpec empty_entry = s;
    empty_entry.sweepMemoryOrg.push_back(MemoryOrgSpec{});
    EXPECT_THROW(empty_entry.toJson(), FatalError);
    EXPECT_THROW(empty_entry.lower(), FatalError);
}

TEST(ScenarioSpec, ValueErrorsNameTheFullPath)
{
    // One grammar for every value error, "<who>: '<path>' must be
    // <kind>", pinned for a knob, a sweep entry and an inline member of
    // each value type. Integers are range-checked before the cast: a
    // double outside the target type would otherwise cast with undefined
    // behavior (a garbage seed, or a wrapped count in the diagnostic).
    const std::string bands =
        R"({"min_temp": 0, "bw_fraction": 0, "dram_power_w": 0})";
    const std::string lineup =
        R"("workloads": ["W1"], "policies": ["No-limit"])";
    const struct
    {
        std::string text;
        std::string message;
    } cases[] = {
        // Top-level members.
        {R"({"name": 3})", "scenario: 'name' must be a string"},
        {R"({"workloads": "W1"})", "scenario: 'workloads' must be an array"},
        {R"({"policies": ["No-limit", 7]})",
         "scenario: 'policies[1]' must be a string"},
        {R"({"config": []})", "scenario: 'config' must be an object"},
        // Knobs.
        {R"({"config": {"cooling": 5}})",
         "scenario: 'config.cooling' must be a string"},
        {R"({"config": {"t_inlet": "hot"}})",
         "scenario: 'config.t_inlet' must be a number"},
        {R"({"config": {"copies_per_app": 2.5}})",
         "scenario: 'config.copies_per_app' must be an integer"},
        {R"({"config": {"copies_per_app": -1e10}})",
         "scenario: 'config.copies_per_app' must be within "
         "[-2147483648, 2147483647] (got -10000000000)"},
        {R"({"config": {"sensor_seed": "7"}})",
         "scenario: 'config.sensor_seed' must be a non-negative integer"},
        {R"({"config": {"sensor_seed": 1e30}})",
         "scenario: 'config.sensor_seed' must be within "
         "[0, 9007199254740992] (got 1e+30)"},
        {R"({"config": {"sensor_seed": 9007199254740994}})",
         "scenario: 'config.sensor_seed' must be within "
         "[0, 9007199254740992] (got 9007199254740994)"},
        {R"({"config": {"trace": ""}})",
         "scenario: 'config.trace' must be a non-empty path"},
        {R"({"config": {"memory_org": 4}})",
         "scenario: 'config.memory_org' must be a catalog name or a "
         "{channels, dimms} object"},
        {R"({"config": {"memory_org": ""}})",
         "scenario: 'config.memory_org' must be non-empty"},
        {R"({"config": {"traffic_shape": []}})",
         "scenario: 'config.traffic_shape' must be non-empty"},
        // Sweep arrays and entries.
        {R"({"sweep": {"t_inlet": 40}})",
         "scenario: 'sweep.t_inlet' must be an array"},
        {R"({"sweep": {"t_inlet": [40, "x"]}})",
         "scenario: 'sweep.t_inlet[1]' must be a number"},
        {R"({"sweep": {"cooling": ["AOHS_1.5", 3]}})",
         "scenario: 'sweep.cooling[1]' must be a string"},
        {R"({"sweep": {"copies_per_app": [2, 2.5]}})",
         "scenario: 'sweep.copies_per_app[1]' must be an integer"},
        {R"({"sweep": {"copies_per_app": [2, 4294967297]}})",
         "scenario: 'sweep.copies_per_app[1]' must be within "
         "[-2147483648, 2147483647] (got 4294967297)"},
        {R"({"sweep": {"traffic_shape": ["uniform", 0.5]}})",
         "scenario: 'sweep.traffic_shape[1]' must be a catalog shape name "
         "or an array of per-DIMM shares"},
        {R"({"sweep": {"refresh": ["none", 5]}})",
         "scenario: 'sweep.refresh[1]' must be a catalog refresh model "
         "name or an array of {min_temp, bw_fraction, dram_power_w[, "
         "latency_mult]} bands"},
        {R"({"sweep": {"thermal_model": [true]}})",
         "scenario: 'sweep.thermal_model[0]' must be a catalog thermal "
         "model name or a {grid_x, grid_z[, bank_weights]} object"},
        // Inline members.
        {R"({"sweep": {"memory_org": [{"channels": 2, "dimms": "four"}]}})",
         "scenario: 'sweep.memory_org[0].dimms' must be an integer"},
        {R"({"config": {"memory_org": {"channels": 4294967298, "dimms": 4}}})",
         "scenario: 'config.memory_org.channels' must be within "
         "[-2147483648, 2147483647] (got 4294967298)"},
        {R"({"config": {"memory_org": {"channels": 4}}})",
         "scenario: 'config.memory_org.dimms' must be present"},
        {R"({"sweep": {"memory_org":
             [{"channels": 1, "dimms": 1, "ranks": 2}]}})",
         "scenario: unknown member 'ranks' in 'sweep.memory_org[0]' "
         "(valid: channels, dimms)"},
        {R"({"sweep": {"traffic_shape": [[0.5, null]]}})",
         "scenario: 'sweep.traffic_shape[0][1]' must be a number"},
        {R"({"config": {"refresh": [)" + bands + "," + bands +
             R"(, {"min_temp": "x"}]}})",
         "scenario: 'config.refresh[2].min_temp' must be a number"},
        {R"({"config": {"refresh": [5]}})",
         "scenario: 'config.refresh[0]' must be an object"},
        {R"({"sweep": {"refresh": [[{"min_temp": 0, "bw_fraction": 0,
             "dram_power_w": 0, "latency_mult": "x"}]]}})",
         "scenario: 'sweep.refresh[0][0].latency_mult' must be a number"},
        {R"({"sweep": {"thermal_model":
             [{"grid_x": 4294967298, "grid_z": 2}]}})",
         "scenario: 'sweep.thermal_model[0].grid_x' must be within "
         "[-2147483648, 2147483647] (got 4294967298)"},
        {R"({"config": {"thermal_model":
             {"grid_x": 2, "grid_z": 2, "bank_weights": [0.5, "x"]}}})",
         "scenario: 'config.thermal_model.bank_weights[1]' must be a "
         "number"},
        // Bounds, checked when the spec lowers (so named by the spec).
        {R"({"name": "b", "config": {"copies_per_app": 0}, )" + lineup +
             "}",
         "scenario 'b': 'config.copies_per_app' must be >= 1"},
        {R"({"name": "b", "config": {"copies_per_app": 1025}, )" + lineup +
             "}",
         "scenario 'b': 'config.copies_per_app' must be <= 1024"},
        {R"({"name": "b", "sweep": {"copies_per_app": [1, 2000000000]}, )" +
             lineup + "}",
         "scenario 'b': 'sweep.copies_per_app[1]' must be <= 1024"},
        {R"({"name": "b", "sweep": {"dtm_interval": [0.01, 0]}, )" +
             lineup + "}",
         "scenario 'b': 'sweep.dtm_interval[1]' must be > 0"},
    };
    for (const auto &c : cases) {
        try {
            ScenarioSpec::fromJson(Json::parse(c.text)).validate();
            ADD_FAILURE() << "expected FatalError for " << c.text;
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()), "fatal: " + c.message) << c.text;
        }
    }

    // The integer range ends themselves still parse, exactly.
    ScenarioSpec s = ScenarioSpec::fromJson(Json::parse(R"({
        "config": {"sensor_seed": 9007199254740992,
                   "memory_org": {"channels": 2147483647,
                                  "dimms": -2147483648}}
    })"));
    EXPECT_EQ(s.sensorSeed, 9007199254740992ULL);
    EXPECT_EQ(*s.memoryOrg.value, (MemoryOrgConfig{INT_MAX, INT_MIN}));
    EXPECT_EQ(ScenarioSpec::fromJson(s.toJson()), s);

    // Programmatic specs meet the same bounds, named by their path.
    ScenarioSpec nonfinite;
    nonfinite.workloads = {"W1"};
    nonfinite.policies = {"No-limit"};
    nonfinite.sweepTInlet = {46.0, std::numeric_limits<double>::infinity()};
    try {
        nonfinite.lower();
        ADD_FAILURE() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "fatal: scenario: 'sweep.t_inlet[1]' must be finite");
    }
}

TEST(ScenarioSpec, RejectsNonFiniteSweepValuesAndOverrides)
{
    ScenarioSpec base;
    base.name = "nonfinite";
    base.workloads = {"W1"};
    base.policies = {"No-limit"};
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();

    // Before the fix a NaN sweep value was the "keep base" sentinel: it
    // silently collapsed onto the base configuration and its label
    // coordinate vanished. Now every non-finite value is rejected.
    for (double bad : {nan, inf, -inf}) {
        SCOPED_TRACE(bad);
        ScenarioSpec s = base;
        s.sweepTInlet = {46.0, bad};
        EXPECT_THROW(s.lower(), FatalError);
        s = base;
        s.sweepSensorNoise = {bad};
        EXPECT_THROW(s.lower(), FatalError);
        s = base;
        s.sweepDtmInterval = {bad};
        EXPECT_THROW(s.lower(), FatalError);
        s = base;
        s.tInlet = bad;
        EXPECT_THROW(s.lower(), FatalError);
        s = base;
        s.maxSimTime = bad;
        EXPECT_THROW(s.lower(), FatalError);
        s = base;
        s.sensorNoiseSigma = bad;
        EXPECT_THROW(s.lower(), FatalError);
    }
    try {
        ScenarioSpec s = base;
        s.sweepTInlet = {NAN};
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos)
            << e.what();
    }

    // Range checks on the scalar knobs.
    ScenarioSpec s = base;
    s.dtmInterval = 0.0;
    EXPECT_THROW(s.lower(), FatalError);
    s = base;
    s.instrScale = -1.0;
    EXPECT_THROW(s.lower(), FatalError);
    s = base;
    s.sweepSensorNoise = {-0.5};
    EXPECT_THROW(s.lower(), FatalError);
}

TEST(ScenarioSpec, RejectsDuplicateNamesAndSweepValues)
{
    ScenarioSpec base;
    base.name = "dups";
    base.workloads = {"W1"};
    base.policies = {"No-limit"};

    // SuiteResults is keyed [workload][policy]; duplicates would
    // silently overwrite results. The diagnostic names the offender.
    ScenarioSpec s = base;
    s.workloads = {"W1", "W2", "W1"};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("duplicate workload 'W1'"),
                  std::string::npos)
            << e.what();
    }
    s = base;
    s.policies = {"No-limit", "DTM-TS", "No-limit"};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("duplicate policy 'No-limit'"),
                  std::string::npos)
            << e.what();
    }

    // Duplicate sweep values produce identical point labels.
    s = base;
    s.sweepTInlet = {46.0, 48.0, 46.0};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("duplicate sweep.t_inlet value '46'"),
                  std::string::npos)
            << e.what();
    }
    s = base;
    s.sweepCooling = {"AOHS_1.5", "AOHS_1.5"};
    EXPECT_THROW(s.lower(), FatalError);
    s = base;
    s.sweepCopies = {2, 2};
    EXPECT_THROW(s.lower(), FatalError);
    s = base;
    s.sweepEmergencyLevels = {"ch4", "ch4"};
    EXPECT_THROW(s.lower(), FatalError);
    s = base;
    s.sweepDvfs = {"xeon5160", "xeon5160"};
    EXPECT_THROW(s.lower(), FatalError);
    s = base;
    s.sweepDtmInterval = {0.01, 0.01};
    EXPECT_THROW(s.lower(), FatalError);
}

TEST(ScenarioSpec, LabelsRenderFractionalAndNegativeValuesExactly)
{
    ScenarioSpec s;
    s.name = "labels";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.sweepTInlet = {-3.5, 0.25, 46.125};
    s.sweepSensorNoise = {0.1};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 3u);
    EXPECT_EQ(low.points[0].label, "inlet=-3.5,noise=0.1");
    EXPECT_EQ(low.points[1].label, "inlet=0.25,noise=0.1");
    EXPECT_EQ(low.points[2].label, "inlet=46.125,noise=0.1");
    EXPECT_EQ(low.points[0].cfg.ambient.tInlet, -3.5);
}

TEST(ScenarioSpec, NoSweepMeansOneBasePoint)
{
    ScenarioSpec s;
    s.name = "single";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 1u);
    EXPECT_EQ(low.points[0].label, "base");
    // Defaults are the Chapter 4 config.
    SimConfig ref = makeCh4Config(coolingAohs15(), false);
    EXPECT_EQ(low.points[0].cfg.copiesPerApp, ref.copiesPerApp);
    EXPECT_EQ(low.points[0].cfg.ambient.tInlet, ref.ambient.tInlet);
}

TEST(ScenarioSpec, PlatformScenariosUseTheCh5Lineup)
{
    ScenarioSpec s;
    s.name = "testbed";
    s.platform = "SR1500AL";
    s.copiesPerApp = 2;
    s.workloads = {"W1"};
    s.policies = {"No-limit", "DTM-BW"};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 1u);
    ASSERT_EQ(low.points[0].runs.size(), 2u);
    // Platform runs carry the Chapter 5 policy factory.
    EXPECT_TRUE(static_cast<bool>(low.points[0].runs[0].factory));
    // The paper's protocol: the SR1500AL No-limit baseline runs at a
    // 26 C room ambient instead of the hot box.
    EXPECT_EQ(low.points[0].runs[0].cfg.ambient.tInlet, 26.0);
    EXPECT_GT(low.points[0].runs[1].cfg.ambient.tInlet, 26.0);
    EXPECT_EQ(low.points[0].runs[1].cfg.copiesPerApp, 2);

    // Platform policies are validated against the Chapter 5 lineup.
    s.policies = {"DTM-BW+PID"};
    EXPECT_THROW(s.lower(), FatalError);
    // The cooling axis cannot apply to a fixed platform.
    s.policies = {"DTM-BW"};
    s.sweepCooling = {"AOHS_1.5"};
    EXPECT_THROW(s.lower(), FatalError);
    // Platforms also fix the DVFS table and derive their own ladders.
    s.sweepCooling.clear();
    s.dvfs = "xeon5160";
    EXPECT_THROW(s.lower(), FatalError);
    s.dvfs.clear();
    s.sweepEmergencyLevels = {"ch4"};
    EXPECT_THROW(s.lower(), FatalError);
    // The decision interval still sweeps on platforms; one below the
    // platform's coarser 0.1 s window shrinks the window with it.
    s.sweepEmergencyLevels.clear();
    s.sweepDtmInterval = {1.0, 2.0};
    LoweredScenario low2 = s.lower();
    ASSERT_EQ(low2.points.size(), 2u);
    EXPECT_EQ(low2.points[0].label, "dtm=1");
    EXPECT_EQ(low2.points[1].runs[0].cfg.dtmInterval, 2.0);
    EXPECT_EQ(low2.points[1].runs[0].cfg.window, 0.1);
    s.sweepDtmInterval = {0.01};
    EXPECT_EQ(s.lower().points[0].runs[0].cfg.window, 0.01);
}

TEST(ScenarioSpec, RemapKnobsValidateAgainstWindowAndDtmInterval)
{
    ScenarioSpec s;
    s.name = "remap";
    s.workloads = {"W1"};
    s.policies = {"DTM-remap", "DTM-remap-hyst", "DTM-TS+remap"};
    s.remapInterval = 0.25;
    s.remapHysteresis = 1.0;
    EXPECT_NO_THROW(s.lower());

    // Below the simulator window (same failure mode as dtm_interval:
    // the simulator could never hit the boundary).
    s.remapInterval = 0.005;
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("remap_interval 0.005 is below the simulator "
                           "window (0.01 s)"),
                  std::string::npos)
            << msg;
    }

    // Off the DTM decision grid: the error names both knobs.
    s.remapInterval = 0.025;
    s.dtmInterval = 0.02;
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("remap_interval 0.025 is not a whole multiple "
                           "of dtm_interval 0.02"),
                  std::string::npos)
            << msg;
    }

    // The check runs per grid point: every dtm axis value must divide
    // the remap period evenly.
    s.dtmInterval.reset();
    s.remapInterval = 0.06;
    s.sweepDtmInterval = {0.01, 0.02, 0.03};
    EXPECT_NO_THROW(s.lower());
    s.sweepDtmInterval = {0.01, 0.04};
    EXPECT_THROW(s.lower(), FatalError);

    // Scalar sanity.
    s.sweepDtmInterval.clear();
    s.remapInterval = -1.0;
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("'config.remap_interval' must be > 0"),
                  std::string::npos)
            << e.what();
    }
    s.remapInterval = 0.25;
    s.remapHysteresis = -0.5;
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("'config.remap_hysteresis' must be >= 0"),
                  std::string::npos)
            << e.what();
    }

    // Unset knobs impose no constraint — dtm_interval sweeps that never
    // name a remap policy (e.g. dtm_sensitivity) keep lowering.
    ScenarioSpec plain;
    plain.name = "no-remap";
    plain.workloads = {"W1"};
    plain.policies = {"DTM-TS"};
    plain.sweepDtmInterval = {0.03, 0.07};
    EXPECT_NO_THROW(plain.lower());
}

TEST(ScenarioSpec, PlatformScenariosRejectRemapKnobs)
{
    ScenarioSpec s;
    s.name = "testbed";
    s.platform = "SR1500AL";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.remapInterval = 1.0;
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("remove the remap_interval/remap_hysteresis "
                            "members"),
                  std::string::npos)
            << e.what();
    }
    s.remapInterval.reset();
    s.remapHysteresis = 2.0;
    EXPECT_THROW(s.lower(), FatalError);
}

TEST(ScenarioSpec, UnknownNamesReportValidKeys)
{
    ScenarioSpec s;
    s.name = "bad";
    s.workloads = {"W1"};
    s.policies = {"DTM-TURBO"};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("DTM-TURBO"), std::string::npos) << msg;
        EXPECT_NE(msg.find("valid:"), std::string::npos) << msg;
        EXPECT_NE(msg.find("DTM-CDVFS"), std::string::npos) << msg;
    }

    s.policies = {"No-limit"};
    s.workloads = {"W99"};
    EXPECT_THROW(s.lower(), FatalError);

    s.workloads = {"W1"};
    s.cooling = "WATER_9000";
    EXPECT_THROW(s.lower(), FatalError);

    ScenarioSpec empty;
    empty.policies = {"No-limit"};
    EXPECT_THROW(empty.lower(), FatalError); // no workloads
}

TEST(ScenarioSpec, ParserRejectsUnknownMembers)
{
    EXPECT_THROW(
        ScenarioSpec::fromJson(Json::parse(R"({"workload": ["W1"]})")),
        FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(
                     Json::parse(R"({"config": {"cooling_rate": 2}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(
                     Json::parse(R"({"sweep": {"ambient": ["a"]}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(R"(["not an object"])")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"copies_per_app": 2.5}})")),
                 FatalError);
}

/**
 * Acceptance pin: running the shipped ch4_baseline scenario is
 * bit-identical to simulating each hand-built run on its own
 * (`memtherm run examples/scenarios/ch4_baseline.json` executes exactly
 * the runScenario path).
 */
TEST(Scenario, Ch4BaselineMatchesHandCodedEngineBitExactly)
{
    ScenarioSpec spec = ScenarioSpec::load(scenarioPath("ch4_baseline.json"));
    ASSERT_EQ(spec.name, "ch4_baseline");

    ExperimentEngine engine(2);
    ScenarioResults got = runScenario(spec, engine);
    ASSERT_EQ(got.points.size(), 1u);
    EXPECT_EQ(got.points[0].label, "base");

    // The hand-coded equivalent, built without the scenario layer.
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 4;
    SuiteResults ref;
    for (const char *w : {"W1", "W2"})
        for (const char *p :
             {"No-limit", "DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"})
            ref[w][p] = simulateAlone(cfg, w, p);

    const SuiteResults &suite = got.points[0].suite;
    ASSERT_EQ(suite.size(), ref.size());
    for (const auto &[w, per_policy] : ref) {
        ASSERT_EQ(suite.count(w), 1u);
        ASSERT_EQ(suite.at(w).size(), per_policy.size());
        for (const auto &[p, res] : per_policy) {
            SCOPED_TRACE(w + "/" + p);
            expectIdentical(suite.at(w).at(p), res);
        }
    }

    // And the serialized form carries the same numbers.
    Json j = toJson(got);
    const Json &r =
        j.at("points").asArray()[0].at("results").at("W1").at("DTM-TS");
    EXPECT_EQ(r.at("running_time_s").asNumber(),
              ref.at("W1").at("DTM-TS").runningTime);
    EXPECT_EQ(r.at("mem_energy_j").asNumber(),
              ref.at("W1").at("DTM-TS").memEnergy);
}

/**
 * The new axes lower bit-identically too: a dtm_interval x
 * emergency_levels x dvfs sweep equals hand-building each SimConfig
 * (decision period, ladder, operating table) and simulating each run
 * on its own.
 */
TEST(Scenario, NewAxesMatchHandCodedEngineBitExactly)
{
    ScenarioSpec spec;
    spec.name = "knob_grid";
    spec.copiesPerApp = 1;
    spec.maxSimTime = 500.0;
    spec.workloads = {"swimx2"};
    spec.policies = {"DTM-CDVFS"};
    spec.sweepDtmInterval = {0.01, 0.1};
    spec.sweepEmergencyLevels = {"ch4", "sr1500al"};
    spec.sweepDvfs = {"simulated_cmp", "xeon5160"};

    ExperimentEngine engine(2);
    ScenarioResults got = runScenario(spec, engine);
    ASSERT_EQ(got.points.size(), 8u);

    // The hand-coded equivalent, built without the scenario layer.
    std::vector<SimResult> ref;
    for (double dtm : {0.01, 0.1}) {
        for (const char *ladder : {"ch4", "sr1500al"}) {
            for (const char *table : {"simulated_cmp", "xeon5160"}) {
                SimConfig cfg = makeCh4Config(coolingAohs15(), false);
                cfg.copiesPerApp = 1;
                cfg.maxSimTime = 500.0;
                cfg.dtmInterval = dtm;
                cfg.emergencyLevels = emergencyLevelCatalog().get(ladder);
                cfg.dvfs = dvfsCatalog().get(table);
                ref.push_back(simulateAlone(cfg, "swimx2", "DTM-CDVFS"));
            }
        }
    }
    ASSERT_EQ(ref.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        SCOPED_TRACE(got.points[i].label);
        expectIdentical(got.points[i].suite.at("swimx2").at("DTM-CDVFS"),
                        ref[i]);
    }
}

/**
 * The interaction-degree and rotation-slice axes lower bit-identically
 * too: each point equals hand-setting psiCpuMemXi, rotationSlice and
 * the window the slice needs, simulated on its own.
 */
TEST(Scenario, DegreeAndSliceAxesMatchHandBuiltRunsBitExactly)
{
    ScenarioSpec spec;
    spec.name = "degree_slice";
    spec.ambient = "integrated";
    spec.copiesPerApp = 1;
    spec.maxSimTime = 300.0;
    spec.workloads = {"swimx6"};
    spec.policies = {"DTM-ACG"};
    spec.sweepInteractionDegree = {1.0, 2.0};
    spec.sweepRotationSlice = {0.005, 0.1};

    ExperimentEngine engine(2);
    ScenarioResults got = runScenario(spec, engine);
    ASSERT_EQ(got.points.size(), 4u);
    std::size_t i = 0;
    for (double degree : {1.0, 2.0}) {
        for (double slice : {0.005, 0.1}) {
            SCOPED_TRACE(got.points[i].label);
            SimConfig cfg = makeCh4Config(coolingAohs15(), true);
            cfg.copiesPerApp = 1;
            cfg.maxSimTime = 300.0;
            cfg.ambient.psiCpuMemXi = degree * 3.0;
            cfg.rotationSlice = slice;
            cfg.window = std::min(cfg.window, slice);
            expectIdentical(got.points[i++].suite.at("swimx6").at("DTM-ACG"),
                            simulateAlone(cfg, "swimx6", "DTM-ACG"));
        }
    }
}

/**
 * The memory_org axis lowers bit-identically as well: sweeping named
 * and inline organizations equals hand-setting SimConfig::org for each
 * point and simulating each run on its own. Doubles as the
 * per-DIMM-peak contract check: one peak pair per DIMM of the point's
 * organization, bounded by the run's maxima, with the bypass gradient
 * (DIMM 0 relays all downstream traffic) visible on the AMBs.
 */
TEST(Scenario, MemoryOrgAxisMatchesHandCodedEngineBitExactly)
{
    ScenarioSpec spec;
    spec.name = "org_grid";
    spec.copiesPerApp = 1;
    spec.maxSimTime = 300.0;
    spec.workloads = {"swimx2"};
    spec.policies = {"No-limit"};
    spec.sweepMemoryOrg = {MemoryOrgSpec{"1x4", std::nullopt},
                           MemoryOrgSpec{"ch4_4x4", std::nullopt},
                           MemoryOrgSpec{"", MemoryOrgConfig{2, 8}}};

    ExperimentEngine engine(2);
    ScenarioResults got = runScenario(spec, engine);
    ASSERT_EQ(got.points.size(), 3u);

    // The hand-coded equivalent, built without the scenario layer.
    std::vector<SimResult> ref;
    for (auto org : {MemoryOrgConfig{1, 4}, MemoryOrgConfig{4, 4},
                     MemoryOrgConfig{2, 8}}) {
        SimConfig cfg = makeCh4Config(coolingAohs15(), false);
        cfg.copiesPerApp = 1;
        cfg.maxSimTime = 300.0;
        cfg.org = org;
        ref.push_back(simulateAlone(cfg, "swimx2", "No-limit"));
    }
    ASSERT_EQ(ref.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        SCOPED_TRACE(got.points[i].label);
        expectIdentical(got.points[i].suite.at("swimx2").at("No-limit"),
                        ref[i]);
    }

    // Per-DIMM peaks: sized by the organization, consistent with the
    // scalar maxima, and monotonically cooler down the daisy chain for
    // the AMBs (uniform interleave: bypass traffic decreases with the
    // distance from the controller).
    const std::size_t depth[] = {4u, 4u, 8u};
    for (std::size_t i = 0; i < 3; ++i) {
        SCOPED_TRACE(got.points[i].label);
        const SimResult &r = got.points[i].suite.at("swimx2").at("No-limit");
        ASSERT_EQ(r.peakAmbPerDimm.size(), depth[i]);
        ASSERT_EQ(r.peakDramPerDimm.size(), depth[i]);
        double hottest = 0.0;
        for (std::size_t d = 0; d < depth[i]; ++d) {
            EXPECT_LE(r.peakAmbPerDimm[d], r.maxAmb);
            EXPECT_LE(r.peakDramPerDimm[d], r.maxDram);
            hottest = std::max(hottest, r.peakAmbPerDimm[d]);
            if (d > 0) {
                EXPECT_LE(r.peakAmbPerDimm[d], r.peakAmbPerDimm[d - 1]);
            }
        }
        EXPECT_EQ(hottest, r.maxAmb);
        EXPECT_EQ(r.peakAmbPerDimm.front(), r.maxAmb);
    }
    // Concentrating the same traffic on one channel runs hotter than
    // spreading it over four (the Section 3.4 story).
    EXPECT_GT(got.points[0].suite.at("swimx2").at("No-limit").maxAmb,
              got.points[1].suite.at("swimx2").at("No-limit").maxAmb);
}

TEST(ScenarioSpec, RefreshAxisLowersAcrossTheGrid)
{
    ScenarioSpec s;
    s.name = "refresh_axis";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.sweepTInlet = {46.0, 50.0};
    s.sweepRefresh = {RefreshSpec{"none", {}}, RefreshSpec{"ddr2_2x", {}}};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 4u); // 2 inlets x 2 refresh models
    // Refresh is the tenth (fastest) axis; its coordinate labels last.
    EXPECT_EQ(low.points[0].label, "inlet=46,refresh=none");
    EXPECT_EQ(low.points[1].label, "inlet=46,refresh=ddr2_2x");
    EXPECT_EQ(low.points.back().label, "inlet=50,refresh=ddr2_2x");

    // The coordinates land in the configurations: "none" resolves to
    // the empty (feedback-off) model, ddr2_2x to the real band table.
    EXPECT_TRUE(low.points[0].cfg.refresh.empty());
    EXPECT_FALSE(low.points[1].cfg.refresh.empty());
    EXPECT_EQ(low.points[1].cfg.refresh.bands.size(),
              ddr2DoubleRefreshModel().bands.size());

    // The scalar member applies when no axis sweeps refresh, and the
    // axis supersedes it when one does.
    s.sweepRefresh.clear();
    s.refresh = RefreshSpec{"aldram", {}};
    low = s.lower();
    ASSERT_EQ(low.points.size(), 2u);
    for (const auto &pt : low.points) {
        EXPECT_EQ(pt.cfg.refresh.bands.size(),
                  aldramRefreshModel().bands.size());
    }
    s.sweepRefresh = {RefreshSpec{"none", {}}, RefreshSpec{"ddr2_2x", {}}};
    low = s.lower();
    EXPECT_TRUE(low.points[0].cfg.refresh.empty()); // axis wins

    // An inline band table lowers too, with a label free of ',' / '='.
    s.refresh = RefreshSpec{};
    s.sweepRefresh = {
        RefreshSpec{"", {{-273.15, 0.01, 0.1, 1.0}, {80.0, 0.02, 0.2, 1.0}}}};
    s.sweepTInlet.clear();
    low = s.lower();
    ASSERT_EQ(low.points.size(), 1u);
    EXPECT_EQ(low.points[0].label, "refresh=-273.15:0.01:0.1|80:0.02:0.2");
    EXPECT_EQ(low.points[0].cfg.refresh.bands.size(), 2u);

    // Unknown catalog names report the valid keys.
    s.sweepRefresh = {RefreshSpec{"ddr3", {}}};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown refresh model 'ddr3'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("ddr2_2x"), std::string::npos) << msg;
    }

    // Malformed inline tables name the offense.
    s.sweepRefresh = {RefreshSpec{"", {{-273.15, 1.5, 0.1, 1.0}}}};
    EXPECT_THROW(s.lower(), FatalError); // bw_fraction outside [0, 1)
    s.sweepRefresh = {
        RefreshSpec{"", {{80.0, 0.01, 0.1, 1.0}, {70.0, 0.02, 0.2, 1.0}}}};
    EXPECT_THROW(s.lower(), FatalError); // min_temp not increasing
    s.sweepRefresh = {RefreshSpec{"", {{-273.15, 0.01, -0.1, 1.0}}}};
    EXPECT_THROW(s.lower(), FatalError); // negative dram_power_w
    s.sweepRefresh = {RefreshSpec{"", {{-273.15, 0.01, 0.1, 0.0}}}};
    EXPECT_THROW(s.lower(), FatalError); // non-positive latency_mult

    // Duplicate sweep entries (by resolved model, not spelling).
    s.sweepRefresh = {RefreshSpec{"none", {}}, RefreshSpec{"none", {}}};
    EXPECT_THROW(s.lower(), FatalError);
    s.sweepRefresh = {RefreshSpec{"ddr2_2x", {}},
                      RefreshSpec{"", ddr2DoubleRefreshModel().bands}};
    EXPECT_THROW(s.lower(), FatalError);

    // Platform scenarios measure real DRAM — the knob is rejected.
    ScenarioSpec plat;
    plat.name = "plat_refresh";
    plat.platform = "SR1500AL";
    plat.workloads = {"W1"};
    plat.policies = {"No-limit"};
    plat.refresh = RefreshSpec{"ddr2_2x", {}};
    EXPECT_THROW(plat.lower(), FatalError);
    plat.refresh = RefreshSpec{};
    plat.sweepRefresh = {RefreshSpec{"ddr2_2x", {}}};
    EXPECT_THROW(plat.lower(), FatalError);
}

TEST(ScenarioSpec, TrafficShapeAxisLowersAcrossTheGrid)
{
    ScenarioSpec s;
    s.name = "shapes";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.sweepTrafficShape = {TrafficShapeSpec{"hot_dimm0", {}},
                           TrafficShapeSpec{"", {0.7, 0.1, 0.1, 0.1}}};
    s.sweepTInlet = {46.0, 50.0};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 4u); // 2 shapes x 2 inlets
    // The shape axis labels right after the organization.
    EXPECT_EQ(low.points[0].label, "shape=hot_dimm0,inlet=46");
    EXPECT_EQ(low.points[1].label, "shape=hot_dimm0,inlet=50");
    EXPECT_EQ(low.points[2].label, "shape=0.7|0.1|0.1|0.1,inlet=46");
    EXPECT_EQ(low.points.back().label, "shape=0.7|0.1|0.1|0.1,inlet=50");

    // The coordinates land in the configurations, resolved against the
    // base (4x4) organization.
    EXPECT_EQ(low.points[0].cfg.trafficShares,
              trafficShapeCatalog().get("hot_dimm0", 4));
    EXPECT_EQ(low.points[2].cfg.trafficShares,
              (std::vector<double>{0.7, 0.1, 0.1, 0.1}));

    // The scalar override applies when no axis sweeps the shape, and
    // the axis supersedes it when one does.
    s.sweepTrafficShape.clear();
    s.trafficShape = TrafficShapeSpec{"linear_taper", {}};
    low = s.lower();
    ASSERT_EQ(low.points.size(), 2u);
    EXPECT_EQ(low.points[0].label, "inlet=46");
    for (const auto &pt : low.points) {
        EXPECT_EQ(pt.cfg.trafficShares,
                  trafficShapeCatalog().get("linear_taper", 4));
    }
    s.sweepTrafficShape = {TrafficShapeSpec{"front_heavy", {}}};
    low = s.lower();
    for (const auto &pt : low.points) {
        EXPECT_EQ(pt.cfg.trafficShares,
                  trafficShapeCatalog().get("front_heavy", 4));
    }
}

TEST(ScenarioSpec, TrafficShapesReResolvePerOrganizationPoint)
{
    // A catalog shape is parameterized by the chain depth: sweeping the
    // organization re-resolves it at every point, so a 2-DIMM and an
    // 8-DIMM grid point each get a share vector of their own arity.
    ScenarioSpec s;
    s.name = "shape_x_org";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.sweepMemoryOrg = {MemoryOrgSpec{"4x2", std::nullopt},
                        MemoryOrgSpec{"4x8", std::nullopt}};
    s.sweepTrafficShape = {TrafficShapeSpec{"front_heavy", {}}};

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 2u);
    EXPECT_EQ(low.points[0].label, "org=4x2,shape=front_heavy");
    EXPECT_EQ(low.points[0].cfg.trafficShares,
              trafficShapeCatalog().get("front_heavy", 2));
    EXPECT_EQ(low.points[1].cfg.trafficShares,
              trafficShapeCatalog().get("front_heavy", 8));

    // The scalar shape member re-resolves the same way.
    s.sweepTrafficShape.clear();
    s.trafficShape = TrafficShapeSpec{"back_heavy", {}};
    low = s.lower();
    ASSERT_EQ(low.points.size(), 2u);
    EXPECT_EQ(low.points[0].cfg.trafficShares,
              trafficShapeCatalog().get("back_heavy", 2));
    EXPECT_EQ(low.points[1].cfg.trafficShares,
              trafficShapeCatalog().get("back_heavy", 8));
}

TEST(ScenarioSpec, RejectsBadTrafficShapes)
{
    ScenarioSpec base;
    base.name = "badshape";
    base.workloads = {"W1"};
    base.policies = {"No-limit"};

    // Negative shares, sums off 1, and non-finite entries, on the
    // scalar member and the axis alike.
    for (auto bad : {std::vector<double>{1.5, -0.5, 0.0, 0.0},
                     std::vector<double>{0.5, 0.2, 0.2, 0.2},
                     std::vector<double>{0.25, 0.25, 0.25,
                                         std::numeric_limits<
                                             double>::quiet_NaN()}}) {
        SCOPED_TRACE(bad[0]);
        ScenarioSpec s = base;
        s.trafficShape = TrafficShapeSpec{"", bad};
        EXPECT_THROW(s.lower(), FatalError);
        s = base;
        s.sweepTrafficShape = {TrafficShapeSpec{"", bad}};
        EXPECT_THROW(s.lower(), FatalError);
    }
    try {
        ScenarioSpec s = base;
        s.trafficShape = TrafficShapeSpec{"", {1.5, -0.5, 0.0, 0.0}};
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("must not be negative"),
                  std::string::npos)
            << e.what();
    }
    try {
        ScenarioSpec s = base;
        s.trafficShape = TrafficShapeSpec{"", {0.5, 0.2, 0.2, 0.2}};
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("must sum to 1"),
                  std::string::npos)
            << e.what();
    }

    // Unknown catalog names list the valid keys.
    ScenarioSpec s = base;
    s.trafficShape = TrafficShapeSpec{"zigzag", {}};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("zigzag"), std::string::npos) << msg;
        EXPECT_NE(msg.find("linear_taper"), std::string::npos) << msg;
    }

    // An inline vector whose arity does not match the swept
    // organization is rejected with both axes named.
    s = base;
    s.trafficShape = TrafficShapeSpec{"", {0.25, 0.25, 0.25, 0.25}};
    s.sweepMemoryOrg = {MemoryOrgSpec{"4x2", std::nullopt}};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("config.traffic_shape"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("has 4 share(s)"), std::string::npos) << msg;
        EXPECT_NE(msg.find("sweep.memory_org organization '4x2'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("2 DIMM(s) per channel"), std::string::npos)
            << msg;
    }
    // Same for a swept inline vector against the scalar organization.
    s = base;
    s.memoryOrg = MemoryOrgSpec{"4x8", std::nullopt};
    s.sweepTrafficShape = {TrafficShapeSpec{"", {0.5, 0.5}}};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("sweep.traffic_shape entry '0.5|0.5'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("config.memory_org organization '4x8'"),
                  std::string::npos)
            << msg;
    }
    // And against the implicit base organization.
    s = base;
    s.trafficShape = TrafficShapeSpec{"", {0.5, 0.5}};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("the base organization (4x4)"),
                  std::string::npos)
            << e.what();
    }

    // Duplicates compare by the *resolved* share vector: a repeated
    // name, a name against an equal inline vector, and two distinct
    // names that coincide at some swept chain depth all collide.
    s = base;
    s.sweepTrafficShape = {TrafficShapeSpec{"hot_dimm0", {}},
                           TrafficShapeSpec{"hot_dimm0", {}}};
    EXPECT_THROW(s.lower(), FatalError);
    s = base;
    s.sweepTrafficShape = {TrafficShapeSpec{"uniform", {}},
                           TrafficShapeSpec{"", {0.25, 0.25, 0.25, 0.25}}};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("duplicate sweep.traffic_shape"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("same shares as 'uniform'"), std::string::npos)
            << msg;
    }
    // front_heavy and linear_taper both resolve to {2/3, 1/3} on a
    // two-DIMM chain, so the pair is fine on 4x4 but collides under a
    // swept 4x2 organization.
    s = base;
    s.sweepTrafficShape = {TrafficShapeSpec{"front_heavy", {}},
                           TrafficShapeSpec{"linear_taper", {}}};
    EXPECT_NO_THROW(s.lower());
    s.sweepMemoryOrg = {MemoryOrgSpec{"4x2", std::nullopt}};
    try {
        s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("duplicate sweep.traffic_shape shape "
                           "'linear_taper'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("under sweep.memory_org organization '4x2'"),
                  std::string::npos)
            << msg;
    }

    // Platform scenarios measure their traffic; the knob is rejected.
    s = base;
    s.platform = "SR1500AL";
    s.trafficShape = TrafficShapeSpec{"hot_dimm0", {}};
    EXPECT_THROW(s.lower(), FatalError);
    s.trafficShape = {};
    s.sweepTrafficShape = {TrafficShapeSpec{"hot_dimm0", {}}};
    EXPECT_THROW(s.lower(), FatalError);
}

TEST(ScenarioSpec, TrafficShapeParsesNamesAndInlineVectors)
{
    ScenarioSpec s = ScenarioSpec::fromJson(Json::parse(R"({
        "name": "shapejson",
        "config": {"traffic_shape": "hot_dimm0"},
        "workloads": ["W1"],
        "policies": ["No-limit"],
        "sweep": {"traffic_shape": ["linear_taper", [0.7, 0.1, 0.1, 0.1]]}
    })"));
    EXPECT_EQ(s.trafficShape.name, "hot_dimm0");
    ASSERT_EQ(s.sweepTrafficShape.size(), 2u);
    EXPECT_EQ(s.sweepTrafficShape[0].name, "linear_taper");
    EXPECT_EQ(s.sweepTrafficShape[1].value,
              (std::vector<double>{0.7, 0.1, 0.1, 0.1}));
    EXPECT_EQ(s.sweepTrafficShape[1].label(), "0.7|0.1|0.1|0.1");

    // Lossless round-trip, inline vectors included.
    Json j = s.toJson();
    ScenarioSpec back = ScenarioSpec::fromJson(Json::parse(j.dump()));
    EXPECT_EQ(back, s);
    EXPECT_EQ(back.toJson(), j);

    // Malformed shapes fail loudly.
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"traffic_shape": 4}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"traffic_shape": ""}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"traffic_shape": []}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"config": {"traffic_shape": [0.5, "x"]}})")),
                 FatalError);
    EXPECT_THROW(ScenarioSpec::fromJson(Json::parse(
                     R"({"sweep": {"traffic_shape": "uniform"}})")),
                 FatalError);

    // A default-constructed (empty) sweep entry has no serialized form
    // and no shares to resolve: both paths fail loudly.
    ScenarioSpec empty_entry = s;
    empty_entry.sweepTrafficShape.push_back(TrafficShapeSpec{});
    EXPECT_THROW(empty_entry.toJson(), FatalError);
    EXPECT_THROW(empty_entry.lower(), FatalError);
}

/**
 * Acceptance pin: a run with the traffic_shape knob set to "uniform"
 * (or the equivalent inline vector) is bit-identical to a run with the
 * knob unset — the explicit share path feeds the traffic decomposition
 * the exact 1/n fractions the empty-shares path uses.
 */
TEST(Scenario, UniformTrafficShapeIsBitIdenticalToUnset)
{
    ScenarioSpec spec;
    spec.name = "uniform_pin";
    spec.copiesPerApp = 1;
    spec.maxSimTime = 200.0;
    spec.workloads = {"swimx2"};
    spec.policies = {"No-limit"};

    ExperimentEngine engine(1);
    ScenarioResults unset = runScenario(spec, engine);

    spec.trafficShape = TrafficShapeSpec{"uniform", {}};
    ScenarioResults named = runScenario(spec, engine);

    spec.trafficShape = TrafficShapeSpec{"", {0.25, 0.25, 0.25, 0.25}};
    ScenarioResults inline_uniform = runScenario(spec, engine);

    const SimResult &a = unset.points[0].suite.at("swimx2").at("No-limit");
    expectIdentical(a, named.points[0].suite.at("swimx2").at("No-limit"));
    expectIdentical(
        a, inline_uniform.points[0].suite.at("swimx2").at("No-limit"));
}

/**
 * The traffic_shape axis lowers bit-identically as well: sweeping named
 * and inline shapes across organizations equals hand-setting
 * SimConfig::trafficShares for each point and simulating each run on
 * its own. Doubles as the per-DIMM average-power contract check
 * and pins the gradient inversion a back-heavy skew produces.
 */
TEST(Scenario, TrafficShapeAxisMatchesHandCodedEngineBitExactly)
{
    ScenarioSpec spec;
    spec.name = "shape_grid";
    spec.copiesPerApp = 1;
    spec.maxSimTime = 300.0;
    spec.workloads = {"swimx2"};
    spec.policies = {"No-limit"};
    spec.sweepTrafficShape = {TrafficShapeSpec{"uniform", {}},
                              TrafficShapeSpec{"back_heavy", {}},
                              TrafficShapeSpec{"", {0.7, 0.1, 0.1, 0.1}}};

    ExperimentEngine engine(2);
    ScenarioResults got = runScenario(spec, engine);
    ASSERT_EQ(got.points.size(), 3u);

    // The hand-coded equivalent, built without the scenario layer.
    std::vector<SimResult> ref;
    for (auto shares : {trafficShapeCatalog().get("uniform", 4),
                        trafficShapeCatalog().get("back_heavy", 4),
                        std::vector<double>{0.7, 0.1, 0.1, 0.1}}) {
        SimConfig cfg = makeCh4Config(coolingAohs15(), false);
        cfg.copiesPerApp = 1;
        cfg.maxSimTime = 300.0;
        cfg.trafficShares = shares;
        ref.push_back(simulateAlone(cfg, "swimx2", "No-limit"));
    }
    ASSERT_EQ(ref.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        SCOPED_TRACE(got.points[i].label);
        expectIdentical(got.points[i].suite.at("swimx2").at("No-limit"),
                        ref[i]);
    }

    // Per-DIMM average power: one entry per DIMM; summed over the
    // representative channel and scaled by the channel count it
    // recovers the run's mean memory power.
    for (const auto &pt : got.points) {
        SCOPED_TRACE(pt.label);
        const SimResult &r = pt.suite.at("swimx2").at("No-limit");
        ASSERT_EQ(r.avgPowerPerDimm.size(), 4u);
        double channel = 0.0;
        for (double p : r.avgPowerPerDimm) {
            EXPECT_GT(p, 0.0);
            channel += p;
        }
        EXPECT_NEAR(channel * 4, r.avgMemPower(),
                    1e-9 * r.avgMemPower());
    }

    // The gradient inversion: under uniform interleave the AMB peaks
    // fall monotonically down the chain; a back-heavy skew loads the
    // chain's far end instead, so the profile turns non-monotone (and
    // the hottest DRAM moves off DIMM 0 entirely).
    const SimResult &uni = got.points[0].suite.at("swimx2").at("No-limit");
    const SimResult &back = got.points[1].suite.at("swimx2").at("No-limit");
    for (std::size_t d = 1; d < 4; ++d)
        EXPECT_LE(uni.peakAmbPerDimm[d], uni.peakAmbPerDimm[d - 1]);
    EXPECT_GT(back.peakAmbPerDimm[2], back.peakAmbPerDimm[0]);
    EXPECT_GT(back.peakDramPerDimm[2], back.peakDramPerDimm[0]);
    EXPECT_GT(back.avgPowerPerDimm[3], back.avgPowerPerDimm[0]);
}

} // namespace
} // namespace memtherm
