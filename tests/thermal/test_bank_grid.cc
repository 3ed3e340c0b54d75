/**
 * @file
 * Property tests pinning the bank-grid thermal overlay against the
 * lumped per-DIMM model (the correctness contract of
 * core/thermal/bank_grid.hh):
 *
 *  - under uniform per-bank traffic every bank cell is bit-identical to
 *    the lumped DRAM node, across organizations, traffic shapes and
 *    refresh models over seeded random inputs;
 *  - the smoothing operator conserves the weight sum and fixes constant
 *    fields, so the grid's mean target tracks the lumped target for
 *    arbitrary random weight vectors (<= 1e-6 relative);
 *  - `thermal_model: "lumped"` is bit-identical to leaving the knob
 *    unset, and a grid-free result carries no per-bank fields;
 *  - batched/forked lanes are bit-identical to scalar runs with the
 *    grid active;
 *  - concentrated weights expose a per-bank hotspot >= 5 C above the
 *    lumped DIMM peak (the bank_hotspot example's headline);
 *  - ThermalModelSpec and lower() report bad grids and conflicting
 *    knobs as FatalError with the documented messages.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/sim/engine.hh"
#include "core/sim/registry.hh"
#include "core/sim/scenario.hh"
#include "core/thermal/bank_grid.hh"
#include "core/thermal/memory_thermal.hh"

namespace memtherm
{
namespace
{

/** Random non-negative weight vector summing to 1. */
std::vector<double>
randomWeights(Rng &rng, int n)
{
    std::vector<double> w(n);
    double sum = 0.0;
    for (double &v : w) {
        v = rng.uniform() + 1e-3; // bounded away from all-zero
        sum += v;
    }
    for (double &v : w)
        v /= sum;
    return w;
}

/** Exact (bitwise) equality of two results, per-bank fields included. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.runningTime, b.runningTime);
    EXPECT_EQ(a.totalInstr, b.totalInstr);
    EXPECT_EQ(a.memEnergy, b.memEnergy);
    EXPECT_EQ(a.cpuEnergy, b.cpuEnergy);
    EXPECT_EQ(a.maxAmb, b.maxAmb);
    EXPECT_EQ(a.maxDram, b.maxDram);
    EXPECT_EQ(a.peakAmbPerDimm, b.peakAmbPerDimm);
    EXPECT_EQ(a.peakDramPerDimm, b.peakDramPerDimm);
    EXPECT_EQ(a.avgPowerPerDimm, b.avgPowerPerDimm);
    EXPECT_EQ(a.refreshBwLossPerDimm, b.refreshBwLossPerDimm);
    EXPECT_EQ(a.refreshEnergyPerDimm, b.refreshEnergyPerDimm);
    EXPECT_EQ(a.bankGridX, b.bankGridX);
    EXPECT_EQ(a.bankGridZ, b.bankGridZ);
    EXPECT_EQ(a.peakBankDramPerDimm, b.peakBankDramPerDimm);
    EXPECT_EQ(a.ambTrace.values(), b.ambTrace.values());
    EXPECT_EQ(a.dramTrace.values(), b.dramTrace.values());
    EXPECT_EQ(a.bwTrace.values(), b.bwTrace.values());
}

// --- primitive layer --------------------------------------------------

TEST(BankGridPrimitives, UniformWeightsResolveToExactlyOne)
{
    // The uniform fast path must write exactly 1.0 (no 1/N round-trip):
    // this is what makes a uniform cell bit-identical to the lumped
    // DRAM node.
    for (auto [x, z, dimms] : {std::tuple{4, 2, 4}, {1, 1, 1}, {8, 4, 8}}) {
        BankGridConfig g{x, z, {}};
        std::vector<double> w = resolveBankCellWeights(g, dimms);
        ASSERT_EQ(w.size(), static_cast<std::size_t>(dimms) * g.cells());
        for (double v : w)
            EXPECT_EQ(v, 1.0);
    }
}

TEST(BankGridPrimitives, SmoothingConservesSumOnRandomFields)
{
    Rng rng(20260808);
    for (auto [x, z] : {std::tuple{4, 2}, {1, 1}, {1, 8}, {5, 3}}) {
        BankGridConfig g{x, z, {}};
        for (int trial = 0; trial < 50; ++trial) {
            std::vector<double> w = randomWeights(rng, g.cells());
            std::vector<double> out(w.size());
            smoothBankCells(g, w.data(), out.data());
            const double before =
                std::accumulate(w.begin(), w.end(), 0.0);
            const double after =
                std::accumulate(out.begin(), out.end(), 0.0);
            EXPECT_NEAR(after, before, 1e-12);
            // Smoothing contracts toward the mean: no new extrema.
            const double lo = *std::min_element(w.begin(), w.end());
            const double hi = *std::max_element(w.begin(), w.end());
            for (double v : out) {
                EXPECT_GE(v, lo - 1e-12);
                EXPECT_LE(v, hi + 1e-12);
            }
        }
    }
}

TEST(BankGridPrimitives, SmoothingFixesConstantFieldsExactly)
{
    // Constant fields must be *exact* fixed points (the flux sums to
    // exactly 0.0), another link in the uniform == lumped bit-identity.
    BankGridConfig g{4, 2, {}};
    std::vector<double> w(g.cells(), 1.0);
    std::vector<double> out(w.size(), -1.0);
    smoothBankCells(g, w.data(), out.data());
    for (double v : out)
        EXPECT_EQ(v, 1.0);
}

TEST(BankGridPrimitives, ScaledWeightsAverageOnePerDimmBlock)
{
    // sum(weights) == 1 and smoothing conserves the sum, so the scaled
    // (x cells) weights average exactly 1 per DIMM block — which is why
    // the grid's mean stable target reproduces the lumped target for
    // ANY weight vector (the <= 1e-6 contract, met at ~1e-15 here).
    Rng rng(7);
    for (int trial = 0; trial < 100; ++trial) {
        BankGridConfig g{1 + static_cast<int>(rng.below(6)),
                         1 + static_cast<int>(rng.below(6)),
                         {}};
        const int dimms = 1 + static_cast<int>(rng.below(8));
        g.weights = randomWeights(rng, g.cells());
        std::vector<double> w = resolveBankCellWeights(g, dimms);
        for (int d = 0; d < dimms; ++d) {
            double mean = 0.0;
            for (int c = 0; c < g.cells(); ++c)
                mean += w[d * g.cells() + c];
            mean /= g.cells();
            EXPECT_NEAR(mean, 1.0, 1e-6);
        }
    }
}

TEST(BankGridPrimitives, PerDimmWeightBlocksResolveIndependently)
{
    // The trace decoder hands resolveBankCellWeights nDimms*cells()
    // entries; each DIMM's block must resolve exactly as it would alone.
    Rng rng(99);
    BankGridConfig per_dimm{2, 2, {}};
    const int dimms = 3;
    for (int d = 0; d < dimms; ++d) {
        auto w = randomWeights(rng, per_dimm.cells());
        per_dimm.weights.insert(per_dimm.weights.end(), w.begin(),
                                w.end());
    }
    std::vector<double> all = resolveBankCellWeights(per_dimm, dimms);
    for (int d = 0; d < dimms; ++d) {
        BankGridConfig one{2, 2,
                           {per_dimm.weights.begin() +
                                d * per_dimm.cells(),
                            per_dimm.weights.begin() +
                                (d + 1) * per_dimm.cells()}};
        std::vector<double> solo = resolveBankCellWeights(one, 1);
        for (int c = 0; c < per_dimm.cells(); ++c)
            EXPECT_EQ(all[d * per_dimm.cells() + c], solo[c]);
    }
}

TEST(BankGridPrimitives, Panics)
{
    EXPECT_THROW(resolveBankCellWeights(BankGridConfig{0, 2, {}}, 4),
                 PanicError);
    EXPECT_THROW(resolveBankCellWeights(BankGridConfig{4, 2, {}}, 0),
                 PanicError);
    // Wrong arity: neither cells() nor nDimms*cells().
    EXPECT_THROW(
        resolveBankCellWeights(BankGridConfig{2, 2, {0.5, 0.5}}, 2),
        PanicError);
    EXPECT_THROW(resolveBankCellWeights(
                     BankGridConfig{1, 2, {0.5, -0.5}}, 1),
                 PanicError);
    EXPECT_THROW(
        resolveBankCellWeights(
            BankGridConfig{1, 2, {0.5, std::nan("")}}, 1),
        PanicError);
}

// --- simulator layer --------------------------------------------------

SimConfig
baseConfig()
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 1;
    return cfg;
}

/**
 * The headline property: across organizations, traffic shapes and
 * refresh models (with seeded random shares in the mix), a run with the
 * uniform bank grid is bit-identical to the lumped run on every
 * pre-existing field, and every bank cell's peak equals its DIMM's
 * lumped peak bitwise — the grid's "mean reproduces the lumped model"
 * contract at its strongest (exact, not just <= 1e-6).
 */
TEST(BankGridSim, UniformGridBitIdenticalToLumpedAcrossConfigs)
{
    Rng rng(20260808);
    struct Case
    {
        MemoryOrgConfig org;
        std::string refresh;
        bool random_shares;
    };
    const std::vector<Case> cases = {
        {{4, 4}, "", false},        {{4, 4}, "ddr2_2x", true},
        {{2, 8}, "", true},         {{2, 8}, "aldram", false},
        {{1, 2}, "ddr2_2x", false},
    };
    for (const Case &c : cases) {
        SimConfig cfg = baseConfig();
        cfg.org = c.org;
        if (!c.refresh.empty())
            cfg.refresh = refreshCatalog().get(c.refresh);
        if (c.random_shares)
            cfg.trafficShares =
                randomWeights(rng, cfg.org.nDimmsPerChannel);

        SimConfig grid_cfg = cfg;
        grid_cfg.bankGrid = BankGridConfig{}; // uniform 4x2

        ThermalSimulator lumped(cfg);
        ThermalSimulator gridded(grid_cfg);
        auto p1 = makeCh4Policy("DTM-BW");
        auto p2 = makeCh4Policy("DTM-BW");
        SimResult a = lumped.run(workloadMix("W1"), *p1);
        SimResult b = gridded.run(workloadMix("W1"), *p2);

        // Lumped result carries no bank fields; the grid run does.
        EXPECT_EQ(a.bankGridX, 0);
        EXPECT_TRUE(a.peakBankDramPerDimm.empty());
        EXPECT_EQ(b.bankGridX, 4);
        EXPECT_EQ(b.bankGridZ, 2);
        const int cells = 8;
        const int dimms = cfg.org.nDimmsPerChannel;
        ASSERT_EQ(b.peakBankDramPerDimm.size(),
                  static_cast<std::size_t>(dimms) * cells);

        // Every pre-existing field is bitwise unchanged by the overlay.
        EXPECT_EQ(a.runningTime, b.runningTime);
        EXPECT_EQ(a.maxDram, b.maxDram);
        EXPECT_EQ(a.maxAmb, b.maxAmb);
        EXPECT_EQ(a.memEnergy, b.memEnergy);
        EXPECT_EQ(a.peakDramPerDimm, b.peakDramPerDimm);
        EXPECT_EQ(a.peakAmbPerDimm, b.peakAmbPerDimm);
        EXPECT_EQ(a.refreshBwLossPerDimm, b.refreshBwLossPerDimm);
        EXPECT_EQ(a.dramTrace.values(), b.dramTrace.values());

        // ... and under uniform weights every cell IS its DIMM's lumped
        // DRAM node, bit for bit.
        for (int d = 0; d < dimms; ++d)
            for (int c = 0; c < cells; ++c)
                EXPECT_EQ(b.peakBankDramPerDimm[d * cells + c],
                          a.peakDramPerDimm[d]);
    }
}

/**
 * Concentrated weights expose a hotspot the lumped model cannot see:
 * the worst bank runs >= 5 C above the lumped per-DIMM peak, while the
 * lumped-driven fields stay bitwise unchanged (the grid is a diagnostic
 * overlay, not a feedback path).
 */
TEST(BankGridSim, ConcentratedWeightsExposeHotspotLumpedMisses)
{
    SimConfig cfg = baseConfig();
    cfg.copiesPerApp = 2;

    SimConfig hot = cfg;
    hot.bankGrid = BankGridConfig{
        4, 2, {0.65, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05}};

    ThermalSimulator lumped(cfg);
    ThermalSimulator gridded(hot);
    auto p1 = makeCh4Policy("No-limit");
    auto p2 = makeCh4Policy("No-limit");
    SimResult a = lumped.run(workloadMix("W1"), *p1);
    SimResult b = gridded.run(workloadMix("W1"), *p2);

    EXPECT_EQ(a.maxDram, b.maxDram);
    EXPECT_EQ(a.peakDramPerDimm, b.peakDramPerDimm);

    ASSERT_FALSE(b.peakBankDramPerDimm.empty());
    const double worst_bank = *std::max_element(
        b.peakBankDramPerDimm.begin(), b.peakBankDramPerDimm.end());
    const double worst_dimm = *std::max_element(
        a.peakDramPerDimm.begin(), a.peakDramPerDimm.end());
    EXPECT_GE(worst_bank, worst_dimm + 5.0);
}

/**
 * For random weight vectors the grid's per-DIMM mean peak tracks the
 * lumped peak within 1e-6 relative: the weights average 1 after
 * scaling/smoothing and the per-cell step is linear in the weight, so
 * the mean trajectory is the lumped trajectory up to rounding.
 */
TEST(BankGridSim, RandomWeightGridMeanTracksLumpedPeak)
{
    Rng rng(1234);
    SimConfig cfg = baseConfig();

    for (int trial = 0; trial < 3; ++trial) {
        SimConfig grid_cfg = cfg;
        BankGridConfig g{4, 2, {}};
        g.weights = randomWeights(rng, g.cells());
        grid_cfg.bankGrid = g;

        ThermalSimulator lumped(cfg);
        ThermalSimulator gridded(grid_cfg);
        auto p1 = makeCh4Policy("No-limit");
        auto p2 = makeCh4Policy("No-limit");
        SimResult a = lumped.run(workloadMix("W2"), *p1);
        SimResult b = gridded.run(workloadMix("W2"), *p2);

        const int dimms = cfg.org.nDimmsPerChannel;
        ASSERT_EQ(b.peakBankDramPerDimm.size(),
                  static_cast<std::size_t>(dimms) * g.cells());
        for (int d = 0; d < dimms; ++d) {
            double mean = 0.0;
            for (int c = 0; c < g.cells(); ++c)
                mean += b.peakBankDramPerDimm[d * g.cells() + c];
            mean /= g.cells();
            // Peaks are maxima of monotone-ish trajectories, so the
            // mean-of-peaks can sit slightly above the peak-of-means;
            // both stay within the contract's 1e-6 relative band plus
            // a small absolute allowance for transient crossings.
            EXPECT_NEAR(mean, a.peakDramPerDimm[d],
                        1e-6 * a.peakDramPerDimm[d] + 0.05);
        }
    }
}

/** Forked lanes are bit-identical to one-lane runs with the grid on. */
TEST(BankGridSim, ForkedLanesBitIdenticalToScalarWithGridActive)
{
    SimConfig cfg = baseConfig();
    cfg.copiesPerApp = 2;
    cfg.sensorNoiseSigma = 0.3;
    cfg.trafficShares = {0.55, 0.25, 0.12, 0.08};
    cfg.refresh = refreshCatalog().get("ddr2_2x");
    cfg.bankGrid = BankGridConfig{
        4, 2, {0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}};

    const std::vector<std::string> names{"No-limit", "DTM-TS", "DTM-BW",
                                         "DTM-ACG"};
    ThermalSimulator sim(cfg);
    ThermalSimulator::Scratch scratch;
    PolicyBuildContext ctx{cfg.dtmInterval, cfg.emergencyLevels,
                           cfg.remapInterval, cfg.remapHysteresis,
                           cfg.trafficShares};

    std::vector<std::unique_ptr<DtmPolicy>> policies;
    std::vector<DtmPolicy *> ptrs;
    for (const auto &n : names) {
        policies.push_back(PolicyRegistry::instance().make(n, ctx));
        ptrs.push_back(policies.back().get());
    }

    BatchStats stats;
    std::vector<SimResult> batched =
        sim.runBatch(workloadMix("W1"), ptrs, scratch, &stats);
    ASSERT_EQ(batched.size(), names.size());
    EXPECT_GT(stats.forks, 0u); // the identity claim must not be vacuous

    for (std::size_t i = 0; i < names.size(); ++i) {
        auto fresh = PolicyRegistry::instance().make(names[i], ctx);
        SimResult single = sim.run(workloadMix("W1"), *fresh);
        ASSERT_FALSE(single.peakBankDramPerDimm.empty());
        expectIdentical(batched[i], single);
    }
}

// --- scenario layer ---------------------------------------------------

ScenarioSpec
tinySpec()
{
    ScenarioSpec s;
    s.name = "grid_knob";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.copiesPerApp = 1;
    s.maxSimTime = 400.0;
    return s;
}

TEST(BankGridScenario, LumpedKnobBitIdenticalToUnset)
{
    ScenarioSpec plain = tinySpec();
    ScenarioSpec knobbed = tinySpec();
    knobbed.thermalModel.name = "lumped";

    ExperimentEngine engine(1);
    ScenarioResults a = runScenario(plain, engine);
    ScenarioResults b = runScenario(knobbed, engine);
    ASSERT_EQ(a.points.size(), 1u);
    ASSERT_EQ(b.points.size(), 1u);
    const SimResult &ra = a.points[0].suite.at("W1").at("No-limit");
    const SimResult &rb = b.points[0].suite.at("W1").at("No-limit");
    expectIdentical(ra, rb);
    EXPECT_TRUE(ra.peakBankDramPerDimm.empty());
    // ... and the serialized documents are the same bytes, so goldens
    // written before the knob existed stay valid.
    EXPECT_EQ(toJson(a).dump(2), toJson(b).dump(2));
}

TEST(BankGridScenario, CatalogAndSweepLowering)
{
    // The catalog resolves; the sweep axis becomes odometer axis 10
    // with "thermal=<label>" coordinates.
    EXPECT_EQ(thermalModelCatalog().names(),
              (std::vector<std::string>{"lumped", "bank_grid"}));
    EXPECT_FALSE(thermalModelCatalog().get("lumped").grid.has_value());
    ASSERT_TRUE(thermalModelCatalog().get("bank_grid").grid.has_value());
    EXPECT_EQ(thermalModelCatalog().get("bank_grid").grid->x, 4);
    EXPECT_EQ(thermalModelCatalog().get("bank_grid").grid->z, 2);

    ScenarioSpec s = tinySpec();
    ThermalModelSpec inline_grid;
    inline_grid.value = BankGridConfig{2, 2, {0.7, 0.1, 0.1, 0.1}};
    s.sweepThermalModel = {ThermalModelSpec{"lumped", {}},
                           ThermalModelSpec{"bank_grid", {}},
                           inline_grid};
    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 3u);
    EXPECT_EQ(low.points[0].label, "thermal=lumped");
    EXPECT_EQ(low.points[1].label, "thermal=bank_grid");
    EXPECT_EQ(low.points[2].label, "thermal=2x2:0.7|0.1|0.1|0.1");
    EXPECT_FALSE(low.points[0].cfg.bankGrid.has_value());
    ASSERT_TRUE(low.points[1].cfg.bankGrid.has_value());
    EXPECT_TRUE(low.points[1].cfg.bankGrid->weights.empty());
    ASSERT_TRUE(low.points[2].cfg.bankGrid.has_value());
    EXPECT_EQ(low.points[2].cfg.bankGrid->weights.size(), 4u);
}

TEST(BankGridScenario, SpecValidationErrors)
{
    auto expectFatal = [](const ThermalModelSpec &t,
                          const std::string &needle) {
        try {
            t.resolve();
            FAIL() << "expected FatalError for " << needle;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };
    ThermalModelSpec bad;
    expectFatal(bad, "empty thermal model");
    bad.value = BankGridConfig{0, 2, {}};
    expectFatal(bad, "grid dimensions must be >= 1");
    bad.value = BankGridConfig{64, 64, {}};
    expectFatal(bad, "the limit is 1024");
    // Dimensions whose int product wraps: to 0, and to -1.
    bad.value = BankGridConfig{65536, 65536, {}};
    expectFatal(bad, "has 4294967296 cells per DIMM; the limit is 1024");
    bad.value = BankGridConfig{65537, 65535, {}};
    expectFatal(bad, "has 4294967295 cells per DIMM; the limit is 1024");
    bad.value = BankGridConfig{2, 2, {0.5, 0.5}};
    expectFatal(bad, "2 bank weight(s) but the grid has 4 cell(s)");
    bad.value = BankGridConfig{1, 2, {0.5, -0.5}};
    expectFatal(bad, "must not be negative");
    bad.value = BankGridConfig{1, 2, {0.5, 0.4}};
    expectFatal(bad, "must sum to 1");
    // Unknown catalog names list the valid keys.
    ThermalModelSpec typo;
    typo.name = "bankgrid";
    try {
        typo.resolve();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("lumped"),
                  std::string::npos)
            << e.what();
    }
}

TEST(BankGridScenario, LoweringConflictsAreFatal)
{
    auto expectLowerFatal = [](const ScenarioSpec &s,
                               const std::string &needle) {
        try {
            s.lower();
            FAIL() << "expected FatalError for " << needle;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };

    // Platform scenarios measure real DIMMs; no modeled grid or trace.
    ScenarioSpec plat;
    plat.name = "p";
    plat.platform = "PE1950";
    plat.workloads = {"W1"};
    plat.policies = {"No-limit"};
    plat.thermalModel.name = "bank_grid";
    expectLowerFatal(plat, "remove the thermal_model member and sweep");
    plat.thermalModel = {};
    plat.trace = "whatever.trace";
    expectLowerFatal(plat, "remove the trace member");

    // Duplicate sweep entries: "bank_grid" and its inline equivalent
    // collide by *resolved* model.
    ScenarioSpec dup = tinySpec();
    ThermalModelSpec inline_default;
    inline_default.value = BankGridConfig{4, 2, {}};
    dup.sweepThermalModel = {ThermalModelSpec{"bank_grid", {}},
                             inline_default};
    expectLowerFatal(dup, "same thermal model as 'bank_grid'");

    // A trace owns the traffic distribution and the bank weights.
    ScenarioSpec t = tinySpec();
    t.trace = "x.trace";
    t.trafficShape.name = "hot_dimm0";
    expectLowerFatal(t, "remove the traffic_shape member");
    t.trafficShape = {};
    t.thermalModel.value = BankGridConfig{4, 2, {0.65, 0.05, 0.05, 0.05,
                                                 0.05, 0.05, 0.05, 0.05}};
    expectLowerFatal(t, "remove the thermal model's bank_weights");
}

TEST(BankGridScenario, ThermalModelRoundTripsThroughJson)
{
    ScenarioSpec s = tinySpec();
    s.thermalModel.name = "bank_grid";
    ThermalModelSpec inline_grid;
    inline_grid.value = BankGridConfig{2, 4, {}};
    ThermalModelSpec weighted;
    weighted.value = BankGridConfig{1, 2, {0.75, 0.25}};
    s.sweepThermalModel = {ThermalModelSpec{"lumped", {}}, inline_grid,
                           weighted};

    const std::string once = s.toJson().dump(2);
    ScenarioSpec back = ScenarioSpec::fromJson(Json::parse(once));
    EXPECT_EQ(back, s);
    EXPECT_EQ(back.toJson().dump(2), once);
}

} // namespace
} // namespace memtherm
