/**
 * @file
 * The bank-grid overlay against independent references:
 *
 *  - the per-cell Eq. 3.5 iteration the overlay replaced, kept here as
 *    the oracle: every cell of every DIMM stepped towards its own
 *    Eq. 3.4 target, its peak folded every step. Over random
 *    organizations, weights (uniform, with zeros, trace-decoded),
 *    traffic, refresh bands, resets to the stable point and forks at
 *    random windows, every per-cell peak of the model's `D + (w - 1)·V`
 *    overlay and its peak hull matches at 1e-12 relative, and uniform
 *    cells equal the lumped DRAM peak exactly;
 *    one payload of per-cell weights matches on chains of every length;
 *  - Eq. 3.4's closed-form equilibrium under constant traffic, with A
 *    and B computed here from the cooling ψ values and the power model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/power/dimm_traffic.hh"
#include "core/sim/registry.hh"
#include "core/thermal/bank_grid.hh"
#include "core/thermal/memory_thermal.hh"
#include "dram/trace.hh"

namespace memtherm
{
namespace
{

/** Per-DIMM power on the representative channel, computed directly. */
std::vector<DimmPower>
dimmPowers(const MemoryOrgConfig &org, const std::vector<double> &shares,
           const std::vector<Watts> &refresh, GBps read, GBps write)
{
    const std::vector<DimmTraffic> traffic = decomposeChannelTraffic(
        read / org.nChannels, write / org.nChannels, org.nDimmsPerChannel,
        shares);
    const DimmPowerModel pwr;
    std::vector<DimmPower> out;
    for (int i = 0; i < org.nDimmsPerChannel; ++i) {
        out.push_back(pwr.power(traffic[i], i == org.nDimmsPerChannel - 1));
        if (!refresh.empty())
            out.back().dram += refresh[i];
    }
    return out;
}

/**
 * The per-cell overlay, as the model stepped it before the spread and
 * the hull: one temperature and one peak per cell.
 */
struct PerCellReference
{
    MemoryOrgConfig org;
    CoolingConfig cool;
    std::vector<double> w; ///< scaled weights, row-major by DIMM
    int cells = 0;
    std::vector<double> shares;
    std::vector<Watts> refresh;
    std::vector<double> temp, peak;

    PerCellReference(const MemoryOrgConfig &o, const CoolingConfig &c,
                     const BankGridConfig &g, Celsius t0)
        : org(o), cool(c), w(resolveBankCellWeights(g, o.nDimmsPerChannel)),
          cells(g.cells()), temp(w.size(), t0), peak(w.size(), t0)
    {
    }

    /** Eq. 3.4 with the DIMM's DRAM power scaled by the cell weight. */
    std::vector<double>
    targets(GBps read, GBps write, Celsius ambient) const
    {
        const auto p = dimmPowers(org, shares, refresh, read, write);
        std::vector<double> out(w.size());
        for (std::size_t c = 0; c < w.size(); ++c) {
            const DimmPower &d = p[c / cells];
            out[c] = ambient + d.amb * cool.psiAmbToDram +
                     (d.dram * w[c]) * cool.psiDram;
        }
        return out;
    }

    void
    resetToStable(GBps read, GBps write, Celsius ambient)
    {
        temp = peak = targets(read, write, ambient);
    }

    void
    advance(GBps read, GBps write, Celsius ambient, Seconds dt)
    {
        const double decay = 1.0 - std::exp(-dt / cool.tauDram);
        const std::vector<double> stable = targets(read, write, ambient);
        for (std::size_t c = 0; c < temp.size(); ++c) {
            temp[c] += (stable[c] - temp[c]) * decay;
            peak[c] = std::max(peak[c], temp[c]);
        }
    }
};

/** Random weights summing to 1; about a third of the cells get 0. */
std::vector<double>
weightsWithZeros(Rng &rng, int n)
{
    std::vector<double> w(n);
    double sum = 0.0;
    for (double &v : w)
        sum += v = rng.uniform() < 0.35 ? 0.0 : rng.uniform();
    if (sum == 0.0) {
        w[0] = 1.0;
        return w;
    }
    for (double &v : w)
        v /= sum;
    return w;
}

/** Per-DIMM weight blocks decoded from a seeded random trace. */
std::vector<double>
traceWeights(Rng &rng, const MemoryOrgConfig &org, int cells)
{
    TraceGenConfig gen;
    gen.pattern = TraceGenConfig::Pattern::Random;
    gen.count = 64 + rng.below(512);
    gen.maxAddr = 1ULL << (12 + rng.below(8));
    gen.seed = rng.below(1000000);
    return decodeTrace(generateTrace(gen), org.nChannels,
                       org.nDimmsPerChannel, cells)
        .bankWeights;
}

enum class Weights { Uniform, WithZeros, Trace };

/** One lane under test: the model and its per-cell reference. */
struct Lane
{
    MemoryThermalModel model;
    PerCellReference ref;
};

void
stepBoth(Rng &rng, Lane &l, const RefreshModel &refresh, Celsius &ambient)
{
    // Refresh bands follow each DIMM's lumped DRAM temperature, as in
    // the simulator.
    if (!refresh.empty()) {
        std::vector<Celsius> amb, dram;
        l.model.currentPerDimm(amb, dram);
        std::vector<Watts> w;
        for (Celsius t : dram)
            w.push_back(refresh.bandAt(t).dramPower);
        l.model.setRefreshDramPower(w);
        l.ref.refresh = w;
    }
    ambient = std::clamp(ambient + rng.uniform(-1.0, 1.0), 25.0, 60.0);
    const GBps read = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 24.0);
    const GBps write = rng.uniform(0.0, 0.5) * read;
    const Seconds dt = rng.uniform() < 0.2 ? rng.uniform(0.001, 5.0) : 0.01;
    if (rng.uniform() < 0.01) {
        l.model.resetToStable(read, write, ambient);
        l.ref.resetToStable(read, write, ambient);
        return;
    }
    l.model.advance(read, write, ambient, dt);
    l.ref.advance(read, write, ambient, dt);
}

void
expectPeaksMatch(const Lane &l, Weights kind, const std::string &what)
{
    const std::vector<Celsius> got = l.model.bankPeaks();
    ASSERT_EQ(got.size(), l.ref.peak.size()) << what;
    const std::vector<DimmTemps> dimm = l.model.dimmPeaks();
    for (std::size_t c = 0; c < got.size(); ++c) {
        EXPECT_NEAR(got[c], l.ref.peak[c], 1e-12 * std::abs(l.ref.peak[c]))
            << what << " cell " << c;
        if (kind == Weights::Uniform) {
            EXPECT_EQ(got[c], dimm[c / l.ref.cells].dram) << what;
            EXPECT_EQ(got[c], l.ref.peak[c]) << what;
        }
    }
}

TEST(BankOverlayOracle, PeaksMatchThePerCellIteration)
{
    Rng rng(20261018);
    const std::vector<std::string> refresh_names = {"none", "ddr2_2x",
                                                    "aldram"};
    int widest_hull = 0;
    for (int trial = 0; trial < 60; ++trial) {
        const MemoryOrgConfig org{1 + static_cast<int>(rng.below(4)),
                                  1 + static_cast<int>(rng.below(8))};
        const CoolingConfig cool =
            rng.uniform() < 0.5 ? coolingAohs15() : coolingFdhs10();
        BankGridConfig grid{1 + static_cast<int>(rng.below(8)),
                            1 + static_cast<int>(rng.below(8)),
                            {}};
        const auto kind = static_cast<Weights>(rng.below(3));
        if (kind == Weights::WithZeros)
            grid.weights = weightsWithZeros(rng, grid.cells());
        else if (kind == Weights::Trace)
            grid.weights = traceWeights(rng, org, grid.cells());
        const RefreshModel refresh =
            refreshCatalog().get(refresh_names[rng.below(3)]);
        const Celsius t0 = rng.uniform(25.0, 60.0);
        Celsius ambient = t0;
        const std::string what = "trial " + std::to_string(trial);

        std::vector<Lane> lanes;
        lanes.reserve(2);
        lanes.push_back({MemoryThermalModel(org, cool, DimmPowerModel{}, t0,
                                            {}, grid),
                         PerCellReference(org, cool, grid, t0)});
        if (rng.uniform() < 0.5) {
            lanes[0].model.resetToStable(6.0, 2.0, ambient);
            lanes[0].ref.resetToStable(6.0, 2.0, ambient);
        }

        const int windows = 200 + static_cast<int>(rng.below(800));
        const int fork_at = static_cast<int>(rng.below(windows));
        for (int t = 0; t < windows; ++t) {
            if (t == fork_at) {
                lanes.push_back(lanes[0]);
            }
            if (rng.uniform() < 0.02) {
                // A remap moves traffic between the DIMMs mid-run.
                std::vector<double> s =
                    weightsWithZeros(rng, org.nDimmsPerChannel);
                lanes[0].model.setTrafficShares(s);
                lanes[0].ref.shares = s;
            }
            for (Lane &l : lanes)
                stepBoth(rng, l, refresh, ambient);
            for (const Lane &l : lanes)
                for (int size : l.model.state().hullSize)
                    widest_hull = std::max(widest_hull, size);
        }
        expectPeaksMatch(lanes[0], kind, what);
        expectPeaksMatch(lanes[1], kind, what + " fork");
    }
    // The traffic must leave points the hull keeps beside one another,
    // or the splice goes untested.
    EXPECT_GE(widest_hull, 4);
}

/**
 * One payload of per-cell weights serves chains of every length: its
 * models on 2-, 4- and 8-DIMM chains match the per-cell iteration over
 * resolveBankCellWeights(grid, nDimms).
 */
TEST(BankOverlayOracle, OnePerCellPayloadServesEveryChainLength)
{
    Rng rng(20261020);
    const BankGridConfig config{4, 2, weightsWithZeros(rng, 8)};
    const SharedBankGrid grid = config;
    const RefreshModel refresh = refreshCatalog().get("ddr2_2x");
    for (int dimms : {2, 4, 8}) {
        const MemoryOrgConfig org{16 / dimms, dimms};
        const CoolingConfig cool = coolingAohs15();
        const Celsius t0 = 45.0;
        Celsius ambient = t0;
        Lane l{MemoryThermalModel(org, cool, DimmPowerModel{}, t0, {}, grid),
               PerCellReference(org, cool, config, t0)};
        for (int t = 0; t < 500; ++t)
            stepBoth(rng, l, refresh, ambient);
        EXPECT_EQ(l.model.bankGrid().get(), grid.get());
        expectPeaksMatch(l, Weights::WithZeros,
                         std::to_string(dimms) + " DIMMs");
    }
}

/** A DIMM's Eq. 3.4 terms: cell c of weight w targets a + w·b. */
struct Eq34
{
    double a, b;
};

std::vector<Eq34>
eq34(const MemoryOrgConfig &org, const CoolingConfig &cool, GBps read,
     GBps write, Celsius ambient)
{
    std::vector<Eq34> out;
    for (const DimmPower &p : dimmPowers(org, {}, {}, read, write))
        out.push_back({ambient + p.amb * cool.psiAmbToDram,
                       p.dram * cool.psiDram});
    return out;
}

void
expectPeaksAt(const MemoryThermalModel &m, const BankGridConfig &grid,
              const std::vector<Eq34> &terms)
{
    const std::vector<double> w =
        resolveBankCellWeights(grid, m.org().nDimmsPerChannel);
    const std::vector<Celsius> peaks = m.bankPeaks();
    ASSERT_EQ(peaks.size(), w.size());
    for (std::size_t c = 0; c < w.size(); ++c) {
        const Eq34 &e = terms[c / grid.cells()];
        const double want = e.a + w[c] * e.b;
        EXPECT_NEAR(peaks[c], want, 1e-12 * want) << "cell " << c;
    }
}

TEST(BankOverlayEquilibrium, HeatingFromCoolerStartPeaksAtScaledTargets)
{
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        const MemoryOrgConfig org{1 + static_cast<int>(rng.below(4)),
                                  1 + static_cast<int>(rng.below(8))};
        BankGridConfig grid{1 + static_cast<int>(rng.below(8)),
                            1 + static_cast<int>(rng.below(8)), {}};
        grid.weights = weightsWithZeros(rng, grid.cells());
        const CoolingConfig cool = coolingAohs15();
        const Celsius ambient = rng.uniform(30.0, 50.0);
        const GBps read = rng.uniform(1.0, 20.0);
        const GBps write = rng.uniform(0.0, 0.5) * read;

        // Every cell starts below its target (>= ambient) and rises
        // monotonically, so its peak is where it settles.
        MemoryThermalModel m(org, cool, DimmPowerModel{}, ambient - 10.0,
                             {}, grid);
        for (int t = 0; t < 100; ++t)
            m.advance(read, write, ambient, 10.0 * cool.tauDram);
        expectPeaksAt(m, grid, eq34(org, cool, read, write, ambient));
    }
}

TEST(BankOverlayEquilibrium, StepDownKeepsTheInitialStablePeaks)
{
    Rng rng(8);
    for (int trial = 0; trial < 20; ++trial) {
        const MemoryOrgConfig org{1 + static_cast<int>(rng.below(4)),
                                  1 + static_cast<int>(rng.below(8))};
        BankGridConfig grid{1 + static_cast<int>(rng.below(8)),
                            1 + static_cast<int>(rng.below(8)), {}};
        grid.weights = weightsWithZeros(rng, grid.cells());
        const CoolingConfig cool = coolingFdhs10();
        const Celsius ambient = rng.uniform(30.0, 50.0);
        const GBps read = rng.uniform(10.0, 20.0);

        // Less traffic lowers every cell's target, so each cell only
        // cools from its stable start.
        MemoryThermalModel m(org, cool, DimmPowerModel{}, ambient, {},
                             grid);
        m.resetToStable(read, 0.4 * read, ambient);
        for (int t = 0; t < 200; ++t)
            m.advance(0.2 * read, 0.05 * read, ambient, 0.5);
        expectPeaksAt(m, grid, eq34(org, cool, read, 0.4 * read, ambient));
    }
}

} // namespace
} // namespace memtherm
