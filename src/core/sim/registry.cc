#include "core/sim/registry.hh"

#include <algorithm>
#include <cmath>

#include "core/dtm/basic_policies.hh"
#include "core/dtm/pid_policies.hh"
#include "core/dtm/remap_policy.hh"
#include "testbed/platform.hh"
#include "workloads/spec_catalog.hh"

namespace memtherm
{

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const auto &n : names) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

std::string
CatalogBase::unknown(const std::string &name) const
{
    return std::string("unknown ") + info.noun + " '" + name +
           "' (valid: " + joinNames(names()) + info.unknownSuffix + ")";
}

const std::vector<const CatalogBase *> &
catalogListings()
{
    static const std::vector<const CatalogBase *> listings = {
        &PolicyRegistry::instance(), &workloadCatalog(),
        &coolingCatalog(),           &ambientCatalog(),
        &platformCatalog(),          &emergencyLevelCatalog(),
        &dvfsCatalog(),              &memoryOrgCatalog(),
        &trafficShapeCatalog(),      &refreshCatalog(),
        &thermalModelCatalog(),
    };
    return listings;
}

// --- policies ---------------------------------------------------------------

namespace
{

/** The ladder the leveled Chapter 4 schemes build on (Table 4.3 default). */
EmergencyLevels
ladderOf(const PolicyBuildContext &ctx)
{
    return ctx.emergencyLevels ? *ctx.emergencyLevels : ch4EmergencyLevels();
}

RemapConfig
remapConfigOf(const PolicyBuildContext &ctx)
{
    RemapConfig rc;
    rc.interval = ctx.remapInterval;
    rc.hysteresis = ctx.remapHysteresis;
    rc.initialShares = ctx.trafficShares;
    return rc;
}

} // namespace

PolicyRegistry::PolicyRegistry()
    : Catalog({.keyword = "policies", .noun = "policy"})
{
    // The Chapter 4 lineup (Section 4.4). DTM-TS has only two control
    // decisions and does not benefit from PID, so it has no "+PID"
    // variant (Section 4.4.2). The leveled schemes honor the context's
    // emergency ladder; DTM-TS and the PID controllers regulate against
    // ThermalLimits instead.
    add("No-limit", [](const PolicyBuildContext &) {
        return std::make_unique<NoLimitPolicy>();
    });
    add("DTM-TS", [](const PolicyBuildContext &) {
        ThermalLimits lim;
        return std::make_unique<TsPolicy>(lim.ambTdp, lim.ambTrp,
                                          lim.dramTdp, lim.dramTrp);
    });
    add("DTM-BW", [](const PolicyBuildContext &ctx) {
        return std::make_unique<LeveledPolicy>(makeCh4BwPolicy(ladderOf(ctx)));
    });
    add("DTM-ACG", [](const PolicyBuildContext &ctx) {
        return std::make_unique<LeveledPolicy>(
            makeCh4AcgPolicy(ladderOf(ctx)));
    });
    add("DTM-CDVFS", [](const PolicyBuildContext &ctx) {
        return std::make_unique<LeveledPolicy>(
            makeCh4CdvfsPolicy(ladderOf(ctx)));
    });
    add("DTM-BW+PID", [](const PolicyBuildContext &ctx) {
        return std::make_unique<PidPolicy>(PidActuator::Bandwidth,
                                           ambPidParams(), dramPidParams(),
                                           ThermalLimits{}, ctx.dtmInterval);
    });
    add("DTM-ACG+PID", [](const PolicyBuildContext &ctx) {
        return std::make_unique<PidPolicy>(PidActuator::CoreGating,
                                           ambPidParams(), dramPidParams(),
                                           ThermalLimits{}, ctx.dtmInterval);
    });
    add("DTM-CDVFS+PID", [](const PolicyBuildContext &ctx) {
        return std::make_unique<PidPolicy>(PidActuator::Dvfs,
                                           ambPidParams(), dramPidParams(),
                                           ThermalLimits{}, ctx.dtmInterval);
    });
    // The traffic-remapping family (core/dtm/remap_policy.hh): policies
    // that redistribute per-DIMM traffic share instead of scaling
    // activity. They regulate against ThermalLimits like DTM-TS.
    add("DTM-remap", [](const PolicyBuildContext &ctx) {
        return std::make_unique<RemapPolicy>(RemapPolicy::Band::Greedy,
                                             remapConfigOf(ctx));
    });
    add("DTM-remap-hyst", [](const PolicyBuildContext &ctx) {
        return std::make_unique<RemapPolicy>(RemapPolicy::Band::Hysteresis,
                                             remapConfigOf(ctx));
    });
    add("DTM-TS+remap", [](const PolicyBuildContext &ctx) {
        ThermalLimits lim;
        return std::make_unique<TsRemapPolicy>(
            TsPolicy(lim.ambTdp, lim.ambTrp, lim.dramTdp, lim.dramTrp),
            remapConfigOf(ctx));
    });
}

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry r;
    return r;
}

// --- the value catalogs -----------------------------------------------------

namespace
{

/**
 * "<app>x<n>": n copies of one catalog application. Only the canonical
 * count spelling resolves ("swimx04", "swimx+4" and "swimx 4" do not),
 * so the name a scenario gives is the Workload::name it builds. A count
 * above kMaxBatchCopies is rejected with a reason that names the limit.
 */
std::optional<Workload>
homogeneousBatch(const std::string &name, std::string *error)
{
    const auto x = name.rfind('x');
    if (x == std::string::npos || x == 0)
        return std::nullopt;
    const std::string app = name.substr(0, x);
    const std::string count = name.substr(x + 1);
    const bool canonical =
        !count.empty() && count[0] != '0' &&
        std::all_of(count.begin(), count.end(),
                    [](char c) { return c >= '0' && c <= '9'; });
    const auto &apps = SpecCatalog::instance().all();
    if (!canonical ||
        std::none_of(apps.begin(), apps.end(),
                     [&](const AppDescriptor &d) { return d.name == app; }))
        return std::nullopt;
    // Four digits bound the value before it is converted.
    const int n = count.size() <= 4 ? std::stoi(count) : kMaxBatchCopies + 1;
    if (n > kMaxBatchCopies) {
        if (error)
            *error = "workload '" + name + "' asks for " + count +
                     " copies; the limit is " +
                     std::to_string(kMaxBatchCopies);
        return std::nullopt;
    }
    return homogeneous(app, n);
}

/** n shares proportional to @p weight(i), normalized to sum to 1. */
template <typename W>
std::vector<double>
normalizedShares(int n_dimms, W weight)
{
    panicIfNot(n_dimms >= 1, "traffic shape: need >= 1 DIMM");
    std::vector<double> w(static_cast<std::size_t>(n_dimms));
    double sum = 0.0;
    for (int i = 0; i < n_dimms; ++i)
        sum += w[i] = weight(i);
    for (double &x : w)
        x /= sum;
    return w;
}

/** Geometric halving away from the controller: 2^-i is exact in binary. */
std::vector<double>
frontHeavy(int n)
{
    return normalizedShares(n, [](int i) { return std::ldexp(1.0, -i); });
}

/**
 * A Table 5.1 ladder: the platform's AMB boundaries with the DRAM
 * boundaries parked out of reach ("the memory hot spots are AMBs").
 */
EmergencyLevels
platformLadder(const Platform &p)
{
    return EmergencyLevels(p.ambBounds, {200.0, 210.0, 220.0, 230.0});
}

} // namespace

Catalog<CoolingConfig> &
coolingCatalog()
{
    static Catalog<CoolingConfig> cat(
        {.keyword = "coolings", .noun = "cooling"}, [](auto &c) {
            for (auto s : {HeatSpreader::AOHS, HeatSpreader::FDHS}) {
                for (auto v : {AirVelocity::MPS_1_0, AirVelocity::MPS_1_5,
                               AirVelocity::MPS_3_0}) {
                    CoolingConfig cfg = coolingConfig(s, v);
                    c.add(cfg.name(), cfg);
                }
            }
        });
    return cat;
}

Catalog<AmbientParams, const CoolingConfig &> &
ambientCatalog()
{
    static Catalog<AmbientParams, const CoolingConfig &> cat(
        {.keyword = "ambients", .noun = "ambient model"}, [](auto &c) {
            c.add("isolated", isolatedAmbient);
            c.add("integrated", integratedAmbient);
        });
    return cat;
}

Catalog<Workload> &
workloadCatalog()
{
    static Catalog<Workload> cat(
        {.keyword = "workloads",
         .noun = "workload",
         .hint = "<app>x<n> (homogeneous batch, e.g. swimx4)",
         .unknownSuffix =
             ", or \"<app>x<n>\" for a homogeneous batch, e.g. swimx4"},
        [](auto &c) {
            for (const char *n : {"W1", "W2", "W3", "W4", "W5", "W6", "W7",
                                  "W8", "W11", "W12"})
                c.add(n, workloadMix(n));
        },
        homogeneousBatch);
    return cat;
}

Catalog<Platform> &
platformCatalog()
{
    static Catalog<Platform> cat(
        {.keyword = "platforms", .noun = "platform"}, [](auto &c) {
            auto atTdp = [](Platform p, Celsius tdp) {
                p.setAmbTdp(tdp);
                return p;
            };
            // Each testbed, then its Section 5.4.5 AMB TDP variants
            // (Figs. 5.12 and 5.14) and Fig. 5.13's 2.0 GHz mode.
            c.add("PE1950", pe1950());
            c.add("PE1950_tdp88", atTdp(pe1950(), 88.0));
            c.add("PE1950_tdp92", atTdp(pe1950(), 92.0));
            c.add("SR1500AL", sr1500al());
            c.add("SR1500AL_tdp90", atTdp(sr1500al(), 90.0));
            Platform slow = sr1500al();
            slow.dvfsFloor = 3;
            c.add("SR1500AL_2GHz", slow);
        });
    return cat;
}

Catalog<EmergencyLevels> &
emergencyLevelCatalog()
{
    static Catalog<EmergencyLevels> cat(
        {.keyword = "emergency_levels", .noun = "emergency ladder"},
        [](auto &c) {
            c.add("ch4", ch4EmergencyLevels());
            c.add("pe1950", platformLadder(pe1950()));
            c.add("sr1500al", platformLadder(sr1500al()));
            c.add("sr1500al_tdp90",
                  platformLadder(platformCatalog().get("SR1500AL_tdp90")));
        });
    return cat;
}

Catalog<DvfsTable> &
dvfsCatalog()
{
    static Catalog<DvfsTable> cat({.keyword = "dvfs", .noun = "DVFS table"},
                                  [](auto &c) {
                                      c.add("simulated_cmp",
                                            simulatedCmpDvfs());
                                      c.add("xeon5160", xeon5160Dvfs());
                                  });
    return cat;
}

Catalog<MemoryOrgConfig> &
memoryOrgCatalog()
{
    // "ch4_4x4" is the Table 4.1 platform; the rest vary channel width
    // and chain depth around it (the organization study of Section 3.4:
    // fewer channels concentrate traffic and heat per DIMM, deeper
    // chains steepen the per-DIMM bypass gradient).
    static Catalog<MemoryOrgConfig> cat(
        {.keyword = "memory_orgs",
         .noun = "memory organization",
         .hint = "{channels, dimms} (inline organization, e.g. "
                 "{\"channels\": 2, \"dimms\": 8})"},
        [](auto &c) {
            c.add("ch4_4x4", {4, 4});
            c.add("1x4", {1, 4});
            c.add("2x2", {2, 2});
            c.add("2x4", {2, 4});
            c.add("4x2", {4, 2});
            c.add("4x8", {4, 8});
            c.add("8x2", {8, 2});
            c.add("8x4", {8, 4});
        });
    return cat;
}

Catalog<std::vector<double>, int> &
trafficShapeCatalog()
{
    static Catalog<std::vector<double>, int> cat(
        {.keyword = "traffic_shapes",
         .noun = "traffic shape",
         .hint = "[s0, s1, ...] (inline per-DIMM share vector summing to 1, "
                 "e.g. [0.5, 0.3, 0.1, 0.1])"},
        [](auto &c) {
            // Each entry is exactly 1/n — the same value the traffic
            // decomposition uses for an empty share vector, which is what
            // makes an explicit "uniform" run bit-identical to an unset one.
            c.add("uniform", [](int n) {
                return normalizedShares(n, [](int) { return 1.0; });
            });
            c.add("front_heavy", frontHeavy);
            c.add("back_heavy", [](int n) {
                auto w = frontHeavy(n);
                std::reverse(w.begin(), w.end());
                return w;
            });
            // Half to DIMM 0 (weight n - 1 of 2(n - 1)), the rest even.
            c.add("hot_dimm0", [](int n) {
                return normalizedShares(
                    n, [n](int i) { return i ? 1.0 : std::max(n - 1, 1); });
            });
            c.add("linear_taper", [](int n) {
                return normalizedShares(n, [n](int i) { return n - i; });
            });
        });
    return cat;
}

Catalog<RefreshModel> &
refreshCatalog()
{
    static Catalog<RefreshModel> cat(
        {.keyword = "refresh_models",
         .noun = "refresh model",
         .hint = "[{min_temp, bw_fraction, dram_power_w[, latency_mult]}, "
                 "...] (inline band table, ascending min_temp)"},
        [](auto &c) {
            c.add("none", RefreshModel{});
            c.add("ddr2_2x", ddr2DoubleRefreshModel());
            c.add("aldram", aldramRefreshModel());
        });
    return cat;
}

Catalog<SharedBankGrid> &
thermalModelCatalog()
{
    static Catalog<SharedBankGrid> cat(
        {.keyword = "thermal_models",
         .noun = "thermal model",
         .hint = "{grid_x, grid_z[, bank_weights]} (inline per-DIMM bank "
                 "grid, e.g. {\"grid_x\": 4, \"grid_z\": 2})"},
        [](auto &c) {
            c.add("lumped", SharedBankGrid{});
            c.add("bank_grid", SharedBankGrid{BankGridConfig{}});
        });
    return cat;
}

} // namespace memtherm
