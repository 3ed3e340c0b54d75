#include "core/sim/registry.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"
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

const std::vector<CatalogListing> &
catalogListings()
{
    static const std::vector<CatalogListing> listings = {
        {"policies", [] { return PolicyRegistry::instance().names(); }},
        {"workloads", workloadNames,
         "<app>x<n> (homogeneous batch, e.g. swimx4)"},
        {"coolings", coolingNames},
        {"ambients", ambientNames},
        {"platforms", platformNames},
        {"emergency_levels", emergencyLevelNames},
        {"dvfs", [] { return DvfsRegistry::instance().names(); }},
        {"memory_orgs", memoryOrgNames,
         "{channels, dimms} (inline organization, e.g. "
         "{\"channels\": 2, \"dimms\": 8})"},
        {"traffic_shapes", trafficShapeNames,
         "[s0, s1, ...] (inline per-DIMM share vector summing to 1, e.g. "
         "[0.5, 0.3, 0.1, 0.1])"},
        {"refresh_models", refreshModelNames,
         "[{min_temp, bw_fraction, dram_power_w[, latency_mult]}, ...] "
         "(inline band table, ascending min_temp)"},
        {"thermal_models", thermalModelNames,
         "{grid_x, grid_z[, bank_weights]} (inline per-DIMM bank grid, "
         "e.g. {\"grid_x\": 4, \"grid_z\": 2})"},
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

} // namespace

PolicyRegistry::PolicyRegistry()
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
    auto remapCfgOf = [](const PolicyBuildContext &ctx) {
        RemapConfig rc;
        rc.interval = ctx.remapInterval;
        rc.hysteresis = ctx.remapHysteresis;
        rc.initialShares = ctx.trafficShares;
        return rc;
    };
    add("DTM-remap", [remapCfgOf](const PolicyBuildContext &ctx) {
        return std::make_unique<RemapPolicy>(RemapPolicy::Band::Greedy,
                                             remapCfgOf(ctx));
    });
    add("DTM-remap-hyst", [remapCfgOf](const PolicyBuildContext &ctx) {
        return std::make_unique<RemapPolicy>(RemapPolicy::Band::Hysteresis,
                                             remapCfgOf(ctx));
    });
    add("DTM-TS+remap", [remapCfgOf](const PolicyBuildContext &ctx) {
        ThermalLimits lim;
        return std::make_unique<TsRemapPolicy>(
            TsPolicy(lim.ambTdp, lim.ambTrp, lim.dramTdp, lim.dramTrp),
            remapCfgOf(ctx));
    });
}

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry r;
    return r;
}

void
PolicyRegistry::add(const std::string &name, Factory factory)
{
    panicIfNot(static_cast<bool>(factory),
               "PolicyRegistry: empty factory for '" + name + "'");
    std::lock_guard lock(mtx);
    for (auto &[n, f] : entries) {
        if (n == name) {
            f = std::move(factory);
            return;
        }
    }
    entries.emplace_back(name, std::move(factory));
}

std::vector<std::string>
PolicyRegistry::names() const
{
    std::lock_guard lock(mtx);
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const auto &[n, f] : entries)
        out.push_back(n);
    return out;
}

bool
PolicyRegistry::contains(const std::string &name) const
{
    std::lock_guard lock(mtx);
    for (const auto &[n, f] : entries)
        if (n == name)
            return true;
    return false;
}

std::unique_ptr<DtmPolicy>
PolicyRegistry::tryMake(const std::string &name,
                        const PolicyBuildContext &ctx,
                        std::string *error) const
{
    Factory factory;
    {
        std::lock_guard lock(mtx);
        for (const auto &[n, f] : entries) {
            if (n == name) {
                factory = f;
                break;
            }
        }
    }
    if (!factory) {
        if (error) {
            *error = "unknown policy '" + name +
                     "' (valid: " + joinNames(names()) + ")";
        }
        return nullptr;
    }
    return factory(ctx);
}

std::unique_ptr<DtmPolicy>
PolicyRegistry::tryMake(const std::string &name, Seconds dtm_interval,
                        std::string *error) const
{
    return tryMake(name, PolicyBuildContext{dtm_interval, std::nullopt},
                   error);
}

std::unique_ptr<DtmPolicy>
PolicyRegistry::make(const std::string &name,
                     const PolicyBuildContext &ctx) const
{
    std::string error;
    auto p = tryMake(name, ctx, &error);
    if (!p)
        fatal("PolicyRegistry: " + error);
    return p;
}

std::unique_ptr<DtmPolicy>
PolicyRegistry::make(const std::string &name, Seconds dtm_interval) const
{
    return make(name, PolicyBuildContext{dtm_interval, std::nullopt});
}

// --- DVFS tables ------------------------------------------------------------

DvfsRegistry::DvfsRegistry()
{
    add("simulated_cmp", simulatedCmpDvfs());
    add("xeon5160", xeon5160Dvfs());
}

DvfsRegistry &
DvfsRegistry::instance()
{
    static DvfsRegistry r;
    return r;
}

void
DvfsRegistry::add(const std::string &name, DvfsTable table)
{
    std::lock_guard lock(mtx);
    for (auto &[n, t] : entries) {
        if (n == name) {
            t = std::move(table);
            return;
        }
    }
    entries.emplace_back(name, std::move(table));
}

std::vector<std::string>
DvfsRegistry::names() const
{
    std::lock_guard lock(mtx);
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const auto &[n, t] : entries)
        out.push_back(n);
    return out;
}

bool
DvfsRegistry::contains(const std::string &name) const
{
    std::lock_guard lock(mtx);
    for (const auto &[n, t] : entries)
        if (n == name)
            return true;
    return false;
}

std::optional<DvfsTable>
DvfsRegistry::tryGet(const std::string &name, std::string *error) const
{
    {
        std::lock_guard lock(mtx);
        for (const auto &[n, t] : entries)
            if (n == name)
                return t;
    }
    if (error) {
        *error = "unknown DVFS table '" + name +
                 "' (valid: " + joinNames(names()) + ")";
    }
    return std::nullopt;
}

DvfsTable
DvfsRegistry::byName(const std::string &name) const
{
    std::string error;
    auto t = tryGet(name, &error);
    if (!t)
        fatal("DvfsRegistry: " + error);
    return *t;
}

// --- refresh models ---------------------------------------------------------

RefreshRegistry::RefreshRegistry()
{
    add("none", RefreshModel{});
    add("ddr2_2x", ddr2DoubleRefreshModel());
    add("aldram", aldramRefreshModel());
}

RefreshRegistry &
RefreshRegistry::instance()
{
    static RefreshRegistry r;
    return r;
}

void
RefreshRegistry::add(const std::string &name, RefreshModel model)
{
    std::lock_guard lock(mtx);
    for (auto &[n, m] : entries) {
        if (n == name) {
            m = std::move(model);
            return;
        }
    }
    entries.emplace_back(name, std::move(model));
}

std::vector<std::string>
RefreshRegistry::names() const
{
    std::lock_guard lock(mtx);
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const auto &[n, m] : entries)
        out.push_back(n);
    return out;
}

bool
RefreshRegistry::contains(const std::string &name) const
{
    std::lock_guard lock(mtx);
    for (const auto &[n, m] : entries)
        if (n == name)
            return true;
    return false;
}

std::optional<RefreshModel>
RefreshRegistry::tryGet(const std::string &name, std::string *error) const
{
    {
        std::lock_guard lock(mtx);
        for (const auto &[n, m] : entries)
            if (n == name)
                return m;
    }
    if (error) {
        *error = "unknown refresh model '" + name +
                 "' (valid: " + joinNames(names()) + ")";
    }
    return std::nullopt;
}

RefreshModel
RefreshRegistry::byName(const std::string &name) const
{
    std::string error;
    auto m = tryGet(name, &error);
    if (!m)
        fatal("RefreshRegistry: " + error);
    return *m;
}

std::vector<std::string>
refreshModelNames()
{
    return RefreshRegistry::instance().names();
}

std::optional<RefreshModel>
tryRefreshModel(const std::string &name, std::string *error)
{
    return RefreshRegistry::instance().tryGet(name, error);
}

RefreshModel
refreshModelByName(const std::string &name)
{
    return RefreshRegistry::instance().byName(name);
}

// --- thermal models ---------------------------------------------------------

std::vector<std::string>
thermalModelNames()
{
    return {"lumped", "bank_grid"};
}

std::optional<ThermalModelConfig>
tryThermalModel(const std::string &name)
{
    if (name == "lumped")
        return ThermalModelConfig{};
    if (name == "bank_grid")
        return ThermalModelConfig{BankGridConfig{}};
    return std::nullopt;
}

ThermalModelConfig
thermalModelByName(const std::string &name)
{
    auto m = tryThermalModel(name);
    if (!m) {
        fatal("unknown thermal model '" + name +
              "' (valid: " + joinNames(thermalModelNames()) + ")");
    }
    return *m;
}

// --- cooling ----------------------------------------------------------------

namespace
{

const std::vector<std::pair<std::string, CoolingConfig>> &
coolingCatalog()
{
    static const std::vector<std::pair<std::string, CoolingConfig>> cat =
        [] {
            std::vector<std::pair<std::string, CoolingConfig>> v;
            for (auto s : {HeatSpreader::AOHS, HeatSpreader::FDHS}) {
                for (auto vel : {AirVelocity::MPS_1_0, AirVelocity::MPS_1_5,
                                 AirVelocity::MPS_3_0}) {
                    CoolingConfig c = coolingConfig(s, vel);
                    v.emplace_back(c.name(), c);
                }
            }
            return v;
        }();
    return cat;
}

} // namespace

std::vector<std::string>
coolingNames()
{
    std::vector<std::string> out;
    for (const auto &[n, c] : coolingCatalog())
        out.push_back(n);
    return out;
}

std::optional<CoolingConfig>
tryCooling(const std::string &name)
{
    for (const auto &[n, c] : coolingCatalog())
        if (n == name)
            return c;
    return std::nullopt;
}

CoolingConfig
coolingByName(const std::string &name)
{
    auto c = tryCooling(name);
    if (!c) {
        fatal("unknown cooling '" + name +
              "' (valid: " + joinNames(coolingNames()) + ")");
    }
    return *c;
}

// --- ambient ----------------------------------------------------------------

std::vector<std::string>
ambientNames()
{
    return {"isolated", "integrated"};
}

std::optional<AmbientParams>
tryAmbient(const std::string &name, const CoolingConfig &cooling)
{
    if (name == "isolated")
        return isolatedAmbient(cooling);
    if (name == "integrated")
        return integratedAmbient(cooling);
    return std::nullopt;
}

AmbientParams
ambientByName(const std::string &name, const CoolingConfig &cooling)
{
    auto p = tryAmbient(name, cooling);
    if (!p) {
        fatal("unknown ambient model '" + name +
              "' (valid: " + joinNames(ambientNames()) + ")");
    }
    return *p;
}

// --- workloads --------------------------------------------------------------

std::vector<std::string>
workloadNames()
{
    return {"W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8", "W11", "W12"};
}

std::optional<Workload>
tryWorkload(const std::string &name)
{
    for (const auto &n : workloadNames())
        if (n == name)
            return workloadMix(name);

    // Homogeneous batches: "<app>x<n>", e.g. "swimx4".
    auto xpos = name.rfind('x');
    if (xpos != std::string::npos && xpos > 0 && xpos + 1 < name.size()) {
        const std::string app = name.substr(0, xpos);
        const std::string count = name.substr(xpos + 1);
        char *end = nullptr;
        errno = 0;
        long n = std::strtol(count.c_str(), &end, 10);
        if (end && *end == '\0' && errno == 0 && n >= 1 && n <= INT_MAX) {
            for (const AppDescriptor &d : SpecCatalog::instance().all())
                if (d.name == app)
                    return homogeneous(app, static_cast<int>(n));
        }
    }
    return std::nullopt;
}

Workload
workloadByName(const std::string &name)
{
    auto w = tryWorkload(name);
    if (!w) {
        fatal("unknown workload '" + name +
              "' (valid: " + joinNames(workloadNames()) +
              ", or \"<app>x<n>\" for a homogeneous batch, e.g. swimx4)");
    }
    return *w;
}

// --- platforms --------------------------------------------------------------

std::vector<std::string>
platformNames()
{
    return {"PE1950", "SR1500AL"};
}

std::optional<Platform>
tryPlatform(const std::string &name)
{
    if (name == "PE1950")
        return pe1950();
    if (name == "SR1500AL")
        return sr1500al();
    return std::nullopt;
}

Platform
platformByName(const std::string &name)
{
    auto p = tryPlatform(name);
    if (!p) {
        fatal("unknown platform '" + name +
              "' (valid: " + joinNames(platformNames()) + ")");
    }
    return *p;
}

// --- memory organizations ---------------------------------------------------

namespace
{

const std::vector<std::pair<std::string, MemoryOrgConfig>> &
memoryOrgCatalog()
{
    // "ch4_4x4" is the Table 4.1 platform; the rest vary channel width
    // and chain depth around it (the organization study of Section 3.4:
    // fewer channels concentrate traffic and heat per DIMM, deeper
    // chains steepen the per-DIMM bypass gradient).
    static const std::vector<std::pair<std::string, MemoryOrgConfig>> cat = {
        {"ch4_4x4", {4, 4}}, {"1x4", {1, 4}}, {"2x2", {2, 2}},
        {"2x4", {2, 4}},     {"4x2", {4, 2}}, {"4x8", {4, 8}},
        {"8x2", {8, 2}},     {"8x4", {8, 4}},
    };
    return cat;
}

} // namespace

std::vector<std::string>
memoryOrgNames()
{
    std::vector<std::string> out;
    for (const auto &[n, o] : memoryOrgCatalog())
        out.push_back(n);
    return out;
}

std::optional<MemoryOrgConfig>
tryMemoryOrg(const std::string &name)
{
    for (const auto &[n, o] : memoryOrgCatalog())
        if (n == name)
            return o;
    return std::nullopt;
}

MemoryOrgConfig
memoryOrgByName(const std::string &name)
{
    auto o = tryMemoryOrg(name);
    if (!o) {
        fatal("unknown memory organization '" + name +
              "' (valid: " + joinNames(memoryOrgNames()) + ")");
    }
    return *o;
}

// --- traffic shapes ---------------------------------------------------------

std::vector<std::string>
trafficShapeNames()
{
    return {"uniform", "front_heavy", "back_heavy", "hot_dimm0",
            "linear_taper"};
}

std::optional<std::vector<double>>
tryTrafficShape(const std::string &name, int n_dimms)
{
    panicIfNot(n_dimms >= 1, "tryTrafficShape: need >= 1 DIMM");
    const std::size_t n = static_cast<std::size_t>(n_dimms);
    std::vector<double> w(n);
    if (name == "uniform") {
        // Each entry is exactly 1/n — the same value the traffic
        // decomposition uses for an empty share vector, which is what
        // makes an explicit "uniform" run bit-identical to an unset one.
        for (double &x : w)
            x = 1.0 / n_dimms;
        return w;
    }
    if (name == "front_heavy" || name == "back_heavy") {
        // Geometric halving: each DIMM sees half its hotter neighbor's
        // local traffic. 2^-i is exact in binary, so only the
        // normalization divides.
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            w[i] = std::ldexp(1.0, -static_cast<int>(i));
            sum += w[i];
        }
        for (double &x : w)
            x /= sum;
        if (name == "back_heavy")
            std::reverse(w.begin(), w.end());
        return w;
    }
    if (name == "hot_dimm0") {
        if (n == 1) {
            w[0] = 1.0;
            return w;
        }
        w[0] = 0.5;
        for (std::size_t i = 1; i < n; ++i)
            w[i] = 0.5 / static_cast<double>(n - 1);
        return w;
    }
    if (name == "linear_taper") {
        const double sum = static_cast<double>(n) * (n + 1) / 2.0;
        for (std::size_t i = 0; i < n; ++i)
            w[i] = static_cast<double>(n - i) / sum;
        return w;
    }
    return std::nullopt;
}

std::vector<double>
trafficShapeByName(const std::string &name, int n_dimms)
{
    auto w = tryTrafficShape(name, n_dimms);
    if (!w) {
        fatal("unknown traffic shape '" + name +
              "' (valid: " + joinNames(trafficShapeNames()) + ")");
    }
    return *w;
}

// --- emergency ladders ------------------------------------------------------

namespace
{

/**
 * A Table 5.1 ladder: the platform's AMB boundaries with the DRAM
 * boundaries parked out of reach ("the memory hot spots are AMBs").
 */
EmergencyLevels
platformLadder(const std::vector<Celsius> &amb_bounds)
{
    return EmergencyLevels(amb_bounds, {200.0, 210.0, 220.0, 230.0});
}

} // namespace

std::vector<std::string>
emergencyLevelNames()
{
    return {"ch4", "pe1950", "sr1500al", "sr1500al_tdp90"};
}

std::optional<EmergencyLevels>
tryEmergencyLevels(const std::string &name)
{
    if (name == "ch4")
        return ch4EmergencyLevels();
    if (name == "pe1950")
        return platformLadder(pe1950().ambBounds);
    if (name == "sr1500al")
        return platformLadder(sr1500al().ambBounds);
    if (name == "sr1500al_tdp90")
        return platformLadder(sr1500al(36.0, 90.0).ambBounds);
    return std::nullopt;
}

EmergencyLevels
emergencyLevelsByName(const std::string &name)
{
    auto l = tryEmergencyLevels(name);
    if (!l) {
        fatal("unknown emergency ladder '" + name +
              "' (valid: " + joinNames(emergencyLevelNames()) + ")");
    }
    return *l;
}

} // namespace memtherm
