/**
 * @file
 * Unit tests for the named catalogs: one loop over every catalog for
 * the shared contract (every listed name resolves, unknown names are
 * quiet nullopts or a FatalError with one pinned diagnostic, user
 * strings never panic), then each catalog's values and runtime add().
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>

#include "common/logging.hh"
#include "core/dtm/basic_policies.hh"
#include "core/sim/experiment.hh"
#include "core/sim/registry.hh"
#include "core/sim/scenario.hh"
#include "testbed/platform.hh"

namespace memtherm
{
namespace
{

/** Calls @p f(catalog, lookup arguments...) for every catalog. */
template <typename F>
void
forEachCatalog(F &&f)
{
    const CoolingConfig cooling = coolingAohs15();
    f(PolicyRegistry::instance(), PolicyBuildContext{});
    f(workloadCatalog());
    f(coolingCatalog());
    f(ambientCatalog(), cooling);
    f(platformCatalog());
    f(emergencyLevelCatalog());
    f(dvfsCatalog());
    f(memoryOrgCatalog());
    f(trafficShapeCatalog(), 4);
    f(refreshCatalog());
    f(thermalModelCatalog());
}

// Runs first: the pinned lists are the seeded entries, before the
// runtime-add tests below extend the policy and DVFS catalogs.
TEST(Catalogs, UnknownNameDiagnosticIsPinnedForEveryListing)
{
    const std::map<std::string, std::string> expected = {
        {"policies",
         "unknown policy 'X' (valid: No-limit, DTM-TS, DTM-BW, DTM-ACG, "
         "DTM-CDVFS, DTM-BW+PID, DTM-ACG+PID, DTM-CDVFS+PID, DTM-remap, "
         "DTM-remap-hyst, DTM-TS+remap)"},
        {"workloads",
         "unknown workload 'X' (valid: W1, W2, W3, W4, W5, W6, W7, W8, W11, "
         "W12, or \"<app>x<n>\" for a homogeneous batch, e.g. swimx4)"},
        {"coolings", "unknown cooling 'X' (valid: AOHS_1.0, AOHS_1.5, "
                     "AOHS_3.0, FDHS_1.0, FDHS_1.5, FDHS_3.0)"},
        {"ambients", "unknown ambient model 'X' (valid: isolated, "
                     "integrated)"},
        {"platforms", "unknown platform 'X' (valid: PE1950, PE1950_tdp88, "
                      "PE1950_tdp92, SR1500AL, SR1500AL_tdp90, "
                      "SR1500AL_2GHz)"},
        {"emergency_levels", "unknown emergency ladder 'X' (valid: ch4, "
                             "pe1950, sr1500al, sr1500al_tdp90)"},
        {"dvfs", "unknown DVFS table 'X' (valid: simulated_cmp, xeon5160)"},
        {"memory_orgs", "unknown memory organization 'X' (valid: ch4_4x4, "
                        "1x4, 2x2, 2x4, 4x2, 4x8, 8x2, 8x4)"},
        {"traffic_shapes", "unknown traffic shape 'X' (valid: uniform, "
                           "front_heavy, back_heavy, hot_dimm0, "
                           "linear_taper)"},
        {"refresh_models", "unknown refresh model 'X' (valid: none, "
                           "ddr2_2x, aldram)"},
        {"thermal_models", "unknown thermal model 'X' (valid: lumped, "
                           "bank_grid)"},
    };
    ASSERT_EQ(catalogListings().size(), expected.size());
    for (const CatalogBase *c : catalogListings()) {
        SCOPED_TRACE(c->info.keyword);
        ASSERT_TRUE(expected.count(c->info.keyword));
        EXPECT_EQ(c->unknown("X"), expected.at(c->info.keyword));
    }
}

TEST(Catalogs, TypedCatalogsAreTheListings)
{
    std::vector<const CatalogBase *> typed;
    forEachCatalog([&](const auto &cat, const auto &...) {
        typed.push_back(&cat);
    });
    EXPECT_EQ(typed, catalogListings());
}

TEST(Catalogs, EveryNameResolvesAndUnknownNamesFailWithTheDiagnostic)
{
    forEachCatalog([](const auto &cat, const auto &...args) {
        SCOPED_TRACE(cat.info.keyword);
        const std::vector<std::string> names = cat.names();
        EXPECT_FALSE(names.empty());
        for (const auto &n : names) {
            SCOPED_TRACE(n);
            EXPECT_TRUE(cat.contains(n));
            std::string error;
            EXPECT_TRUE(cat.tryGet(n, args..., &error).has_value());
            EXPECT_EQ(error, "");
        }

        const std::string bad = "no-such-entry";
        EXPECT_FALSE(cat.contains(bad));
        EXPECT_FALSE(cat.tryGet(bad, args...).has_value()); // quiet
        std::string error;
        EXPECT_FALSE(cat.tryGet(bad, args..., &error).has_value());
        EXPECT_EQ(error, cat.unknown(bad));
        try {
            cat.get(bad, args...);
            FAIL() << "expected FatalError";
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()), "fatal: " + error);
        }
    });
}

/** @p s with the case of every letter flipped. */
std::string
flipCase(std::string s)
{
    for (char &ch : s) {
        const auto u = static_cast<unsigned char>(ch);
        ch = static_cast<char>(std::islower(u) ? std::toupper(u)
                                               : std::tolower(u));
    }
    return s;
}

TEST(Catalogs, UserStringsNeverPanic)
{
    const std::vector<std::string> seeds = {
        "",
        std::string(100000, 'W'),
        "W\xc3\xa9",        // non-ASCII
        "\xe2\x9c\x93x4",   // non-ASCII application, batch suffix
        std::string("W1\0", 3),
        "\xff\xfe",         // not UTF-8 at all
        "swimx",
        "swimx0",
        "swimx-1",
        "swimx99999999999999999999",
        "swimx2147483648",  // one past INT_MAX
        "swimx1025",        // one past the batch-copy limit
        "swimx2000000000",  // would allocate two billion app pointers
        "x4",
        "swimxx4",
    };
    forEachCatalog([&](const auto &cat, const auto &...args) {
        SCOPED_TRACE(cat.info.keyword);
        std::vector<std::string> probes = seeds;
        for (const auto &n : cat.names()) {
            for (auto v : {flipCase(n), " " + n, n + " ", n + "\t",
                           "\n" + n})
                probes.push_back(v);
        }
        for (const auto &s : probes) {
            SCOPED_TRACE("'" + s.substr(0, 40) + "'");
            try {
                EXPECT_FALSE(cat.tryGet(s, args...).has_value());
                std::string error;
                EXPECT_FALSE(cat.tryGet(s, args..., &error).has_value());
                EXPECT_FALSE(error.empty());
                EXPECT_THROW(cat.get(s, args...), FatalError);
            } catch (const PanicError &e) {
                ADD_FAILURE() << "panic on a user string: " << e.what();
            }
        }
    });

    // An over-limit batch is a known app with too many copies: the
    // diagnostic names the limit instead of calling it unknown.
    auto &workloads = workloadCatalog();
    EXPECT_EQ(workloads.get("swimx1024").apps.size(), 1024u);
    for (const char *s : {"swimx1025", "swimx2000000000",
                          "swimx99999999999999999999"}) {
        SCOPED_TRACE(s);
        std::string error;
        EXPECT_FALSE(workloads.tryGet(s, &error).has_value());
        EXPECT_EQ(error, "workload '" + std::string(s) + "' asks for " +
                             std::string(s).substr(5) +
                             " copies; the limit is 1024");
        EXPECT_THROW(workloads.get(s), FatalError);
    }
}

// --- policies ---------------------------------------------------------------

TEST(PolicyRegistry, EveryCh4NameResolves)
{
    auto &reg = PolicyRegistry::instance();
    std::vector<std::string> lineup = ch4PolicyNames(true);
    lineup.push_back("No-limit");
    for (const auto &name : lineup) {
        SCOPED_TRACE(name);
        auto p = reg.tryGet(name, {});
        ASSERT_TRUE(p.has_value());
        ASSERT_NE(*p, nullptr);
        EXPECT_EQ((*p)->name(), name);
    }
    // The makeCh4Policy wrapper keeps its FatalError contract.
    EXPECT_THROW(makeCh4Policy("DTM-TS+PID"), FatalError);
}

TEST(PolicyRegistry, CustomPoliciesRegister)
{
    auto &reg = PolicyRegistry::instance();
    ASSERT_FALSE(reg.contains("TEST-custom"));
    reg.add("TEST-custom", [](const PolicyBuildContext &) {
        return std::make_unique<NoLimitPolicy>();
    });
    EXPECT_TRUE(reg.contains("TEST-custom"));
    auto p = reg.make("TEST-custom", 0.01);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), "No-limit");

    auto names = reg.names();
    EXPECT_EQ(names.back(), "TEST-custom");

    // An empty entry is a programming error, named in the panic.
    try {
        reg.add("TEST-empty", {});
        ADD_FAILURE() << "an empty entry was accepted";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find(": empty entry for 'TEST-empty'"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(reg.contains("TEST-empty"));
}

TEST(PolicyRegistry, EntriesMayLookUpTheirOwnCatalog)
{
    // Lookups call an entry outside the catalog lock, so a decorator
    // that builds on an existing policy does not deadlock.
    auto &reg = PolicyRegistry::instance();
    reg.add("TEST-wrapped", [&reg](const PolicyBuildContext &ctx) {
        return reg.get("DTM-TS", ctx);
    });
    EXPECT_EQ(reg.make("TEST-wrapped", 0.01)->name(), "DTM-TS");
}

TEST(PolicyRegistry, BuildContextLaddersApplyToLeveledSchemes)
{
    auto &reg = PolicyRegistry::instance();
    EmergencyLevels pe = emergencyLevelCatalog().get("pe1950");

    for (const char *name : {"DTM-BW", "DTM-ACG", "DTM-CDVFS"}) {
        SCOPED_TRACE(name);
        auto p = reg.make(name, {.emergencyLevels = pe});
        auto *lp = dynamic_cast<LeveledPolicy *>(p.get());
        ASSERT_NE(lp, nullptr);
        EXPECT_EQ(lp->levelTable().ambBounds(), pe.ambBounds());
        EXPECT_EQ(lp->levelTable().dramBounds(), pe.dramBounds());
    }

    // The default context (and the Seconds overload) keep Table 4.3.
    auto p = reg.make("DTM-BW", 0.01);
    auto *lp = dynamic_cast<LeveledPolicy *>(p.get());
    ASSERT_NE(lp, nullptr);
    EXPECT_EQ(lp->levelTable().ambBounds(),
              ch4EmergencyLevels().ambBounds());

    // The Chapter 4 action tables are five rows; other depths are a
    // usable configuration error, not a panic.
    EmergencyLevels shallow({100.0}, {80.0});
    EXPECT_THROW(reg.make("DTM-BW", {.emergencyLevels = shallow}),
                 FatalError);
}

// --- the value catalogs -----------------------------------------------------

TEST(Catalogs, CoolingValues)
{
    auto &cat = coolingCatalog();
    auto names = cat.names();
    ASSERT_EQ(names.size(), 6u); // 2 spreaders x 3 air velocities
    for (const auto &n : names)
        EXPECT_EQ(cat.get(n).name(), n); // the key is the config's name
    EXPECT_EQ(cat.get("AOHS_1.5").psiAmb, coolingAohs15().psiAmb);
}

TEST(Catalogs, AmbientValues)
{
    CoolingConfig cooling = coolingAohs15();
    EXPECT_EQ(ambientCatalog().get("isolated", cooling).psiCpuMemXi, 0.0);
    EXPECT_GT(ambientCatalog().get("integrated", cooling).psiCpuMemXi, 0.0);
}

TEST(Catalogs, WorkloadValues)
{
    auto &cat = workloadCatalog();
    for (const auto &n : cat.names()) {
        SCOPED_TRACE(n);
        Workload w = cat.get(n);
        EXPECT_EQ(w.name, n);
        EXPECT_FALSE(w.apps.empty());
    }

    // Homogeneous "<app>x<n>" batches.
    Workload homo = cat.get("swimx4");
    EXPECT_EQ(homo.name, "swimx4");
    EXPECT_EQ(homo.apps.size(), 4u);
    EXPECT_EQ(homo.apps[0]->name, "swim");
    EXPECT_TRUE(cat.contains("swimx4"));

    // Zero and overflowing counts are in UserStringsNeverPanic.
    EXPECT_FALSE(cat.tryGet("nosuchappx4").has_value());
}

TEST(Catalogs, HomogeneousBatchAcceptsOnlyTheCanonicalCount)
{
    // Accepting these would build a second workload named "swimx4",
    // so a scenario could list one batch twice under two names.
    auto &cat = workloadCatalog();
    for (const char *alias : {"swimx04", "swimx+4", "swimx 4"}) {
        SCOPED_TRACE(alias);
        EXPECT_FALSE(cat.contains(alias));
        EXPECT_FALSE(cat.tryGet(alias).has_value());
    }

    ScenarioSpec s;
    s.name = "aliases";
    s.workloads = {"swimx4", "swimx04"};
    s.policies = {"No-limit"};
    try {
        (void)s.lower();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown workload 'swimx04'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Catalogs, EmergencyLevelValues)
{
    auto &cat = emergencyLevelCatalog();
    // Every catalog ladder fits the five-level Chapter 4 tables.
    for (const auto &n : cat.names())
        EXPECT_EQ(cat.get(n).numLevels(), 5) << n;
    EXPECT_EQ(cat.get("ch4").ambBounds(), ch4EmergencyLevels().ambBounds());
    // The Table 5.1 variants carry the platform AMB ladders with the
    // DRAM boundaries parked out of reach.
    EmergencyLevels pe = cat.get("pe1950");
    EXPECT_EQ(pe.ambBounds(), pe1950().ambBounds);
    EXPECT_GE(pe.dramBounds().front(), 200.0);
    EXPECT_LT(cat.get("sr1500al_tdp90").ambBounds().back(),
              cat.get("sr1500al").ambBounds().back());
}

TEST(Catalogs, DvfsValuesAndRuntimeTables)
{
    auto &cat = dvfsCatalog();
    EXPECT_EQ(cat.get("simulated_cmp").maxFreq(),
              simulatedCmpDvfs().maxFreq());
    EXPECT_EQ(cat.get("xeon5160").levels(), xeon5160Dvfs().levels());
    EXPECT_EQ(cat.get("xeon5160").at(3).freq, xeon5160Dvfs().at(3).freq);

    ASSERT_FALSE(cat.contains("TEST-lowpower"));
    cat.add("TEST-lowpower", DvfsTable({{1.0, 1.0}, {0.5, 0.8}}));
    EXPECT_TRUE(cat.contains("TEST-lowpower"));
    EXPECT_EQ(cat.get("TEST-lowpower").levels(), 2u);
    EXPECT_EQ(cat.names().back(), "TEST-lowpower");

    // add() replaces an entry in place.
    const auto n = cat.names().size();
    cat.add("TEST-lowpower", DvfsTable({{1.0, 1.0}, {0.7, 0.9}, {0.5, 0.8}}));
    EXPECT_EQ(cat.get("TEST-lowpower").levels(), 3u);
    EXPECT_EQ(cat.names().size(), n);
}

TEST(Catalogs, MemoryOrgValues)
{
    auto &cat = memoryOrgCatalog();
    // The first entry is the Table 4.1 organization SimConfig ships.
    EXPECT_EQ(cat.names().front(), "ch4_4x4");
    EXPECT_EQ(cat.get("ch4_4x4"), SimConfig{}.org);
    for (const auto &n : cat.names()) {
        SCOPED_TRACE(n);
        EXPECT_GE(cat.get(n).nChannels, 1);
        EXPECT_GE(cat.get(n).nDimmsPerChannel, 1);
    }
    EXPECT_EQ(cat.get("2x4"), (MemoryOrgConfig{2, 4}));
    EXPECT_EQ(cat.get("4x8").nDimmsPerChannel, 8);
    EXPECT_EQ(cat.get("8x2").nChannels, 8);
}

TEST(Catalogs, TrafficShapeValues)
{
    auto &cat = trafficShapeCatalog();
    auto names = cat.names();
    // The first entry is the default interleave the model assumes when
    // the knob is unset.
    EXPECT_EQ(names.front(), "uniform");

    // Every shape, at several chain depths: right arity, non-negative,
    // sums to 1 within the decomposition's own tolerance.
    for (const auto &n : names) {
        for (int dimms : {1, 2, 4, 8}) {
            SCOPED_TRACE(n + " @ " + std::to_string(dimms));
            std::vector<double> w = cat.get(n, dimms);
            ASSERT_EQ(static_cast<int>(w.size()), dimms);
            double sum = 0.0;
            for (double s : w) {
                EXPECT_GE(s, 0.0);
                sum += s;
            }
            EXPECT_NEAR(sum, 1.0, 1e-9);
        }
        // Every shape degenerates to {1} on a one-DIMM chain.
        EXPECT_EQ(cat.get(n, 1), std::vector<double>{1.0});
    }

    // "uniform" is exactly 1/n per entry — the bit-identical contract.
    for (double s : cat.get("uniform", 4))
        EXPECT_EQ(s, 1.0 / 4);

    // Shape character: front_heavy strictly decreasing down the chain,
    // back_heavy its mirror, hot_dimm0 a half-load head, linear_taper
    // the arithmetic ramp.
    auto front = cat.get("front_heavy", 4);
    auto back = cat.get("back_heavy", 4);
    for (int i = 1; i < 4; ++i) {
        EXPECT_GT(front[i - 1], front[i]);
        EXPECT_LT(back[i - 1], back[i]);
        EXPECT_EQ(front[i], back[3 - i]);
    }
    EXPECT_EQ(front[1], front[0] / 2);

    for (int n : {2, 3, 4, 7}) {
        auto hot = cat.get("hot_dimm0", n);
        EXPECT_EQ(hot[0], 0.5);
        for (int i = 1; i < n; ++i)
            EXPECT_EQ(hot[i], 0.5 / (n - 1));
    }

    auto taper = cat.get("linear_taper", 4);
    EXPECT_EQ(taper, (std::vector<double>{0.4, 0.3, 0.2, 0.1}));

    // A shape needs a chain: that is the caller's invariant.
    EXPECT_THROW(cat.get("uniform", 0), PanicError);
}

TEST(Catalogs, PlatformValues)
{
    auto &cat = platformCatalog();
    for (const auto &n : cat.names())
        EXPECT_FALSE(cat.get(n).ambBounds.empty()) << n;
    EXPECT_EQ(cat.get("PE1950").name, pe1950().name);
}

} // namespace
} // namespace memtherm
