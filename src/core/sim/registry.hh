/**
 * @file
 * The named catalogs behind the declarative scenario API
 * (core/sim/scenario.hh) and the `memtherm` CLI.
 *
 * Everything a scenario file can name — DTM policies, cooling setups,
 * ambient models, workload mixes, Chapter 5 platforms, memory
 * organizations, traffic shapes, emergency ladders, DVFS tables,
 * refresh models, thermal models — resolves through one Catalog each,
 * with uniform semantics:
 *
 *  - names()/contains()  the valid keys, registration order;
 *  - tryGet()            error-returning lookup (no exception, no abort);
 *  - get()               throwing lookup whose FatalError message lists
 *                        every valid key, so a typo in a scenario file or
 *                        on the CLI reads as a usable diagnostic instead
 *                        of a bare abort;
 *  - add()               registers (or replaces) an entry at runtime,
 *                        which scenario files can then name.
 *
 * catalogListings() lists every catalog for `memtherm list`.
 */

#ifndef MEMTHERM_CORE_SIM_REGISTRY_HH
#define MEMTHERM_CORE_SIM_REGISTRY_HH

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "core/dtm/dtm_policy.hh"
#include "core/dtm/emergency_levels.hh"
#include "core/sim/refresh_model.hh"
#include "core/thermal/memory_thermal.hh"
#include "core/thermal/thermal_params.hh"
#include "cpu/dvfs.hh"
#include "workloads/workload.hh"

namespace memtherm
{

struct Platform;

/** How `memtherm list` and diagnostics present one catalog. */
struct CatalogInfo
{
    const char *keyword; ///< `memtherm list` keyword, e.g. "coolings"
    const char *noun;    ///< an entry in diagnostics, e.g. "cooling"
    /// Other accepted spellings (inline values, "<app>x<n>" batches),
    /// printed by `memtherm list` after the names; null: the names are
    /// the whole catalog.
    const char *hint = nullptr;
    /// Appended to the valid keys of the unknown-name diagnostic.
    const char *unknownSuffix = "";
};

/** The part of a catalog that does not depend on what it resolves to. */
class CatalogBase
{
  public:
    explicit CatalogBase(const CatalogInfo &info) : info(info) {}
    virtual ~CatalogBase() = default;

    const CatalogInfo info;

    /** Valid names, registration order. */
    virtual std::vector<std::string> names() const = 0;

    /** "unknown <noun> '<name>' (valid: <names>)": every lookup's error. */
    std::string unknown(const std::string &name) const;
};

/**
 * A named catalog of T, each entry built from the lookup's @p Args
 * (none for a fixed value; the cooling for an ambient preset, the DIMM
 * count for a traffic shape, the build context for a policy). Entries
 * keep registration order; add() replaces an entry in place. Lookups
 * are thread-safe and call the entry outside the lock, so an entry may
 * look up its own catalog.
 */
template <typename T, typename... Args>
class Catalog : public CatalogBase
{
  public:
    /// Builds an entry's value from the lookup's arguments.
    using Make = std::function<T(Args...)>;
    /// Resolves names that are not entries. nullopt: unknown, unless
    /// it sets the error (when non-null) to reject a name it recognizes.
    using Fallback = std::function<std::optional<T>(const std::string &,
                                                    std::string *)>;

    /** A catalog whose entries @p seed add()s. */
    explicit Catalog(const CatalogInfo &info,
                     const std::function<void(Catalog &)> &seed = {},
                     Fallback fallback = {})
        : CatalogBase(info), fallback(std::move(fallback))
    {
        if (seed)
            seed(*this);
    }

    /** Register (or replace) an entry. */
    void
    add(const std::string &name, Make make)
    {
        if (!make)
            panic(std::string(info.keyword) + ": empty entry for '" + name +
                  "'");
        auto entry = std::make_shared<const Make>(std::move(make));
        std::lock_guard lock(mtx);
        for (auto &[n, e] : entries) {
            if (n == name) {
                e = std::move(entry);
                return;
            }
        }
        entries.emplace_back(name, std::move(entry));
    }

    /** Register (or replace) a fixed value. */
    void
    add(const std::string &name, T value)
        requires(sizeof...(Args) == 0)
    {
        add(name, Make([v = std::move(value)] { return v; }));
    }

    std::vector<std::string>
    names() const override
    {
        std::lock_guard lock(mtx);
        std::vector<std::string> out;
        out.reserve(entries.size());
        for (const auto &[n, e] : entries)
            out.push_back(n);
        return out;
    }

    /** Whether @p name resolves (an entry or the fallback spelling). */
    bool
    contains(const std::string &name) const
    {
        return find(name) || (fallback && fallback(name, nullptr));
    }

    /**
     * Error-returning lookup: nullopt for an unknown name, with @p error
     * (when given) set to unknown(name) — or to the fallback's reason
     * when it recognized the name but rejected it.
     */
    std::optional<T>
    tryGet(const std::string &name, Args... args,
           std::string *error = nullptr) const
    {
        if (auto make = find(name))
            return (*make)(args...);
        std::string why;
        if (fallback) {
            if (auto v = fallback(name, &why))
                return v;
        }
        if (error)
            *error = why.empty() ? unknown(name) : why;
        return std::nullopt;
    }

    /** Throwing lookup: FatalError with unknown(name). */
    T
    get(const std::string &name, Args... args) const
    {
        std::string error;
        auto v = tryGet(name, args..., &error);
        if (!v)
            fatal(error);
        return std::move(*v);
    }

  private:
    std::shared_ptr<const Make>
    find(const std::string &name) const
    {
        std::lock_guard lock(mtx);
        for (const auto &[n, e] : entries)
            if (n == name)
                return e;
        return nullptr;
    }

    const Fallback fallback;
    mutable std::mutex mtx;
    std::vector<std::pair<std::string, std::shared_ptr<const Make>>> entries;
};

/**
 * Everything a policy factory may build from. One run's policy is
 * constructed from its SimConfig, and this is the slice of it the
 * policy constructors consume. Every member has an initializer, so a
 * designated initializer may name any subset of them.
 */
struct PolicyBuildContext
{
    /// Decision period (used by PID controllers' first step).
    Seconds dtmInterval = 0.01;

    /**
     * Emergency ladder for the leveled Chapter 4 schemes (DTM-BW,
     * DTM-ACG, DTM-CDVFS); std::nullopt selects the Table 4.3 ladder.
     * Threshold (DTM-TS) and PID policies regulate against ThermalLimits
     * and ignore this.
     */
    std::optional<EmergencyLevels> emergencyLevels = std::nullopt;

    /// Remap decision period for the traffic-remap family
    /// (SimConfig::remapInterval, the `remap_interval` knob).
    Seconds remapInterval = 1.0;

    /// Hysteresis band of "DTM-remap-hyst"
    /// (SimConfig::remapHysteresis, the `remap_hysteresis` knob).
    Celsius remapHysteresis = 2.0;

    /// The run's starting per-DIMM traffic distribution
    /// (SimConfig::trafficShares; empty = uniform interleave). Remap
    /// policies migrate from here and reset() back to it.
    std::vector<double> trafficShares = {};
};

/**
 * The DTM policy catalog: the Chapter 4 lineup ("No-limit", "DTM-TS",
 * "DTM-BW", "DTM-ACG", "DTM-CDVFS" and the "+PID" variants) and the
 * traffic-remap family. Policies carry controller state, so every
 * lookup constructs a fresh instance.
 */
class PolicyRegistry
    : public Catalog<std::unique_ptr<DtmPolicy>, const PolicyBuildContext &>
{
  public:
    /** The process-wide catalog. */
    static PolicyRegistry &instance();

    /** get() under its historical name. */
    std::unique_ptr<DtmPolicy>
    make(const std::string &name, const PolicyBuildContext &ctx) const
    {
        return get(name, ctx);
    }

    /** A default context with @p dtm_interval. */
    std::unique_ptr<DtmPolicy>
    make(const std::string &name, Seconds dtm_interval) const
    {
        return get(name, {.dtmInterval = dtm_interval});
    }

  private:
    PolicyRegistry();
};

/** Table 3.2 cooling setups: "AOHS_1.0" ... "FDHS_3.0". */
Catalog<CoolingConfig> &coolingCatalog();

/**
 * Ambient-model presets (Table 3.3): "isolated" (constant inlet) and
 * "integrated" (CPU-preheated inlet). Parameters depend on the cooling
 * configuration, hence the extra argument.
 */
Catalog<AmbientParams, const CoolingConfig &> &ambientCatalog();

/**
 * Workload catalog: the Table 4.2/5.2 mixes ("W1".."W8", "W11", "W12")
 * plus homogeneous batches spelled "<app>x<n>" (e.g. "swimx4" — n copies
 * of one catalog application; n in canonical decimal, so the name is
 * the built Workload::name).
 */
Catalog<Workload> &workloadCatalog();

/**
 * Chapter 5 testbed platforms: "PE1950", "SR1500AL", their AMB TDP
 * variants ("PE1950_tdp88", "PE1950_tdp92", "SR1500AL_tdp90") and the
 * SR1500AL pinned to 2.0 GHz ("SR1500AL_2GHz").
 */
Catalog<Platform> &platformCatalog();

/**
 * Emergency-ladder catalog: "ch4" (the Table 4.3 FBDIMM ladder) and the
 * Table 5.1 testbed variants "pe1950", "sr1500al", "sr1500al_tdp90"
 * (AMB ladders of the Chapter 5 platforms with the DRAM boundaries
 * parked out of reach — the Chapter 5 hot spots are AMBs). Every entry
 * has the five-level depth the Chapter 4 action tables expect.
 */
Catalog<EmergencyLevels> &emergencyLevelCatalog();

/**
 * DVFS operating tables: "simulated_cmp" (the Table 4.1/4.3 four-core
 * CMP points) and "xeon5160" (the Chapter 5 Intel Xeon 5160 points).
 */
Catalog<DvfsTable> &dvfsCatalog();

/**
 * Memory-organization catalog: named {channels, DIMMs-per-channel}
 * configurations for the `memory_org` scenario knob and sweep axis.
 * "ch4_4x4" is the Table 4.1 default (4 physical / 2 logical FBDIMM
 * channels, 4 DIMMs each); the "<channels>x<dimms>" entries span
 * narrow (1x4), small (2x2), half-width (2x4), shallow (4x2), deep
 * (4x8), and wide (8x2, 8x4) variants. Scenario files can also give an
 * inline {channels, dimms} object for anything the catalog lacks.
 */
Catalog<MemoryOrgConfig> &memoryOrgCatalog();

/**
 * Traffic-shape catalog: named per-DIMM traffic distributions for the
 * `traffic_shape` scenario knob and sweep axis. A shape is
 * parameterized by the DIMM count of the resolved memory organization
 * (>= 1), so the same name fits any chain depth; the resolved vector is
 * the share of a channel's local traffic each DIMM receives (index 0
 * nearest the memory controller, non-negative, summing to 1):
 *
 *  - "uniform"       1/n each (exactly — a run with this shape is
 *                    bit-identical to one with the knob unset);
 *  - "front_heavy"   geometric halving away from the controller
 *                    (share_i proportional to 2^-i);
 *  - "back_heavy"    the mirror image: geometric halving toward the
 *                    controller, so the far end of the chain is loaded;
 *  - "hot_dimm0"     DIMM 0 takes half the channel's traffic, the rest
 *                    split the remainder uniformly;
 *  - "linear_taper"  arithmetic taper (share_i proportional to n - i).
 *
 * Scenario files can also give an inline share vector for anything the
 * catalog lacks. Every shape resolves to {1} on a one-DIMM chain.
 */
Catalog<std::vector<double>, int> &trafficShapeCatalog();

/**
 * Temperature-coupled DRAM refresh/timing models
 * (core/sim/refresh_model.hh): "none" (the empty model — feedback edge
 * disabled, bit-identical to leaving the `refresh` knob unset),
 * "ddr2_2x" (DDR2 refresh doubling above the 85 C DRAM TDP) and
 * "aldram" (the same doubling plus AL-DRAM-style relaxed timings on
 * cool DIMMs).
 */
Catalog<RefreshModel> &refreshCatalog();

/**
 * Thermal-model catalog: named grids for the `thermal_model` scenario
 * knob and sweep axis. "lumped" is the paper's per-DIMM model, the
 * empty grid (bit-identical to leaving the knob unset); "bank_grid"
 * overlays the default 4x2 per-bank diagnostic grid
 * (core/thermal/bank_grid.hh) on every DIMM. Scenario files can also
 * give an inline {grid_x, grid_z[, bank_weights]} object; sweeps
 * compare resolved grids by value, so "bank_grid" and an equal inline
 * object collide.
 */
Catalog<SharedBankGrid> &thermalModelCatalog();

/** Every catalog `memtherm list` knows, in usage order. */
const std::vector<const CatalogBase *> &catalogListings();

/**
 * Most copies of an application one workload may hold: the `<app>x<n>`
 * count, the `copies_per_app` knob and sweep, and `run --copies`. The
 * same bound as the bank-grid cells per DIMM: far past any real core
 * count, and a cap on the instances a typo can make a batch allocate.
 */
constexpr int kMaxBatchCopies = 1024;

/** "a, b, c" — the key lists used in diagnostics. */
std::string joinNames(const std::vector<std::string> &names);

} // namespace memtherm

#endif // MEMTHERM_CORE_SIM_REGISTRY_HH
