/**
 * @file
 * String-keyed registries and catalogs behind the declarative scenario
 * API (core/sim/scenario.hh) and the `memtherm` CLI.
 *
 * Everything a scenario file can name — DTM policies, cooling setups,
 * ambient models, workload mixes, Chapter 5 platforms, memory
 * organizations, traffic shapes, emergency ladders, DVFS tables,
 * refresh models — resolves here.
 * Each catalog offers three entry points with uniform semantics:
 *
 *  - names()           the valid keys, stable order;
 *  - try...()          error-returning lookup (no exception, no abort);
 *  - ...ByName()/make  throwing lookup whose FatalError message lists
 *                      every valid key, so a typo in a scenario file or
 *                      on the CLI reads as a usable diagnostic instead
 *                      of a bare abort.
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

/**
 * Everything a PolicyRegistry factory may build from. One run's policy
 * is constructed from its SimConfig, and this is the slice of it the
 * policy constructors consume.
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
    std::optional<EmergencyLevels> emergencyLevels;

    /// Remap decision period for the traffic-remap family
    /// (SimConfig::remapInterval, the `remap_interval` knob).
    Seconds remapInterval = 1.0;

    /// Hysteresis band of "DTM-remap-hyst"
    /// (SimConfig::remapHysteresis, the `remap_hysteresis` knob).
    Celsius remapHysteresis = 2.0;

    /// The run's starting per-DIMM traffic distribution
    /// (SimConfig::trafficShares; empty = uniform interleave). Remap
    /// policies migrate from here and reset() back to it.
    std::vector<double> trafficShares;
};

/**
 * Registry of DTM policy constructors by display name.
 *
 * Seeded with the full Chapter 4 lineup ("No-limit", "DTM-TS", "DTM-BW",
 * "DTM-ACG", "DTM-CDVFS" and the "+PID" variants); add() registers
 * additional policies (e.g. experimental schemes) at runtime. Policies
 * carry controller state, so every lookup constructs a fresh instance.
 * Lookups are thread-safe (engine workers build policies concurrently).
 */
class PolicyRegistry
{
  public:
    /// Constructs one policy instance for a run's build context.
    using Factory = std::function<std::unique_ptr<DtmPolicy>(
        const PolicyBuildContext &ctx)>;

    /** The process-wide registry. */
    static PolicyRegistry &instance();

    /** Register (or replace) a policy constructor. */
    void add(const std::string &name, Factory factory);

    /** Valid policy names, registration order. */
    std::vector<std::string> names() const;

    bool contains(const std::string &name) const;

    /**
     * Error-returning construction: nullptr for an unknown name, with
     * @p error (when given) set to a diagnostic listing the valid keys.
     */
    std::unique_ptr<DtmPolicy> tryMake(const std::string &name,
                                       const PolicyBuildContext &ctx,
                                       std::string *error = nullptr) const;

    /** Convenience overload: a default context with @p dtm_interval. */
    std::unique_ptr<DtmPolicy> tryMake(const std::string &name,
                                       Seconds dtm_interval,
                                       std::string *error = nullptr) const;

    /** Throwing construction: FatalError listing the valid keys. */
    std::unique_ptr<DtmPolicy> make(const std::string &name,
                                    const PolicyBuildContext &ctx) const;
    std::unique_ptr<DtmPolicy> make(const std::string &name,
                                    Seconds dtm_interval) const;

  private:
    PolicyRegistry();

    mutable std::mutex mtx;
    std::vector<std::pair<std::string, Factory>> entries;
};

/**
 * Registry of DVFS operating tables by name.
 *
 * Seeded with "simulated_cmp" (the Table 4.1/4.3 four-core CMP points)
 * and "xeon5160" (the Chapter 5 Intel Xeon 5160 points); add() registers
 * additional tables at runtime, which scenario files can then name as a
 * `dvfs` override or sweep axis. Lookups are thread-safe.
 */
class DvfsRegistry
{
  public:
    /** The process-wide registry. */
    static DvfsRegistry &instance();

    /** Register (or replace) an operating table. */
    void add(const std::string &name, DvfsTable table);

    /** Valid table names, registration order. */
    std::vector<std::string> names() const;

    bool contains(const std::string &name) const;

    /**
     * Error-returning lookup: nullopt for an unknown name, with @p error
     * (when given) set to a diagnostic listing the valid keys.
     */
    std::optional<DvfsTable> tryGet(const std::string &name,
                                    std::string *error = nullptr) const;

    /** Throwing lookup: FatalError listing the valid keys. */
    DvfsTable byName(const std::string &name) const;

  private:
    DvfsRegistry();

    mutable std::mutex mtx;
    std::vector<std::pair<std::string, DvfsTable>> entries;
};

/**
 * Registry of temperature-coupled DRAM refresh/timing models by name
 * (core/sim/refresh_model.hh).
 *
 * Seeded with "none" (the empty model — feedback edge disabled,
 * bit-identical to leaving the `refresh` knob unset), "ddr2_2x" (DDR2
 * refresh doubling above the 85 C DRAM TDP) and "aldram" (the same
 * doubling plus AL-DRAM-style relaxed timings on cool DIMMs); add()
 * registers additional models at runtime, which scenario files can then
 * name as a `refresh` override or sweep axis. Lookups are thread-safe.
 */
class RefreshRegistry
{
  public:
    /** The process-wide registry. */
    static RefreshRegistry &instance();

    /** Register (or replace) a refresh model. */
    void add(const std::string &name, RefreshModel model);

    /** Valid model names, registration order. */
    std::vector<std::string> names() const;

    bool contains(const std::string &name) const;

    /**
     * Error-returning lookup: nullopt for an unknown name, with @p error
     * (when given) set to a diagnostic listing the valid keys.
     */
    std::optional<RefreshModel> tryGet(const std::string &name,
                                       std::string *error = nullptr) const;

    /** Throwing lookup: FatalError listing the valid keys. */
    RefreshModel byName(const std::string &name) const;

  private:
    RefreshRegistry();

    mutable std::mutex mtx;
    std::vector<std::pair<std::string, RefreshModel>> entries;
};

/** Table 3.2 cooling setups: "AOHS_1.0" ... "FDHS_3.0". */
std::vector<std::string> coolingNames();
std::optional<CoolingConfig> tryCooling(const std::string &name);
CoolingConfig coolingByName(const std::string &name);

/**
 * Ambient-model presets (Table 3.3): "isolated" (constant inlet) and
 * "integrated" (CPU-preheated inlet). Parameters depend on the cooling
 * configuration, hence the extra argument.
 */
std::vector<std::string> ambientNames();
std::optional<AmbientParams> tryAmbient(const std::string &name,
                                        const CoolingConfig &cooling);
AmbientParams ambientByName(const std::string &name,
                            const CoolingConfig &cooling);

/**
 * Workload catalog: the Table 4.2/5.2 mixes ("W1".."W8", "W11", "W12")
 * plus homogeneous batches spelled "<app>x<n>" (e.g. "swimx4" — n copies
 * of one catalog application).
 */
std::vector<std::string> workloadNames();
std::optional<Workload> tryWorkload(const std::string &name);
Workload workloadByName(const std::string &name);

/** Chapter 5 testbed platforms: "PE1950", "SR1500AL". */
std::vector<std::string> platformNames();
std::optional<Platform> tryPlatform(const std::string &name);
Platform platformByName(const std::string &name);

/**
 * Memory-organization catalog: named {channels, DIMMs-per-channel}
 * configurations for the `memory_org` scenario knob and sweep axis.
 * "ch4_4x4" is the Table 4.1 default (4 physical / 2 logical FBDIMM
 * channels, 4 DIMMs each); the "<channels>x<dimms>" entries span
 * narrow (1x4), small (2x2), half-width (2x4), shallow (4x2), deep
 * (4x8), and wide (8x2, 8x4) variants. Scenario files can also give an
 * inline {channels, dimms} object for anything the catalog lacks.
 */
std::vector<std::string> memoryOrgNames();
std::optional<MemoryOrgConfig> tryMemoryOrg(const std::string &name);
MemoryOrgConfig memoryOrgByName(const std::string &name);

/**
 * Traffic-shape catalog: named per-DIMM traffic distributions for the
 * `traffic_shape` scenario knob and sweep axis. A shape is
 * parameterized by the DIMM count of the resolved memory organization,
 * so the same name fits any chain depth; the resolved vector is the
 * share of a channel's local traffic each DIMM receives (index 0
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
std::vector<std::string> trafficShapeNames();
std::optional<std::vector<double>> tryTrafficShape(const std::string &name,
                                                   int n_dimms);
std::vector<double> trafficShapeByName(const std::string &name, int n_dimms);

/**
 * Refresh-model catalog entry points over RefreshRegistry, uniform with
 * the other catalogs: "none", "ddr2_2x", "aldram" (plus anything add()ed
 * at runtime) for the `refresh` scenario knob and sweep axis.
 */
std::vector<std::string> refreshModelNames();
std::optional<RefreshModel> tryRefreshModel(const std::string &name,
                                            std::string *error = nullptr);
RefreshModel refreshModelByName(const std::string &name);

/**
 * Thermal-model catalog: named resolutions for the `thermal_model`
 * scenario knob and sweep axis. "lumped" is the paper's per-DIMM model
 * (bit-identical to leaving the knob unset); "bank_grid" overlays the
 * default 4x2 per-bank diagnostic grid (core/thermal/bank_grid.hh) on
 * every DIMM. Scenario files can also give an inline
 * {grid_x, grid_z[, bank_weights]} object for grids the catalog lacks.
 */
std::vector<std::string> thermalModelNames();
std::optional<ThermalModelConfig> tryThermalModel(const std::string &name);
ThermalModelConfig thermalModelByName(const std::string &name);

/**
 * Emergency-ladder catalog: "ch4" (the Table 4.3 FBDIMM ladder) and the
 * Table 5.1 testbed variants "pe1950", "sr1500al", "sr1500al_tdp90"
 * (AMB ladders of the Chapter 5 platforms with the DRAM boundaries
 * parked out of reach — the Chapter 5 hot spots are AMBs). Every entry
 * has the five-level depth the Chapter 4 action tables expect.
 */
std::vector<std::string> emergencyLevelNames();
std::optional<EmergencyLevels> tryEmergencyLevels(const std::string &name);
EmergencyLevels emergencyLevelsByName(const std::string &name);

/**
 * One catalog `memtherm list` prints: its keyword, its valid names and,
 * for catalogs that also accept other spellings (inline values, "<app>x<n>"
 * batches), a one-line hint printed after the names.
 */
struct CatalogListing
{
    const char *keyword;
    std::vector<std::string> (*names)();
    const char *hint = nullptr; ///< null: the names are the whole catalog
};

/** Every catalog `memtherm list` knows, in usage order. */
const std::vector<CatalogListing> &catalogListings();

/** "a, b, c" — the key lists used in registry diagnostics. */
std::string joinNames(const std::vector<std::string> &names);

} // namespace memtherm

#endif // MEMTHERM_CORE_SIM_REGISTRY_HH
