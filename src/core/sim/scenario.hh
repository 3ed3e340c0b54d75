/**
 * @file
 * Declarative scenario API.
 *
 * A ScenarioSpec is a serializable description of one experiment: the
 * base configuration (by catalog names — cooling, ambient model, or a
 * Chapter 5 platform), override knobs, the workload and policy name
 * lists, and up to thirteen sweep axes whose cross product spans a
 * configuration grid. Specs lower to ExperimentEngine run lists and
 * round-trip losslessly through JSON, so an experiment is data (a
 * scenario file fed to the `memtherm` CLI), not a hand-written binary.
 * Every name resolves through core/sim/registry.hh, so a typo reports
 * the valid keys instead of aborting.
 *
 * One static table in scenario.cc (forEachAxis) drives the layer: an
 * AxisDef entry per `config` knob, in `config` member order, and the
 * entries with a label prefix are the sweep axes. An entry holds the
 * knob's JSON key, its ScenarioSpec members, its sweep position and
 * label prefix, the platform-rejection message, the numeric bound, the
 * duplicate rule (equal labels, or equal *resolved* values for the
 * name-or-inline axes), and how a value resolves (checks that need the
 * rest of the spec, like the CDVFS table depth, live there) and is
 * applied to a SimConfig. lower(), toJson() and fromJson() loop over the
 * table. Only the rules that span axes are written out by hand: a trace
 * against traffic shapes and inline bank weights, the per-point
 * decision-period nesting, and the platform policy lineup.
 *
 * Adding a knob or axis: add its ScenarioSpec member(s) (a std::optional
 * scalar, or a CatalogOrInline for a name-or-inline value, plus a vector
 * of values for an axis), add one entry to the table in scenario.cc
 * (the next sweep position and a label prefix if it sweeps), and
 * document it in docs/scenarios.md. Validation, labels, the odometer and
 * the JSON codec follow from the entry.
 *
 * Values go through one codec trait in scenario.cc, ValueCodec<T>: its
 * parse, toJson and label read, write and label every knob, sweep array
 * and inline member, and every value error reads
 * `scenario: '<path>' must be <kind>` with the value's full JSON path
 * (`sweep.memory_org[0].dimms`). Adding a value type: one ValueCodec
 * specialization — for an inline object, its Members list; for a
 * name-or-inline value, its InlineForm (noun, accepted forms, catalog,
 * bounds check).
 */

#ifndef MEMTHERM_CORE_SIM_SCENARIO_HH
#define MEMTHERM_CORE_SIM_SCENARIO_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/sim/engine.hh"
#include "core/thermal/bank_grid.hh"

namespace memtherm
{

/**
 * One scenario, lowered: the configuration points of the sweep grid and
 * the engine runs of each point (workload-major, then policy, matching
 * the spec's list order).
 */
struct LoweredScenario
{
    struct Point
    {
        std::string label; ///< sweep coordinates, e.g. "inlet=46"; "base"
        SimConfig cfg;     ///< the point's configuration
        std::vector<ExperimentEngine::Run> runs;
    };

    std::vector<Point> points;
    std::vector<std::string> workloads; ///< resolved names, spec order
    std::vector<std::string> policies;

    /**
     * Policy-independent equivalence classes over the concatenated run
     * list (global grid order): each class spans runs that differ only
     * by policy — same point configuration, same workload — so a
     * batched engine may share their simulated prefix. Derived
     * structurally from the lowering order (runs are workload-major
     * with the policy fastest): one class of size policies.size() per
     * (point, workload) — except on Chapter 5 platforms, where
     * ch5EngineRun adjusts the configuration per policy (the SR1500AL
     * "No-limit" room-ambient protocol), so every run is its own class.
     */
    std::vector<ExperimentEngine::RunClass> classes;

    /** Total run count across all points. */
    std::size_t totalRuns() const;
};

/**
 * A value a spec names either by catalog name (registry.hh) or inline,
 * for values the catalog lacks. A default-constructed value means "keep
 * the base configuration's value". When both a name and an inline value
 * are set, the name wins (the serialized form never carries both).
 *
 * @tparam Inline   the inline form: a std::optional, or a vector whose
 *                  empty state means "unset"
 * @tparam Resolved what resolve() yields
 * @tparam Context  what resolution needs besides the value (a traffic
 *                  shape's DIMM count)
 */
template <typename Inline, typename Resolved, typename... Context>
struct CatalogOrInline
{
    std::string name; ///< catalog name; empty -> inline
    Inline value;     ///< inline value

    bool operator==(const CatalogOrInline &) const = default;

    bool
    hasValue() const
    {
        if constexpr (requires { value.has_value(); })
            return value.has_value();
        else
            return !value.empty();
    }

    bool empty() const { return name.empty() && !hasValue(); }

    /**
     * Sweep-label coordinate: the catalog name, or the inline value
     * rendered free of the label grammar's reserved "," and "="
     * (docs/scenarios.md lists each form).
     */
    std::string label() const;

    /**
     * The value this spec denotes: the catalog lookup (FatalError listing
     * the valid keys) or the validated inline value (FatalError naming
     * the broken bound).
     */
    Resolved resolve(Context... context) const;
};

// The four name-or-inline values; docs/scenarios.md lists each inline
// form's bounds. A traffic shape resolves for an n-DIMM chain.
using MemoryOrgSpec =
    CatalogOrInline<std::optional<MemoryOrgConfig>, MemoryOrgConfig>;
using TrafficShapeSpec =
    CatalogOrInline<std::vector<double>, std::vector<double>, int>;
using RefreshSpec = CatalogOrInline<std::vector<RefreshBand>, RefreshModel>;
using ThermalModelSpec =
    CatalogOrInline<std::optional<BankGridConfig>, ThermalModelConfig>;

/**
 * Declarative description of an experiment. Field defaults mirror the
 * Chapter 4 platform; std::nullopt means "keep the base configuration's
 * value" (makeCh4Config's, or the platform's when `platform` is set).
 * A platform scenario rejects the knobs its testbed fixes or measures;
 * the axis table in scenario.cc gives each rejection with its reason.
 */
struct ScenarioSpec
{
    std::string name;
    std::string description;

    /**
     * Chapter 5 testbed platform name ("PE1950", "SR1500AL"). When set,
     * the platform supplies the base configuration and the Chapter 5
     * policy lineup applies (including the paper's protocol: the
     * SR1500AL "No-limit" baseline runs at a 26 C room ambient); the
     * `cooling`/`ambient` fields and the cooling sweep are rejected.
     */
    std::string platform;

    std::string cooling = "AOHS_1.5"; ///< Table 3.2 column name
    std::string ambient = "isolated"; ///< "isolated" or "integrated"

    /// Emergency-ladder catalog name for the leveled Chapter 4 schemes
    /// (empty = the Table 4.3 ladder).
    std::string emergencyLevels;
    /// DVFS catalog table name (empty = the base configuration's table).
    std::string dvfs;

    MemoryOrgSpec memoryOrg; ///< empty keeps the base organization
    /// Per-DIMM traffic shape; empty keeps uniform address interleave.
    /// Shapes resolve against each grid point's memory organization.
    TrafficShapeSpec trafficShape;
    RefreshSpec refresh; ///< empty disables the refresh feedback edge
    /// Thermal model resolution; empty keeps the paper's lumped per-DIMM
    /// model.
    ThermalModelSpec thermalModel;

    /// Path to a memory-access trace file (dram/trace.hh) whose decoded
    /// address stream supplies the per-DIMM traffic distribution — and,
    /// when the bank-grid thermal model is active, the per-bank heat
    /// weights — in place of the traffic_shape catalog. Mutually
    /// exclusive with the traffic_shape knob and sweep (the trace IS
    /// the measured distribution), and with inline bank_weights (the
    /// trace supplies them). Relative paths resolve against the
    /// process's working directory. Empty keeps the modeled shapes; a
    /// trace-free run is bit-identical to builds that predate traces.
    std::string trace;

    std::optional<double> tInlet;          ///< system inlet override (C)
    std::optional<int> copiesPerApp;       ///< batch depth override
    std::optional<double> instrScale;      ///< instruction-volume scale
    std::optional<double> maxSimTime;      ///< simulation horizon (s)
    std::optional<double> dtmInterval;     ///< policy decision period (s)
    /// Scheduler time slice (s) when fewer cores than applications run.
    /// The simulator window shrinks to the shortest of the window,
    /// dtm_interval and rotation_slice at every grid point.
    std::optional<double> rotationSlice;
    /// PsiCPU_MEM * xi in paper units (1.5 is the integrated model's
    /// default); needs the integrated ambient (Figs. 4.13/4.14).
    std::optional<double> interactionDegree;
    /// Remap decision period (s) for the traffic-remap policy family;
    /// must be >= the simulator window and a whole multiple of the
    /// effective dtm_interval at every grid point.
    std::optional<double> remapInterval;
    /// DTM-remap-hyst release band (C) below the TDPs.
    std::optional<double> remapHysteresis;
    std::optional<double> sensorNoiseSigma;
    std::optional<double> sensorQuant;
    std::optional<std::uint64_t> sensorSeed;

    std::vector<std::string> workloads; ///< registry names / "<app>x<n>"
    std::vector<std::string> policies;  ///< registry names

    /// Sweep axes; the grid is their cross product (empty = base value).
    /// An axis supersedes the matching scalar override. Values must be
    /// finite and free of duplicates (duplicates would collapse sweep
    /// points onto one result key).
    std::vector<MemoryOrgSpec> sweepMemoryOrg;
    std::vector<TrafficShapeSpec> sweepTrafficShape;
    std::vector<std::string> sweepCooling;
    std::vector<double> sweepTInlet;
    std::vector<int> sweepCopies;
    std::vector<double> sweepSensorNoise;
    std::vector<double> sweepDtmInterval;
    std::vector<std::string> sweepEmergencyLevels;
    std::vector<std::string> sweepDvfs;
    std::vector<RefreshSpec> sweepRefresh;
    std::vector<ThermalModelSpec> sweepThermalModel;
    std::vector<double> sweepInteractionDegree;
    std::vector<double> sweepRotationSlice;

    bool operator==(const ScenarioSpec &) const = default;

    /**
     * Resolve every name and check sweep axes; FatalError (listing the
     * valid keys) on the first problem. lower() and runScenario()
     * validate implicitly.
     */
    void validate() const;

    /** Lower to the configuration grid and its engine run lists. */
    LoweredScenario lower() const;

    /** Serialize (omits unset optionals; lossless round-trip). */
    Json toJson() const;

    /** Parse; FatalError on unknown members, bad types, or bad names. */
    static ScenarioSpec fromJson(const Json &j);

    /** Load a scenario file. */
    static ScenarioSpec load(const std::string &path);

    /** Write a scenario file. */
    void save(const std::string &path) const;
};

/** JSON member names of the scenario `config` object, in member order. */
const std::vector<std::string> &scenarioConfigKeys();

/** JSON member names of the `sweep` axes, in label/odometer order. */
const std::vector<std::string> &scenarioSweepKeys();

/**
 * One failed run of a scenario grid, identified well enough to debug
 * (the grid coordinate and the run's identity, not just a bare what()).
 */
struct RunError
{
    std::size_t index = 0; ///< global run index in spec grid order
    std::string point;     ///< sweep-point label
    std::string workload;
    std::string policy;
    std::string error; ///< the exception's what()

    bool operator==(const RunError &) const = default;
};

/**
 * What every program prints for failed runs: "<n> run(s) failed:" and
 * one line per error naming its grid coordinate,
 * "  run #<k> [point '<p>', workload '<w>', policy '<q>']: <what>".
 */
std::string failureSummary(const std::vector<RunError> &errors);

/**
 * Results of a scenario: one SuiteResults per sweep point, in grid
 * order, each keyed [workload][policy] in the spec's names. A failed run
 * contributes a RunError instead of a suite entry — the rest of the
 * grid's results survive one bad run.
 */
struct ScenarioResults
{
    struct Point
    {
        std::string label;
        SuiteResults suite;
    };

    std::string scenario; ///< the spec's name
    std::vector<Point> points;
    std::vector<RunError> errors; ///< failed runs, in grid-index order
};

/**
 * Execute a scenario on an engine. Results are bit-identical to hand
 * the same runs to ExperimentEngine directly (the spec only *describes*
 * the runs; the engine's determinism guarantees do the rest). A run
 * that throws becomes a RunError in the returned results; every other
 * run's result is still delivered. This is runScenarioBatched() at
 * width 1; both are defined in core/sim/result_sink.cc, sharing one
 * runner with runScenarioStream().
 */
ScenarioResults runScenario(const ScenarioSpec &spec,
                            ExperimentEngine &engine);

/** Convenience overload: a default-sized engine (MEMTHERM_THREADS). */
ScenarioResults runScenario(const ScenarioSpec &spec);

/**
 * Execute a scenario through the engine's batched path: runs inside one
 * policy-independent equivalence class (LoweredScenario::classes) share
 * their simulated prefix, in lockstep chunks of up to @p batch_width
 * lanes (< 1 = one chunk per class). Every batched run is
 * bit-identical to its unbatched twin (pinned by gtest, and by the
 * batched golden checks at the same 1e-9 tolerance as unbatched ones).
 * @p stats, when non-null, accumulates the grid's batch counters.
 */
ScenarioResults runScenarioBatched(const ScenarioSpec &spec,
                                   ExperimentEngine &engine,
                                   int batch_width,
                                   BatchStats *stats = nullptr);

/**
 * Version of the result-document schema this binary writes. The result
 * table (scenario.cc) records the version that introduced each member:
 * 2 the refresh arrays, 3 the bank-grid members. toJson(ScenarioResults)
 * stamps the highest version among the members it writes, and nothing
 * for v1 (so version-absent files read as v1 and keep their bytes);
 * JSONL stream headers (core/sim/result_sink.hh) carry the binary's
 * version unconditionally.
 */
inline constexpr int kResultSchemaVersion = 3;

/**
 * Effective schema version of a result document or stream header: the
 * `schema_version` member when present, else 1. FatalError when the
 * member is not a positive integer, or names a version newer than
 * @p max_version (the binary's kResultSchemaVersion by default; tests
 * pin older values to exercise the refusal) — a clear upgrade message
 * instead of a misparse. @p where prefixes the diagnostic (e.g. the
 * file path).
 */
int resultSchemaVersionOf(const Json &doc, const std::string &where,
                          int max_version = kResultSchemaVersion);

/**
 * The result codec: one table in scenario.cc declares each SimResult
 * member's JSON key, codec, version, and whether it is written only when
 * non-empty; the writers, the readers and the version stamp iterate it.
 * @p traces includes the full traces (large).
 */
Json toJson(const SimResult &r, bool traces = false);
Json toJson(const ScenarioResults &r, bool traces = false);

/**
 * Inverse of toJson(SimResult). FatalError, prefixed with @p where, on
 * a wrong type, a missing required member or one the table lacks; the
 * per-DIMM arrays, v2/v3 members and traces may be absent (empty).
 * @p traces, when set, says whether `traces` must be present.
 */
SimResult simResultFromJson(const Json &j, const std::string &where,
                            std::optional<bool> traces = std::nullopt);

/** Inverse of toJson(ScenarioResults), after the version check. */
ScenarioResults scenarioResultsFromJson(const Json &doc,
                                        const std::string &where);

/** JSON keys of a result object, in the order toJson() writes them. */
const std::vector<std::string> &resultMemberKeys();

} // namespace memtherm

#endif // MEMTHERM_CORE_SIM_SCENARIO_HH
