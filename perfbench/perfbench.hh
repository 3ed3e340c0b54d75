/**
 * @file
 * The repository benchmark: workload definitions, one measured pass of a
 * workload through the scenario/engine/result-sink entry points, the
 * per-layer replay used by the traced run, and the output checks.
 *
 * Host time is what every timing here measures; simulated statistics
 * (windows, forks, decisions) are counts that repeat exactly.
 */

#ifndef MEMTHERM_PERFBENCH_PERFBENCH_HH
#define MEMTHERM_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/sim/engine.hh"
#include "core/sim/scenario.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** The seed the committed reference results were generated with. */
inline constexpr std::uint64_t kDefaultSeed = 1;

/** How a workload executes its lowered run list. */
enum class ExecMode
{
    Document, ///< engine.run, written as one `run -o` results document
    Batched,  ///< engine.runBatched at width = policy count, `run -o` doc
    Stream,   ///< engine.run into a JSONL stream, then scan/merge/report
};

/** One named benchmark workload. */
struct WorkloadDef
{
    std::string name;
    ExecMode mode = ExecMode::Document;
    int threads = 1;       ///< engine threads
    bool seeded = false;   ///< false: the inputs ignore the seed
};

/** Every workload, in the order BENCHMARK.json lists them. */
const std::vector<WorkloadDef> &workloads();

/** Look a workload up by name; FatalError listing the valid names. */
const WorkloadDef &workloadByName(const std::string &name);

/**
 * Generate the workload's inputs for @p seed: the scenario document
 * text, plus any input file it references (the bank_grid_stream trace),
 * written under @p workdir. Equal seeds give equal inputs.
 */
std::string makeScenarioText(const WorkloadDef &w, std::uint64_t seed,
                             const std::string &workdir);

/** The policy the engine builds for @p r (its factory, else the registry). */
std::unique_ptr<memtherm::DtmPolicy>
buildPolicy(const memtherm::ExperimentEngine::Run &r);

/** What one pass over a workload measured and produced. */
struct Pass
{
    // Phase wall times (s). wall covers every phase below.
    double parseS = 0.0;
    double lowerS = 0.0;
    double policyS = 0.0; ///< constructing every run's policy once
    double simulateS = 0.0;
    double serializeS = 0.0; ///< toJson + write (document workloads)
    double scanS = 0.0;      ///< read-back: load or scanStream
    double mergeS = 0.0;     ///< mergeStreams (stream workload)
    double reportS = 0.0;    ///< aggregator + rendered summary
    double wallS = 0.0;
    double cpuS = 0.0; ///< process user+sys over the pass

    double setupS() const { return parseS + lowerS + policyS; }

    std::size_t points = 0;
    std::size_t runs = 0;
    std::size_t classes = 0;
    std::size_t errors = 0; ///< runs that threw

    double logicalWindows = 0.0;
    double simulatedWindows = 0.0;
    std::size_t forks = 0;

    std::vector<double> runWallS; ///< RunSink wall_s, one per run
    double sinkS = 0.0;           ///< time inside sink callbacks (traced)
    std::vector<double> appendS;  ///< per-record append time (traced)
    double streamBytes = 0.0;     ///< bytes of results written

    std::uint64_t decideCalls = 0; ///< traced: real decide() calls
    double decideNs = 0.0;         ///< traced: host ns inside decide()

    memtherm::Json document; ///< the results document the pass produced
    /// "<point>|<workload>|<policy>" of every run, in grid order.
    std::vector<std::string> runKeys;
    /// The lowered, undecorated run list (traced passes only).
    std::vector<memtherm::ExperimentEngine::Run> runList;
};

/**
 * Run one pass of workload @p w on @p scenario_text: setup (parse,
 * lower, policy construction), simulate, serialize, read back and
 * report. @p traced adds the decide() decorator and sink-callback
 * timing and keeps the lowered grid for the replay.
 */
Pass runPass(const WorkloadDef &w, const std::string &scenario_text,
             const std::string &workdir, bool traced);

/** Per-layer host time of the replayed window loop. */
struct LayerReplay
{
    std::uint64_t windows = 0;        ///< replayed windows
    std::uint64_t refreshWindows = 0; ///< of those, with refresh active
    double schedNs = 0.0;
    double solveNs = 0.0;
    double refreshNs = 0.0;
    double powerNs = 0.0;
    double thermalNs = 0.0; ///< thermal advance, power evaluation excluded
    double ambientNs = 0.0; ///< CPU power + ambient node
    std::size_t mismatches = 0; ///< replayed runs differing from the engine
    std::size_t powerMismatches = 0; ///< windows where power disagreed
};

/**
 * Replay one run's window loop through each layer's public function,
 * timing every layer call, and return the run's result. The result is
 * bit-identical to the engine's for the same run (the self-check pins
 * this), so every replayed call returned what the simulator's did.
 */
memtherm::SimResult replayRun(const memtherm::ExperimentEngine::Run &r,
                              LayerReplay &out);

/**
 * Host ns per lane fork for a run's configuration: fork a fresh lane
 * repeatedly into a multi-lane state, as the batched simulator does at
 * a diverging decision.
 */
double forkNsPerCall(const memtherm::ExperimentEngine::Run &r, int reps);

// --- output checks (check.cc) ----------------------------------------

/** Golden tolerance for serialized results (relative). */
inline constexpr double kGoldenTol = 1e-9;
/** Batched-vs-scalar tolerance (relative). */
inline constexpr double kBatchedTol = 1e-6;

/**
 * Split a results document into per-run results keyed
 * "<point>|<workload>|<policy>", in document order.
 */
std::vector<std::pair<std::string, memtherm::Json>>
runsOf(const memtherm::Json &doc);

/**
 * Compact reference form of one run's result: every scalar kept, every
 * numeric array replaced by [n, sum, min, max, sum of (i+1)*x], so a
 * reference of a bank-grid run stays small while still catching any
 * cell that moves beyond the tolerance.
 */
memtherm::Json digestOf(const memtherm::Json &result);

/**
 * Compare two JSON values number-by-number within relative @p tol (the
 * CLI's golden rule: |a-b| <= tol*max(|a|,|b|) + 1e-12); @p where names
 * the first difference.
 */
bool near(const memtherm::Json &a, const memtherm::Json &b, double tol,
          std::string &where);

/** Simulated counts of a pass that must repeat exactly. */
struct Counts
{
    double logicalWindows = 0.0;
    double simulatedWindows = 0.0;
    double forks = 0.0;
    double decisions = -1.0; ///< < 0: not measured (untraced pass)
};

/** Write the reference results of @p pass to @p path. */
void writeReference(const std::string &path, const WorkloadDef &w,
                    const Pass &pass, const Counts &counts);

/**
 * Count the runs of @p pass that differ from the reference at @p path
 * (missing or extra runs count too) and check the counts; @p log
 * receives one line per problem.
 */
std::size_t checkAgainstReference(const std::string &path,
                                  const Pass &pass, const Counts &counts,
                                  std::string &log);

/**
 * Count the runs of @p doc that differ from @p ref within @p tol (the
 * second-path check).
 */
std::size_t compareDocuments(const memtherm::Json &doc,
                             const memtherm::Json &ref, double tol,
                             std::string &log);

} // namespace perfbench

#endif // MEMTHERM_PERFBENCH_PERFBENCH_HH
