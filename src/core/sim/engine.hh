/**
 * @file
 * Parallel experiment engine.
 *
 * The paper's evaluation is a grid of independent (workload, policy,
 * configuration) simulations — each run owns its simulator, thermal
 * state, and sensor RNG stream, so runs never share mutable state and
 * the suite is embarrassingly parallel. The engine fans runs out over a
 * fixed-size thread pool and hands each result to a RunSink by input
 * index, so parallel and serial execution produce bit-identical
 * results. Grids reach it through the scenario layer (runScenario,
 * core/sim/scenario.hh).
 *
 * Thread count resolution (in priority order):
 *  1. the explicit constructor argument, when > 0;
 *  2. the MEMTHERM_THREADS environment variable, when set to >= 1;
 *  3. std::thread::hardware_concurrency().
 * A count of 1 runs every experiment inline on the calling thread (no
 * workers are spawned), which is the reference serial mode.
 */

#ifndef MEMTHERM_CORE_SIM_ENGINE_HH
#define MEMTHERM_CORE_SIM_ENGINE_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/sim/experiment.hh"

namespace memtherm
{

/**
 * Builds the policy object for one run. Runs must not share a policy
 * instance (policies carry controller state), so the engine constructs
 * one per run through this factory. An empty factory means the Chapter 4
 * lineup, built through PolicyRegistry from the run's configuration
 * (cfg.dtmInterval and cfg.emergencyLevels).
 */
using PolicyFactory = std::function<std::unique_ptr<DtmPolicy>(
    const SimConfig &cfg, const std::string &policy_name)>;

/**
 * Per-run result consumer — the engine's primary output channel.
 *
 * The engine invokes exactly one of onResult()/onFailure() per run, in
 * completion order (nondeterministic under threads; @p index identifies
 * the run). Invocations are serialized by the engine — a sink never
 * sees two calls concurrently — so implementations need no locking of
 * their own. Results are *moved* into the sink as each run finishes:
 * nothing accumulates inside the engine, which is what lets a
 * million-point grid stream to disk in bounded memory and survive a
 * mid-grid crash with every completed run already persisted.
 *
 * A sink that throws does not abort the batch: the remaining runs still
 * execute, and the first sink exception is rethrown after the batch
 * drains (a full disk should not discard in-flight work).
 */
class RunSink
{
  public:
    virtual ~RunSink() = default;

    /** Run @p index finished; @p wall_s is its wall-clock duration. */
    virtual void onResult(std::size_t index, SimResult &&result,
                          double wall_s) = 0;

    /**
     * Run @p index threw; @p error is the in-flight exception. The
     * batch continues — one bad run must not sink a 10-hour grid.
     */
    virtual void onFailure(std::size_t index, std::exception_ptr error) = 0;
};

/**
 * Fixed-size thread pool over independent simulation runs.
 *
 * Determinism: every run is seeded only by its own SimConfig (the
 * sensor RNG is constructed per run from cfg.sensorSeed) and every
 * result is delivered with its run index — so the outcome is
 * independent of the thread count and of scheduling, and bit-identical
 * to serial execution.
 */
class ExperimentEngine
{
  public:
    /** One independent simulation: config x workload x policy name. */
    struct Run
    {
        SimConfig cfg;
        Workload workload;
        std::string policy;     ///< display name; also the result key
        PolicyFactory factory;  ///< empty -> Chapter 4 policy lineup
    };

    /**
     * A contiguous span of a run list whose members differ ONLY by
     * policy: same config, same workload, same factory behavior. Runs
     * inside one class may legally share their simulated prefix (see
     * runBatched()); the scenario layer derives classes structurally
     * from its lowering order, which is the only place the "policy-
     * independent equivalence" invariant can be asserted cheaply
     * (SimConfig has no operator==).
     */
    struct RunClass
    {
        std::size_t first = 0; ///< index of the class's first run
        std::size_t count = 0; ///< number of runs (>= 1)
    };

    /** @param n_threads 0 = resolve from MEMTHERM_THREADS / hardware */
    explicit ExperimentEngine(int n_threads = 0);
    ~ExperimentEngine();

    ExperimentEngine(const ExperimentEngine &) = delete;
    ExperimentEngine &operator=(const ExperimentEngine &) = delete;

    /** Worker count this engine executes with (>= 1). */
    int threads() const { return nThreads; }

    /** The thread count an ExperimentEngine(0) would use. */
    static int defaultThreads();

    /**
     * Execute all runs, handing each result (or failure) to @p sink as it
     * completes; sink invocations are serialized (see RunSink). Runs
     * within one RunClass execute through ThermalSimulator::runBatch in
     * chunks of up to @p batch_width lanes, sharing their simulated
     * prefix; every chunk, one run or many, goes through runBatch, so
     * width 1 (or all-singleton classes) is one-lane batches that never
     * fork. @p batch_width < 1 means "whole class in one chunk". Results
     * are bit-identical to width 1 per run — batching is purely a
     * strategy.
     *
     * This is the engine's only dispatcher: run() forwards here, and the
     * engine itself never owns a result vector.
     *
     * @p classes must tile [0, runs.size()) in order, and every class's
     * runs must share config + workload (only the policy may differ);
     * violating that is the caller's bug and produces wrong results,
     * which is why only the scenario layer constructs multi-run classes.
     * A failure while building one run's policy fails only that run; a
     * failure inside a batched simulation fails every run of the chunk
     * (their shared state is poisoned). @p stats, when non-null,
     * accumulates the batch counters across all chunks.
     */
    void runBatched(const std::vector<Run> &runs,
                    const std::vector<RunClass> &classes, int batch_width,
                    RunSink &sink, BatchStats *stats = nullptr);

    /** Unbatched streaming: runBatched() with one singleton class per run. */
    void run(const std::vector<Run> &runs, RunSink &sink);

  private:
    /// A pool task; the worker lends its reusable simulator scratch.
    using Task = std::function<void(ThermalSimulator::Scratch &)>;

    void workerLoop();
    /// Stop and join every worker (after the queue drains).
    void stop();
    static std::unique_ptr<DtmPolicy> makePolicy(const Run &r);

    int nThreads;
    std::vector<std::thread> workers;

    std::mutex mtx;
    std::condition_variable wake;
    std::deque<Task> queue;
    bool stopping = false;
};

} // namespace memtherm

#endif // MEMTHERM_CORE_SIM_ENGINE_HH
