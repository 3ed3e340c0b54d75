/**
 * @file
 * The two-level thermal simulator (Section 4.3.1, Fig. 4.1).
 *
 * Level 1 (the paper's cycle-accurate M5 + FBDIMM simulator) is the
 * analytic performance model in src/cpu: for each 10 ms window it produces
 * the IPC and memory throughput of the current design point (active cores,
 * frequency/voltage, bandwidth cap). Level 2 ("MEMSpot") consumes those
 * windows: it evaluates the FBDIMM power model, advances the thermal RC
 * network and the ambient node, and invokes the DTM policy at every DTM
 * interval. Batch-job scheduling (N copies of each application, round-
 * robin core assignment, Section 4.3.2) lives here too.
 *
 * There is one window loop, runBatch(): one workload under K policies
 * in lockstep. All K runs share the simulated prefix until the first DTM
 * decision where their policies' actions differ; at that window the
 * shared lane is forked (an exact state snapshot: thermal lane, ambient
 * node, batch-job progress, sensor RNG position), so every run stays
 * bit-identical to a one-policy batch of its own. Policies that never
 * diverge (common on cool operating points) share the entire
 * simulation. run() is the one-policy batch, which never forks.
 */

#ifndef MEMTHERM_CORE_SIM_THERMAL_SIMULATOR_HH
#define MEMTHERM_CORE_SIM_THERMAL_SIMULATOR_HH

#include "common/rng.hh"
#include "core/dtm/dtm_policy.hh"
#include "core/sim/sim_config.hh"
#include "core/sim/sim_result.hh"
#include "core/thermal/ambient_model.hh"
#include "core/thermal/memory_thermal.hh"
#include "workloads/workload.hh"

namespace memtherm
{

/**
 * Counters of one batched execution (ThermalSimulator::runBatch, or a
 * whole grid via ExperimentEngine::runBatched). A "logical" window is a
 * window-step credited to a run; a "simulated" window is one actually
 * computed. Shared-prefix execution makes simulated <= logical; the gap
 * is the work saved.
 */
struct BatchStats
{
    double logicalWindows = 0.0;   ///< window-steps credited to runs
    double simulatedWindows = 0.0; ///< window-steps actually computed
    std::size_t forks = 0;         ///< lane forks (policy divergences)

    /** Fraction of logical windows served by a shared prefix. */
    double
    hitRate() const
    {
        return logicalWindows > 0.0
                   ? 1.0 - simulatedWindows / logicalWindows
                   : 0.0;
    }

    void
    add(const BatchStats &o)
    {
        logicalWindows += o.logicalWindows;
        simulatedWindows += o.simulatedWindows;
        forks += o.forks;
    }
};

/**
 * Runs one (workload, policy) experiment to batch completion.
 */
class ThermalSimulator
{
  public:
    explicit ThermalSimulator(SimConfig cfg);

    /**
     * Reusable working memory for runBatch().
     *
     * The window loop executes up to maxSimTime / window (potentially
     * millions of) iterations; every per-window container lives here so
     * the steady state performs no heap allocation
     * (AllocationFree.WindowLoopDoesNotAllocatePerWindow in
     * tests/sim/test_alloc_free.cc pins it). Invariants:
     *  - the loop clears/refills each buffer every window and never reads
     *    a value left over from a previous window or a previous run, so a
     *    Scratch may be reused across runs in any order;
     *  - buffer capacity only grows (bounded by the core count), it is
     *    never released between windows;
     *  - a Scratch must not be shared by two concurrent runBatch()
     *    calls.
     *    The ExperimentEngine keeps one per worker thread.
     *
     * Per-run state (core job slots, thermal lanes, RNG) lives in Lane,
     * not here, so lanes can be forked without touching the scratch.
     */
    struct Scratch
    {
        std::vector<std::size_t> occupied;  ///< slots holding a job
        std::vector<std::size_t> scheduled; ///< slots picked to run
        std::vector<double> sharers;        ///< L2 sharer count per task
        std::vector<CoreTask> tasks;        ///< level-1 window inputs
        std::vector<double> taskMpki;       ///< effective mpki per task
        std::vector<double> activities;     ///< per-core activity factors
        WindowPerf perf;                    ///< level-1 window solution
        // Refresh feedback intermediates (cfg.refresh active only):
        // per-DIMM current temperatures and the band's refresh power.
        std::vector<Celsius> refreshAmb;
        std::vector<Celsius> refreshDram;
        std::vector<Watts> refreshPower;
    };

    /**
     * The complete mutable state of one in-flight run: everything a
     * window-step reads or writes that belongs to the run rather than to
     * the shared scratch. runBatch() snapshots a run by copy-
     * constructing a Lane onto a fresh lane of the same thermal state
     * (the fork constructor), which is an exact double-copy — a forked
     * lane continues bit-identically to the lane it forked from.
     */
    struct Lane
    {
        /** Fresh run at t = 0 on lane @p lane_index of @p state. */
        Lane(const SimConfig &cfg, const Workload &mix,
             ThermalBatchState &state, int lane_index);

        /** Fork: exact snapshot of @p src continuing on @p lane_index
         *  of @p state, which must be the state @p src's lane is in. */
        Lane(const Lane &src, ThermalBatchState &state, int lane_index);

        Lane(Lane &&) = default;
        Lane &operator=(Lane &&) = default;

        /// A core slot's base MPKI, mpkiAtSharers(app->cache, sharers):
        /// valid while the slot runs the same app at the same sharer
        /// count, which saves a pow per task per window.
        struct BaseMpki
        {
            const AppDescriptor *app = nullptr;
            double sharers = 0.0;
            double mpki = 0.0;
        };

        SimResult res;
        BatchJob batch;
        std::vector<BatchJob::Instance *> slot; ///< per-core job slots
        std::vector<BaseMpki> baseMpki;         ///< per core slot
        AmbientModel ambient;
        MemoryThermalModel mem; ///< view over one state lane
        Rng sensorRng;
        DtmAction action;
        ThermalReading reading;
        /// Pending migration-cost traffic (GB) from a remap decision,
        /// spent in the window that applied it.
        double remapBurstGb = 0.0;
        Seconds nextDtm = 0.0;
        Seconds nextRotation = 0.0;
        Seconds nextTrace = 0.0;
        std::size_t rotation = 0;
        bool decided = false; ///< a DTM decision landed this window
        Seconds t = 0.0;
        bool live = true; ///< batch unfinished and t < maxSimTime
        // Window-step intermediates carried from the pre phase (through
        // the shared temperature sweep) into the post phase.
        Watts pendingCpuPower = 0.0;
        Celsius pendingInlet = 0.0;
        GBps pendingRead = 0.0;
        GBps pendingWrite = 0.0;
    };

    /**
     * Simulate the workload's batch job under the policy: runBatch()
     * with one policy and a private Scratch. The policy is reset()
     * first; a fresh thermal state (idle at ambient) is used.
     */
    SimResult run(const Workload &mix, DtmPolicy &policy) const;

    /**
     * Simulate one workload under every policy in @p policies (all
     * reset() first), sharing the simulated prefix between runs whose
     * policies have made identical decisions so far. Returns one
     * SimResult per policy, in order; each is bit-identical to what
     * run(mix, *policies[i]) returns. A one-policy batch never forks:
     * it is the plain window loop on a single lane. @p stats, when
     * non-null, is overwritten with this batch's counters.
     *
     * The policies must be distinct objects (each receives its own
     * decide() stream) and there must be at least one.
     */
    std::vector<SimResult> runBatch(const Workload &mix,
                                    const std::vector<DtmPolicy *> &policies,
                                    Scratch &scratch,
                                    BatchStats *stats = nullptr) const;

    const SimConfig &config() const { return cfg; }

  private:
    /** Reserve every scratch buffer for the configured core count. */
    void reserveScratch(Scratch &scratch) const;

    /** Read the sensors into lane.reading (consumes sensor RNG draws). */
    void senseLane(Lane &lane) const;

    /**
     * Apply a DTM decision to a lane: store the action, actuate a remap
     * if the action carries shares, advance the decision clock. At a
     * fork the same already-computed action is applied to the forked
     * lane, which must not re-run the policy.
     */
    void applyDecision(Lane &lane, const DtmAction &a) const;

    /**
     * The window step up to and including staging the thermal advance:
     * scheduling, level-1 solve, progress/retirement, power, ambient.
     * Leaves the lane's thermal lane staged (stable targets written);
     * the caller commits the temperature sweep, then calls windowPost().
     */
    void windowPre(Lane &lane, Scratch &scratch) const;

    /** Finish the window: peaks/energy fold, traces, time advance. */
    void windowPost(Lane &lane) const;

    /** Fill the end-of-run summary fields of lane.res. */
    void finalizeLane(Lane &lane) const;

    SimConfig cfg;
};

} // namespace memtherm

#endif // MEMTHERM_CORE_SIM_THERMAL_SIMULATOR_HH
