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
 * There is one window loop, runBatch(): one workload under K policies.
 * All K runs share the simulated prefix until the first DTM decision
 * where their policies' actions differ; at that window the shared lane
 * is forked (an exact state snapshot: thermal state, ambient node,
 * batch-job progress, sensor RNG position) and each fork later resumes
 * from that window on its own, so every run stays bit-identical to a
 * one-policy batch of its own. Policies that never diverge (common on
 * cool operating points) share the entire simulation. run() is the
 * one-policy batch, which never forks.
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
    /// Level-1 demand passes over the simulated windows
    /// (WindowPerf::demandPasses, the fill pass included).
    double demandPasses = 0.0;

    /** Fraction of logical windows served by a shared prefix. */
    double
    hitRate() const
    {
        return logicalWindows > 0.0
                   ? 1.0 - simulatedWindows / logicalWindows
                   : 0.0;
    }

    /** Mean demand passes of one level-1 solve (one per window). */
    double
    passesPerSolve() const
    {
        return simulatedWindows > 0.0 ? demandPasses / simulatedWindows
                                      : 0.0;
    }

    void
    add(const BatchStats &o)
    {
        logicalWindows += o.logicalWindows;
        simulatedWindows += o.simulatedWindows;
        forks += o.forks;
        demandPasses += o.demandPasses;
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
     * phaseFactor(app, cpuTime) by (app, windows), for one runBatch()
     * call, its groups and its forks. An instance's cpuTime is the sum
     * of `windows` window lengths, so every instance of an app at the
     * same count reads the same factor: the table evaluates the
     * std::sin once per (app, count), at first need, and returns the
     * same double the call would. Its keys point at the call's apps, so
     * runBatch() clears them first; the rows' storage stays in the
     * Scratch for the next call. A row reserves kWindows counts once
     * and never grows past them (later counts call phaseFactor), so the
     * window loop stays allocation-free.
     */
    class PhaseTable
    {
      public:
        static constexpr std::size_t kWindows = 4096;

        /** Forget every key; keep the rows' storage. */
        void clear() { used = 0; }

        double at(const BatchJob::Instance &inst);

      private:
        struct Row
        {
            const AppDescriptor *app = nullptr;
            std::vector<double> factor; ///< by window count
        };
        std::vector<Row> rows;
        std::size_t used = 0; ///< rows [0, used) hold this call's apps
    };

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
     *    Scratch may be reused across runs in any order (`phases`, a cache
     *    over the windows of one runBatch() call, is cleared when the
     *    call starts);
     *  - buffer capacity only grows (bounded by the core count, and
     *    kWindows per app for `phases`), it is never released between
     *    windows;
     *  - a Scratch must not be shared by two concurrent runBatch()
     *    calls.
     *    Each thread of an ExperimentEngine batch owns one for the
     *    call.
     *
     * Per-run state (core job slots, thermal state, RNG) lives in Lane,
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
        PhaseTable phases; ///< the call's phaseFactor table
    };

    /**
     * A run's batch job and the core slots, which point into the job's
     * pool. A copy rebases the slots onto the copied pool: it is the
     * only hand-written part of a Lane copy.
     */
    struct CoreSlots
    {
        /** Fresh batch; round-robin dispatch fills every core slot. */
        CoreSlots(const SimConfig &cfg, const Workload &mix);

        CoreSlots(const CoreSlots &src);
        CoreSlots(CoreSlots &&) = default;
        CoreSlots &operator=(CoreSlots &&) = default;

        BatchJob batch;
        std::vector<BatchJob::Instance *> slot; ///< per-core job slots
    };

    /**
     * The complete mutable state of one in-flight run: everything a
     * window-step reads or writes that belongs to the run rather than to
     * the shared scratch. runBatch() forks a run by copying its Lane,
     * an exact double-copy: the copy continues bit-identically to the
     * lane it was copied from. The copy is the members' own (CoreSlots
     * rebases the slots), so a member added here is copied too.
     */
    struct Lane : CoreSlots
    {
        /** Fresh run at t = 0. */
        Lane(const SimConfig &cfg, const Workload &mix);

        /** Fork: an exact snapshot. */
        Lane(const Lane &) = default;

        /** Lane(cfg, mix); exists only so perfbench builds unchanged
         *  (ROADMAP item 1b deletes it). */
        Lane(const SimConfig &cfg, const Workload &mix, ThermalBatchState &,
             int)
            : Lane(cfg, mix)
        {
        }

        /** Lane(src); exists only so perfbench builds unchanged. */
        Lane(const Lane &src, ThermalBatchState &, int) : Lane(src) {}

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
        std::vector<BaseMpki> baseMpki; ///< per core slot
        AmbientModel ambient;
        MemoryThermalModel mem;
        Rng sensorRng;
        DtmAction action;
        ThermalReading reading;
        /// Pending migration-cost traffic (GB) from a remap decision,
        /// spent in the window that applied it.
        double remapBurstGb = 0.0;
        /// The previous window's level-1 root (WindowPerf::latencyNs),
        /// the next solve's warm start; 0 starts it cold.
        double perfLatencyNs = 0.0;
        Seconds nextDtm = 0.0;
        Seconds nextRotation = 0.0;
        Seconds nextTrace = 0.0;
        std::size_t rotation = 0;
        bool decided = false; ///< a DTM decision landed this window
        Seconds t = 0.0;
        bool live = true; ///< batch unfinished and t < maxSimTime
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
     * One window of one lane: scheduling, level-1 solve, progress and
     * retirement, power, the ambient and thermal advance, the peak,
     * energy and trace fold, and the clock. Consumes the window's DTM
     * decision (clears lane.decided).
     */
    void windowStep(Lane &lane, Scratch &scratch) const;

    /** Fill the end-of-run summary fields of lane.res. */
    void finalizeLane(Lane &lane) const;

    SimConfig cfg;
};

} // namespace memtherm

#endif // MEMTHERM_CORE_SIM_THERMAL_SIMULATOR_HH
