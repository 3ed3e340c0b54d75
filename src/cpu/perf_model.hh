/**
 * @file
 * Analytic multicore performance model — the level-1 simulator substitute.
 *
 * The paper's first-level (cycle-accurate M5 + FBDIMM) simulator produces,
 * for every workload and design point, per-10ms-window traces of IPC and
 * memory throughput. This model produces the same quantities analytically:
 *
 *   cycles/instr = cpiCore + (mpki/1000) * L_ns * f_GHz * (1 - mlpOverlap)
 *
 * where the effective memory latency L is the idle latency when the memory
 * system is unsaturated, and otherwise the unique latency at which total
 * demanded throughput equals the sustainable bandwidth — memory-bound
 * tasks absorb the queueing latency, compute-bound tasks keep their rate,
 * which is the qualitative behavior of a real bandwidth-shared memory
 * system. The queueing fixed point is found by a bracketed Newton
 * iteration in the latency. It runs on the reciprocal utilization against
 * the queue slack the latency implies, which is concave and nearly
 * linear, rather than on the fixed-point residual, which is flat and
 * badly conditioned once the utilization clamp holds (the saturated and
 * DTM-capped windows); see solvePerfWindow() in perf_model.cc.
 */

#ifndef MEMTHERM_CPU_PERF_MODEL_HH
#define MEMTHERM_CPU_PERF_MODEL_HH

#include <vector>

#include "common/units.hh"

namespace memtherm
{

/**
 * Per-core task characteristics for one simulation window. The caller
 * (workload layer) folds cache-sharing and time-slice effects into mpki.
 */
struct CoreTask
{
    double cpiCore = 0.6;     ///< core cycles/instr excluding L2 misses
    double mpki = 10.0;       ///< effective L2 misses per kilo-instruction
    double writeFrac = 0.3;   ///< writeback bytes per fill byte
    double specFrac = 0.1;    ///< speculative read traffic fraction @fmax
    double mlpOverlap = 0.7;  ///< fraction of miss latency hidden by MLP
};

/** Memory-system characteristics seen by the performance model. */
struct MemSystemPerf
{
    double idleLatencyNs = 105.0;  ///< unloaded L2-miss round trip
    GBps peakBandwidth = 21.3;     ///< sustainable combined read+write
    double maxUtilization = 0.92;  ///< fraction of peak reachable
    double queueFactor = 0.015;     ///< latency growth: 1 + k*rho/(1-rho)
    double lineBytes = 64.0;       ///< L2 line (transfer unit)
};

/** Solved performance of one window. */
struct WindowPerf
{
    std::vector<double> ips;        ///< instructions/second per task
    std::vector<GBps> taskTraffic;  ///< read+write throughput per task
    GBps totalRead = 0.0;
    GBps totalWrite = 0.0;
    double latencyNs = 0.0;         ///< effective memory latency used
    bool saturated = false;         ///< bandwidth constraint was binding
};

/**
 * Solve one window.
 *
 * @param tasks   running tasks (one per active core); may be empty
 * @param freq    current core frequency (GHz)
 * @param fmax    reference (maximum) frequency (GHz)
 * @param cap     bandwidth cap imposed by DTM (GB/s); use +inf for none
 *                and 0 for a fully shut-down memory (no task progress
 *                unless a task has mpki == 0)
 * @param mem     memory-system characteristics
 */
WindowPerf solvePerfWindow(const std::vector<CoreTask> &tasks, GHz freq,
                           GHz fmax, GBps cap, const MemSystemPerf &mem);

/**
 * Allocation-free variant of solvePerfWindow(): clears and refills
 * @p out in place, reusing its vectors' capacity. The simulator's window
 * loop calls this once per window with a scratch WindowPerf so the
 * steady state does not touch the heap.
 */
void solvePerfWindow(const std::vector<CoreTask> &tasks, GHz freq,
                     GHz fmax, GBps cap, const MemSystemPerf &mem,
                     WindowPerf &out);

} // namespace memtherm

#endif // MEMTHERM_CPU_PERF_MODEL_HH
