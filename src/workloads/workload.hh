/**
 * @file
 * Workload mixes (Tables 4.2 and 5.2) and batch jobs.
 */

#ifndef MEMTHERM_WORKLOADS_WORKLOAD_HH
#define MEMTHERM_WORKLOADS_WORKLOAD_HH

#include <string>
#include <vector>

#include "workloads/app_descriptor.hh"

namespace memtherm
{

/**
 * A named multiprogramming mix: the applications that run concurrently,
 * one per core.
 */
struct Workload
{
    std::string name;
    std::vector<const AppDescriptor *> apps;
};

/** Table 4.2 / 5.2 mix by name: "W1".."W8", "W11", "W12". */
Workload workloadMix(const std::string &name);

/** The eight CPU2000 mixes W1..W8. */
std::vector<Workload> cpu2000Mixes();

/** The two CPU2006 mixes W11, W12. */
std::vector<Workload> cpu2006Mixes();

/** Homogeneous workload: @p n copies of one application (Ch. 5 figures). */
Workload homogeneous(const std::string &app_name, int n = 4);

/**
 * A batch job: a fixed number of copies of every application in a mix,
 * assigned to freed cores in round-robin order (Section 4.3.2).
 */
class BatchJob
{
  public:
    /** One in-flight or pending program copy. */
    struct Instance
    {
        const AppDescriptor *app = nullptr;
        double remainingInstr = 0.0;   ///< instructions left (absolute)
        Seconds cpuTime = 0.0;         ///< accumulated scheduled time
        /// Windows scheduled so far. The simulator adds one window to
        /// cpuTime per scheduled window, from 0, so two instances with
        /// the same count hold the same cpuTime, bit for bit: its phase
        /// table serves phaseFactor(app, cpuTime) by (app, windows).
        int windows = 0;
    };

    /**
     * @param mix            the workload mix
     * @param copies_per_app copies of each application in the batch
     * @param instr_scale    scales every app's instruction volume (used by
     *                       the bench harness to bound simulation time)
     */
    BatchJob(const Workload &mix, int copies_per_app,
             double instr_scale = 1.0);

    /** Next pending instance, or nullptr when the queue is empty. */
    Instance *nextPending();

    /** True when all instances have finished. */
    bool done() const;

    /** Count of finished instances. */
    int finished() const { return nFinished; }
    /** Total instances in the batch. */
    int total() const { return static_cast<int>(pool.size()); }

    /** Mark an instance finished (remainingInstr reached 0). */
    void retire(Instance *inst);

    /**
     * Stable-pool index of @p inst (-1 for nullptr). With at(), this is
     * the clone support of the batched simulator: copying a BatchJob
     * copies the pool by value, so a cloner rebases its per-core slot
     * pointers via `clone.at(original.indexOf(p))`.
     */
    int indexOf(const Instance *inst) const;

    /** Instance at a pool index from indexOf() (nullptr for -1). */
    Instance *at(int idx);

  private:
    std::vector<Instance> pool; ///< interleaved copies, stable storage
    std::size_t nextIdx = 0;
    int nFinished = 0;
    int nDispatched = 0;
};

} // namespace memtherm

#endif // MEMTHERM_WORKLOADS_WORKLOAD_HH
