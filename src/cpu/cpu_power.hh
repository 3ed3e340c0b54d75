/**
 * @file
 * Processor power models.
 *
 * Two models are provided:
 *  - TableCpuPowerModel: the Chapter 4 model (Table 4.4), derived from the
 *    Intel Xeon datasheet — 65 W peak per core, 15.5 W per core at HALT.
 *  - ActivityCpuPowerModel: the Chapter 5 model for real Xeon 5160 parts,
 *    where idle power dominates and dynamic power scales with V^2 * f and
 *    with non-stalled core activity (modern cores clock-gate stalled
 *    functional blocks, which is why ACG saves little CPU power on real
 *    machines — Section 5.4.4).
 */

#ifndef MEMTHERM_CPU_CPU_POWER_HH
#define MEMTHERM_CPU_CPU_POWER_HH

#include <cstddef>
#include <vector>

#include "cpu/dvfs.hh"

namespace memtherm
{

/**
 * Chapter 4 processor power (Table 4.4) for a 4-core CMP.
 *
 * - All-stopped (memory shut down, cores halted): 62 W.
 * - Core gating: 62 W + 49.5 W per active core (linear through 260 W).
 * - DVFS at 4 active cores: 260 / 193.4 / 116.5 / 80.6 W for the four
 *   operating points of Table 4.1.
 */
class TableCpuPowerModel
{
  public:
    explicit TableCpuPowerModel(int n_cores = 4);

    /**
     * Power for the current run state.
     *
     * @param active_cores cores not clock-gated (0..nCores)
     * @param dvfs_level   DVFS level index (0 = fastest)
     * @param halted       true when all cores stall behind a memory
     *                     shutdown (DTM-TS off phase): standby power
     */
    Watts power(int active_cores, std::size_t dvfs_level,
                bool halted) const;

    Watts haltPower() const { return haltWatts; }
    Watts peakPower() const { return haltWatts + perCoreWatts * nCores; }
    int cores() const { return nCores; }

    bool operator==(const TableCpuPowerModel &) const = default;

  private:
    int nCores;
    Watts haltWatts = 62.0;       ///< 4 cores in HALT (15.5 W each)
    Watts perCoreWatts = 49.5;    ///< incremental power per active core
    /** DVFS scaling of the per-core dynamic power (V^2 * f based). */
    std::vector<double> dvfsScale;
};

/**
 * Chapter 5 processor power for dual-socket Xeon 5160 systems.
 *
 * P = nSockets * pIdleSocket * (V/Vmax)^idleVExp
 *   + sum over active cores of pDynCore * (V/Vmax)^2 * (f/fmax) * activity
 *
 * where activity is the core's non-memory-stalled fraction. Stalled cores
 * are largely clock-gated by the hardware already, so gating them via
 * DTM-ACG recovers little extra power, while DVFS still shrinks the
 * voltage-dependent idle floor (clock distribution, leakage) — which is
 * why DTM-CDVFS cuts CPU power ~15% on memory-bound workloads
 * (Section 5.4.4) and DTM-ACG barely moves it.
 */
class ActivityCpuPowerModel
{
  public:
    /**
     * @param dvfs       operating-point table (levels)
     * @param n_sockets  processor packages
     * @param p_idle     per-socket idle power at Vmax (W)
     * @param p_dyn      per-core dynamic power at Vmax/fmax, activity 1
     * @param idle_v_exp voltage exponent of the idle floor
     */
    ActivityCpuPowerModel(DvfsTable dvfs, int n_sockets = 2,
                          Watts p_idle = 28.0, Watts p_dyn = 17.0,
                          double idle_v_exp = 1.0);

    /**
     * Power given per-core activities (empty entries = gated cores).
     *
     * @param activities non-stalled fraction per active core in [0,1]
     * @param dvfs_level current DVFS level (all cores scale together)
     */
    Watts power(const std::vector<double> &activities,
                std::size_t dvfs_level) const;

    const DvfsTable &dvfs() const { return table; }

    bool operator==(const ActivityCpuPowerModel &) const = default;

  private:
    DvfsTable table;
    int nSockets;
    Watts pIdleSocket;
    Watts pDynCore;
    double idleVExp;
};

} // namespace memtherm

#endif // MEMTHERM_CPU_CPU_POWER_HH
