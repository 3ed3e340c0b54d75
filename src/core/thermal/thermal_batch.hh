/**
 * @file
 * Structure-of-arrays thermal state for K concurrent simulation lanes.
 *
 * The RC network of one run is tiny (two nodes per DIMM) and identical
 * in structure across every run of a grid, so the mutable per-node
 * state — temperatures, staged stable targets, per-DIMM peaks and
 * energy accumulators — lives here as contiguous per-field arrays
 * instead of arrays of node objects. A "lane" is one run's slice: field
 * arrays are lane-major (`lane * dimms() + dimm`), so one lane's DIMM
 * sweep is a tight loop over adjacent doubles, and a fork copies one
 * lane's slice onto another.
 *
 * The `1 - exp(-dt / tau)` decay factors are hoisted to one per-batch
 * memo (recomputed only when dt changes) instead of the per-node
 * `cachedDt` memos the object layout used; the arithmetic applied to
 * each temperature is unchanged, so a K=1 lane is bit-identical to the
 * former per-object path.
 *
 * Advancing a lane takes three steps (MemoryThermalModel::advance):
 *  1. stage: the caller writes each DIMM's stable-target temperatures
 *     into stableAmb()/stableDram() (and calls ensureDecay(dt) once);
 *  2. advanceLane(): temps += (stable - temp) * decay;
 *  3. the caller folds peaks/energy from the updated temperatures.
 *
 * copyLane() is an exact double-copy of every mutable per-lane field —
 * the snapshot/fork primitive of the shared-prefix batched engine.
 *
 * A bank-grid lane (core/thermal/bank_grid.hh) adds O(DIMMs) state, not
 * a cell array: each DIMM's spread V (a cell of slope s sits at
 * `D + s·V`), its staged target B, and the DIMM's peak hull of past
 * (V, D) points, stored in a block of bankCells() vertices (the most
 * distinct slopes a DIMM can have), so the window loop never allocates.
 */

#ifndef MEMTHERM_CORE_THERMAL_THERMAL_BATCH_HH
#define MEMTHERM_CORE_THERMAL_THERMAL_BATCH_HH

#include <cstddef>
#include <vector>

#include "common/units.hh"
#include "core/thermal/bank_grid.hh"

namespace memtherm
{

/**
 * Contiguous per-field thermal state of up to `lanes()` concurrent runs.
 */
class ThermalBatchState
{
  public:
    /**
     * @param lanes number of concurrent runs the state can hold (>= 1)
     * @param dimms DIMMs per lane's representative channel (>= 1)
     * @param bank_cells bank-grid cells per DIMM, which bounds each
     *        DIMM's peak hull; 0 (the default, and the lumped thermal
     *        model) reserves no hull
     *
     * Every temperature starts at 0; callers initialize each lane they
     * use (initLane()) before advancing it.
     */
    ThermalBatchState(int lanes, int dimms, int bank_cells = 0);

    int lanes() const { return nLanes; }
    int dimms() const { return nDimms; }
    int bankCells() const { return nBankCells; }

    /**
     * Set a lane's RC time constants and reset its temperatures, peaks
     * and energy accumulators to @p t0 (on a bank grid, its spreads to
     * 0 and its hulls to (0, t0)). Changing a lane's taus invalidates
     * the decay memo for the whole batch (the memo is per-batch by
     * design), so lanes are configured before the window loop starts,
     * never inside it.
     */
    void initLane(int lane, Seconds tau_amb, Seconds tau_dram, Celsius t0);

    /// @name Per-lane field slices, each dimms() doubles long.
    /// @{
    double *ambTemp(int lane) { return at(ambV, lane); }
    const double *ambTemp(int lane) const { return at(ambV, lane); }
    double *dramTemp(int lane) { return at(dramV, lane); }
    const double *dramTemp(int lane) const { return at(dramV, lane); }
    double *stableAmb(int lane) { return at(stableAmbV, lane); }
    double *stableDram(int lane) { return at(stableDramV, lane); }
    double *peakAmb(int lane) { return at(peakAmbV, lane); }
    const double *peakAmb(int lane) const { return at(peakAmbV, lane); }
    double *peakDram(int lane) { return at(peakDramV, lane); }
    const double *peakDram(int lane) const { return at(peakDramV, lane); }
    double *energy(int lane) { return at(energyV, lane); }
    const double *energy(int lane) const { return at(energyV, lane); }
    /// @}

    /// @name Per-lane bank-grid slices, used only when bankCells() > 0.
    /// The spread and its staged target are dimms() doubles long;
    /// advanceLane() steps the spread with decayDram, since bank cells
    /// share the DRAM node's tau. Each DIMM's hull is bankHull(lane, d),
    /// of bankHullSize(lane)[d] vertices.
    /// @{
    double *bankSpread(int lane) { return at(spreadV, lane); }
    double *stableBankSpread(int lane) { return at(stableSpreadV, lane); }
    BankHullVertex *bankHull(int lane, int d) { return &hullV[at(lane, d)]; }
    const BankHullVertex *bankHull(int lane, int d) const
    {
        return &hullV[at(lane, d)];
    }
    int *bankHullSize(int lane) { return at(hullSizeV, lane); }
    const int *bankHullSize(int lane) const { return at(hullSizeV, lane); }
    /// @}

    /**
     * Restart each of a bank-grid lane's DIMM hulls from the lane's
     * current point (spread, DRAM temperature): after initLane() and
     * after a reset to the stable point.
     */
    void restartBankHulls(int lane);

    /** Time a lane's energy accumulators have integrated over. */
    Seconds &energyTime(int lane) { return energyTimeV[checked(lane)]; }
    Seconds energyTime(int lane) const { return energyTimeV[checked(lane)]; }

    /**
     * Refresh the per-batch decay memo for a step of @p dt. The exp()
     * per tau is evaluated only when dt differs from the previous call —
     * the constant-window simulator pays for it once per batch, not
     * once per node or per lane.
     */
    void ensureDecay(Seconds dt);

    /**
     * Advance one lane's temperatures toward the staged stable targets
     * using the memoized decay factors: the Eq. 3.5 step
     * `T += (T_stable - T) * (1 - exp(-dt / tau))` for every node, as
     * two tight sweeps over the lane's contiguous AMB and DRAM arrays
     * (and a third over the bank spreads on a bank grid).
     * ensureDecay() must have been called for the intended dt.
     */
    void advanceLane(int lane);

    /**
     * Exact copy of every mutable per-lane field (temperatures, staged
     * targets, peaks, energy, energy time, taus, decay factors, bank
     * spreads and hulls) from lane @p src to lane @p dst — the
     * snapshot/fork primitive. A forked lane continues bit-identically
     * to a run that had computed the prefix itself.
     */
    void copyLane(int dst, int src);

  private:
    template <typename T> T *at(std::vector<T> &v, int lane)
    {
        return v.data() + static_cast<std::size_t>(checked(lane)) * nDimms;
    }
    template <typename T> const T *at(const std::vector<T> &v, int lane) const
    {
        return v.data() + static_cast<std::size_t>(checked(lane)) * nDimms;
    }
    std::size_t at(int lane, int dimm) const
    {
        return (static_cast<std::size_t>(checked(lane)) * nDimms +
                static_cast<std::size_t>(dimm)) *
               nBankCells;
    }
    int checked(int lane) const;

    int nLanes;
    int nDimms;
    int nBankCells;

    std::vector<double> ambV;        ///< AMB temperatures, lane-major
    std::vector<double> dramV;       ///< DRAM temperatures, lane-major
    std::vector<double> stableAmbV;  ///< staged stable AMB targets
    std::vector<double> stableDramV; ///< staged stable DRAM targets
    std::vector<double> peakAmbV;    ///< per-DIMM AMB maxima since reset
    std::vector<double> peakDramV;   ///< per-DIMM DRAM maxima since reset
    std::vector<double> energyV;     ///< per-DIMM energy since reset (J)
    std::vector<Seconds> energyTimeV;

    std::vector<double> spreadV;       ///< per-DIMM bank spread V
    std::vector<double> stableSpreadV; ///< staged spread targets B
    std::vector<BankHullVertex> hullV; ///< bankCells() per DIMM
    std::vector<int> hullSizeV;        ///< vertices in use per DIMM

    std::vector<Seconds> tauAmbV;  ///< per-lane AMB time constant
    std::vector<Seconds> tauDramV; ///< per-lane DRAM time constant
    std::vector<double> decayAmbV;
    std::vector<double> decayDramV;
    Seconds cachedDt = -1.0; ///< dt of the memoized decay factors
};

} // namespace memtherm

#endif // MEMTHERM_CORE_THERMAL_THERMAL_BATCH_HH
