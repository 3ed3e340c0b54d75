/**
 * @file
 * The mutable thermal state of one run.
 *
 * The RC network of one run is tiny (two nodes per DIMM), so the state
 * that changes as the run advances — temperatures, staged stable
 * targets, per-DIMM peaks and energy accumulators — is a handful of
 * per-field arrays, one entry per DIMM of the representative channel.
 * The state is a value: copying it is the snapshot/fork of the
 * shared-prefix engine, and a copy continues bit-identically to a run
 * that had computed the prefix itself.
 *
 * The `1 - exp(-dt / tau)` decay factors are memoized (recomputed only
 * when dt changes), so the constant-window simulator evaluates exp()
 * once per tau per run.
 *
 * Advancing takes three steps (MemoryThermalModel::advance):
 *  1. stage: the caller writes each DIMM's stable-target temperatures
 *     into stableAmb/stableDram (and calls ensureDecay(dt));
 *  2. advance(): temps += (stable - temp) * decay;
 *  3. the caller folds peaks/energy from the updated temperatures.
 *
 * A bank-grid state (core/thermal/bank_grid.hh) adds O(DIMMs) state, not
 * a cell array: each DIMM's spread V (a cell of slope s sits at
 * `D + s·V`), its staged target B, and the DIMM's peak hull of past
 * (V, D) points. A hull never holds more vertices than its DIMM has
 * distinct cell slopes (offerBankHullPoint), so each DIMM's block is
 * sized by that count (BankOverlay::slopeStart): the window loop never
 * allocates, and a fork copies one vertex per distinct slope, not one
 * per cell — a uniform grid's DIMM has one.
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
 * Per-DIMM thermal state of one run; the default copy is the fork.
 */
struct ThermalState
{
    /**
     * @param dimms DIMMs of the representative channel (>= 1)
     * @param hull_start on a bank grid, DIMM d's peak hull holds
     *        `hull_start[d + 1] - hull_start[d]` (>= 1) vertices, from
     *        hull_start[0] = 0: a BankOverlay's slopeStart, one entry
     *        per DIMM plus one. Empty (the default, and the lumped
     *        thermal model) reserves no bank state.
     *
     * Every temperature starts at 0; reset() before advancing.
     */
    explicit ThermalState(int dimms, std::vector<int> hull_start = {});

    /**
     * Set the RC time constants and reset the temperatures, peaks and
     * energy accumulators to @p t0 (on a bank grid, the spreads to 0
     * and the hulls to (0, t0)).
     */
    void reset(Seconds tau_amb, Seconds tau_dram, Celsius t0);

    /**
     * Restart each DIMM's bank hull from its current point (spread,
     * DRAM temperature): after reset() and after a reset to the stable
     * point.
     */
    void restartBankHulls();

    /**
     * Refresh the decay memo for a step of @p dt. The exp() per tau is
     * evaluated only when dt differs from the previous call.
     */
    void ensureDecay(Seconds dt);

    /**
     * Advance the temperatures toward the staged stable targets using
     * the memoized decay factors: the Eq. 3.5 step
     * `T += (T_stable - T) * (1 - exp(-dt / tau))` for every node, as
     * two tight sweeps over the AMB and DRAM arrays (and a third over
     * the bank spreads on a bank grid). ensureDecay() must have been
     * called for the intended dt.
     */
    void advance();

    /** DIMM @p d's hull block, bankHullCapacity(d) vertices. */
    BankHullVertex *bankHull(int d) { return hull.data() + hullStart[d]; }
    const BankHullVertex *bankHull(int d) const
    {
        return hull.data() + hullStart[d];
    }
    /** The most vertices DIMM @p d's hull may hold. */
    int bankHullCapacity(int d) const
    {
        return hullStart[d + 1] - hullStart[d];
    }

    /// @name Per-DIMM fields, one entry per DIMM.
    /// @{
    std::vector<double> amb;        ///< AMB temperatures
    std::vector<double> dram;       ///< DRAM temperatures
    std::vector<double> stableAmb;  ///< staged stable AMB targets
    std::vector<double> stableDram; ///< staged stable DRAM targets
    std::vector<double> peakAmb;    ///< AMB maxima since reset
    std::vector<double> peakDram;   ///< DRAM maxima since reset
    std::vector<double> energy;     ///< energy since reset (J)
    /// @}
    Seconds energyTime = 0.0; ///< time the energy has integrated over

    /// @name Bank-grid fields, empty on the lumped model.
    /// The spread and its staged target have one entry per DIMM; advance()
    /// steps the spread with the DRAM decay, since bank cells share the
    /// DRAM node's tau. DIMM d's hull is bankHull(d), of hullSize[d]
    /// vertices.
    /// @{
    std::vector<double> spread;       ///< bank spread V
    std::vector<double> stableSpread; ///< staged spread targets B
    std::vector<BankHullVertex> hull; ///< the DIMMs' blocks, in order
    std::vector<int> hullSize;        ///< vertices in use per DIMM
    /// @}

  private:
    std::vector<int> hullStart; ///< DIMM d's block starts at hullStart[d]
    Seconds tauAmb = 1.0;
    Seconds tauDram = 1.0;
    double decayAmb = 0.0;
    double decayDram = 0.0;
    Seconds cachedDt = -1.0; ///< dt of the memoized decay factors
};

/**
 * Does nothing. It exists only so perfbench builds unchanged: perfbench
 * builds one and passes it to ThermalSimulator::Lane's perfbench-only
 * constructors (ROADMAP item 1b deletes all three).
 */
struct ThermalBatchState
{
    ThermalBatchState(int, int, int = 0) {}
};

} // namespace memtherm

#endif // MEMTHERM_CORE_THERMAL_THERMAL_BATCH_HH
