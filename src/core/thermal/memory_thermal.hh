/**
 * @file
 * Whole-memory-subsystem power/thermal state.
 *
 * Channels are symmetric: every channel receives 1/nChannels of the
 * system traffic and distributes it along its DIMM chain by the same
 * per-DIMM share vector — uniform address interleave by default, or a
 * non-uniform split supplied at construction (the scenario layer's
 * `traffic_shape` knob). One representative channel's DIMMs are modeled
 * thermally; subsystem power is scaled by the channel count for energy
 * accounting.
 *
 * The mutable thermal state (temperatures, peaks, energy accumulators)
 * is a ThermalState the model holds by value, so the model is a value
 * too: a copy is an exact snapshot of the run's memory subsystem, the
 * fork of the shared-prefix engine, and continues bit-identically to
 * its source.
 */

#ifndef MEMTHERM_CORE_THERMAL_MEMORY_THERMAL_HH
#define MEMTHERM_CORE_THERMAL_MEMORY_THERMAL_HH

#include <vector>

#include "core/power/power_model.hh"
#include "core/thermal/bank_grid.hh"
#include "core/thermal/thermal_batch.hh"
#include "core/thermal/thermal_params.hh"

namespace memtherm
{

/** Temperatures of one DIMM's two hot spots. */
struct DimmTemps
{
    Celsius amb = 0.0;
    Celsius dram = 0.0;
};

/**
 * Physical organization of the FBDIMM subsystem (Table 4.1 defaults).
 * Scenario files select one by catalog name or inline object (the
 * `memory_org` knob and sweep axis of core/sim/scenario.hh).
 */
struct MemoryOrgConfig
{
    int nChannels = 4;          ///< physical FBDIMM channels
    int nDimmsPerChannel = 4;   ///< DIMMs per physical channel

    bool operator==(const MemoryOrgConfig &) const = default;
};

/** One advance() step's outputs. */
struct MemoryThermalSample
{
    Celsius hottestAmb = 0.0;    ///< max AMB temperature over DIMMs
    Celsius hottestDram = 0.0;   ///< max DRAM temperature over DIMMs
    Watts subsystemPower = 0.0;  ///< total FBDIMM power, all channels
};

/**
 * Power + thermal model of the full FBDIMM subsystem.
 */
class MemoryThermalModel
{
  public:
    /**
     * @param org     channel/DIMM organization
     * @param cooling Table 3.2 column
     * @param power   per-DIMM power models
     * @param t0      initial temperature of every node
     * @param traffic_shares per-DIMM fraction of a channel's local
     *        traffic (non-negative, summing to 1, one entry per DIMM of
     *        the chain); empty selects uniform address interleave. An
     *        explicit uniform vector (each entry exactly 1/nDimms) is
     *        bit-identical to leaving it empty.
     * @param bank_grid optional per-bank thermal overlay
     *        (core/thermal/bank_grid.hh), held by reference count, not
     *        copied; its per-cell or per-DIMM weights must fit the
     *        chain. Empty (the default) selects the paper's lumped
     *        model and allocates no bank state, keeping every pre-grid
     *        run bit-identical.
     */
    MemoryThermalModel(const MemoryOrgConfig &org,
                       const CoolingConfig &cooling,
                       const DimmPowerModel &power, Celsius t0,
                       std::vector<double> traffic_shares = {},
                       const SharedBankGrid &bank_grid = {});

    /**
     * Advance all DIMM nodes by dt: stageAdvance() + commitStaged() +
     * finishAdvance() in one call. The simulator's window step calls
     * this; the three phases stay public for the per-layer benchmark,
     * which times them apart.
     *
     * @param total_read   system-wide read throughput (GB/s)
     * @param total_write  system-wide write throughput (GB/s)
     * @param ambient      current memory inlet temperature
     * @param dt           time step (s)
     */
    MemoryThermalSample advance(GBps total_read, GBps total_write,
                                Celsius ambient, Seconds dt);

    /**
     * Phase 1 of a split advance: evaluate the power model and write
     * each DIMM's stable-target temperatures into the state's staging
     * arrays (and refresh the decay memo for @p dt). No other
     * power query may run on this model between stage and finish (they
     * share the power scratch).
     */
    void stageAdvance(GBps total_read, GBps total_write, Celsius ambient,
                      Seconds dt);

    /** Phase 2: the temperature sweep. */
    void commitStaged() { st.advance(); }

    /** Phase 3: fold peaks and energy; returns the step's sample. */
    MemoryThermalSample finishAdvance(Seconds dt);

    /** Stable hottest-AMB temperature at an operating point (no advance). */
    Celsius stableHottestAmb(GBps total_read, GBps total_write,
                             Celsius ambient) const;

    /** Stable hottest-DRAM temperature at an operating point. */
    Celsius stableHottestDram(GBps total_read, GBps total_write,
                              Celsius ambient) const;

    /** Subsystem power at an operating point, without advancing. */
    Watts subsystemPower(GBps total_read, GBps total_write) const;

    /** Current hottest temperatures. */
    MemoryThermalSample current() const;

    /** Per-DIMM temperatures on the representative channel. */
    std::vector<DimmTemps> dimmTemps() const;

    /**
     * Fill per-DIMM current temperatures into caller-owned buffers
     * (resized to the chain length, then overwritten). Allocation-free
     * once the buffers are warm — the per-DIMM DTM sensor path calls
     * this every decision.
     */
    void currentPerDimm(std::vector<Celsius> &amb,
                        std::vector<Celsius> &dram) const;

    /**
     * Replace the per-DIMM traffic shares mid-run (the remap actuator).
     * Same contract as the constructor argument, enforced here: empty
     * selects uniform interleave, otherwise one finite non-negative
     * entry per DIMM summing to 1 (within 1e-9). Thermal state, peaks
     * and energy accounting are untouched — only future traffic
     * decomposition changes.
     *
     * @return fraction of the channel's local traffic moved, i.e.
     *         0.5 * the L1 distance between the effective old and new
     *         distributions (0 when nothing changed); the simulator
     *         charges the migration-cost burst from this.
     */
    double setTrafficShares(std::vector<double> new_shares);

    /**
     * Set the per-DIMM refresh power added to each DIMM's DRAM devices
     * by every subsequent power-model evaluation (the
     * temperature->power half of the refresh feedback edge,
     * core/sim/refresh_model.hh). Same arity contract as the traffic
     * shares: empty (the default) adds nothing, otherwise one finite
     * non-negative entry per DIMM of the chain. The simulator rewrites
     * this every window from the refresh model's current band per DIMM;
     * allocation-free once the member buffer is warm.
     */
    void setRefreshDramPower(const std::vector<Watts> &w);

    /** Per-DIMM refresh power last set; empty means none. */
    const std::vector<Watts> &refreshDramPower() const
    {
        return refreshDram;
    }

    /**
     * Per-DIMM peak temperatures since the last reset (index 0 nearest
     * the memory controller). advance() folds every step into the
     * state's peak arrays, so the hot loop never materializes a
     * temperature vector; only this accessor does. Resets restart the
     * peaks from the reset temperatures.
     */
    std::vector<DimmTemps> dimmPeaks() const;

    /**
     * Per-bank-cell peak DRAM temperatures since the last reset:
     * nDimmsPerChannel * bankGrid()->cells() entries, row-major by DIMM
     * (DIMM 0's cells first). Empty when the model is lumped. Each step
     * folds only one point per DIMM into the DIMM's peak hull; this
     * accessor evaluates every cell against the hull.
     */
    std::vector<Celsius> bankPeaks() const;

    /** The bank grid, or an empty handle for the lumped model. */
    const SharedBankGrid &bankGrid() const { return grid; }

    /**
     * Per-DIMM mean power on the representative channel since the last
     * reset (energy folded in by advance(), divided by the elapsed
     * time; all zeros before any advance). Like the peaks, the energy
     * accumulators are state the hot loop updates in place — only
     * this accessor materializes a vector.
     */
    std::vector<Watts> dimmAvgPower() const;

    /** Reset every node, peak and energy accumulator
     *  (ThermalState::reset). */
    void reset(Celsius t);

    /**
     * Reset every node to its stable point at the given operating point —
     * e.g. (0, 0, ambient) models a machine that idled long enough for
     * temperatures to settle before the run (the paper's experimental
     * protocol, Section 5.4.1).
     */
    void resetToStable(GBps total_read, GBps total_write, Celsius ambient);

    const MemoryOrgConfig &org() const { return orgCfg; }
    const DimmPowerModel &powerModel() const { return pwr; }
    const CoolingConfig &cooling() const { return cool; }
    /** Per-DIMM traffic shares; empty means uniform interleave. */
    const std::vector<double> &trafficShares() const { return shares; }
    /** The run's thermal state. */
    const ThermalState &state() const { return st; }

  private:
    /** Eq. 3.3: stable AMB temperature for a given operating point. */
    Celsius stableAmbAt(Celsius ambient, const DimmPower &p) const
    {
        return ambient + p.amb * cool.psiAmb + p.dram * cool.psiDramToAmb;
    }
    /** Eq. 3.4: stable DRAM temperature for a given operating point. */
    Celsius stableDramAt(Celsius ambient, const DimmPower &p) const
    {
        return ambient + p.amb * cool.psiAmbToDram + p.dram * cool.psiDram;
    }
    /** Stable bank spread B: a cell of weight w targets
     *  stableDramAt + (w - 1)·B. */
    Celsius stableSpreadAt(const DimmPower &p) const
    {
        return p.dram * cool.psiDram;
    }

    /**
     * Per-DIMM power on the representative channel, written into the
     * member scratch buffers (returned by reference). The hot loop calls
     * this every step; reusing the buffers keeps the steady state free
     * of heap allocation. Consequence: the buffers are scratch state, so
     * even the const queries (stableHottestAmb, stableHottestDram,
     * subsystemPower) are NOT safe to call concurrently on one instance.
     * Each simulation run owns its own model, which is the invariant the
     * parallel ExperimentEngine relies on.
     */
    const std::vector<DimmPower> &channelPower(GBps total_read,
                                               GBps total_write) const;

    MemoryOrgConfig orgCfg;
    DimmPowerModel pwr;
    CoolingConfig cool;
    std::vector<double> shares; ///< per-DIMM traffic split; empty=uniform
    /// Per-DIMM refresh power folded into the DRAM devices by
    /// channelPower(); empty = no refresh feedback.
    std::vector<Watts> refreshDram;

    /// The bank grid, whose payload carries the cell slopes; shared
    /// with the run's copies. Empty = lumped model, no bank state.
    SharedBankGrid grid;

    ThermalState st;

    /// Scratch for channelPower(): per-DIMM traffic and power, reused
    /// across steps (mutable: const queries share the scratch).
    mutable std::vector<DimmTraffic> trafficScratch;
    mutable std::vector<DimmPower> powerScratch;
};

} // namespace memtherm

#endif // MEMTHERM_CORE_THERMAL_MEMORY_THERMAL_HH
