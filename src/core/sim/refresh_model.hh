/**
 * @file
 * Temperature-coupled DRAM refresh and timing model — the feedback edge
 * from temperature back into performance and power.
 *
 * Real DRAM couples back on its thermals: above the 85 C DRAM TDP
 * (ThermalLimits::dramTdp), DDR2 devices double their refresh rate,
 * stealing bandwidth from demand traffic and burning extra power; and
 * AL-DRAM (HPCA 2015) shows access-timing margins tightening on hot
 * devices and relaxing on cool ones. A RefreshModel captures both as a
 * band table over DRAM temperature: the simulator reads each DIMM's
 * current DRAM temperature every window, selects its band, and
 *
 *  - derates the sustainable memory bandwidth by the traffic-share-
 *    weighted sum of the bands' `bwFraction` (refresh cycles the
 *    devices cannot spend on demand traffic),
 *  - scales the idle memory latency by the share-weighted `latencyMult`
 *    (AL-DRAM-style timing relaxation on cool DIMMs),
 *  - adds each band's `dramPower` to that DIMM's DRAM devices in the
 *    power model, which feeds straight back into the thermal advance.
 *
 * An empty model (the catalog's "none", and the default) disables the
 * edge entirely; runs are bit-identical to builds that predate it.
 * Scenario files select a model through the `refresh` knob or sweep
 * axis (catalog names resolve via refreshCatalog() in
 * core/sim/registry.hh, or inline band tables).
 */

#ifndef MEMTHERM_CORE_SIM_REFRESH_MODEL_HH
#define MEMTHERM_CORE_SIM_REFRESH_MODEL_HH

#include <vector>

#include "common/units.hh"

namespace memtherm
{

/**
 * One temperature band of a refresh model: applies to DRAM temperatures
 * from `minTemp` (inclusive) up to the next band's boundary.
 */
struct RefreshBand
{
    /// Band floor (C). Temperatures below every band clamp to the
    /// first band, so the first entry's floor is conventionally the
    /// lowest representable temperature.
    Celsius minTemp = -273.15;
    /// Fraction of the sustainable bandwidth refresh consumes in this
    /// band (in [0, 1)); tREFI/tRFC overhead, ~1.6% for standard DDR2.
    double bwFraction = 0.0;
    /// Refresh power added to the DIMM's DRAM devices in this band (W).
    Watts dramPower = 0.0;
    /// Idle-latency multiplier (AL-DRAM timing margins): < 1 relaxes
    /// timings on a cool DIMM, 1 is nominal.
    double latencyMult = 1.0;

    bool operator==(const RefreshBand &) const = default;
};

/** A refresh model: bands sorted by strictly increasing `minTemp`. */
struct RefreshModel
{
    std::vector<RefreshBand> bands;

    bool operator==(const RefreshModel &) const = default;

    /** No bands: the feedback edge is disabled (the catalog's "none"). */
    bool empty() const { return bands.empty(); }

    /**
     * The band governing DRAM temperature @p t: the last band whose
     * floor is <= t, clamping to the first band below every floor.
     * Must not be called on an empty model.
     */
    const RefreshBand &bandAt(Celsius t) const;
};

/**
 * The DDR2 thermal-refresh behavior: a nominal band (~1.6% bandwidth,
 * 0.15 W per DIMM) that doubles at the 85 C DRAM TDP
 * (ThermalLimits::dramTdp) — the catalog's "ddr2_2x".
 */
RefreshModel ddr2DoubleRefreshModel();

/**
 * The AL-DRAM direction: the same refresh doubling as "ddr2_2x", plus
 * relaxed access timings on cool DIMMs (idle latency x0.85 below 55 C,
 * x0.925 below 70 C, nominal above) — the catalog's "aldram".
 */
RefreshModel aldramRefreshModel();

} // namespace memtherm

#endif // MEMTHERM_CORE_SIM_REFRESH_MODEL_HH
