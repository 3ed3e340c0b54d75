/**
 * @file
 * Configuration of the second-level (MEMSpot) thermal simulator.
 */

#ifndef MEMTHERM_CORE_SIM_SIM_CONFIG_HH
#define MEMTHERM_CORE_SIM_SIM_CONFIG_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/dtm/emergency_levels.hh"
#include "core/sim/refresh_model.hh"
#include "core/thermal/memory_thermal.hh"
#include "core/thermal/thermal_params.hh"
#include "cpu/cpu_power.hh"
#include "cpu/dvfs.hh"
#include "cpu/perf_model.hh"

namespace memtherm
{

/**
 * Everything a simulation run needs besides the workload and the policy.
 * Defaults model the Chapter 4 platform (Table 4.1) with the isolated
 * thermal model under AOHS_1.5.
 */
struct SimConfig
{
    /// Memory organization: 2 logical (4 physical) channels, 4 DIMMs
    /// each (the catalog's "ch4_4x4"; scenarios override it through the
    /// `memory_org` knob or sweep axis).
    MemoryOrgConfig org{4, 4};
    /// Per-DIMM fraction of each channel's local traffic, index 0
    /// nearest the memory controller (one entry per DIMM of `org`'s
    /// chain, non-negative, summing to 1). Empty selects uniform
    /// address interleave; scenarios set it through the `traffic_shape`
    /// knob or sweep axis. An explicit uniform vector is bit-identical
    /// to leaving it empty.
    std::vector<double> trafficShares;
    CoolingConfig cooling = coolingAohs15();
    AmbientParams ambient = isolatedAmbient(coolingAohs15());
    MemSystemPerf memPerf{};
    /// Temperature-coupled DRAM refresh/timing model (the `refresh`
    /// scenario knob or sweep axis; core/sim/refresh_model.hh). Each
    /// window every DIMM's current DRAM temperature selects a band that
    /// steals bandwidth from `memPerf`, scales its idle latency, and
    /// adds refresh power to that DIMM's DRAM devices. Empty (the
    /// default, and the catalog's "none") disables the feedback edge —
    /// bit-identical to builds that predate it.
    RefreshModel refresh;
    /// Per-bank thermal overlay (the `thermal_model` scenario knob or
    /// sweep axis; core/thermal/bank_grid.hh): an X x Z grid of bank
    /// cells per DIMM splitting the DIMM's DRAM power by heat-share
    /// weights, advanced alongside the lumped nodes and reported as
    /// per-bank peak temperatures. Empty (the default, and the
    /// catalog's "lumped") keeps the paper's per-DIMM model —
    /// bit-identical to builds that predate the grid. The grid is an
    /// immutable shared payload (SharedBankGrid): copying a config
    /// copies a pointer, and configs compare it by value.
    SharedBankGrid bankGrid;
    DvfsTable dvfs = simulatedCmpDvfs();
    int nCores = 4;

    /// Batch depth: copies of each application (the paper uses 50; the
    /// bench harness uses fewer with scaled instruction volumes).
    int copiesPerApp = 50;
    double instrScale = 1.0;

    Seconds window = 0.01;       ///< level-2 trace window (10 ms)
    Seconds dtmInterval = 0.01;  ///< policy decision period
    Seconds dtmOverhead = 25e-6; ///< per-decision lost time (Table 4.1)
    Seconds rotationSlice = 0.1; ///< time-multiplex slice under gating

    /// Remap-policy decision period (the `remap_interval` knob): how
    /// often a traffic-remapping policy may migrate share between
    /// DIMMs. Must be >= `window` and a whole multiple of `dtmInterval`
    /// so remap boundaries land on DTM decision boundaries (the
    /// scenario layer rejects anything else when the knob is set).
    Seconds remapInterval = 1.0;
    /// Hysteresis band (C) of DTM-remap-hyst (the `remap_hysteresis`
    /// knob): once migration latches on at a TDP crossing it keeps
    /// going until both sensors drop this far below their TDPs.
    Celsius remapHysteresis = 2.0;
    /// Migration cost: GB of page-copy traffic charged per unit of
    /// traffic share moved, injected into the window that applies a
    /// remap. A model constant, not a scenario knob.
    double remapCostGbPerShare = 0.25;

    ThermalLimits limits{};

    /**
     * Emergency ladder for the leveled Chapter 4 DTM schemes (DTM-BW,
     * DTM-ACG, DTM-CDVFS), consumed by the engine's default policy
     * construction; std::nullopt selects the Table 4.3 ladder. DTM-TS
     * and the PID controllers regulate against `limits` and ignore
     * this, as do runs with an explicit PolicyFactory (e.g. Chapter 5
     * platforms, whose ladders derive from the platform descriptor).
     */
    std::optional<EmergencyLevels> emergencyLevels;

    Seconds maxSimTime = 20000.0;
    Seconds traceSample = 1.0;   ///< temperature/power trace resolution

    TableCpuPowerModel cpuPowerTable{4};
    /// When set, use the activity-based (Chapter 5) CPU power model.
    std::optional<ActivityCpuPowerModel> cpuPowerActivity;

    /// Count L2 sharers per 2-core socket (Chapter 5 platforms) instead of
    /// across all cores (the Chapter 4 shared-L2 CMP).
    bool perSocketL2 = false;

    /// Sensor emulation (0 = ideal sensors, used in Chapter 4).
    double sensorNoiseSigma = 0.0;
    double sensorQuant = 0.0;
    std::uint64_t sensorSeed = 42;

    /// Runs whose configs compare equal may share a simulated prefix
    /// (ScenarioSpec::lower() derives its batching classes from it).
    bool operator==(const SimConfig &) const = default;
};

/**
 * xi calibration of the integrated model: Eq. 3.6's xi converts
 * (V * IPCref) to heat. The paper's measured cores commit near one
 * instruction per reference cycle; this model's memory-bound tasks run
 * near a third of that, so xi scales up by the same factor to represent
 * the same processor power (full-load preheat ~9 C at the default
 * interaction degree). psiCpuMemXi = degree * kXiCalibration.
 */
inline constexpr double kXiCalibration = 3.0;

/**
 * Chapter 4 configuration for a cooling setup and thermal model choice.
 * @param cooling     AOHS_1.5 or FDHS_1.0
 * @param integrated  true -> integrated thermal model (Section 3.5)
 */
SimConfig makeCh4Config(const CoolingConfig &cooling, bool integrated);

} // namespace memtherm

#endif // MEMTHERM_CORE_SIM_SIM_CONFIG_HH
