/**
 * @file
 * Outputs of one MEMSpot simulation run.
 */

#ifndef MEMTHERM_CORE_SIM_SIM_RESULT_HH
#define MEMTHERM_CORE_SIM_SIM_RESULT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/time_series.hh"
#include "common/units.hh"

namespace memtherm
{

/** Aggregate statistics and traces of one (workload, policy) run. */
struct SimResult
{
    std::string workload;
    std::string policy;

    bool completed = false;     ///< batch finished before maxSimTime
    Seconds runningTime = 0.0;  ///< total batch running time

    double totalInstr = 0.0;       ///< instructions executed
    double totalReadGB = 0.0;      ///< read traffic
    double totalWriteGB = 0.0;     ///< write traffic
    double totalL2Misses = 0.0;    ///< demand L2 misses

    Joules memEnergy = 0.0;   ///< FBDIMM subsystem energy
    Joules cpuEnergy = 0.0;   ///< processor energy

    Celsius maxAmb = 0.0;        ///< hottest AMB temperature seen
    Celsius maxDram = 0.0;       ///< hottest DRAM temperature seen
    Seconds timeAboveAmbTdp = 0.0;
    Seconds timeAboveDramTdp = 0.0;

    /// Per-DIMM peak temperatures on the representative channel, index 0
    /// nearest the memory controller (one entry per DIMM of the run's
    /// memory organization) — the thermal-gradient view of Section 3.4.
    std::vector<Celsius> peakAmbPerDimm;
    std::vector<Celsius> peakDramPerDimm;

    /// Per-DIMM mean power (AMB + DRAMs) on the representative channel
    /// over the run, same indexing — how a traffic_shape skew or a
    /// deeper chain redistributes the heat sources. Summed over the
    /// channel and scaled by the channel count this recovers
    /// avgMemPower().
    std::vector<Watts> avgPowerPerDimm;

    /// Per-DIMM refresh accounting on the representative channel, same
    /// indexing, sized only when the run's refresh model is active
    /// (SimConfig::refresh non-empty). Bandwidth loss is the
    /// sustainable-bandwidth capability refresh consumed on that DIMM's
    /// share of traffic, integrated over the run (GB); energy is the
    /// band's refresh power folded over the run (J).
    std::vector<double> refreshBwLossPerDimm;
    std::vector<Joules> refreshEnergyPerDimm;

    /// Per-bank peak DRAM temperatures on the representative channel:
    /// bankCells() cells per DIMM, row-major by DIMM (DIMM 0's cells
    /// first, cell (ix, iz) at iz * bankGridX + ix), sized only when the
    /// run's bank-grid thermal model is active (SimConfig::bankGrid
    /// set).
    int bankGridX = 0;
    int bankGridZ = 0;
    std::vector<Celsius> peakBankDramPerDimm;

    TimeSeries ambTrace{1.0};      ///< hottest AMB temperature over time
    TimeSeries dramTrace{1.0};     ///< hottest DRAM temperature over time
    TimeSeries inletTrace{1.0};    ///< memory inlet temperature over time
    TimeSeries cpuPowerTrace{1.0}; ///< CPU power over time
    TimeSeries bwTrace{1.0};       ///< achieved memory throughput over time

    /** Bank-grid cells per DIMM. */
    std::size_t bankCells() const
    {
        return static_cast<std::size_t>(bankGridX) *
               static_cast<std::size_t>(bankGridZ);
    }
    /** Total memory traffic in GB. */
    double totalTrafficGB() const { return totalReadGB + totalWriteGB; }
    /** Mean CPU power over the run. */
    Watts avgCpuPower() const
    {
        return runningTime > 0.0 ? cpuEnergy / runningTime : 0.0;
    }
    /** Mean memory power over the run. */
    Watts avgMemPower() const
    {
        return runningTime > 0.0 ? memEnergy / runningTime : 0.0;
    }
    /** Mean achieved bandwidth over the run. */
    GBps avgBandwidth() const
    {
        return runningTime > 0.0 ? totalTrafficGB() / runningTime : 0.0;
    }
};

} // namespace memtherm

#endif // MEMTHERM_CORE_SIM_SIM_RESULT_HH
