/**
 * @file
 * Thermal-model parameters for FBDIMM, after Tables 3.2 and 3.3.
 */

#ifndef MEMTHERM_CORE_THERMAL_THERMAL_PARAMS_HH
#define MEMTHERM_CORE_THERMAL_THERMAL_PARAMS_HH

#include <string>

#include "common/units.hh"

namespace memtherm
{

/**
 * Heat-spreader type (Section 3.4): AOHS covers only the AMB; FDHS covers
 * the full DIMM, adding a heat-exchange path between AMB and DRAMs.
 */
enum class HeatSpreader { AOHS, FDHS };

/** Cooling air velocities for which Table 3.2 provides resistances. */
enum class AirVelocity { MPS_1_0, MPS_1_5, MPS_3_0 };

/**
 * One column of Table 3.2: thermal resistances (degC/W) and RC time
 * constants (s) for a given heat spreader and air velocity.
 */
struct CoolingConfig
{
    HeatSpreader spreader = HeatSpreader::AOHS;
    AirVelocity velocity = AirVelocity::MPS_1_5;

    double psiAmb = 9.3;        ///< AMB -> ambient
    double psiDramToAmb = 3.4;  ///< DRAM power's effect on AMB temperature
    double psiDram = 4.0;       ///< DRAM -> ambient
    double psiAmbToDram = 4.1;  ///< AMB power's effect on DRAM temperature
    Seconds tauAmb = 50.0;      ///< AMB thermal RC constant
    Seconds tauDram = 100.0;    ///< DRAM thermal RC constant

    /** Short identifier, e.g. "AOHS_1.5". */
    std::string name() const;

    bool operator==(const CoolingConfig &) const = default;
};

/** Look up a Table 3.2 column. */
CoolingConfig coolingConfig(HeatSpreader s, AirVelocity v);

/** The two configurations the paper's experiments use (Section 3.4). */
CoolingConfig coolingAohs15();
CoolingConfig coolingFdhs10();

/**
 * DRAM-ambient model parameters (Eq. 3.6, Table 3.3).
 *
 * TA_stable = tInlet + psiCpuMemXi * sum_i(Vcore_i * IPCref_i)
 *
 * psiCpuMemXi is the lumped product PsiCPU_MEM * xi; the paper reports it
 * as 1.5 on their servers and 0.0 for the isolated model. IPCref is
 * committed instructions over *reference* (max-frequency) cycles.
 */
struct AmbientParams
{
    Celsius tInlet = 50.0;     ///< system inlet temperature
    double psiCpuMemXi = 0.0;  ///< degC per (V * IPCref) summed over cores
    /**
     * Alternative coupling used by the Chapter 5 testbed emulation:
     * degC of inlet preheat per watt of measured CPU package power.
     * (Eq. 3.6's xi * V * IPC term is itself a power estimator; on the
     * real servers the preheat tracks total package power, including the
     * idle floor of memory-stalled cores.) Both couplings add.
     */
    double psiCpuPower = 0.0;
    Seconds tauCpuDram = 20.0; ///< RC constant of CPU->DRAM air coupling

    bool operator==(const AmbientParams &) const = default;
};

/** Table 3.3: isolated-model ambient parameters per cooling config. */
AmbientParams isolatedAmbient(const CoolingConfig &cooling);

/** Table 3.3: integrated-model ambient parameters per cooling config. */
AmbientParams integratedAmbient(const CoolingConfig &cooling);

/** Thermal design points for the FBDIMM chosen in the study (Sec. 4.3.3). */
struct ThermalLimits
{
    Celsius ambTdp = 110.0;     ///< AMB thermal design point
    Celsius dramTdp = 85.0;     ///< DRAM device thermal design point
    Celsius ambTrp = 109.0;     ///< AMB thermal release point (default)
    Celsius dramTrp = 84.0;     ///< DRAM thermal release point (default)

    bool operator==(const ThermalLimits &) const = default;
};

} // namespace memtherm

#endif // MEMTHERM_CORE_THERMAL_THERMAL_PARAMS_HH
