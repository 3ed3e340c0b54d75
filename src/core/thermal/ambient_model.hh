/**
 * @file
 * DRAM-ambient (memory inlet) temperature model (Section 3.5).
 *
 * In the isolated model the memory ambient is the constant system inlet.
 * In the integrated model the cooling air is preheated by the processors:
 *
 *   TA_stable = tInlet + psiCpuMemXi * sum_i(Vcore_i * IPCref_i)   (Eq. 3.6)
 *
 * and the ambient follows TA_stable through a first-order RC node
 * (Eq. 3.5) with tau_CPU_DRAM = 20 s:
 *
 *   T(t + dt) = T(t) + (TA_stable - T(t)) * (1 - exp(-dt / tau))
 */

#ifndef MEMTHERM_CORE_THERMAL_AMBIENT_MODEL_HH
#define MEMTHERM_CORE_THERMAL_AMBIENT_MODEL_HH

#include "core/thermal/thermal_params.hh"

namespace memtherm
{

/**
 * Memory inlet temperature state.
 */
class AmbientModel
{
  public:
    /** Construct from Table 3.3 parameters; starts at the inlet temp. */
    explicit AmbientModel(const AmbientParams &p);

    /**
     * Advance the ambient node by dt (>= 0) toward stable(). The decay
     * factor 1 - exp(-dt / tau) is memoized on dt: the simulator steps
     * with a constant window, so the exp() runs once per run, not once
     * per window.
     *
     * @param sum_v_ipc sum over cores of (supply voltage * reference IPC)
     * @param cpu_power CPU package power (used when psiCpuPower != 0)
     * @return the new memory ambient temperature
     */
    Celsius advance(double sum_v_ipc, Watts cpu_power, Seconds dt);

    /** Stable ambient for a constant CPU heat rate (Eq. 3.6). */
    Celsius
    stable(double sum_v_ipc, Watts cpu_power = 0.0) const
    {
        return params.tInlet + params.psiCpuMemXi * sum_v_ipc +
               params.psiCpuPower * cpu_power;
    }

    /** Current memory ambient temperature. */
    Celsius temperature() const { return temp; }

    /** True when CPU heat affects the memory ambient. */
    bool
    integrated() const
    {
        return params.psiCpuMemXi != 0.0 || params.psiCpuPower != 0.0;
    }

    const AmbientParams &p() const { return params; }

    /** Reset to a given ambient temperature. */
    void reset(Celsius t) { temp = t; }

  private:
    AmbientParams params;
    Celsius temp;
    Seconds cachedDt = -1.0; ///< dt of the memoized decay factor
    double cachedDecay = 0.0;
};

} // namespace memtherm

#endif // MEMTHERM_CORE_THERMAL_AMBIENT_MODEL_HH
