/**
 * @file
 * First-order thermal RC node (Eq. 3.5).
 *
 * T(t + dt) = T(t) + (T_stable - T(t)) * (1 - exp(-dt / tau))
 *
 * The paper treats temperature like voltage in an electrical RC circuit
 * (after Skadron et al.); there is no leakage-thermal feedback because
 * DRAM/AMB leakage is negligible (<2% observed).
 */

#ifndef MEMTHERM_CORE_THERMAL_RC_NODE_HH
#define MEMTHERM_CORE_THERMAL_RC_NODE_HH

#include "common/units.hh"

namespace memtherm
{

/**
 * One exponential-relaxation temperature state.
 */
class RcNode
{
  public:
    /**
     * @param tau  RC time constant in seconds (> 0)
     * @param t0   initial temperature
     */
    RcNode(Seconds tau, Celsius t0);

    /** Current temperature. */
    Celsius temperature() const { return temp; }

    /** Reset to a given temperature. */
    void reset(Celsius t) { temp = t; }

    /**
     * Advance by dt toward the given stable temperature (Eq. 3.5).
     *
     * The decay factor 1 - exp(-dt / tau) is cached and recomputed only
     * when dt differs from the previous call — the simulator advances
     * with a constant window, so the exp() is evaluated once per run
     * instead of once per step.
     *
     * @return the new temperature
     */
    Celsius advance(Celsius stable, Seconds dt);

    /**
     * Closed-form time for this node to move from its current temperature
     * to @p target while the stable temperature is held at @p stable.
     * Returns +inf when the target is unreachable (not strictly between
     * current and stable).
     */
    Seconds timeToReach(Celsius target, Celsius stable) const;

    Seconds tau() const { return rc; }

  private:
    Seconds rc;
    Celsius temp;
    /// Memoized advance() step: decay factor for the last dt seen.
    Seconds cachedDt = -1.0;
    double cachedDecay = 0.0;
};

} // namespace memtherm

#endif // MEMTHERM_CORE_THERMAL_RC_NODE_HH
