/**
 * @file
 * DTM policy interface (Section 4.2): a policy reads the thermal sensors
 * once per DTM interval and decides the system running state.
 */

#ifndef MEMTHERM_CORE_DTM_DTM_POLICY_HH
#define MEMTHERM_CORE_DTM_DTM_POLICY_HH

#include <limits>
#include <string>
#include <vector>

#include "common/units.hh"

namespace memtherm
{

/** Sensor values a policy sees at a decision point. */
struct ThermalReading
{
    Celsius amb = 0.0;   ///< hottest AMB temperature
    Celsius dram = 0.0;  ///< hottest DRAM-device temperature
    Celsius inlet = 0.0; ///< memory inlet (ambient) temperature

    /**
     * Per-DIMM temperatures on the representative channel (index 0
     * nearest the memory controller), for policies that act on the
     * thermal *gradient* rather than the hottest spot. These are the
     * exact model temperatures — ideal per-DIMM sensors: routing them
     * through the noisy scalar sensor would consume extra RNG draws and
     * perturb every pinned golden. Empty when the caller has no
     * per-DIMM sensor path (e.g. policy unit tests that only exercise
     * the scalar readings).
     */
    // "= {}" lets ThermalReading{amb, dram, inlet} omit these without
    // tripping -Wmissing-field-initializers.
    std::vector<Celsius> ambPerDimm = {};
    std::vector<Celsius> dramPerDimm = {};
};

/** The running state a policy selects. */
struct DtmAction
{
    /** False = memory fully shut down (no transactions). */
    bool memoryOn = true;
    /** Memory throughput cap; +inf means unconstrained. */
    GBps bandwidthCap = std::numeric_limits<double>::infinity();
    /** Cores left running; clamped to the platform count by the engine. */
    int activeCores = std::numeric_limits<int>::max();
    /** DVFS level index, 0 = fastest. */
    std::size_t dvfsLevel = 0;
    /**
     * New per-DIMM traffic shares to apply this window (the remap
     * actuator). Empty = keep the current distribution. When set, the
     * vector must satisfy the MemoryThermalModel share contract
     * (one entry per DIMM, finite, non-negative, summing to 1); the
     * simulator charges a migration-cost traffic burst proportional to
     * the share fraction actually moved.
     */
    std::vector<double> trafficShares;

    /**
     * Field-wise equality. The batched simulator uses this to detect
     * the first window where policies sharing a trajectory prefix
     * diverge, so "equal" must mean "the simulator would do exactly the
     * same thing" — which field-wise double comparison (inf == inf
     * included; no field is ever NaN) delivers.
     */
    bool operator==(const DtmAction &) const = default;
};

/**
 * Base class of all DTM policies.
 */
class DtmPolicy
{
  public:
    virtual ~DtmPolicy() = default;

    /**
     * Decide the running state for the next DTM interval.
     * @param r   current sensor readings
     * @param now simulation time (s)
     */
    virtual DtmAction decide(const ThermalReading &r, Seconds now) = 0;

    /** Display name, e.g. "DTM-ACG" or "DTM-ACG+PID". */
    virtual std::string name() const = 0;

    /** Clear internal state for a fresh run. */
    virtual void reset() {}
};

/** The no-thermal-limit baseline: always full speed. */
class NoLimitPolicy : public DtmPolicy
{
  public:
    DtmAction
    decide(const ThermalReading &, Seconds) override
    {
        return {};
    }

    std::string name() const override { return "No-limit"; }
};

} // namespace memtherm

#endif // MEMTHERM_CORE_DTM_DTM_POLICY_HH
