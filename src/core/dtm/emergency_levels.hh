/**
 * @file
 * Thermal emergency levels (Tables 4.3 and 5.1).
 *
 * The temperature range is quantized into levels L1..Ln; policies map the
 * current level to a running state. Level indices here are 0-based
 * (level 0 == the paper's L1 == no emergency).
 */

#ifndef MEMTHERM_CORE_DTM_EMERGENCY_LEVELS_HH
#define MEMTHERM_CORE_DTM_EMERGENCY_LEVELS_HH

#include <vector>

#include "core/dtm/dtm_policy.hh"

namespace memtherm
{

/**
 * Level boundaries for the AMB and DRAM sensors. With n boundaries there
 * are n+1 levels; a temperature at or above boundary i is at least in
 * level i+1.
 */
class EmergencyLevels
{
  public:
    EmergencyLevels(std::vector<Celsius> amb_bounds,
                    std::vector<Celsius> dram_bounds);

    /** Emergency level of an AMB temperature alone. */
    int ambLevel(Celsius t) const;
    /** Emergency level of a DRAM temperature alone. */
    int dramLevel(Celsius t) const;
    /** Combined level: the more urgent of the two sensors. */
    int level(const ThermalReading &r) const;

    /** Number of levels (boundaries + 1). */
    int numLevels() const;

    const std::vector<Celsius> &ambBounds() const { return ambB; }
    const std::vector<Celsius> &dramBounds() const { return dramB; }

    bool operator==(const EmergencyLevels &) const = default;

  private:
    std::vector<Celsius> ambB;
    std::vector<Celsius> dramB;
};

/**
 * Table 4.3 defaults for the chosen FBDIMM: five levels with AMB bounds
 * {108, 109, 109.5, 110} and DRAM bounds {83, 84, 84.5, 85}.
 */
EmergencyLevels ch4EmergencyLevels();

} // namespace memtherm

#endif // MEMTHERM_CORE_DTM_EMERGENCY_LEVELS_HH
