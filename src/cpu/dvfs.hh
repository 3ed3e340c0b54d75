/**
 * @file
 * DVFS operating points for the modeled processors.
 */

#ifndef MEMTHERM_CPU_DVFS_HH
#define MEMTHERM_CPU_DVFS_HH

#include <cstddef>
#include <vector>

#include "common/units.hh"

namespace memtherm
{

/** One frequency/voltage operating point. */
struct DvfsState
{
    GHz freq = 3.2;
    Volts volts = 1.55;

    bool operator==(const DvfsState &) const = default;
};

/**
 * Ordered table of operating points, index 0 = fastest. Level indices are
 * what DTM policies manipulate.
 */
class DvfsTable
{
  public:
    explicit DvfsTable(std::vector<DvfsState> states);

    /** Operating point at @p level (0 = fastest). */
    const DvfsState &at(std::size_t level) const;

    /** Number of levels. */
    std::size_t levels() const { return table.size(); }

    /** Fastest frequency (reference for IPC accounting). */
    GHz maxFreq() const { return table.front().freq; }
    /** Highest supply voltage. */
    Volts maxVolts() const { return table.front().volts; }

    bool operator==(const DvfsTable &) const = default;

  private:
    std::vector<DvfsState> table;
};

/**
 * Table 4.1 / 4.3 operating points of the simulated four-core processor:
 * 3.2 GHz @ 1.55 V, 2.8 GHz @ 1.35 V, 1.6 GHz @ 1.15 V, 0.8 GHz @ 0.95 V.
 */
DvfsTable simulatedCmpDvfs();

/**
 * Intel Xeon 5160 operating points used in Chapter 5:
 * 3.0 GHz @ 1.2125 V down to 2.0 GHz @ 1.0375 V.
 */
DvfsTable xeon5160Dvfs();

} // namespace memtherm

#endif // MEMTHERM_CPU_DVFS_HH
