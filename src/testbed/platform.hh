/**
 * @file
 * Chapter 5 testbed emulation: the Dell PowerEdge 1950 and the
 * instrumented Intel SR1500AL (Section 5.3.1), expressed as integrated-
 * thermal-model configurations.
 *
 * The real machines are replaced by calibrated platform descriptors (the
 * DESIGN.md substitution S12): memory organization, layout-dependent
 * CPU->memory thermal coupling, platform cooling resistances, Xeon 5160
 * DVFS states, the activity-based CPU power model, thermal sensor
 * quantization/noise, and the Table 5.1 emergency tables. Calibration
 * anchors (paper -> model): SR1500AL idles near 80 C and rockets past
 * 100 C on swim/mgrid (Fig. 5.4); PE1950 peaks in the mid-90s with no
 * DTM (Fig. 5.5); CPU preheat of the memory inlet is ~10 C (Fig. 5.9).
 */

#ifndef MEMTHERM_TESTBED_PLATFORM_HH
#define MEMTHERM_TESTBED_PLATFORM_HH

#include <memory>
#include <string>
#include <vector>

#include "core/sim/engine.hh"
#include "core/sim/experiment.hh"

namespace memtherm
{

/**
 * A Chapter 5 server testbed.
 */
struct Platform
{
    std::string name;
    SimConfig sim;                   ///< fully configured simulator setup
    Celsius ambTdp = 100.0;          ///< (artificial) AMB TDP
    std::vector<Celsius> ambBounds;  ///< Table 5.1 emergency boundaries
    std::vector<GBps> bwCaps;        ///< DTM-BW caps per level (L1..L4)
    GBps safetyCap = 3.0;            ///< open-loop cap at the top level
    /// Lowest DVFS level a policy may select (3 pins the Xeon 5160 at
    /// 2.0 GHz, the Fig. 5.13 low-frequency mode).
    std::size_t dvfsFloor = 0;

    /**
     * Set the AMB TDP and everything that follows it (Section 5.4.5):
     * the TRP one degree below, and the Table 5.1 boundaries stepping
     * down four degrees per level from a two-degree margin below it.
     */
    void setAmbTdp(Celsius tdp);
};

/**
 * Dell PowerEdge 1950: two 2GB FBDIMMs on one channel, stand-alone in an
 * air-conditioned room (26 C), artificial AMB TDP of 90 C, processors
 * slightly misaligned with the DIMMs (weaker thermal coupling).
 */
Platform pe1950();

/**
 * Intel SR1500AL: four 2GB FBDIMMs, hot-box enclosure (36 C system
 * ambient), conservative AMB TDP of 100 C, one processor in line with
 * the DIMMs (strong thermal coupling).
 */
Platform sr1500al();

/**
 * Construct a Chapter 5 policy for a platform: "No-limit", "DTM-BW",
 * "DTM-ACG", "DTM-CDVFS" or "DTM-COMB" (Section 5.2.2), never below
 * the platform's DVFS floor.
 */
std::unique_ptr<DtmPolicy> makeCh5Policy(const Platform &p,
                                         const std::string &name);

/**
 * ExperimentEngine policy factory for a platform's Chapter 5 lineup.
 * The platform is captured by value so engine runs never dangle.
 */
PolicyFactory ch5PolicyFactory(const Platform &p);

/**
 * Build one engine run for a (platform, workload, policy) triple,
 * applying the paper's protocol tweaks: the SR1500AL no-limit baseline
 * runs at a 26 C room ambient instead of the hot box (Section 5.4.2).
 */
ExperimentEngine::Run ch5EngineRun(const Platform &p, const Workload &w,
                                   const std::string &policy_name);

/** The Chapter 5 policy lineup. */
std::vector<std::string> ch5PolicyNames();

} // namespace memtherm

#endif // MEMTHERM_TESTBED_PLATFORM_HH
