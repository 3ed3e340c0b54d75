/**
 * @file
 * Experiment helpers shared by the bench harness and tests: policy
 * factories, suite results, and paper-style normalizations. Suites run
 * through ExperimentEngine (core/sim/engine.hh).
 */

#ifndef MEMTHERM_CORE_SIM_EXPERIMENT_HH
#define MEMTHERM_CORE_SIM_EXPERIMENT_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sim/thermal_simulator.hh"

namespace memtherm
{

/**
 * Construct a Chapter 4 policy by display name: "No-limit", "DTM-TS",
 * "DTM-BW", "DTM-ACG", "DTM-CDVFS", each optionally with "+PID"
 * (DTM-TS has only two control decisions and does not benefit from PID;
 * requesting it is a fatal error, matching Section 4.4.2).
 *
 * Convenience wrapper over PolicyRegistry (core/sim/registry.hh); an
 * unknown name throws FatalError listing the valid keys. Use
 * PolicyRegistry::tryMake for an error-returning lookup.
 *
 * @param dtm_interval decision period used by PID controllers' first step
 */
std::unique_ptr<DtmPolicy> makeCh4Policy(const std::string &name,
                                         Seconds dtm_interval = 0.01);

/** The standard Chapter 4 policy lineup of Figs. 4.3/4.4/4.9/4.10. */
std::vector<std::string> ch4PolicyNames(bool with_pid = true);

/**
 * Results of one suite: result[workload][policy].
 */
using SuiteResults = std::map<std::string, std::map<std::string, SimResult>>;

/**
 * Normalized metric helper: value(workload,policy) / value(workload,base).
 */
double normalizedTo(const SuiteResults &r, const std::string &workload,
                    const std::string &policy, const std::string &base,
                    double (*metric)(const SimResult &));

/** Metric accessors for normalizedTo(). */
double metricRunningTime(const SimResult &r);
double metricTraffic(const SimResult &r);
double metricMemEnergy(const SimResult &r);
double metricCpuEnergy(const SimResult &r);
double metricTotalEnergy(const SimResult &r);
double metricL2Misses(const SimResult &r);

} // namespace memtherm

#endif // MEMTHERM_CORE_SIM_EXPERIMENT_HH
