#include "core/sim/experiment.hh"

#include "common/logging.hh"
#include "core/sim/registry.hh"

namespace memtherm
{

std::unique_ptr<DtmPolicy>
makeCh4Policy(const std::string &name, Seconds dtm_interval)
{
    // The lineup lives in the PolicyRegistry now; an unknown name throws
    // FatalError with a diagnostic that lists every valid key.
    return PolicyRegistry::instance().make(name, dtm_interval);
}

std::vector<std::string>
ch4PolicyNames(bool with_pid)
{
    if (!with_pid)
        return {"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"};
    return {"DTM-TS",  "DTM-BW",    "DTM-BW+PID",    "DTM-ACG",
            "DTM-ACG+PID", "DTM-CDVFS", "DTM-CDVFS+PID"};
}

double
normalizedTo(const SuiteResults &r, const std::string &workload,
             const std::string &policy, const std::string &base,
             double (*metric)(const SimResult &))
{
    const auto &per_policy = r.at(workload);
    double denom = metric(per_policy.at(base));
    panicIfNot(denom > 0.0, "normalizedTo: base metric must be positive");
    return metric(per_policy.at(policy)) / denom;
}

double
metricRunningTime(const SimResult &r)
{
    return r.runningTime;
}

double
metricTraffic(const SimResult &r)
{
    return r.totalTrafficGB();
}

double
metricMemEnergy(const SimResult &r)
{
    return r.memEnergy;
}

double
metricCpuEnergy(const SimResult &r)
{
    return r.cpuEnergy;
}

double
metricTotalEnergy(const SimResult &r)
{
    return r.memEnergy + r.cpuEnergy;
}

double
metricL2Misses(const SimResult &r)
{
    return r.totalL2Misses;
}

} // namespace memtherm
