/**
 * @file
 * Unit tests for the experiment drivers.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/sim/engine.hh"
#include "core/sim/experiment.hh"

namespace memtherm
{
namespace
{

TEST(Experiment, PolicyFactoryNames)
{
    for (const char *name :
         {"No-limit", "DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS",
          "DTM-BW+PID", "DTM-ACG+PID", "DTM-CDVFS+PID"}) {
        auto p = makeCh4Policy(name);
        EXPECT_EQ(p->name(), name);
    }
    EXPECT_THROW(makeCh4Policy("DTM-TS+PID"), FatalError);
    EXPECT_THROW(makeCh4Policy("bogus"), FatalError);
}

TEST(Experiment, Ch4PolicyLineup)
{
    EXPECT_EQ(ch4PolicyNames(false).size(), 4u);
    EXPECT_EQ(ch4PolicyNames(true).size(), 7u);
}

TEST(Experiment, SuiteAndNormalization)
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.copiesPerApp = 4;
    std::vector<Workload> ws{workloadMix("W1")};
    ExperimentEngine engine;
    SuiteResults r =
        engine.runSuite(cfg, ws, {"No-limit", "DTM-TS", "DTM-ACG"});
    ASSERT_EQ(r.size(), 1u);
    ASSERT_EQ(r.at("W1").size(), 3u);

    double nt = normalizedTo(r, "W1", "DTM-TS", "No-limit",
                             metricRunningTime);
    EXPECT_GT(nt, 1.0);
    double self = normalizedTo(r, "W1", "DTM-TS", "DTM-TS",
                               metricRunningTime);
    EXPECT_DOUBLE_EQ(self, 1.0);

    // Metric accessors agree with the result fields.
    const SimResult &ts = r.at("W1").at("DTM-TS");
    EXPECT_DOUBLE_EQ(metricTraffic(ts), ts.totalTrafficGB());
    EXPECT_DOUBLE_EQ(metricMemEnergy(ts), ts.memEnergy);
    EXPECT_DOUBLE_EQ(metricCpuEnergy(ts), ts.cpuEnergy);
    EXPECT_DOUBLE_EQ(metricTotalEnergy(ts), ts.memEnergy + ts.cpuEnergy);
    EXPECT_DOUBLE_EQ(metricL2Misses(ts), ts.totalL2Misses);
}

} // namespace
} // namespace memtherm
