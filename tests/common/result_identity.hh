/**
 * @file
 * Bit identity of two SimResults, shared by the simulator, engine,
 * scenario, bank-grid and policy tests: every member the result codec
 * writes (core/sim/result_codec.cc), traces and their periods included.
 */

#ifndef MEMTHERM_TESTS_COMMON_RESULT_IDENTITY_HH
#define MEMTHERM_TESTS_COMMON_RESULT_IDENTITY_HH

#include <gtest/gtest.h>

#include <utility>

#include "core/sim/sim_result.hh"

namespace memtherm
{

/** Whether expectIdentical() compares the workload and policy names. */
enum class CompareNames
{
    Yes,
    No, ///< for two policies that must simulate the same run
};

/** Exact (bitwise) equality of two results, member by member. */
inline void
expectIdentical(const SimResult &a, const SimResult &b,
                CompareNames names = CompareNames::Yes)
{
    if (names == CompareNames::Yes) {
        EXPECT_EQ(a.workload, b.workload);
        EXPECT_EQ(a.policy, b.policy);
    }
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.runningTime, b.runningTime);
    EXPECT_EQ(a.totalInstr, b.totalInstr);
    EXPECT_EQ(a.totalReadGB, b.totalReadGB);
    EXPECT_EQ(a.totalWriteGB, b.totalWriteGB);
    EXPECT_EQ(a.totalL2Misses, b.totalL2Misses);
    EXPECT_EQ(a.memEnergy, b.memEnergy);
    EXPECT_EQ(a.cpuEnergy, b.cpuEnergy);
    EXPECT_EQ(a.maxAmb, b.maxAmb);
    EXPECT_EQ(a.maxDram, b.maxDram);
    EXPECT_EQ(a.timeAboveAmbTdp, b.timeAboveAmbTdp);
    EXPECT_EQ(a.timeAboveDramTdp, b.timeAboveDramTdp);
    EXPECT_EQ(a.peakAmbPerDimm, b.peakAmbPerDimm);
    EXPECT_EQ(a.peakDramPerDimm, b.peakDramPerDimm);
    EXPECT_EQ(a.avgPowerPerDimm, b.avgPowerPerDimm);
    EXPECT_EQ(a.refreshBwLossPerDimm, b.refreshBwLossPerDimm);
    EXPECT_EQ(a.refreshEnergyPerDimm, b.refreshEnergyPerDimm);
    EXPECT_EQ(a.bankGridX, b.bankGridX);
    EXPECT_EQ(a.bankGridZ, b.bankGridZ);
    EXPECT_EQ(a.peakBankDramPerDimm, b.peakBankDramPerDimm);
    const std::pair<const char *, TimeSeries SimResult::*> traces[] = {
        {"ambTrace", &SimResult::ambTrace},
        {"dramTrace", &SimResult::dramTrace},
        {"inletTrace", &SimResult::inletTrace},
        {"cpuPowerTrace", &SimResult::cpuPowerTrace},
        {"bwTrace", &SimResult::bwTrace}};
    for (const auto &[name, t] : traces) {
        SCOPED_TRACE(name);
        EXPECT_EQ((a.*t).period(), (b.*t).period());
        EXPECT_EQ((a.*t).values(), (b.*t).values());
    }
}

} // namespace memtherm

#endif // MEMTHERM_TESTS_COMMON_RESULT_IDENTITY_HH
