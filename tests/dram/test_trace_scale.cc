/**
 * @file
 * Lowering's memory does not grow with the trace: a scenario lowered
 * over a 1M-record (~16 MB) random trace reads it in one streaming
 * pass, keeping neither the file's text nor a record vector. Its own
 * test program, so the process's peak RSS (VmHWM) before the lowering
 * is this test's alone.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/json.hh"
#include "core/sim/scenario.hh"
#include "dram/trace.hh"

namespace memtherm
{
namespace
{

/** A `<key>: <n> kB` line of /proc/self/status, in kB; -1 if absent. */
long
statusKb(const std::string &key)
{
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind(key + ":", 0) == 0)
            return std::stol(line.substr(key.size() + 1));
    return -1;
}

TEST(TraceScale, LoweringMemoryDoesNotGrowWithTheTrace)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer builds keep their own shadow memory";
#endif
    if (statusKb("VmRSS") < 0 || statusKb("VmHWM") < 0)
        GTEST_SKIP() << "no VmRSS/VmHWM in /proc/self/status";

    // 1M random records, written 16K at a time so that writing the
    // file does not raise the peak the lowering is measured against.
    const std::string path = std::string(::testing::TempDir()) +
                             "memtherm_trace_scale.trace";
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        for (int chunk = 0; chunk < 64; ++chunk) {
            TraceGenConfig tg;
            tg.pattern = TraceGenConfig::Pattern::Random;
            tg.maxAddr = 1ULL << 30;
            tg.count = 16384;
            tg.readPct = 67.0;
            tg.seed = 1000 + static_cast<std::uint64_t>(chunk);
            std::string text = formatTrace(generateTrace(tg));
            if (chunk > 0) // one header
                text.erase(0, text.find('\n') + 1);
            f << text;
        }
        ASSERT_TRUE(f.good());
    }

    ScenarioSpec s = ScenarioSpec::fromJson(Json::parse(R"({
        "name": "scale", "workloads": ["W1"], "policies": ["No-limit"],
        "sweep": {
          "memory_org": ["ch4_4x4", "2x4", "4x8", "8x2"],
          "thermal_model": [{"grid_x": 32, "grid_z": 16},
                            {"grid_x": 8, "grid_z": 8}]}})"));
    s.trace = path;
    const long rss0 = statusKb("VmRSS");
    const LoweredScenario low = s.lower();
    const long growth_kb = statusKb("VmHWM") - rss0;
    std::remove(path.c_str());

    ASSERT_EQ(low.points.size(), 8u);
    EXPECT_EQ(low.points[0].cfg.trafficShares.size(), 4u);
    // The trace's text alone is ~16 MB, and its records as many again.
    EXPECT_LT(growth_kb, 8 * 1024) << "VmHWM grew by " << growth_kb << " kB";
}

} // namespace
} // namespace memtherm
