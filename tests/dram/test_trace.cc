/**
 * @file
 * Property tests for the versioned trace format, the synthetic
 * generators and the organization decoder (dram/trace.hh): lossless
 * parse/format round-trips, generator determinism (one uniform draw per
 * record), byte-weighted decode invariants, file/line diagnostics, the
 * newer-version refusal, and the scenario layer's trace knob end to end
 * (trace-driven shares and bank weights, trace-free bit-identity).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/sim/scenario.hh"
#include "dram/trace.hh"

namespace memtherm
{
namespace
{

void
expectFatalWith(const std::function<void()> &f, const std::string &needle)
{
    try {
        f();
        FAIL() << "expected FatalError containing '" << needle << "'";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(TraceFormat, RoundTripsLosslessly)
{
    Rng rng(20260808);
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 500; ++i) {
        TraceRecord r;
        r.addr = rng.next() >> (rng.below(40));
        r.bytes = static_cast<std::uint32_t>(1 + rng.below(1 << 12));
        r.write = rng.uniform() < 0.5;
        recs.push_back(r);
    }
    const std::string text = formatTrace(recs);
    EXPECT_EQ(parseTrace(text, "rt"), recs);
    // format(parse(format)) is a fixed point.
    EXPECT_EQ(formatTrace(parseTrace(text, "rt")), text);
}

TEST(TraceFormat, AcceptsDecimalHexCommentsAndBlanks)
{
    const std::string text = "#memtherm-trace v1\n"
                             "\n"
                             "# a comment\n"
                             "0x40 r 64\n"
                             "  128 w 32\n";
    auto recs = parseTrace(text, "mixed");
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].addr, 0x40u);
    EXPECT_FALSE(recs[0].write);
    EXPECT_EQ(recs[1].addr, 128u);
    EXPECT_TRUE(recs[1].write);
    EXPECT_EQ(recs[1].bytes, 32u);
}

TEST(TraceFormat, DiagnosticsNameFileAndLine)
{
    expectFatalWith([] { parseTrace("", "t"); }, "empty file");
    expectFatalWith([] { parseTrace("#wrong v1\n0x0 r 64\n", "t"); },
                    "trace 't' line 1: bad header");
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v1\n0x0 r\n", "t"); },
        "trace 't' line 2: expected '<addr> <r|w> <bytes>'");
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v1\n\n0xZZ r 64\n", "t"); },
        "trace 't' line 3: bad address '0xZZ'");
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v1\n0x0 x 64\n", "t"); },
        "line 2: bad op 'x'");
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v1\n0x0 r 0\n", "t"); },
        "bad byte count '0'");
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v1\n0x0 r 64 junk\n", "t"); },
        "trailing token 'junk'");
    expectFatalWith([] { parseTrace("#memtherm-trace v1\n", "t"); },
                    "no records");
    expectFatalWith([] { loadTrace("/nonexistent/x.trace"); },
                    "cannot open file");
}

TEST(TraceFormat, RefusesNewerVersionWithUpgradeMessage)
{
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v2\n0x0 r 64\n", "future"); },
        "format version 2 is newer than this binary's v1; "
        "upgrade memtherm");
    // Truncation must not turn a refusal into a misparse.
    expectFatalWith([] { parseTrace("#memtherm-trace v999\n", "f"); },
                    "newer than this binary's");
    // Versions compare unnarrowed: 2^32 + 1 and 2^64 - 1 do not wrap
    // onto v1, and there is no v0.
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v4294967297\n0x0 r 64\n", "f"); },
        "format version 4294967297 is newer than this binary's v1");
    expectFatalWith(
        [] {
            parseTrace("#memtherm-trace v18446744073709551615\n0x0 r 64\n",
                       "f");
        },
        "format version 18446744073709551615 is newer");
    expectFatalWith([] { parseTrace("#memtherm-trace v0\n0x0 r 64\n", "f"); },
                    "bad version 'v0'");
}

TEST(TraceGen, EqualConfigsGenerateEqualTraces)
{
    TraceGenConfig cfg;
    cfg.pattern = TraceGenConfig::Pattern::Random;
    cfg.count = 2000;
    cfg.readPct = 70.0;
    cfg.seed = 99;
    EXPECT_EQ(generateTrace(cfg), generateTrace(cfg));
    TraceGenConfig other = cfg;
    other.seed = 100;
    EXPECT_NE(generateTrace(cfg), generateTrace(other));
}

TEST(TraceGen, LinearWrapsBlockAlignedOverTheRange)
{
    TraceGenConfig cfg;
    cfg.minAddr = 0x1000;
    cfg.maxAddr = 0x1000 + 4 * 64;
    cfg.blockSize = 64;
    cfg.count = 10;
    auto recs = generateTrace(cfg);
    ASSERT_EQ(recs.size(), 10u);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(recs[i].addr, 0x1000 + (i % 4) * 64);
        EXPECT_EQ(recs[i].bytes, 64u);
    }
}

TEST(TraceGen, RandomStaysInRangeAndHonorsReadPct)
{
    TraceGenConfig cfg;
    cfg.pattern = TraceGenConfig::Pattern::Random;
    cfg.minAddr = 1 << 16;
    cfg.maxAddr = 1 << 20;
    cfg.count = 20000;
    cfg.readPct = 25.0;
    cfg.seed = 7;
    auto recs = generateTrace(cfg);
    std::size_t reads = 0;
    for (const auto &r : recs) {
        EXPECT_GE(r.addr, cfg.minAddr);
        EXPECT_LT(r.addr, cfg.maxAddr);
        EXPECT_EQ(r.addr % cfg.blockSize, 0u);
        reads += r.write ? 0 : 1;
    }
    EXPECT_NEAR(static_cast<double>(reads) / recs.size(), 0.25, 0.02);
}

TEST(TraceGen, OneUniformDrawPerRecordInBothPatterns)
{
    // The r/w stream is drawn identically in both patterns (one
    // uniform() per record), so a linear and a random trace at one seed
    // with readPct 100 and 0 pin the draw count: all reads / all writes
    // regardless of pattern, and flipping the pattern never shifts the
    // r/w sequence of a mid-range readPct relative to regeneration.
    for (auto pattern : {TraceGenConfig::Pattern::Linear,
                         TraceGenConfig::Pattern::Random}) {
        TraceGenConfig cfg;
        cfg.pattern = pattern;
        cfg.count = 256;
        cfg.readPct = 100.0;
        for (const auto &r : generateTrace(cfg))
            EXPECT_FALSE(r.write);
        cfg.readPct = 0.0;
        for (const auto &r : generateTrace(cfg))
            EXPECT_TRUE(r.write);
    }
}

TEST(TraceGen, DegenerateParametersAreFatal)
{
    TraceGenConfig cfg;
    cfg.blockSize = 0;
    expectFatalWith([&] { generateTrace(cfg); },
                    "block size must be > 0");
    cfg = {};
    cfg.count = 0;
    expectFatalWith([&] { generateTrace(cfg); }, "count must be > 0");
    cfg = {};
    cfg.maxAddr = cfg.minAddr = 0x1000;
    expectFatalWith([&] { generateTrace(cfg); },
                    "max address must be > min address");
    cfg = {};
    cfg.minAddr = 0;
    cfg.maxAddr = 32; // smaller than one 64-byte block
    expectFatalWith([&] { generateTrace(cfg); },
                    "address range smaller than one block");
    cfg = {};
    cfg.readPct = 101.0;
    expectFatalWith([&] { generateTrace(cfg); },
                    "read percentage must be in [0, 100]");
}

TEST(TraceDecode, SharesAndWeightsAreNormalizedByteWeighted)
{
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        TraceGenConfig cfg;
        cfg.pattern = TraceGenConfig::Pattern::Random;
        cfg.count = 3000;
        cfg.seed = rng.next();
        cfg.readPct = 60.0;
        auto recs = generateTrace(cfg);
        const int channels = 1 + static_cast<int>(rng.below(4));
        const int dimms = 1 + static_cast<int>(rng.below(8));
        const int cells = static_cast<int>(rng.below(9)); // 0 = lumped
        TraceProfile p = decodeTrace(recs, channels, dimms, cells);

        EXPECT_EQ(p.records, recs.size());
        ASSERT_EQ(p.dimmShares.size(), static_cast<std::size_t>(dimms));
        double sum = std::accumulate(p.dimmShares.begin(),
                                     p.dimmShares.end(), 0.0);
        EXPECT_NEAR(sum, 1.0, 1e-9);
        for (double s : p.dimmShares)
            EXPECT_GE(s, 0.0);
        EXPECT_GE(p.readFraction, 0.0);
        EXPECT_LE(p.readFraction, 1.0);

        if (cells == 0) {
            EXPECT_TRUE(p.bankWeights.empty());
        } else {
            ASSERT_EQ(p.bankWeights.size(),
                      static_cast<std::size_t>(dimms) * cells);
            for (int d = 0; d < dimms; ++d) {
                double block = 0.0;
                for (int c = 0; c < cells; ++c)
                    block += p.bankWeights[d * cells + c];
                EXPECT_NEAR(block, 1.0, 1e-9); // touched or uniform
            }
        }
    }
}

TEST(TraceDecode, ByteWeightingCountsBytesNotRecords)
{
    // Two records to DIMM 0 at 64 B vs one to DIMM 1 at 384 B: DIMM 1
    // carries 3x the bytes despite half the records.
    std::vector<TraceRecord> recs;
    // channels=1, dimms=2, block=64: block index parity selects DIMM.
    recs.push_back({0 * 64, 64, false});  // dimm 0
    recs.push_back({2 * 64, 64, false});  // dimm 0
    recs.push_back({1 * 64, 384, true});  // dimm 1
    TraceProfile p = decodeTrace(recs, 1, 2, 0);
    EXPECT_NEAR(p.dimmShares[0], 128.0 / 512.0, 1e-12);
    EXPECT_NEAR(p.dimmShares[1], 384.0 / 512.0, 1e-12);
    EXPECT_NEAR(p.readFraction, 128.0 / 512.0, 1e-12);
}

TEST(TraceDecode, UntouchedDimmFallsBackToUniformWeights)
{
    // One record, channels=1, dimms=2, cells=4: DIMM 1 never appears,
    // so its weight block is uniform 1/4 (an idle DIMM's power splits
    // evenly, matching the lumped view).
    std::vector<TraceRecord> recs{{0, 64, false}};
    TraceProfile p = decodeTrace(recs, 1, 2, 4);
    EXPECT_EQ(p.dimmShares[1], 0.0);
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(p.bankWeights[4 + c], 0.25);
    // The touched DIMM concentrates on the one cell it hit.
    EXPECT_EQ(p.bankWeights[0], 1.0);
}

TEST(TraceDecode, DegenerateInputsAreFatal)
{
    std::vector<TraceRecord> none;
    expectFatalWith([&] { decodeTrace(none, 1, 1, 0); }, "no records");
    std::vector<TraceRecord> one{{0, 64, false}};
    expectFatalWith([&] { decodeTrace(one, 0, 1, 0); },
                    "bad organization");
    expectFatalWith([&] { decodeTrace(one, 1, 1, 0, 0); },
                    "block size must be > 0");
}

/** Temp file helper: writes content, removes itself on destruction. */
struct TempTrace
{
    std::string path;

    explicit TempTrace(const std::string &content)
        : path(std::string(::testing::TempDir()) + "memtherm_trace_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               ".trace")
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << content;
    }

    ~TempTrace() { std::remove(path.c_str()); }
};

TEST(TraceFile, SaveLoadRoundTrip)
{
    TraceGenConfig cfg;
    cfg.count = 64;
    cfg.readPct = 50.0;
    auto recs = generateTrace(cfg);
    TempTrace tmp(""); // reserve a path; saveTrace overwrites it
    saveTrace(tmp.path, recs);
    EXPECT_EQ(loadTrace(tmp.path), recs);
}

/**
 * The scenario knob end to end: a trace whose stream lands entirely on
 * DIMM 0 must heat DIMM 0 the way the equivalent traffic_shape does,
 * and fill the bank weights when the grid is active.
 */
TEST(TraceScenario, TraceDrivesSharesAndBankWeights)
{
    // channels=4, dimms=4, block=64: block indices 0..3 are DIMM 0 on
    // channels 0..3; indices 16k+c stay on DIMM (k%4). Use addresses
    // whose block/4 % 4 == 0 so every access decodes to DIMM 0, cell
    // (block/16 % 8) == 0.
    std::string text = "#memtherm-trace v1\n";
    for (int b : {0, 1, 2, 3})
        text += std::to_string(b * 64) + " r 64\n";
    TempTrace tmp(text);

    ScenarioSpec s;
    s.name = "traced";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.copiesPerApp = 1;
    s.maxSimTime = 300.0;
    s.trace = tmp.path;
    s.thermalModel.name = "bank_grid";

    LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 1u);
    const SimConfig &cfg = low.points[0].cfg;
    ASSERT_EQ(cfg.trafficShares.size(), 4u);
    EXPECT_EQ(cfg.trafficShares[0], 1.0);
    EXPECT_EQ(cfg.trafficShares[1], 0.0);
    ASSERT_TRUE(cfg.bankGrid.has_value());
    ASSERT_EQ(cfg.bankGrid->weights.size(), 4u * 8u);
    EXPECT_EQ(cfg.bankGrid->weights[0], 1.0); // DIMM 0 all on cell 0
    for (int c = 0; c < 8; ++c) // untouched DIMM 1: uniform fallback
        EXPECT_EQ(cfg.bankGrid->weights[8 + c], 0.125);

    // Equivalent modeled shape gives the identical configuration, so
    // the runs are bit-identical by the engine's determinism.
    ScenarioSpec shaped = s;
    shaped.trace.clear();
    shaped.thermalModel = {};
    shaped.trafficShape.value = {1.0, 0.0, 0.0, 0.0};
    LoweredScenario low2 = shaped.lower();
    EXPECT_EQ(low2.points[0].cfg.trafficShares, cfg.trafficShares);
}

TEST(TraceScenario, TraceKnobRoundTripsThroughJson)
{
    ScenarioSpec s;
    s.name = "t";
    s.workloads = {"W1"};
    s.policies = {"No-limit"};
    s.trace = "traces/app.trace";
    const std::string once = s.toJson().dump();
    ScenarioSpec back = ScenarioSpec::fromJson(Json::parse(once));
    EXPECT_EQ(back, s);
    EXPECT_EQ(back.toJson().dump(), once);

    expectFatalWith(
        [] {
            ScenarioSpec::fromJson(Json::parse(
                R"({"name":"x","workloads":["W1"],"policies":["No-limit"],
                    "config":{"trace":""}})"));
        },
        "'config.trace' must be a non-empty path");
}

} // namespace
} // namespace memtherm
