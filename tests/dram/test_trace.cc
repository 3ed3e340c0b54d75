/**
 * @file
 * Property tests for the versioned trace format, the synthetic
 * generators and the organization decoder (dram/trace.hh): lossless
 * parse/format round-trips, generator determinism (one uniform draw per
 * record), byte-weighted decode invariants, file/line diagnostics, the
 * newer-version refusal, the seeded trace fuzz corpus (mutated traces
 * fail only fatally, and the parser agrees with the istringstream
 * tokenizer it replaced), and the scenario layer's trace knob end to
 * end (trace-driven shares and bank weights, trace-free bit-identity,
 * one decode per distinct organization and grid).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
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

TEST(TraceFormat, HeaderRefusesTrailingToken)
{
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v1 junk\n0x0 r 64\n", "t"); },
        "trace 't' line 1: trailing token 'junk'");
    // A newer header may carry more than v1's two tokens; its reader
    // hears "upgrade", not "trailing token".
    expectFatalWith(
        [] { parseTrace("#memtherm-trace v2 block=128\n0x0 r 64\n", "t"); },
        "format version 2 is newer than this binary's v1");
}

TEST(TraceFormat, OneWhitespaceSetSplitsTokensAndBlanksLines)
{
    // Space, tab, CR, VT and FF all separate tokens...
    const auto recs =
        parseTrace("#memtherm-trace\fv1\n0x0\vr 64\n0x40\f\tw\r32\n", "ws");
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0], (TraceRecord{0x0, 64, false}));
    EXPECT_EQ(recs[1], (TraceRecord{0x40, 32, true}));
    // ...and a line holding only them is blank, so a comment may follow
    // any of them.
    for (const char *ws : {"\v", "\f", " \t\r\v\f", "\v# comment"}) {
        const auto one = parseTrace(
            "#memtherm-trace v1\n" + std::string(ws) + "\n0x0 r 64\n", "ws");
        EXPECT_EQ(one.size(), 1u) << "line '" << ws << "'";
    }
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
 * The istringstream tokenizer the trace parser replaced, kept as a
 * test-only oracle for it. It is the replaced code as it was, except
 * at the two lines marked FIX: the header refuses a trailing token, and
 * blank lines are skipped on the tokenizer's own whitespace set.
 */
bool
oracleU64(const std::string &tok, std::uint64_t &out)
{
    const bool hex =
        tok.size() > 2 && tok[0] == '0' && (tok[1] == 'x' || tok[1] == 'X');
    const char *first = tok.data() + (hex ? 2 : 0);
    const char *last = tok.data() + tok.size();
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
    if (first == last || ec != std::errc{} || end != last)
        return false;
    out = v;
    return true;
}

std::string
oracleAt(const std::string &name, std::size_t line)
{
    return "trace '" + name + "' line " + std::to_string(line);
}

std::vector<TraceRecord>
oracleParseTrace(const std::string &text, const std::string &name)
{
    std::size_t pos = 0;
    std::string line;
    auto nextLine = [&] {
        if (pos >= text.size())
            return false;
        const std::size_t nl = std::min(text.find('\n', pos), text.size());
        line.assign(text, pos, nl - pos);
        pos = nl + 1;
        return true;
    };
    std::size_t line_no = 0;

    if (!nextLine())
        fatal("trace '" + name + "': empty file (expected header "
              "'#memtherm-trace v" + std::to_string(kTraceFormatVersion) +
              "')");
    ++line_no;
    {
        std::istringstream hs(line);
        std::string magic, ver, extra;
        hs >> magic >> ver;
        if (magic != "#memtherm-trace" || ver.size() < 2 || ver[0] != 'v')
            fatal(oracleAt(name, line_no) +
                  ": bad header (expected '#memtherm-trace v" +
                  std::to_string(kTraceFormatVersion) + "')");
        std::uint64_t v = 0;
        if (!oracleU64(ver.substr(1), v) || v == 0)
            fatal(oracleAt(name, line_no) + ": bad version '" + ver + "'");
        if (v > static_cast<std::uint64_t>(kTraceFormatVersion))
            fatal("trace '" + name + "': format version " +
                  std::to_string(v) + " is newer than this binary's v" +
                  std::to_string(kTraceFormatVersion) +
                  "; upgrade memtherm to read this trace");
        if (hs >> extra) // FIX: the header's trailing token
            fatal(oracleAt(name, line_no) + ": trailing token '" + extra +
                  "'");
    }

    std::vector<TraceRecord> out;
    while (nextLine()) {
        ++line_no;
        // FIX: " \t\r" before, which isspace's \v and \f escaped.
        std::size_t first = line.find_first_not_of(" \t\r\v\f");
        if (first == std::string::npos || line[first] == '#')
            continue;
        std::istringstream ls(line);
        std::string addr_tok, op_tok, bytes_tok, extra;
        ls >> addr_tok >> op_tok >> bytes_tok;
        if (bytes_tok.empty())
            fatal(oracleAt(name, line_no) +
                  ": expected '<addr> <r|w> <bytes>', got '" + line + "'");
        if (ls >> extra)
            fatal(oracleAt(name, line_no) + ": trailing token '" + extra +
                  "'");
        TraceRecord rec;
        if (!oracleU64(addr_tok, rec.addr))
            fatal(oracleAt(name, line_no) + ": bad address '" + addr_tok +
                  "'");
        if (op_tok == "r")
            rec.write = false;
        else if (op_tok == "w")
            rec.write = true;
        else
            fatal(oracleAt(name, line_no) + ": bad op '" + op_tok +
                  "' (expected r or w)");
        std::uint64_t bytes = 0;
        if (!oracleU64(bytes_tok, bytes) || bytes == 0 ||
            bytes > 0xffffffffULL)
            fatal(oracleAt(name, line_no) + ": bad byte count '" +
                  bytes_tok + "'");
        rec.bytes = static_cast<std::uint32_t>(bytes);
        out.push_back(rec);
    }
    if (out.empty())
        fatal("trace '" + name + "': no records");
    return out;
}

std::size_t
fuzzCases()
{
    if (const char *env = std::getenv("MEMTHERM_FUZZ_CASES")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end && *end == '\0' && v > 0)
            return static_cast<std::size_t>(v);
    }
    return 1000;
}

/**
 * The seeded trace fuzz corpus: each case's random v1 records, their
 * formatted document, and a mutation of it. The case count defaults to
 * ~1000 and scales with MEMTHERM_FUZZ_CASES; every case derives from
 * the fixed base seed, so a failure reproduces by case index.
 */
void
forEachTraceFuzzCase(
    const std::function<void(std::size_t, const std::vector<TraceRecord> &,
                             const std::string &, const std::string &)> &f)
{
    // Tokens the trace grammar has an opinion about: header versions,
    // addresses, ops and byte counts at and past their limits, and the
    // whitespace set.
    static const std::string versions[] = {
        "v0", "v1", "v01", "v0x1", "v2", "v", "vx", "v-1", "v+1",
        "v4294967297", "v18446744073709551615", "v18446744073709551616"};
    static const std::string hostile[] = {
        "", "#memtherm-trace", "0x", "0x0", "-1", "+1", "-0x10", "0x-1",
        "18446744073709551615", "18446744073709551616",
        "0x10000000000000000", "r", "w", "R", "rw", "0", "4294967295",
        "4294967296", "1e3", "64 64", "\r", "\v", "\f", "#",
        std::string("\0", 1), std::string("6\0" "4", 3)};
    static const std::string separators[] = {"\t", "\v", "\f", "\r", "  "};
    const std::size_t cases = fuzzCases();
    Rng seed_stream(0x7ace7aceULL);
    for (std::size_t i = 0; i < cases; ++i) {
        Rng rng(seed_stream.next());
        std::vector<TraceRecord> records(1 + rng.below(12));
        for (TraceRecord &r : records) {
            r.addr = rng.uniform() < 0.2 ? ~0ULL - rng.below(4) : rng.next();
            r.bytes = static_cast<std::uint32_t>(1 + rng.below(0xffffffffULL));
            r.write = rng.uniform() < 0.5;
        }
        const std::string doc = formatTrace(records);

        // Split into lines of space-separated tokens, mutate, rejoin.
        std::vector<std::vector<std::string>> lines;
        std::istringstream in(doc);
        for (std::string line; std::getline(in, line);) {
            std::istringstream ls(line);
            auto &tokens = lines.emplace_back();
            for (std::string t; ls >> t;)
                tokens.push_back(t);
        }
        for (std::size_t edits = 1 + rng.below(3); edits > 0; --edits) {
            auto &line = lines[rng.below(lines.size())];
            const std::string &t = hostile[rng.below(std::size(hostile))];
            switch (rng.below(5)) {
              case 0: // the header's version
                lines[0].resize(2);
                lines[0][1] = versions[rng.below(std::size(versions))];
                break;
              case 1: // a token replaced
                line[rng.below(line.size())] = t;
                break;
              case 2: // a token dropped
                line.erase(line.begin() +
                           static_cast<long>(rng.below(line.size())));
                if (line.empty())
                    line.push_back(t);
                break;
              case 3: // an extra token
                line.insert(line.begin() +
                                static_cast<long>(rng.below(line.size() + 1)),
                            t);
                break;
              default: // a line dropped
                if (lines.size() > 1)
                    lines.erase(lines.begin() +
                                static_cast<long>(rng.below(lines.size())));
            }
        }
        std::string text;
        for (const auto &line : lines) {
            for (std::size_t k = 0; k < line.size(); ++k) {
                if (k)
                    text += rng.uniform() < 0.1
                                ? separators[rng.below(std::size(separators))]
                                : " ";
                text += line[k];
            }
            text += rng.uniform() < 0.1 ? "\r\n" : "\n";
        }
        if (rng.uniform() < 0.1) // a NUL byte anywhere
            text.insert(rng.below(text.size() + 1), 1, '\0');
        if (rng.uniform() < 0.2) // a torn tail
            text.resize(rng.below(text.size() + 1));
        f(i, records, doc, text);
    }
}

/**
 * The version a trace document's header names; 0 unless the header is
 * exactly `#memtherm-trace v<n>`.
 */
std::uint64_t
headerVersion(const std::string &doc)
{
    std::istringstream in(doc);
    std::string line, magic, ver, extra;
    std::getline(in, line);
    std::istringstream hs(line);
    hs >> magic >> ver;
    std::uint64_t v = 0;
    if (magic != "#memtherm-trace" || ver.size() < 2 || ver[0] != 'v' ||
        !parseU64(ver.substr(1), v) || hs >> extra)
        return 0;
    return v;
}

TEST(TraceFuzz, MutatedTracesFailOnlyFatally)
{
    forEachTraceFuzzCase([](std::size_t i,
                            const std::vector<TraceRecord> &records,
                            const std::string &doc, const std::string &text) {
        try {
            EXPECT_EQ(parseTrace(doc, "fuzz"), records) << "case " << i;
        } catch (const FatalError &e) {
            ADD_FAILURE() << "case " << i << ": " << e.what() << "\n" << doc;
        }
        try {
            (void)parseTrace(text, "fuzz");
            EXPECT_EQ(headerVersion(text),
                      static_cast<std::uint64_t>(kTraceFormatVersion))
                << "case " << i << ": accepted\n" << text;
        } catch (const FatalError &) {
        } catch (const std::exception &e) {
            ADD_FAILURE() << "case " << i
                          << ": parseTrace escaped a non-fatal error: "
                          << e.what();
        }
    });
}

/** What a parse returned: its records, or its diagnostic. */
struct Verdict
{
    std::vector<TraceRecord> records;
    std::string error;
};

template <typename Parse>
Verdict
verdictOf(Parse parse, const std::string &text)
{
    Verdict v;
    try {
        v.records = parse(text, "fuzz");
    } catch (const FatalError &e) {
        v.error = e.what();
    }
    return v;
}

TEST(TraceFuzz, ParserMatchesTheIstringstreamOracle)
{
    forEachTraceFuzzCase([](std::size_t i, const std::vector<TraceRecord> &,
                            const std::string &doc, const std::string &text) {
        for (const std::string *t : {&doc, &text}) {
            const Verdict got = verdictOf(parseTrace, *t);
            const Verdict want = verdictOf(oracleParseTrace, *t);
            EXPECT_EQ(got.records, want.records) << "case " << i << "\n"
                                                 << *t;
            EXPECT_EQ(got.error, want.error) << "case " << i << "\n" << *t;
        }
    });
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

/** The bit patterns of @p v: equal only if every double is bit-equal. */
std::vector<std::uint64_t>
bitsOf(const std::vector<double> &v)
{
    std::vector<std::uint64_t> out;
    for (double x : v)
        out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
}

/**
 * lower() decodes the trace once per distinct (channels, DIMMs, bank
 * cells): the refresh axis never enters the decode, and a 32x16 and a
 * 16x32 grid share 512 cells. Every point must still carry exactly what
 * a direct decode for that point gives, and the memo must not outlive
 * the call.
 */
TEST(TraceScenario, EveryPointMatchesItsDirectDecode)
{
    TraceGenConfig tg;
    tg.pattern = TraceGenConfig::Pattern::Random;
    tg.count = 4096;
    tg.readPct = 67.0;
    tg.seed = 23;
    const std::vector<TraceRecord> records = generateTrace(tg);
    TempTrace tmp(formatTrace(records));

    ScenarioSpec s = ScenarioSpec::fromJson(Json::parse(R"({
        "name": "memo", "workloads": ["W1"], "policies": ["No-limit"],
        "sweep": {
          "memory_org": ["ch4_4x4", "2x4", "4x8", "8x2"],
          "refresh": ["ddr2_2x", "aldram"],
          "thermal_model": ["lumped", "bank_grid",
                            {"grid_x": 32, "grid_z": 16},
                            {"grid_x": 16, "grid_z": 32}]}})"));
    s.trace = tmp.path;
    const LoweredScenario low = s.lower();
    ASSERT_EQ(low.points.size(), 4u * 2u * 4u);
    for (const auto &pt : low.points) {
        const SimConfig &cfg = pt.cfg;
        const int cells = cfg.bankGrid ? cfg.bankGrid->cells() : 0;
        const TraceProfile direct =
            decodeTrace(records, cfg.org.nChannels,
                        cfg.org.nDimmsPerChannel, cells);
        EXPECT_EQ(bitsOf(cfg.trafficShares), bitsOf(direct.dimmShares))
            << pt.label;
        if (cfg.bankGrid) {
            EXPECT_EQ(bitsOf(cfg.bankGrid->weights),
                      bitsOf(direct.bankWeights))
                << pt.label;
        }
    }

    // A new trace at the same path is read by the next lower(): every
    // record on DIMM 0 of the Table 4.1 organization.
    {
        std::ofstream f(tmp.path, std::ios::binary | std::ios::trunc);
        f << "#memtherm-trace v1\n0x0 r 64\n";
    }
    const LoweredScenario again = s.lower();
    EXPECT_EQ(again.points[0].cfg.trafficShares,
              (std::vector<double>{1.0, 0.0, 0.0, 0.0}))
        << again.points[0].label;
}

} // namespace
} // namespace memtherm
