/**
 * @file
 * Unit tests for the `memtherm` option tables (cli/args.hh): the usage
 * text is pinned byte for byte, and parseArgs' diagnostics, argument
 * grammars, positional rules and cross-option rules are pinned by
 * message.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.hh"

#ifndef MEMTHERM_SOURCE_DIR
#error "tests need MEMTHERM_SOURCE_DIR (set by CMakeLists.txt)"
#endif

namespace memtherm
{
namespace
{

using Args = std::vector<std::string>;

/** parseArgs' FatalError message for @p args, "" when it accepts them. */
std::string
errorOf(const std::string &cmd, const Args &args)
{
    try {
        (void)parseArgs(cmd, args);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(CliArgs, UsageMatchesThePinnedBytes)
{
    // tests/data/cli_usage.txt is `memtherm --help` as the hand-written
    // usage printed it before the tables derived it.
    std::ifstream f(std::string(MEMTHERM_SOURCE_DIR) +
                    "/tests/data/cli_usage.txt");
    ASSERT_TRUE(f.good());
    std::ostringstream pinned;
    pinned << f.rdbuf();
    EXPECT_EQ(usage(), pinned.str());
}

TEST(CliArgs, ValuesParseIntoTheirMembers)
{
    const CliArgs run = parseArgs(
        "run", {"s.json", "-o", "out.json", "--threads", "0004",
                "--copies", "1024", "--tol", "1e-6", "--traces",
                "--quiet", "--golden", "g.json"});
    EXPECT_EQ(run.command, Command::Run);
    EXPECT_EQ(run.scenario, "s.json");
    EXPECT_EQ(run.out, "out.json");
    EXPECT_EQ(run.golden, "g.json");
    EXPECT_EQ(run.threads, 4);
    EXPECT_EQ(run.copies, 1024);
    EXPECT_EQ(run.tol, 1e-6);
    EXPECT_TRUE(run.traces && run.quiet && !run.resume);

    const CliArgs sharded = parseArgs(
        "run", {"s.json", "--stream", "s.jsonl", "--shard", "2/3",
                "--resume"});
    EXPECT_EQ(sharded.shard, (ShardSpec{2, 3}));
    EXPECT_TRUE(sharded.resume);

    const CliArgs gen = parseArgs(
        "trace", {"gen", "-o", "t.trace", "--pattern", "random", "--count",
                  "0x10", "--block", "128", "--read-pct", "62.5"});
    EXPECT_EQ(gen.out, "t.trace");
    EXPECT_EQ(gen.gen.pattern, TraceGenConfig::Pattern::Random);
    EXPECT_EQ(gen.gen.count, 16u);
    EXPECT_EQ(gen.gen.blockSize, 128u);
    EXPECT_EQ(gen.gen.readPct, 62.5);

    const CliArgs report =
        parseArgs("report", {"a.jsonl", "b.jsonl", "--csv", "r.csv"});
    EXPECT_EQ(report.inputs, (Args{"a.jsonl", "b.jsonl"}));
    EXPECT_EQ(report.csv, "r.csv");
}

TEST(CliArgs, DiagnosticsNameTheCommandFlagAndValue)
{
    const struct
    {
        std::string cmd;
        Args args;
        std::string message; ///< after "fatal: "
    } cases[] = {
        {"run", {"s.json", "--bogus"},
         "memtherm run: unknown option '--bogus'"},
        {"run", {"s.json", "--tol"}, "memtherm run: --tol needs an argument"},
        {"run", {"s.json", "t.json"},
         "memtherm run: more than one scenario file given"},
        {"merge", {"a.jsonl", "-x"}, "memtherm merge: unknown option '-x'"},
        {"report", {"r.json", "--csv"},
         "memtherm report: --csv needs an argument"},
        {"trace", {"gen", "-o", "t", "stray"},
         "memtherm trace gen: unknown option 'stray'"},
        {"trace", {"gen"}, "memtherm trace gen: -o <file> is required"},
        // Counts: whole-string decimals in [1, INT_MAX], as
        // MEMTHERM_THREADS; --copies also at most the batch limit.
        {"run", {"s.json", "--threads", " 2"},
         "memtherm run: --threads needs a positive integer, got ' 2'"},
        {"run", {"s.json", "--copies", "+2"},
         "memtherm run: --copies needs a positive integer, got '+2'"},
        // One execution mode: the chunk width is not a user option.
        {"run", {"s.json", "--batch", "4"},
         "memtherm run: unknown option '--batch'"},
        {"run", {"s.json", "--threads", "0"},
         "memtherm run: --threads needs a positive integer, got '0'"},
        {"run", {"s.json", "--threads", "99999999999"},
         "memtherm run: --threads needs a positive integer, got "
         "'99999999999'"},
        {"run", {"s.json", "--copies", "1025"},
         "memtherm run: --copies must be <= 1024, got '1025'"},
        {"run", {"s.json", "--copies", "2000000000"},
         "memtherm run: --copies must be <= 1024, got '2000000000'"},
        // Numbers: whole-string from_chars, as the JSON reader.
        {"run", {"s.json", "--tol", ""},
         "memtherm run: --tol needs a number, got ''"},
        {"run", {"s.json", "--tol", " 1e-9"},
         "memtherm run: --tol needs a number, got ' 1e-9'"},
        {"merge", {"a.jsonl", "--tol", "0x1p-30"},
         "memtherm merge: --tol needs a number, got '0x1p-30'"},
        {"run", {"s.json", "--tol", "nan"},
         "memtherm run: --tol needs a finite number >= 0, got 'nan'"},
        {"run", {"s.json", "--tol", "-1"},
         "memtherm run: --tol needs a finite number >= 0, got '-1'"},
        {"trace", {"gen", "-o", "t", "--read-pct", "+5"},
         "memtherm trace gen: --read-pct needs a number, got '+5'"},
        {"trace", {"gen", "-o", "t", "--count", "-1"},
         "memtherm trace gen: --count needs a non-negative integer, got "
         "'-1'"},
        {"trace", {"gen", "-o", "t", "--block", "0"},
         "memtherm trace gen: --block must be in [1, 2^32-1]"},
        {"trace", {"gen", "-o", "t", "--pattern", "Linear"},
         "memtherm trace gen: --pattern must be 'linear' or 'random', got "
         "'Linear'"},
        // Cross-option rules.
        {"run", {"s.json", "--resume"},
         "memtherm run: --resume and --shard only make sense with --stream"},
        {"run", {"s.json", "--shard", "bad"},
         "memtherm run: --resume and --shard only make sense with --stream"},
        {"run", {"s.json", "--stream", "s", "--shard", "3/2"},
         "shard: expected 'i/N' with 1 <= i <= N <= 1000000 (got '3/2')"},
        {"run", {"s.json", "--stream", "s", "--shard", "1/2", "-o", "o"},
         "memtherm run: -o/--golden describe the full grid but a shard "
         "executes only part of it; combine the shard streams with "
         "`memtherm merge` instead"},
    };
    for (const auto &c : cases)
        EXPECT_EQ(errorOf(c.cmd, c.args), "fatal: " + c.message)
            << c.cmd << " " << ::testing::PrintToString(c.args);
}

TEST(CliArgs, PositionalRulesFallBackToUsage)
{
    const struct
    {
        std::string cmd;
        Args args;
    } cases[] = {{"run", {}},      {"run", {"--quiet"}}, {"run", {""}},
                 {"merge", {}},    {"report", {"--quiet"}},
                 {"validate", {}}, {"list", {}},       {"list", {"a", "b"}},
                 {"trace", {}},    {"trace", {"foo"}}};
    for (const auto &c : cases) {
        try {
            (void)parseArgs(c.cmd, c.args);
            ADD_FAILURE() << c.cmd << " accepted";
        } catch (const UsageError &e) {
            EXPECT_STREQ(e.what(), "") << c.cmd;
        }
    }
    try {
        (void)parseArgs("bogus", {});
        ADD_FAILURE() << "unknown command accepted";
    } catch (const UsageError &e) {
        EXPECT_STREQ(e.what(), "unknown command 'bogus'");
    }
    // Commands without options take every argument as a positional.
    EXPECT_EQ(parseArgs("validate", {"-x"}).inputs, Args{"-x"});
    EXPECT_EQ(parseArgs("list", {"--quiet"}).inputs, Args{"--quiet"});
}

} // namespace
} // namespace memtherm
