#include "cli/args.hh"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/json.hh"
#include "core/sim/registry.hh"

namespace memtherm
{

namespace
{

/**
 * Parse @p text by @p kind into its member of @p o. A bad value is
 * refused by @p fail(what), which words "<who>: <flag> <what>".
 */
template <typename Fail>
void
apply(const ArgKind &kind, CliArgs &o, const std::string &text, Fail fail)
{
    const auto got = [&](const std::string &what) {
        fail(what + ", got '" + text + "'");
    };
    const auto number = [&] {
        const std::optional<double> x = parseNumber(text);
        if (!x)
            got("needs a number");
        return *x;
    };
    const auto u64 = [&] {
        std::uint64_t n = 0;
        if (!parseU64(text, n))
            got("needs a non-negative integer");
        return n;
    };
    std::visit(
        [&](const auto &k) {
            using K = std::decay_t<decltype(k)>;
            if constexpr (std::is_same_v<K, arg::Switch>) {
                o.*k.to = true;
            } else if constexpr (std::is_same_v<K, arg::Text>) {
                o.*k.to = text;
            } else if constexpr (std::is_same_v<K, arg::Count>) {
                const std::optional<int> n = parseCount(text);
                if (!n)
                    got("needs a positive integer");
                if (*n > k.max)
                    got("must be <= " + std::to_string(k.max));
                o.*k.to = *n;
            } else if constexpr (std::is_same_v<K, arg::Tol>) {
                // A negative or NaN bound fails identical results; an
                // infinite one passes anything.
                const double tol = number();
                if (!(std::isfinite(tol) && tol >= 0.0))
                    got("needs a finite number >= 0");
                o.*k.to = tol;
            } else if constexpr (std::is_same_v<K, arg::Number>) {
                o.gen.*k.to = number();
            } else if constexpr (std::is_same_v<K, arg::U64>) {
                o.gen.*k.to = u64();
            } else if constexpr (std::is_same_v<K, arg::Block>) {
                const std::uint64_t b = u64();
                if (b == 0 || b > 0xffffffffULL)
                    fail("must be in [1, 2^32-1]");
                o.gen.*k.to = static_cast<std::uint32_t>(b);
            } else {
                using P = TraceGenConfig::Pattern;
                if (text != "linear" && text != "random")
                    got("must be 'linear' or 'random'");
                o.gen.*k.to = text == "linear" ? P::Linear : P::Random;
            }
        },
        kind);
}

} // namespace

const std::vector<CliCommand> &
cliCommands()
{
    using namespace arg;
    using C = CliArgs;
    using G = TraceGenConfig;
    const CliOption golden{"--golden", "<file>", Text{&C::golden},
                           "compare results against a reference\n"
                           "results JSON; nonzero exit on mismatch"};
    const CliOption tol{"--tol", "<x>", Tol{&C::tol},
                        "relative tolerance for --golden, a\n"
                        "finite number >= 0 (default 1e-9)"};
    const auto quiet = [](const char *help) {
        return CliOption{"--quiet", "", Switch{&C::quiet}, help};
    };
    static const std::vector<CliCommand> commands = {
        {"run", Command::Run, "<scenario.json> [options]", Positionals::One,
         {{"-o", "<file>", Text{&C::out}, "write results as JSON"},
          {"--stream", "<file>", Text{&C::stream},
           "append results to a JSONL stream as\n"
           "each run finishes (crash-safe)"},
          {"--resume", "", Switch{&C::resume},
           "continue an interrupted --stream file:\n"
           "completed runs are skipped, failed\n"
           "runs are retried"},
          {"--shard", "<i/N>", Text{&C::shardArg},
           "execute only shard i of N (1-based,\n"
           "deterministic round-robin over the\n"
           "grid; requires --stream; combine the\n"
           "shard streams with `memtherm merge`)"},
          {"--traces", "", Switch{&C::traces},
           "include full traces in the JSON output"},
          {"--threads", "<n>", Count{&C::threads},
           "engine thread count (default:\n"
           "MEMTHERM_THREADS or hardware)"},
          {"--copies", "<n>", Count{&C::copies, kMaxBatchCopies},
           "override the batch depth and drop any\n"
           "copies sweep (quick looks, smoke tests)"},
          golden,
          tol,
          quiet("suppress the summary table and the\n"
                "prefix-sharing line")}},
        {"merge", Command::Merge, "<stream.jsonl>... [options]",
         Positionals::Many,
         {{"-o", "<file>", Text{&C::out},
           "write the combined results as JSON\n"
           "(bit-identical to an uninterrupted\n"
           "unsharded `memtherm run -o`)"},
          {"--golden", "<file>", Text{&C::golden},
           "compare combined results against a\n"
           "reference results JSON"},
          tol,
          quiet("suppress the merge summary")}},
        {"report", Command::Report,
         "<results.json|stream.jsonl>... [options]", Positionals::Many,
         {{"--baseline", "<p>", Text{&C::baseline},
           "normalization baseline policy (default:\n"
           "No-limit when any run has it, else the\n"
           "first policy in the results)"},
          {"--csv", "<file>", Text{&C::csv},
           "also write the flat per-run rows as CSV"},
          quiet("suppress the summary tables")}},
        {"validate", Command::Validate, "<scenario.json>...",
         Positionals::Many, {}},
        {"list", Command::List, nullptr, Positionals::Keyword, {}},
        {"trace", Command::Trace, "gen -o <file> [options]",
         Positionals::Gen,
         {{"-o", "<file>", Text{&C::out}, ""},
          {"--pattern", "<p>", Pattern{&G::pattern},
           "linear (default) or random address\n"
           "stream, a la gem5 PyTrafficGen"},
          {"--count", "<n>", U64{&G::count},
           "records to generate (default 1024)"},
          {"--seed", "<n>", U64{&G::seed}, "generator seed (default 42)"},
          {"--min-addr", "<a>", U64{&G::minAddr},
           "range start, hex or decimal (default 0)"},
          {"--max-addr", "<a>", U64{&G::maxAddr},
           "range end, exclusive (default 0x1000000)"},
          {"--block", "<n>", Block{&G::blockSize},
           "bytes per access (default 64)"},
          {"--read-pct", "<p>", Number{&G::readPct},
           "percentage of reads in [0, 100]\n"
           "(default 100)"}}},
    };
    return commands;
}

CliArgs
parseArgs(const std::string &subcommand, const std::vector<std::string> &args)
{
    const auto &commands = cliCommands();
    const auto c = std::find_if(
        commands.begin(), commands.end(),
        [&](const CliCommand &c) { return subcommand == c.name; });
    if (c == commands.end())
        throw UsageError("unknown command '" + subcommand + "'");
    const Positionals pos = c->positionals;
    const bool gen = pos == Positionals::Gen;
    if (gen && (args.empty() || args[0] != "gen"))
        throw UsageError("");
    const std::string who = "memtherm " + subcommand + (gen ? " gen" : "");

    CliArgs o;
    o.command = c->command;
    for (std::size_t i = gen; i < args.size(); ++i) {
        const std::string &a = args[i];
        const auto opt =
            std::find_if(c->options.begin(), c->options.end(),
                         [&](const CliOption &opt) { return a == opt.flag; });
        if (opt != c->options.end()) {
            const bool value = !std::holds_alternative<arg::Switch>(opt->kind);
            if (value && i + 1 == args.size())
                fatal(who + ": " + a + " needs an argument");
            apply(opt->kind, o, value ? args[++i] : a,
                  [&](const std::string &what) {
                      fatal(who + ": " + a + " " + what);
                  });
        } else if (gen || (!c->options.empty() && a.starts_with('-'))) {
            fatal(who + ": unknown option '" + a + "'");
        } else if (pos != Positionals::One) {
            o.inputs.push_back(a);
        } else if (o.scenario.empty()) {
            o.scenario = a;
        } else {
            fatal(who + ": more than one scenario file given");
        }
    }
    if (pos == Positionals::One ? o.scenario.empty()
        : pos == Positionals::Many ? o.inputs.empty()
                                   : !gen && o.inputs.size() != 1)
        throw UsageError("");
    if (gen && o.out.empty())
        fatal(who + ": -o <file> is required");
    if (o.stream.empty() && (o.resume || !o.shardArg.empty()))
        fatal(who + ": --resume and --shard only make sense with --stream");
    if (!o.shardArg.empty())
        o.shard = ShardSpec::parse(o.shardArg);
    if (o.shard.sharded() && (!o.out.empty() || !o.golden.empty())) {
        fatal(who + ": -o/--golden describe the full grid but a shard "
                    "executes only part of it; combine the shard streams "
                    "with `memtherm merge` instead");
    }
    return o;
}

std::string
listKeywords(const char *sep)
{
    std::string out;
    for (const CatalogBase *c : catalogListings())
        out += (out.empty() ? "" : sep) + std::string(c->info.keyword);
    return out;
}

std::string
usage()
{
    // A flag and its metavar pad to the help column (at least one
    // space); continuation lines indent to it.
    constexpr std::size_t kColumn = 23;
    std::string out = "usage:\n";
    for (const CliCommand &c : cliCommands()) {
        out += "  memtherm " + std::string(c.name) + " " +
               (c.synopsis ? c.synopsis : listKeywords("|")) + "\n";
        for (const CliOption &opt : c.options) {
            std::string line = "      " + std::string(opt.flag) +
                               (*opt.metavar ? " " : "") + opt.metavar;
            const std::string help = opt.help;
            for (std::size_t at = 0; at < help.size();) {
                const std::size_t end =
                    std::min(help.find('\n', at), help.size());
                line.resize(std::max(line.size() + 1, kColumn), ' ');
                out += line + help.substr(at, end - at) + "\n";
                line.clear();
                at = end + 1;
            }
        }
    }
    return out;
}

} // namespace memtherm
