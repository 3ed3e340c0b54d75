/**
 * @file
 * The `memtherm` command line, declared once: a table of subcommands,
 * each with one row per flag. parseArgs, usage(), the option
 * diagnostics, the CLI's dispatch and the docs/cli.md drift check all
 * derive from it, so adding a flag is adding one row.
 */

#ifndef MEMTHERM_CLI_ARGS_HH
#define MEMTHERM_CLI_ARGS_HH

#include <climits>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/logging.hh"
#include "core/sim/result_sink.hh"
#include "dram/trace.hh"

namespace memtherm
{

enum class Command { Run, Merge, Report, Validate, List, Trace };

/** One parsed command line: what its subcommand executes. */
struct CliArgs
{
    Command command = Command::Run;
    std::string scenario;            ///< `run`'s file; "" until given
    std::vector<std::string> inputs; ///< every other positional
    std::string out, stream, golden, baseline, csv;
    std::string shardArg; ///< --shard as given; parsed into shard
    ShardSpec shard;
    double tol = 1e-9;
    int threads = 0; ///< 0: MEMTHERM_THREADS or hardware
    int copies = 0;  ///< 0: the scenario's own
    int batch = 0;   ///< 0: unbatched, and no batch summary line
    bool resume = false, traces = false, quiet = false;
    TraceGenConfig gen;
};

/** The argument kinds, each with the member it writes. */
namespace arg
{
struct Switch { bool CliArgs::*to; };       ///< no value: sets true
struct Text { std::string CliArgs::*to; };  ///< any string
struct Count { int CliArgs::*to; int max = INT_MAX; }; ///< [1, max]
struct Tol { double CliArgs::*to; };        ///< a finite number >= 0
struct Number { double TraceGenConfig::*to; };
struct U64 { std::uint64_t TraceGenConfig::*to; }; ///< decimal or 0x hex
struct Block { std::uint32_t TraceGenConfig::*to; }; ///< U64 in [1, 2^32-1]
struct Pattern { TraceGenConfig::Pattern TraceGenConfig::*to; };
} // namespace arg

using ArgKind = std::variant<arg::Switch, arg::Text, arg::Count, arg::Tol,
                             arg::Number, arg::U64, arg::Block, arg::Pattern>;

struct CliOption
{
    const char *flag;
    const char *metavar; ///< "" for a switch
    ArgKind kind;
    const char *help; ///< usage lines, '\n'-separated; "": not listed
};

/** What a subcommand's non-option arguments are. */
enum class Positionals
{
    One,     ///< one scenario file; a second is an error
    Many,    ///< one or more files
    Keyword, ///< exactly one word (`list`)
    Gen,     ///< the word `gen`, then options only (`trace`)
};

struct CliCommand
{
    const char *name;
    Command command;
    const char *synopsis; ///< after "memtherm <name> "; null: list keywords
    Positionals positionals;
    /// A subcommand without options takes every argument as positional.
    std::vector<CliOption> options;
};

/** The subcommands, in usage order. */
const std::vector<CliCommand> &cliCommands();

/** Answered by the usage text: an unknown subcommand, or no positional. */
class UsageError : public FatalError
{
  public:
    using FatalError::FatalError;
};

/**
 * Parse @p args, the words after @p subcommand, including the rules
 * between options: --resume/--shard need --stream, --shard is i/N, a
 * shard takes no -o/--golden, `trace gen` needs -o. Throws only
 * FatalError.
 */
CliArgs parseArgs(const std::string &subcommand,
                  const std::vector<std::string> &args);

/** The `memtherm list` catalog keywords joined with @p sep. */
std::string listKeywords(const char *sep);

std::string usage();

} // namespace memtherm

#endif // MEMTHERM_CLI_ARGS_HH
