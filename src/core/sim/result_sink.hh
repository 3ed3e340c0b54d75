/**
 * @file
 * Crash-safe streaming results: the JSONL sink behind `memtherm run
 * --stream`, and everything needed to trust it.
 *
 * A scenario grid of ~10^5 points cannot afford to materialize every
 * SimResult in memory and write one JSON blob at the end — a killed
 * 10-hour run would lose everything, and one throwing run would discard
 * the whole grid. This layer streams instead:
 *
 *  - JsonlResultWriter appends one self-describing line per completed
 *    run (grid index, axis labels, serialized SimResult, wall time) the
 *    moment it finishes. Appends are crash-atomic: the full line is
 *    written in one call and flushed, so a crash can only ever produce
 *    a partial *trailing* line, which readers detect and drop.
 *  - scanStream() reads a stream back: header validation (the spec
 *    hash must match the scenario being resumed), intact records, and
 *    the clean byte size to truncate to before appending again.
 *  - runScenarioStream() orchestrates checkpoint/resume (`--resume`
 *    skips already-completed grid indices) and deterministic sharding
 *    (`--shard i/N` partitions the global run list so N machines split
 *    one scenario file). It shares one runner with runScenario() and
 *    runScenarioBatched() (scenario.hh, defined here): lower, flatten,
 *    inject faults, execute a subset of the global runs, and map the
 *    engine's indices back — so prefix sharing composes with streams,
 *    shards and resume alike.
 *  - mergeStreams() folds shard/resume streams back into the canonical
 *    results JSON, bit-identical to what an uninterrupted unsharded
 *    `memtherm run -o` writes. It owns no document format: records
 *    decode straight from their text through the result codec
 *    (core/sim/result_codec.hh) into a ScenarioResults, which
 *    toJson(ScenarioResults) writes.
 *  - OnlineAxisAggregator keeps `memtherm report` sweep summaries in
 *    bounded memory: per-point aggregates, not a full result vector.
 *
 * A failed run becomes an error record in the stream (grid coordinate
 * + what()) instead of sinking the batch; `--resume` retries failed
 * indices (a crash is transient until proven otherwise) and skips
 * completed ones.
 *
 * Fault injection for tests: MEMTHERM_FAULT_AFTER_RUN=<k> makes the
 * writer simulate a hard crash (std::_Exit) immediately after the k-th
 * result line of this process is on disk; MEMTHERM_FAULT_FAIL_RUN=<k>
 * makes global run #k of every scenario run throw (its policy factory
 * is replaced; injected on the full lowered list, before shard/resume
 * filtering, so the index names the same run everywhere).
 */

#ifndef MEMTHERM_CORE_SIM_RESULT_SINK_HH
#define MEMTHERM_CORE_SIM_RESULT_SINK_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/sim/scenario.hh"

namespace memtherm
{

/// Bumped whenever the stream schema changes; readers reject newer (or
/// older) formats instead of misparsing them. Orthogonal to the result
/// *document* schema (kResultSchemaVersion, core/sim/scenario.hh):
/// stream headers additionally record the document schema version their
/// result payloads follow, and scanStream() accepts version-absent
/// legacy streams but rejects versions newer than this binary's.
inline constexpr int kStreamFormatVersion = 1;

/**
 * Stable fingerprint of a scenario spec (FNV-1a 64 over its compact
 * JSON serialization, prefixed with the stream format version). Stored
 * in the stream header and re-checked on --resume, so results can
 * never silently continue under an edited scenario file or a stream
 * layout the running binary does not speak.
 */
std::string scenarioSpecHash(const ScenarioSpec &spec);

/**
 * One deterministic slice of a run grid: shard @p index of @p count
 * (1-based, as typed: `--shard 2/3`). Global run k belongs to the
 * shard with k % count == index - 1 — a round-robin partition, so
 * shards stay balanced whatever the grid shape and the assignment
 * never depends on execution order.
 */
struct ShardSpec
{
    static constexpr int kMaxCount = 1000000; ///< far below INT_MAX

    int index = 1;
    int count = 1;

    bool operator==(const ShardSpec &) const = default;

    bool sharded() const { return count > 1; }
    bool owns(std::size_t global_index) const
    {
        return static_cast<int>(global_index %
                                static_cast<std::size_t>(count)) ==
               index - 1;
    }
    std::string label() const
    {
        return std::to_string(index) + "/" + std::to_string(count);
    }

    /** Parse "i/N"; FatalError unless 1 <= i <= N <= kMaxCount. */
    static ShardSpec parse(const std::string &text);
};

/** One intact data line of a stream, either a result or a failure. */
struct StreamRecord
{
    bool failed = false;
    std::size_t index = 0; ///< global run index in spec grid order
    std::string point;     ///< sweep-point label
    std::string workload;
    std::string policy;
    double wallSeconds = 0.0; ///< results only
    SimResult result;         ///< results only, and only with keep_results
    std::string error; ///< what(); failures only
};

/**
 * Append-as-you-finish JSONL writer. One header line describing the
 * grid (format version, spec hash, the full spec, total run count,
 * shard), then one line per finished run, whose result the codec's
 * text writer (writeResult) prints with no JSON tree in between.
 * Every append builds the complete line in memory (one buffer, reused
 * from line to line), writes it in a single call, and flushes —
 * so the on-disk stream always ends in (at most one) partial line and
 * every earlier line is intact. Not internally synchronized: the
 * engine already serializes sink callbacks (RunSink contract).
 */
class JsonlResultWriter
{
  public:
    /** Start a fresh stream at @p path (truncates; writes the header). */
    JsonlResultWriter(const std::string &path, const ScenarioSpec &spec,
                      std::size_t total_runs, ShardSpec shard, bool traces);

    /**
     * Resume an existing stream: truncate @p path to @p clean_size
     * (dropping a partial trailing line from a crash) and append after
     * it. The caller has already validated the header via scanStream().
     */
    JsonlResultWriter(const std::string &path, std::size_t clean_size);

    void appendResult(std::size_t index, const std::string &point,
                      const std::string &workload,
                      const std::string &policy, const SimResult &r,
                      double wall_s, bool traces);

    void appendError(std::size_t index, const std::string &point,
                     const std::string &workload, const std::string &policy,
                     const std::string &error);

  private:
    /** A record line up to its identity; the caller adds the rest. */
    JsonWriter beginRecord(const char *type, std::size_t index,
                           const std::string &point,
                           const std::string &workload,
                           const std::string &policy);
    /** Terminate `line` and write it (one call), then flush. */
    void appendLine();

    std::string path;
    std::ofstream out;
    std::string line; ///< the line being built, its buffer reused
    int faultAfter = -1;     ///< MEMTHERM_FAULT_AFTER_RUN; -1 = off
    int resultsWritten = 0;  ///< result lines appended by this process
};

/** Everything scanStream() learns from an existing stream file. */
struct StreamScan
{
    ScenarioSpec spec;       ///< the header's embedded scenario
    std::string specHash;    ///< as recorded (always re-derivable)
    std::size_t totalRuns = 0;
    ShardSpec shard;
    bool traces = false;

    std::vector<StreamRecord> records; ///< intact data lines, file order
    std::size_t cleanSize = 0; ///< bytes up to the last intact line
    bool droppedPartialTail = false; ///< a crash tail was detected
};

/**
 * Read a stream back. The header is validated (format version, member
 * types, counts range-checked before any cast); every complete data
 * line is read off its text with JsonReader (common/json.hh), its
 * result payload decoded by readResult() (core/sim/result_codec.hh) —
 * mid-file corruption is an error naming the line, it cannot come from
 * a crash of the append-and-flush writer. An unterminated trailing line
 * is the crash signature: dropped, with cleanSize marking where to
 * truncate before resuming. @p keep_results false keeps only run
 * identities — all resume needs — and skips the (large) per-run result
 * payloads undecoded, but not unchecked: JsonReader::skipValue refuses
 * exactly what Json::parse would (a repeated member, a malformed
 * number, a raw control character, ...), so such a line still fails.
 */
StreamScan scanStream(const std::string &path, bool keep_results = true);

/** Options for runScenarioStream(). */
struct StreamRunOptions
{
    std::string path;     ///< the JSONL stream file
    bool resume = false;  ///< continue an existing stream
    ShardSpec shard;      ///< this invocation's slice of the grid
    bool traces = false;  ///< embed full traces in result lines
};

/** What one runScenarioStream() invocation did. */
struct StreamRunStats
{
    std::size_t totalRuns = 0; ///< full grid size
    std::size_t shardRuns = 0; ///< runs this shard owns
    std::size_t skipped = 0;   ///< already complete in the stream
    std::size_t executed = 0;  ///< runs executed by this invocation
    std::size_t failed = 0;    ///< of those, how many failed
    std::vector<RunError> failures; ///< this invocation's failures
    BatchStats batch; ///< prefix-sharing counters of the executed runs
};

/**
 * Execute a scenario with streaming results: lower the grid, filter to
 * this shard (and, on resume, to indices the stream has not completed),
 * and append each result to the stream as it finishes. Class-mates that
 * survive the filter still share their prefix, at runScenario()'s chunk
 * width, and records stay one per run; a crash loses at most the chunks
 * in flight, which a resume reruns. On
 * resume the header's spec hash, total run count, shard, and traces
 * flag must all match — FatalError otherwise; failed indices are
 * retried. A resume
 * of a missing or empty stream file starts fresh (so unattended
 * restart loops can always pass --resume).
 */
StreamRunStats runScenarioStream(const ScenarioSpec &spec,
                                 ExperimentEngine &engine,
                                 const StreamRunOptions &opts);

/** mergeStreams() output: the canonical view of one or more streams. */
struct MergedStream
{
    ScenarioSpec spec;
    std::size_t totalRuns = 0;
    Json results; ///< canonical results JSON (`run -o` shape)
    std::vector<RunError> errors;         ///< failure records, by index
    std::vector<std::size_t> missingRuns; ///< indices with no record
};

/**
 * Fold one or more streams (shards of one grid, or one resumed stream)
 * into the canonical results document. Every stream's header must
 * fingerprint the same scenario (same spec hash, total, traces flag),
 * and the embedded spec must pass the scenario checks and span that
 * total (ScenarioSpec::pointLabels, which reads no trace) before
 * anything is sized by it. Records are slotted by global index into spec grid order
 * and written by toJson(ScenarioResults), so the output is
 * bit-identical to an uninterrupted unsharded `memtherm run -o` —
 * whatever order, interruption, or sharding produced the lines.
 * A result record wins over an error record for the same index (a
 * retry succeeded); duplicate results keep the first (they are
 * bit-identical by the engine's determinism guarantee).
 */
MergedStream mergeStreams(const std::vector<std::string> &paths);

/**
 * Bounded-memory per-axis aggregation for sweep summaries: one
 * accumulator per sweep point (count, incomplete count, thermal
 * maxima, mean baseline-normalized running time), fed one run at a
 * time in any order. Memory is O(points), never O(runs): the full
 * result vector no longer has to exist to summarize a large grid.
 *
 * Normalization matches `memtherm report`: a run's time divides by its
 * (point, workload) group's baseline running time, counted only when
 * the baseline run completed with a positive time. Runs that arrive
 * before their baseline are held per group (bounded by the policy
 * count) and flushed when it shows up.
 */
class OnlineAxisAggregator
{
  public:
    /** @param baseline_policy the normalization baseline's name */
    explicit OnlineAxisAggregator(std::string baseline_policy);

    void add(const std::string &point, const std::string &workload,
             const std::string &policy, bool completed, double time_s,
             double max_amb, double max_dram);

    struct PointSummary
    {
        std::string label;
        std::size_t runs = 0;
        std::size_t incomplete = 0;
        double maxAmb = std::numeric_limits<double>::lowest();
        double maxDram = std::numeric_limits<double>::lowest();
        double normSum = 0.0;  ///< sum of time / baseline-time
        std::size_t normN = 0; ///< runs with a usable baseline
    };

    /** Per-point summaries, in first-appearance order. */
    std::vector<PointSummary> summaries() const;

  private:
    struct Group ///< one (point, workload) normalization group
    {
        bool baseSeen = false;
        bool baseUsable = false;
        double baseTime = 0.0;
        std::vector<double> pending; ///< times awaiting the baseline
    };

    std::string baseline;
    std::vector<PointSummary> points;           // first-appearance order
    std::map<std::string, std::size_t> pointIx; // label -> points index
    std::map<std::string, Group> groups;        // "label\0workload"
};

} // namespace memtherm

#endif // MEMTHERM_CORE_SIM_RESULT_SINK_HH
