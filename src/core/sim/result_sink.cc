#include "core/sim/result_sink.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <optional>
#include <utility>

#include "common/logging.hh"

namespace memtherm
{

namespace
{

/** FNV-1a 64-bit, the classic offset basis / prime constants. */
std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

/** Positive-integer env knob; -1 when unset, warn-and-ignore when bad. */
int
envFaultIndex(const char *name)
{
    const char *env = std::getenv(name);
    if (!env)
        return -1;
    char *end = nullptr;
    unsigned long k = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0' || k > 1000000000UL) {
        warn(std::string(name) + "='" + env +
             "' is not a run count; ignoring");
        return -1;
    }
    return static_cast<int>(k);
}

std::string
whatOf(std::exception_ptr err)
{
    try {
        std::rethrow_exception(err);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown error";
    }
}

/**
 * The lowered grid's index geometry: global run k lives at point
 * k / (W*P), workload (k % (W*P)) / P, policy k % P — the lowering
 * order, so document, stream and merge indices mean the same run.
 */
struct GridIndex
{
    explicit GridIndex(const LoweredScenario &low)
        : workloads(low.workloads), policies(low.policies)
    {
        for (const auto &pt : low.points)
            pointLabels.push_back(pt.label);
        perPoint = workloads.size() * policies.size();
    }

    std::size_t size() const { return pointLabels.size() * perPoint; }
    std::size_t pointIndex(std::size_t k) const { return k / perPoint; }
    const std::string &point(std::size_t k) const
    {
        return pointLabels[pointIndex(k)];
    }
    const std::string &workload(std::size_t k) const
    {
        return workloads[(k % perPoint) / policies.size()];
    }
    const std::string &policy(std::size_t k) const
    {
        return policies[k % policies.size()];
    }

    std::vector<std::string> pointLabels;
    std::vector<std::string> workloads;
    std::vector<std::string> policies;
    std::size_t perPoint = 1;
};

std::string
streamMemberString(const Json &j, const char *key, const std::string &where)
{
    const Json *v = j.find(key);
    if (!v || !v->isString())
        fatal(where + (": missing or non-string member '" + std::string(key) +
                       "'"));
    return v->asString();
}

double
streamMemberNumber(const Json &j, const char *key, const std::string &where)
{
    const Json *v = j.find(key);
    if (!v || !v->isNumber())
        fatal(where + (": missing or non-number member '" + std::string(key) +
                       "'"));
    return v->asNumber();
}

std::size_t
streamMemberIndex(const Json &j, const char *key, const std::string &where)
{
    double v = streamMemberNumber(j, key, where);
    if (v < 0 || v != static_cast<double>(static_cast<std::size_t>(v)))
        fatal(where + (": member '" + std::string(key) +
                       "' must be a non-negative integer"));
    return static_cast<std::size_t>(v);
}

} // namespace

std::string
scenarioSpecHash(const ScenarioSpec &spec)
{
    // The format version is folded in so a stream can never look
    // resumable across a schema change.
    return hex64(fnv1a64(std::to_string(kStreamFormatVersion) + ":" +
                         spec.toJson().dump(0)));
}

ShardSpec
ShardSpec::parse(const std::string &text)
{
    const auto bad = [&] {
        fatal("shard: expected 'i/N' with 1 <= i <= N (got '" + text + "')");
    };
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size()) {
        bad();
    }
    const std::string a = text.substr(0, slash);
    const std::string b = text.substr(slash + 1);
    for (const std::string &part : {a, b})
        for (char c : part)
            if (c < '0' || c > '9')
                bad();
    // Bounded well below INT_MAX; nobody shards one grid 10^6 ways.
    if (a.size() > 6 || b.size() > 6)
        bad();
    ShardSpec s;
    s.index = std::atoi(a.c_str());
    s.count = std::atoi(b.c_str());
    if (s.index < 1 || s.count < 1 || s.index > s.count)
        bad();
    return s;
}

JsonlResultWriter::JsonlResultWriter(const std::string &path,
                                     const ScenarioSpec &spec,
                                     std::size_t total_runs, ShardSpec shard,
                                     bool traces)
    : path(path), faultAfter(envFaultIndex("MEMTHERM_FAULT_AFTER_RUN"))
{
    out.open(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("stream: cannot open '" + path + "' for writing");

    Json h = Json::object();
    h.set("type", "header");
    h.set("format", kStreamFormatVersion);
    h.set("schema_version", kResultSchemaVersion);
    h.set("scenario", spec.name);
    h.set("spec_hash", scenarioSpecHash(spec));
    h.set("total_runs", static_cast<std::uint64_t>(total_runs));
    if (shard.sharded()) {
        Json sh = Json::object();
        sh.set("index", shard.index);
        sh.set("count", shard.count);
        h.set("shard", std::move(sh));
    }
    h.set("traces", Json(traces));
    h.set("spec", spec.toJson());
    appendLine(h);
}

JsonlResultWriter::JsonlResultWriter(const std::string &path,
                                     std::size_t clean_size)
    : path(path), faultAfter(envFaultIndex("MEMTHERM_FAULT_AFTER_RUN"))
{
    // Drop the crash tail (if any) before appending: everything past the
    // last intact line is garbage by the writer's append-and-flush
    // invariant.
    std::error_code ec;
    std::filesystem::resize_file(path, clean_size, ec);
    if (ec) {
        fatal("stream: cannot truncate '" + path + "' to " +
              std::to_string(clean_size) + " bytes: " + ec.message());
    }
    out.open(path, std::ios::binary | std::ios::app);
    if (!out)
        fatal("stream: cannot open '" + path + "' for appending");
}

void
JsonlResultWriter::appendLine(const Json &record)
{
    std::string line = record.dump(0);
    line += '\n';
    // One write call for the whole line, then a flush: a crash between
    // appends leaves only intact lines, a crash mid-append leaves one
    // partial *trailing* line that scanStream() detects and drops.
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    out.flush();
    if (!out)
        fatal("stream: write to '" + path + "' failed (disk full?)");
}

void
JsonlResultWriter::appendResult(std::size_t index, const std::string &point,
                                const std::string &workload,
                                const std::string &policy, const SimResult &r,
                                double wall_s, bool traces)
{
    Json j = Json::object();
    j.set("type", "result");
    j.set("index", static_cast<std::uint64_t>(index));
    j.set("point", point);
    j.set("workload", workload);
    j.set("policy", policy);
    j.set("wall_s", wall_s);
    j.set("result", toJson(r, traces));
    appendLine(j);

    // Fault injection: simulate a hard crash (no unwinding, no flush of
    // anything else) once this process has persisted `faultAfter`
    // results. The line above is already on disk — exactly the state a
    // real mid-grid kill leaves behind.
    if (faultAfter >= 0 && ++resultsWritten >= faultAfter)
        std::_Exit(86);
}

void
JsonlResultWriter::appendError(std::size_t index, const std::string &point,
                               const std::string &workload,
                               const std::string &policy,
                               const std::string &error)
{
    Json j = Json::object();
    j.set("type", "error");
    j.set("index", static_cast<std::uint64_t>(index));
    j.set("point", point);
    j.set("workload", workload);
    j.set("policy", policy);
    j.set("error", error);
    appendLine(j);
}

StreamScan
scanStream(const std::string &path, bool keep_results)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("stream: cannot open '" + path + "'");

    StreamScan scan;
    std::size_t lineno = 0;
    std::string line;
    while (std::getline(in, line)) {
        ++lineno;
        // getline() hitting EOF before a '\n' is the crash signature:
        // the writer always terminates lines, so an unterminated tail
        // is a torn append. Drop it; cleanSize already marks the cut.
        if (in.eof()) {
            scan.droppedPartialTail = true;
            warn("stream '" + path + "': dropping partial trailing line " +
                 std::to_string(lineno) + " (crash tail)");
            break;
        }

        const std::string where =
            "stream '" + path + "' line " + std::to_string(lineno);
        Json j;
        try {
            j = Json::parse(line);
        } catch (const FatalError &e) {
            // Mid-file damage cannot come from a crash of this writer;
            // refuse to guess what the stream meant.
            fatal(where + ": corrupt record: " + e.what());
        }
        if (!j.isObject())
            fatal(where + ": record is not a JSON object");
        const std::string type = streamMemberString(j, "type", where);

        if (lineno == 1) {
            if (type != "header")
                fatal(where + ": first line must be the stream header");
            const int format = static_cast<int>(
                streamMemberNumber(j, "format", where));
            if (format != kStreamFormatVersion) {
                fatal(where + ": format " + std::to_string(format) +
                      " does not match this binary's format " +
                      std::to_string(kStreamFormatVersion));
            }
            // Result-document schema: absent means v1 (legacy stream,
            // readable as-is); newer than this binary is refused.
            (void)resultSchemaVersionOf(j, where);
            scan.specHash = streamMemberString(j, "spec_hash", where);
            scan.totalRuns = streamMemberIndex(j, "total_runs", where);
            const Json *tr = j.find("traces");
            if (!tr || !tr->isBool())
                fatal(where + ": missing or non-bool member 'traces'");
            scan.traces = tr->asBool();
            if (const Json *sh = j.find("shard")) {
                scan.shard.index = static_cast<int>(
                    streamMemberIndex(*sh, "index", where + " shard"));
                scan.shard.count = static_cast<int>(
                    streamMemberIndex(*sh, "count", where + " shard"));
            }
            const Json *spec = j.find("spec");
            if (!spec || !spec->isObject())
                fatal(where + ": missing or non-object member 'spec'");
            scan.spec = ScenarioSpec::fromJson(*spec);
            scan.cleanSize += line.size() + 1;
            continue;
        }

        StreamRecord rec;
        if (type == "result") {
            rec.failed = false;
        } else if (type == "error") {
            rec.failed = true;
        } else {
            fatal(where + ": unknown record type '" + type + "'");
        }
        rec.index = streamMemberIndex(j, "index", where);
        if (rec.index >= scan.totalRuns) {
            fatal(where + ": run index " + std::to_string(rec.index) +
                  " is out of range (grid has " +
                  std::to_string(scan.totalRuns) + " runs)");
        }
        rec.point = streamMemberString(j, "point", where);
        rec.workload = streamMemberString(j, "workload", where);
        rec.policy = streamMemberString(j, "policy", where);
        if (rec.failed) {
            rec.error = streamMemberString(j, "error", where);
        } else {
            rec.wallSeconds = streamMemberNumber(j, "wall_s", where);
            const Json *res = j.find("result");
            if (!res || !res->isObject())
                fatal(where + ": missing or non-object member 'result'");
            if (keep_results)
                rec.result = *res;
        }
        scan.records.push_back(std::move(rec));
        scan.cleanSize += line.size() + 1;
    }
    if (lineno == 0)
        fatal("stream '" + path + "' is empty");
    return scan;
}

namespace
{

/**
 * MEMTHERM_FAULT_FAIL_RUN=<k>: replace global run k's policy factory
 * with one that throws. No-op when unset, out of range or malformed.
 */
void
applyFaultInjection(std::vector<ExperimentEngine::Run> &runs)
{
    const char *env = std::getenv("MEMTHERM_FAULT_FAIL_RUN");
    if (!env)
        return;
    char *end = nullptr;
    unsigned long k = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0') {
        warn("MEMTHERM_FAULT_FAIL_RUN='" + std::string(env) +
             "' is not a run index; ignoring");
        return;
    }
    if (k >= runs.size())
        return;
    runs[k].factory = [k](const SimConfig &,
                          const std::string &) -> std::unique_ptr<DtmPolicy> {
        fatal("injected failure (MEMTHERM_FAULT_FAIL_RUN=" +
              std::to_string(k) + ")");
    };
}

/**
 * What the one scenario runner (runGrid) feeds: the document collector
 * behind runScenario() or the JSONL writer behind runScenarioStream().
 * This base maps the engine's indices back to global grid indices and
 * records each failure as a RunError, once for both outputs; engine
 * calls are serialized (RunSink contract).
 */
class GridSink : public RunSink
{
  public:
    /** The lowered grid's geometry; set by runGrid() before select(). */
    std::optional<GridIndex> grid;
    std::vector<std::size_t> global; ///< engine index -> global index
    std::vector<RunError> failures;  ///< sorted by index after runGrid()

    /** Nothing has run yet: the global indices to execute, ascending. */
    virtual std::vector<std::size_t> select() = 0;

    void onResult(std::size_t i, SimResult &&r, double wall_s) final
    {
        result(global[i], std::move(r), wall_s);
    }

    void onFailure(std::size_t i, std::exception_ptr err) final
    {
        const std::size_t k = global[i];
        RunError e{k, grid->point(k), grid->workload(k), grid->policy(k),
                   whatOf(err)};
        failed(e);
        failures.push_back(std::move(e));
    }

  protected:
    virtual void result(std::size_t k, SimResult &&r, double wall_s) = 0;
    virtual void failed(const RunError &) {}
};

/**
 * The one scenario runner behind runScenario(), runScenarioBatched()
 * and runScenarioStream(): lower the spec, flatten its points into the
 * global run list, inject MEMTHERM_FAULT_FAIL_RUN on the *full* list
 * (so an injected index names the same run under every shard/resume
 * shape), execute the subset @p sink selects, and map each engine
 * index back to its global index.
 *
 * Classes are recomputed over the subset: consecutive survivors of one
 * lowered class form one class, so a shard or a resumed remainder still
 * shares prefixes among the class-mates it holds. @p width is the
 * engine's chunk width (1 = unbatched, < 1 = one chunk per class).
 */
void
runGrid(const ScenarioSpec &spec, ExperimentEngine &engine, int width,
        GridSink &sink, BatchStats *stats)
{
    LoweredScenario low = spec.lower();
    std::vector<ExperimentEngine::Run> all;
    all.reserve(low.totalRuns());
    for (auto &pt : low.points)
        for (auto &r : pt.runs)
            all.push_back(std::move(r));
    applyFaultInjection(all);

    sink.grid.emplace(low);
    panicIfNot(all.size() == sink.grid->size(),
               "runGrid: lowered runs do not match the grid geometry");
    sink.global = sink.select();

    std::vector<ExperimentEngine::Run> todo;
    std::vector<ExperimentEngine::RunClass> classes;
    todo.reserve(sink.global.size());
    std::size_t c = 0;                     // lowered class of run k
    std::size_t open = low.classes.size(); // ... of classes.back()
    for (std::size_t j = 0; j < sink.global.size(); ++j) {
        const std::size_t k = sink.global[j];
        panicIfNot(k < all.size() && (j == 0 || k > sink.global[j - 1]),
                   "runGrid: selection must be ascending global indices");
        while (k >= low.classes[c].first + low.classes[c].count)
            ++c;
        if (c == open) {
            ++classes.back().count;
        } else {
            classes.push_back({j, 1});
            open = c;
        }
        todo.push_back(std::move(all[k]));
    }

    engine.runBatched(todo, classes, width, sink, stats);

    // Completion order is nondeterministic; sort for stable output.
    std::sort(sink.failures.begin(), sink.failures.end(),
              [](const RunError &a, const RunError &b) {
                  return a.index < b.index;
              });
}

/** runScenario()'s sink: every run, results kept by global index. */
class DocumentSink : public GridSink
{
  public:
    std::vector<std::size_t> select() override
    {
        results.resize(grid->size());
        std::vector<std::size_t> every(grid->size());
        std::iota(every.begin(), every.end(), std::size_t{0});
        return every;
    }

    std::vector<std::optional<SimResult>> results;

  protected:
    void result(std::size_t k, SimResult &&r, double) override
    {
        results[k] = std::move(r);
    }
};

/**
 * runScenarioStream()'s sink: selects this shard's runs the stream has
 * not completed (validating a resumed stream's header first), then
 * persists each result/failure the moment it arrives.
 */
class StreamWriteSink : public GridSink
{
  public:
    StreamWriteSink(const ScenarioSpec &spec, const StreamRunOptions &opts,
                    StreamRunStats &stats)
        : spec(spec), opts(opts), stats(stats)
    {
    }

    std::vector<std::size_t> select() override;

  protected:
    void result(std::size_t k, SimResult &&r, double wall_s) override
    {
        writer->appendResult(k, grid->point(k), grid->workload(k),
                             grid->policy(k), r, wall_s, opts.traces);
    }

    void failed(const RunError &e) override
    {
        writer->appendError(e.index, e.point, e.workload, e.policy, e.error);
    }

  private:
    const ScenarioSpec &spec;
    const StreamRunOptions &opts;
    StreamRunStats &stats;
    std::optional<JsonlResultWriter> writer;
};

std::vector<std::size_t>
StreamWriteSink::select()
{
    const std::size_t total = grid->size();
    stats.totalRuns = total;

    std::error_code ec;
    const bool exists = std::filesystem::exists(opts.path, ec) && !ec;
    const std::uintmax_t size =
        exists ? std::filesystem::file_size(opts.path, ec) : 0;
    const bool nonEmpty = exists && !ec && size > 0;

    // Which global indices already hold a result. Errored indices stay
    // absent — a resume retries them (most failures are environmental).
    std::vector<bool> completed(total, false);
    std::size_t cleanSize = 0;
    if (opts.resume && nonEmpty) {
        StreamScan scan = scanStream(opts.path, /*keep_results=*/false);
        const std::string want = scenarioSpecHash(spec);
        if (scan.specHash != want) {
            fatal("stream '" + opts.path +
                  "': scenario spec does not match (stream has " +
                  scan.specHash + ", scenario hashes to " + want +
                  "); refusing to mix results from different scenarios");
        }
        if (scan.totalRuns != total) {
            fatal("stream '" + opts.path + "': header says " +
                  std::to_string(scan.totalRuns) + " runs but the "
                  "scenario lowers to " + std::to_string(total));
        }
        if (!(scan.shard == opts.shard)) {
            fatal("stream '" + opts.path + "': header shard " +
                  scan.shard.label() + " does not match --shard " +
                  opts.shard.label());
        }
        if (scan.traces != opts.traces) {
            fatal("stream '" + opts.path + "': header traces flag does "
                  "not match --traces; a stream cannot mix trace and "
                  "trace-free records");
        }
        for (const auto &rec : scan.records)
            if (!rec.failed)
                completed[rec.index] = true;
        cleanSize = scan.cleanSize;
    } else if (!opts.resume && nonEmpty) {
        fatal("stream '" + opts.path + "' already exists and is not "
              "empty; pass --resume to continue it or remove it to "
              "start over");
    }

    // This shard's slice, minus what the stream already has.
    std::vector<std::size_t> global;
    for (std::size_t k = 0; k < total; ++k) {
        if (!opts.shard.owns(k))
            continue;
        ++stats.shardRuns;
        if (completed[k]) {
            ++stats.skipped;
            continue;
        }
        global.push_back(k);
    }
    stats.executed = global.size();

    if (opts.resume && nonEmpty)
        writer.emplace(opts.path, cleanSize);
    else
        writer.emplace(opts.path, spec, total, opts.shard, opts.traces);
    return global;
}

} // namespace

ScenarioResults
runScenarioBatched(const ScenarioSpec &spec, ExperimentEngine &engine,
                   int batch_width, BatchStats *stats)
{
    DocumentSink sink;
    runGrid(spec, engine, batch_width, sink, stats);

    ScenarioResults out;
    out.scenario = spec.name;
    const GridIndex &grid = *sink.grid;
    for (const std::string &label : grid.pointLabels)
        out.points.push_back({label, {}});
    for (std::size_t k = 0; k < sink.results.size(); ++k) {
        if (sink.results[k])
            out.points[grid.pointIndex(k)]
                .suite[grid.workload(k)][grid.policy(k)] =
                std::move(*sink.results[k]);
    }
    out.errors = std::move(sink.failures);
    return out;
}

ScenarioResults
runScenario(const ScenarioSpec &spec, ExperimentEngine &engine)
{
    return runScenarioBatched(spec, engine, 1);
}

ScenarioResults
runScenario(const ScenarioSpec &spec)
{
    ExperimentEngine engine;
    return runScenario(spec, engine);
}

StreamRunStats
runScenarioStream(const ScenarioSpec &spec, ExperimentEngine &engine,
                  const StreamRunOptions &opts)
{
    StreamRunStats stats;
    StreamWriteSink sink(spec, opts, stats);
    runGrid(spec, engine, opts.batchWidth, sink, &stats.batch);
    stats.failed = sink.failures.size();
    stats.failures = std::move(sink.failures);
    return stats;
}

MergedStream
mergeStreams(const std::vector<std::string> &paths)
{
    if (paths.empty())
        fatal("merge: no stream files given");

    MergedStream out;
    // Global index -> best record seen so far. A result always beats an
    // error (a retry succeeded after a recorded failure); duplicate
    // results keep the first — the engine's determinism makes them
    // bit-identical, so there is nothing to choose between.
    std::vector<const StreamRecord *> best;
    std::vector<StreamScan> scans;
    scans.reserve(paths.size());

    std::string refHash;
    for (const auto &path : paths) {
        StreamScan scan = scanStream(path, /*keep_results=*/true);
        if (scans.empty()) {
            refHash = scan.specHash;
            out.spec = scan.spec;
            out.totalRuns = scan.totalRuns;
            best.assign(scan.totalRuns, nullptr);
        } else {
            if (scan.specHash != refHash) {
                fatal("merge: '" + path + "' records a different "
                      "scenario than '" + paths.front() +
                      "' (spec hashes " + scan.specHash + " vs " +
                      refHash + ")");
            }
            if (scan.totalRuns != out.totalRuns) {
                fatal("merge: '" + path + "' says " +
                      std::to_string(scan.totalRuns) + " runs but '" +
                      paths.front() + "' says " +
                      std::to_string(out.totalRuns));
            }
        }
        scans.push_back(std::move(scan));
    }
    for (const auto &scan : scans) {
        for (const auto &rec : scan.records) {
            const StreamRecord *cur = best[rec.index];
            if (!cur || (cur->failed && !rec.failed))
                best[rec.index] = &rec;
        }
    }

    // Canonical document: re-lower the embedded spec for the grid
    // geometry, slot records by index, and emit workloads/policies in
    // sorted order — exactly how toJson(ScenarioResults) iterates its
    // std::map keys — so merged bytes equal `run -o` bytes.
    LoweredScenario low = out.spec.lower();
    if (low.totalRuns() != out.totalRuns) {
        fatal("merge: embedded spec lowers to " +
              std::to_string(low.totalRuns()) + " runs but the header "
              "says " + std::to_string(out.totalRuns) +
              " (stream written by an incompatible version?)");
    }
    GridIndex grid(low);

    Json doc = Json::object();
    doc.set("scenario", out.spec.name);
    // Mirror toJson(ScenarioResults): stamp the *minimum* schema version
    // the merged members imply (3 for per-bank peaks, 2 for the refresh
    // fields, nothing for the historical set), so refresh-free merges
    // stay byte-identical to documents written by older binaries.
    bool hasV2 = false, hasV3 = false;
    for (const StreamRecord *rec : best) {
        if (!rec || rec->failed)
            continue;
        hasV2 |= rec->result.find("refresh_bw_loss_per_dimm_gb") != nullptr;
        hasV3 |= rec->result.find("peak_bank_dram_c") != nullptr;
    }
    if (hasV3)
        doc.set("schema_version", 3);
    else if (hasV2)
        doc.set("schema_version", 2);
    Json pts = Json::array();
    for (std::size_t p = 0; p < grid.pointLabels.size(); ++p) {
        std::map<std::string, std::map<std::string, const Json *>> suite;
        for (std::size_t j = 0; j < grid.perPoint; ++j) {
            const std::size_t k = p * grid.perPoint + j;
            const StreamRecord *rec = best[k];
            if (rec && !rec->failed)
                suite[grid.workload(k)][grid.policy(k)] = &rec->result;
        }
        Json results = Json::object();
        for (const auto &[w, per_policy] : suite) {
            Json pw = Json::object();
            for (const auto &[pol, res] : per_policy)
                pw.set(pol, *res);
            results.set(w, std::move(pw));
        }
        Json pj = Json::object();
        pj.set("label", grid.pointLabels[p]);
        pj.set("results", std::move(results));
        pts.push(std::move(pj));
    }
    doc.set("points", std::move(pts));

    for (std::size_t k = 0; k < out.totalRuns; ++k) {
        const StreamRecord *rec = best[k];
        if (!rec)
            out.missingRuns.push_back(k);
        else if (rec->failed)
            out.errors.push_back(*rec);
    }
    if (!out.errors.empty()) {
        Json errs = Json::array();
        for (const auto &e : out.errors) {
            Json o = Json::object();
            o.set("index", static_cast<std::uint64_t>(e.index));
            o.set("point", e.point);
            o.set("workload", e.workload);
            o.set("policy", e.policy);
            o.set("error", e.error);
            errs.push(std::move(o));
        }
        doc.set("errors", std::move(errs));
    }
    out.results = std::move(doc);
    return out;
}

OnlineAxisAggregator::OnlineAxisAggregator(std::string baseline_policy)
    : baseline(std::move(baseline_policy))
{
}

void
OnlineAxisAggregator::add(const std::string &point,
                          const std::string &workload,
                          const std::string &policy, bool completed,
                          double time_s, double max_amb, double max_dram)
{
    auto [it, fresh] = pointIx.try_emplace(point, points.size());
    if (fresh) {
        points.emplace_back();
        points.back().label = point;
    }
    PointSummary &ps = points[it->second];
    ++ps.runs;
    if (!completed)
        ++ps.incomplete;
    ps.maxAmb = std::max(ps.maxAmb, max_amb);
    ps.maxDram = std::max(ps.maxDram, max_dram);

    // '\0' cannot appear in a label, so the key is collision-free.
    // Only the *baseline's* usability gates normalization — an
    // incomplete non-baseline run still normalizes (its time is the
    // simulation cap, a meaningful lower bound), exactly as the
    // report's per-row column has always behaved.
    Group &g = groups[point + '\0' + workload];
    if (policy == baseline) {
        g.baseSeen = true;
        g.baseUsable = completed && time_s > 0.0;
        g.baseTime = time_s;
        if (g.baseUsable) {
            ps.normSum += 1.0; // the baseline itself, at ratio 1
            ++ps.normN;
            for (double t : g.pending) {
                ps.normSum += t / g.baseTime;
                ++ps.normN;
            }
        }
        // An unusable baseline (incomplete run) makes the whole group's
        // ratios meaningless — the held times are dropped either way.
        g.pending.clear();
        return;
    }
    if (!g.baseSeen) {
        g.pending.push_back(time_s);
    } else if (g.baseUsable) {
        ps.normSum += time_s / g.baseTime;
        ++ps.normN;
    }
}

std::vector<OnlineAxisAggregator::PointSummary>
OnlineAxisAggregator::summaries() const
{
    return points;
}

} // namespace memtherm
