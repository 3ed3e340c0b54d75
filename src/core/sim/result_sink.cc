#include "core/sim/result_sink.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <optional>
#include <string_view>
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

/**
 * A MEMTHERM_FAULT_* variable: the whole string a decimal in
 * [0, INT_MAX] (parseCount's grammar, admitting 0); -1 when unset, and
 * warn-and-ignore when malformed.
 */
int
envFaultIndex(const char *name)
{
    const char *env = std::getenv(name);
    if (!env)
        return -1;
    const std::string_view text = env;
    if (text == "0")
        return 0;
    if (const std::optional<int> k = parseCount(text))
        return *k;
    warn(std::string(name) + "='" + env +
         "' is not an integer >= 0; ignoring");
    return -1;
}

/** The grid a stream header describes, as merge and resume match it. */
std::string
gridLabel(const std::string &hash, std::size_t total, bool traces)
{
    return "spec hash " + hash + ", " + std::to_string(total) +
           " runs, traces " + (traces ? "on" : "off");
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
    GridIndex(std::vector<std::string> points,
              std::vector<std::string> workloads,
              std::vector<std::string> policies)
        : pointLabels(std::move(points)), workloads(std::move(workloads)),
          policies(std::move(policies)),
          perPoint(this->workloads.size() * this->policies.size())
    {
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

    /** A results document of the grid's points, with no runs yet. */
    ScenarioResults
    document(const std::string &scenario) const
    {
        ScenarioResults out;
        out.scenario = scenario;
        for (const std::string &label : pointLabels)
            out.points.push_back({label, {}});
        return out;
    }

    /** Slot run @p k's result into @p doc (from document()). */
    void
    place(ScenarioResults &doc, std::size_t k, SimResult &&r) const
    {
        doc.points[pointIndex(k)].suite[workload(k)][policy(k)] =
            std::move(r);
    }

    std::vector<std::string> pointLabels;
    std::vector<std::string> workloads;
    std::vector<std::string> policies;
    std::size_t perPoint = 1;
};

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
    // parseCount's grammar: no '+', blanks or zero; '/' is required.
    const std::size_t slash = text.find('/');
    const std::string_view t = text;
    const std::optional<int> i = parseCount(t.substr(0, slash));
    const std::optional<int> n = slash == std::string::npos
                                     ? std::nullopt
                                     : parseCount(t.substr(slash + 1));
    if (!i || !n || *i > *n || *n > kMaxCount)
        fatal("shard: expected 'i/N' with 1 <= i <= N <= " +
              std::to_string(kMaxCount) + " (got '" + text + "')");
    return {*i, *n};
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
    line = h.dump(0);
    appendLine();
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
JsonlResultWriter::appendLine()
{
    line += '\n';
    // One write call for the whole line, then a flush: a crash between
    // appends leaves only intact lines, a crash mid-append leaves one
    // partial *trailing* line that scanStream() detects and drops.
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    out.flush();
    if (!out)
        fatal("stream: write to '" + path + "' failed (disk full?)");
}

JsonWriter
JsonlResultWriter::beginRecord(const char *type, std::size_t index,
                               const std::string &point,
                               const std::string &workload,
                               const std::string &policy)
{
    line.clear(); // its capacity carries over to the next record
    JsonWriter w(line);
    w.beginObject();
    w.key("type");
    w.string(type);
    w.key("index");
    w.number(static_cast<double>(index));
    w.key("point");
    w.string(point);
    w.key("workload");
    w.string(workload);
    w.key("policy");
    w.string(policy);
    return w;
}

void
JsonlResultWriter::appendResult(std::size_t index, const std::string &point,
                                const std::string &workload,
                                const std::string &policy, const SimResult &r,
                                double wall_s, bool traces)
{
    JsonWriter w = beginRecord("result", index, point, workload, policy);
    w.key("wall_s");
    w.number(wall_s);
    w.key("result");
    writeResult(w, r, traces);
    w.endObject();
    appendLine();

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
    JsonWriter w = beginRecord("error", index, point, workload, policy);
    w.key("error");
    w.string(error);
    w.endObject();
    appendLine();
}

namespace
{

/**
 * One data line of a stream, read member by member off its text: the
 * identity and (a result's) wall time are decoded, the result payload
 * is decoded only when @p keep_results, and otherwise skipped — still
 * checked as strictly as Json::parse would check it. Members may come
 * in any order; one needed before the member that says how to read it
 * (a `result` ahead of its `type`) is skipped and read at the end. A
 * member of another name is refused.
 */
StreamRecord
readRecord(std::string_view line, const StreamScan &scan, bool keep_results)
{
    JsonReader in(line);
    StreamRecord rec;
    std::optional<std::string> type;
    std::optional<std::size_t> index, point, workload, policy, error, wall,
        result; // offsets of the members' values
    bool decoded = false;
    in.beginObject();
    std::string key;
    while (in.nextMember(key)) {
        if (key == "type") {
            type = in.readString();
            continue;
        }
        if (key == "result" && keep_results && type == "result") {
            result = in.offset();
            rec.result = readResult(in, "result", scan.traces);
            decoded = true;
            continue;
        }
        std::optional<std::size_t> *slot =
            key == "index"      ? &index
            : key == "point"    ? &point
            : key == "workload" ? &workload
            : key == "policy"   ? &policy
            : key == "error"    ? &error
            : key == "wall_s"   ? &wall
            : key == "result"   ? &result
                                : nullptr;
        // Refused, not dropped, as in a document: dropping would make
        // merge lossy.
        if (!slot)
            fatal("scenario: unknown member '" + key +
                  "' in a stream record (valid: type, index, point, "
                  "workload, policy, wall_s, result, error)");
        *slot = in.offset();
        in.skipValue();
    }
    in.finish();

    // The members a record of its type needs, in a fixed order.
    auto at = [&](const std::optional<std::size_t> &m,
                  const char *name) -> JsonReader & {
        if (!m)
            fatal(std::string("json: missing member '") + name + "'");
        in.seek(*m);
        return in;
    };
    if (!type)
        fatal("json: missing member 'type'");
    rec.failed = *type == "error";
    if (!rec.failed && *type != "result")
        fatal("unknown record type '" + *type + "'");
    rec.index = readRunIndex(at(index, "index"));
    if (rec.index >= scan.totalRuns) {
        fatal("run index " + std::to_string(rec.index) +
              " is out of range (grid has " +
              std::to_string(scan.totalRuns) + " runs)");
    }
    rec.point = at(point, "point").readString();
    rec.workload = at(workload, "workload").readString();
    rec.policy = at(policy, "policy").readString();
    if (rec.failed) {
        rec.error = at(error, "error").readString();
    } else {
        rec.wallSeconds = at(wall, "wall_s").readNumber();
        (void)at(result, "result");
        if (keep_results && !decoded)
            rec.result = readResult(in, "result", scan.traces);
    }
    return rec;
}

} // namespace

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
        // Any error names its line: mid-file damage cannot come from a
        // crash of this writer, so refuse to guess what the stream meant.
        try {
            if (lineno == 1) {
                const Json j = Json::parse(line);
                if (j.at("type").asString() != "header")
                    fatal("first line must be the stream header");
                const std::uint64_t format = j.uintAt("format");
                if (format != kStreamFormatVersion) {
                    fatal("member 'format' is " + std::to_string(format) +
                          " but this binary reads stream format " +
                          std::to_string(kStreamFormatVersion));
                }
                // Result-document schema: absent reads as v1, newer
                // than this binary is refused.
                (void)resultSchemaVersionOf(j, "header");
                scan.specHash = j.at("spec_hash").asString();
                scan.totalRuns = j.uintAt("total_runs");
                scan.traces = j.at("traces").asBool();
                // A shard must pass the rule --shard applies.
                if (const Json *sh = j.find("shard"))
                    scan.shard = ShardSpec::parse(
                        std::to_string(sh->uintAt("index")) + "/" +
                        std::to_string(sh->uintAt("count")));
                scan.spec = ScenarioSpec::fromJson(j.at("spec"));
            } else {
                scan.records.push_back(readRecord(line, scan, keep_results));
            }
        } catch (const FatalError &e) {
            fatal("stream '" + path + "' line " + std::to_string(lineno), e);
        }
        scan.cleanSize += line.size() + 1;
    }
    if (in.bad()) // a read failed: the path is a directory, say
        fatal("stream: cannot open '" + path + "'");
    if (lineno == 0)
        fatal("stream '" + path + "' is empty");
    return scan;
}

namespace
{

/**
 * MEMTHERM_FAULT_FAIL_RUN=<k>: replace global run k's policy factory
 * with one that throws. No-op when unset; a malformed value
 * (envFaultIndex) or an index past the grid's last run warns, so a
 * failure-path test whose index went stale does not pass silently.
 */
void
applyFaultInjection(std::vector<ExperimentEngine::Run> &runs)
{
    const int k = envFaultIndex("MEMTHERM_FAULT_FAIL_RUN");
    if (k < 0)
        return;
    if (static_cast<std::size_t>(k) >= runs.size()) {
        warn("MEMTHERM_FAULT_FAIL_RUN=" + std::to_string(k) +
             " is past the grid's last run (" + std::to_string(runs.size()) +
             " runs); no failure injected");
        return;
    }
    runs[static_cast<std::size_t>(k)].factory =
        [k](const SimConfig &,
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
 * engine's chunk width (1 = unbatched, < 1 = one chunk per class);
 * without one, the width follows from what runs: whole classes when the
 * subset holds at least as many classes as the engine has threads,
 * otherwise ceil(runs / threads) lanes, so no thread idles.
 */
void
runGrid(const ScenarioSpec &spec, ExperimentEngine &engine,
        std::optional<int> width, GridSink &sink, BatchStats *stats)
{
    LoweredScenario low = spec.lower();
    std::vector<ExperimentEngine::Run> all;
    all.reserve(low.totalRuns());
    for (auto &pt : low.points)
        for (auto &r : pt.runs)
            all.push_back(std::move(r));
    applyFaultInjection(all);

    std::vector<std::string> labels;
    for (const auto &pt : low.points)
        labels.push_back(pt.label);
    sink.grid.emplace(std::move(labels), low.workloads, low.policies);
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

    if (!width) {
        const std::size_t threads =
            static_cast<std::size_t>(engine.threads());
        width = classes.size() >= threads
                    ? 0
                    : static_cast<int>((todo.size() + threads - 1) / threads);
    }
    engine.runBatched(todo, classes, *width, sink, stats);

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
        doc = grid->document("");
        std::vector<std::size_t> every(grid->size());
        std::iota(every.begin(), every.end(), std::size_t{0});
        return every;
    }

    ScenarioResults doc;

  protected:
    void result(std::size_t k, SimResult &&r, double) override
    {
        grid->place(doc, k, std::move(r));
    }
};

/** runScenario() and runScenarioBatched(): the grid as one document. */
ScenarioResults
runDocument(const ScenarioSpec &spec, ExperimentEngine &engine,
            std::optional<int> width, BatchStats *stats)
{
    DocumentSink sink;
    runGrid(spec, engine, width, sink, stats);
    sink.doc.scenario = spec.name;
    sink.doc.errors = std::move(sink.failures);
    return std::move(sink.doc);
}

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
        const std::string have =
            gridLabel(scan.specHash, scan.totalRuns, scan.traces) +
            ", shard " + scan.shard.label();
        const std::string want =
            gridLabel(scenarioSpecHash(spec), total, opts.traces) +
            ", shard " + opts.shard.label();
        if (have != want) {
            fatal("stream '" + opts.path + "' holds " + have +
                  " but this run is " + want +
                  "; refusing to mix results of different grids");
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

std::string
failureSummary(const std::vector<RunError> &errors)
{
    std::string out = std::to_string(errors.size()) + " run(s) failed:";
    for (const RunError &e : errors)
        out += "\n  run #" + std::to_string(e.index) + " [point '" +
               e.point + "', workload '" + e.workload + "', policy '" +
               e.policy + "']: " + e.error;
    return out;
}

ScenarioResults
runScenarioBatched(const ScenarioSpec &spec, ExperimentEngine &engine,
                   int batch_width, BatchStats *stats)
{
    return runDocument(spec, engine, batch_width, stats);
}

ScenarioResults
runScenario(const ScenarioSpec &spec, ExperimentEngine &engine,
            BatchStats *stats)
{
    return runDocument(spec, engine, std::nullopt, stats);
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
    runGrid(spec, engine, std::nullopt, sink, &stats.batch);
    stats.failed = sink.failures.size();
    stats.failures = std::move(sink.failures);
    return stats;
}

MergedResults
mergeStreamResults(const std::vector<std::string> &paths)
{
    if (paths.empty())
        fatal("merge: no stream files given");

    MergedResults out;
    std::vector<StreamScan> scans;
    scans.reserve(paths.size());
    std::optional<GridIndex> grid;
    std::string want; // the first stream's grid
    for (const auto &path : paths) {
        StreamScan scan = scanStream(path, /*keep_results=*/true);
        const std::string have =
            gridLabel(scan.specHash, scan.totalRuns, scan.traces);
        if (scans.empty()) {
            want = have;
            out.spec = scan.spec;
            out.totalRuns = scan.totalRuns;
            // The header's count sizes nothing until the embedded spec,
            // checked and re-gridded (its trace is not read: the
            // results are in), vouches for it.
            grid.emplace(out.spec.pointLabels(), out.spec.workloads,
                         out.spec.policies);
            if (grid->size() != out.totalRuns) {
                fatal("merge: '" + path + "': embedded spec lowers to " +
                      std::to_string(grid->size()) + " runs but member "
                      "'total_runs' says " + std::to_string(out.totalRuns) +
                      " (stream written by an incompatible version?)");
            }
        } else if (have != want) {
            fatal("merge: '" + path + "' holds " + have + " but '" +
                  paths.front() + "' holds " + want);
        }
        scans.push_back(std::move(scan));
    }

    // Global index -> best record seen so far. A result always beats an
    // error (a retry succeeded after a recorded failure); duplicate
    // results keep the first — the engine's determinism makes them
    // bit-identical, so there is nothing to choose between.
    std::vector<StreamRecord *> best(out.totalRuns, nullptr);
    for (auto &scan : scans) {
        for (auto &rec : scan.records) {
            const StreamRecord *cur = best[rec.index];
            if (!cur || (cur->failed && !rec.failed))
                best[rec.index] = &rec;
        }
    }

    out.traces = scans.front().traces;
    out.results = grid->document(out.spec.name);
    for (std::size_t k = 0; k < out.totalRuns; ++k) {
        StreamRecord *rec = best[k];
        if (!rec)
            out.missingRuns.push_back(k);
        else if (rec->failed)
            out.results.errors.push_back(
                {k, rec->point, rec->workload, rec->policy, rec->error});
        else
            grid->place(out.results, k, std::move(rec->result));
    }
    return out;
}

MergedStream
mergeStreams(const std::vector<std::string> &paths)
{
    MergedResults m = mergeStreamResults(paths);
    Json results = toJson(m.results, m.traces);
    return {std::move(m.spec), m.totalRuns, std::move(results),
            std::move(m.results.errors), std::move(m.missingRuns)};
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
