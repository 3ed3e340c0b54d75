/**
 * @file
 * Benchmark workloads and one measured pass over a workload.
 *
 * A pass drives the same public entry points `memtherm run` does:
 * ScenarioSpec::fromJson / lower, the engine's run / runBatched
 * primitives (the bodies of runScenario / runScenarioBatched /
 * runScenarioStream, with the benchmark's own RunSink so every run's
 * wall time is visible), toJson, JsonlResultWriter, scanStream,
 * mergeStreams and OnlineAxisAggregator.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "core/sim/registry.hh"
#include "core/sim/result_sink.hh"
#include "dram/trace.hh"
#include "perfbench.hh"

namespace perfbench
{

using namespace memtherm;

namespace
{

const std::vector<std::string> kMixes = {"W1", "W2", "W3", "W4"};

Json
stringList(const std::vector<std::string> &v)
{
    Json a = Json::array();
    for (const auto &s : v)
        a.push(s);
    return a;
}

Json
numberList(const std::vector<double> &v)
{
    Json a = Json::array();
    for (double x : v)
        a.push(x);
    return a;
}

Json
grid(int x, int z)
{
    Json g = Json::object();
    g.set("grid_x", x);
    g.set("grid_z", z);
    return g;
}

/** Process user+sys CPU seconds so far (every thread). */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** The engine's policy construction: the run's factory, else the registry. */
std::unique_ptr<DtmPolicy>
policyFor(const PolicyFactory &factory, const SimConfig &cfg,
          const std::string &name)
{
    if (factory)
        return factory(cfg, name);
    return PolicyRegistry::instance().make(
        name, PolicyBuildContext{cfg.dtmInterval, cfg.emergencyLevels,
                                 cfg.remapInterval, cfg.remapHysteresis,
                                 cfg.trafficShares});
}

/** Decide-call tally shared by every decorated policy of a pass. */
struct DecideTally
{
    std::mutex mtx;
    std::uint64_t calls = 0;
    double ns = 0.0;
};

/**
 * Times every decide() of the wrapped policy into a DecideTally; every
 * other call forwards unchanged, so a decorated run is bit-identical to
 * an undecorated one. The tally is merged when the policy dies (the
 * engine destroys each run's policy when the run ends).
 */
class TimedPolicy final : public DtmPolicy
{
  public:
    TimedPolicy(std::unique_ptr<DtmPolicy> inner, DecideTally &tally)
        : inner(std::move(inner)), tally(tally)
    {
    }

    ~TimedPolicy() override
    {
        std::lock_guard<std::mutex> lock(tally.mtx);
        tally.calls += calls;
        tally.ns += ns;
    }

    TimedPolicy(const TimedPolicy &) = delete;
    TimedPolicy &operator=(const TimedPolicy &) = delete;

    DtmAction
    decide(const ThermalReading &r, Seconds now) override
    {
        const auto t0 = Clock::now();
        DtmAction a = inner->decide(r, now);
        ns += nsBetween(t0, Clock::now());
        ++calls;
        return a;
    }

    std::string name() const override { return inner->name(); }
    void reset() override { inner->reset(); }

  private:
    std::unique_ptr<DtmPolicy> inner;
    DecideTally &tally;
    std::uint64_t calls = 0;
    double ns = 0.0;
};

/** Collects results by run index, like runScenario's own sink. */
class CollectSink : public RunSink
{
  public:
    CollectSink(std::size_t n, bool timed)
        : results(n), ok(n, false), wall(n, 0.0), timed(timed)
    {
    }

    void
    onResult(std::size_t i, SimResult &&r, double wall_s) override
    {
        const auto t0 = timed ? Clock::now() : Clock::time_point{};
        results[i] = std::move(r);
        ok[i] = true;
        wall[i] = wall_s;
        if (timed)
            sinkS += secondsBetween(t0, Clock::now());
    }

    void
    onFailure(std::size_t i, std::exception_ptr err) override
    {
        std::string what = "unknown error";
        try {
            std::rethrow_exception(err);
        } catch (const std::exception &e) {
            what = e.what();
        } catch (...) {
        }
        failures.emplace_back(i, what);
    }

    std::vector<SimResult> results;
    std::vector<bool> ok;
    std::vector<double> wall;
    std::vector<std::pair<std::size_t, std::string>> failures;
    bool timed;
    double sinkS = 0.0;
};

/** Appends each finished run to a JSONL stream, like runScenarioStream. */
class StreamSink : public RunSink
{
  public:
    StreamSink(JsonlResultWriter &writer,
               const std::vector<std::string> &points,
               const LoweredScenario &low, bool timed)
        : writer(writer), points(points), low(low), timed(timed),
          wall(points.size(), 0.0)
    {
    }

    void
    onResult(std::size_t k, SimResult &&r, double wall_s) override
    {
        const auto t0 = timed ? Clock::now() : Clock::time_point{};
        writer.appendResult(k, points[k], workloadOf(k), policyOf(k), r,
                            wall_s, /*traces=*/true);
        wall[k] = wall_s;
        if (timed) {
            const double s = secondsBetween(t0, Clock::now());
            sinkS += s;
            appendS.push_back(s);
        }
    }

    void
    onFailure(std::size_t k, std::exception_ptr err) override
    {
        std::string what = "unknown error";
        try {
            std::rethrow_exception(err);
        } catch (const std::exception &e) {
            what = e.what();
        } catch (...) {
        }
        writer.appendError(k, points[k], workloadOf(k), policyOf(k), what);
        ++failed;
    }

  private:
    const std::string &
    workloadOf(std::size_t k) const
    {
        const std::size_t per = low.workloads.size() * low.policies.size();
        return low.workloads[(k % per) / low.policies.size()];
    }
    const std::string &
    policyOf(std::size_t k) const
    {
        return low.policies[k % low.policies.size()];
    }

    JsonlResultWriter &writer;
    const std::vector<std::string> &points; ///< point label per run
    const LoweredScenario &low;
    bool timed;

  public:
    std::vector<double> wall;
    std::vector<double> appendS;
    std::size_t failed = 0;
    double sinkS = 0.0;
};

/**
 * The `memtherm report` aggregation over a results document: per-run
 * rows and the per-point summary (OnlineAxisAggregator), rendered as
 * CSV text. Returns the rendered size so the work stays observable.
 */
std::size_t
renderReport(const Json &doc)
{
    (void)resultSchemaVersionOf(doc, "perfbench report");
    OnlineAxisAggregator agg("No-limit");
    std::ostringstream csv;
    csv << "point,workload,policy,completed,running_time_s,max_amb_c,"
           "max_dram_c\n";
    for (const Json &pt : doc.at("points").asArray()) {
        const std::string &label = pt.at("label").asString();
        for (const auto &[w, per_policy] : pt.at("results").asObject()) {
            for (const auto &[p, r] : per_policy.asObject()) {
                const bool done = r.at("completed").asBool();
                const double t = r.at("running_time_s").asNumber();
                const double amb = r.at("max_amb_c").asNumber();
                const double dram = r.at("max_dram_c").asNumber();
                agg.add(label, w, p, done, t, amb, dram);
                csv << label << ',' << w << ',' << p << ','
                    << (done ? "yes" : "no") << ','
                    << Json::numberToString(t) << ','
                    << Json::numberToString(amb) << ','
                    << Json::numberToString(dram) << '\n';
            }
        }
    }
    for (const auto &s : agg.summaries()) {
        csv << s.label << ',' << s.runs << ',' << s.incomplete << ','
            << Json::numberToString(s.maxAmb) << ','
            << Json::numberToString(s.maxDram) << ','
            << (s.normN ? Json::numberToString(s.normSum /
                                               static_cast<double>(s.normN))
                        : "-")
            << '\n';
    }
    return csv.str().size();
}

double
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto n = std::filesystem::file_size(path, ec);
    return ec ? 0.0 : static_cast<double>(n);
}

/**
 * Wrap every run's policy factory in a decorator that times each
 * decide() call into @p tally.
 */
void
decoratePolicies(std::vector<ExperimentEngine::Run> &runs,
                 DecideTally &tally)
{
    for (auto &r : runs) {
        r.factory = [inner = r.factory, &tally](const SimConfig &cfg,
                                                const std::string &name)
            -> std::unique_ptr<DtmPolicy> {
            return std::make_unique<TimedPolicy>(
                policyFor(inner, cfg, name), tally);
        };
    }
}

} // namespace

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> defs = {
        {"ch4_grid", ExecMode::Document, 1, false},
        {"policy_sweep_batched", ExecMode::Batched, 1, true},
        {"bank_grid_stream", ExecMode::Stream, 1, true},
    };
    return defs;
}

const WorkloadDef &
workloadByName(const std::string &name)
{
    std::string valid;
    for (const auto &w : workloads()) {
        if (w.name == name)
            return w;
        valid += (valid.empty() ? "" : ", ") + w.name;
    }
    fatal("unknown workload '" + name + "' (valid: " + valid + ")");
}

std::string
makeScenarioText(const WorkloadDef &w, std::uint64_t seed,
                 const std::string &workdir)
{
    Json doc = Json::object();
    doc.set("name", w.name);
    Json config = Json::object();
    Json sweep = Json::object();
    std::vector<std::string> policies;

    if (w.name == "ch4_grid") {
        // The perf_smoke ch4_mini grid: Table 4.1 platform, AOHS_1.5,
        // the five Chapter 4 schemes. No random input.
        config.set("copies_per_app", 8);
        policies = {"No-limit", "DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"};
    } else if (w.name == "policy_sweep_batched") {
        // The perf_smoke ch4_policy_sweep grid with noisy sensors: all
        // eight Chapter 4 policies share one class per (inlet, mix).
        config.set("copies_per_app", 4);
        config.set("sensor_noise_sigma", 0.25);
        config.set("sensor_seed", seed);
        policies = {"No-limit",    "DTM-TS",      "DTM-BW",
                    "DTM-ACG",     "DTM-CDVFS",   "DTM-BW+PID",
                    "DTM-ACG+PID", "DTM-CDVFS+PID"};
        sweep.set("t_inlet", numberList({38.0, 44.0, 50.0}));
    } else if (w.name == "bank_grid_stream") {
        // Many short bank-grid runs under degraded cooling, with the
        // traffic distribution decoded from a seeded random trace.
        TraceGenConfig tg;
        tg.pattern = TraceGenConfig::Pattern::Random;
        tg.maxAddr = 1ULL << 24;
        tg.count = 65536;
        tg.readPct = 67.0;
        tg.seed = seed;
        const std::string trace = workdir + "/bank_grid_stream.trace";
        saveTrace(trace, generateTrace(tg));

        config.set("cooling", "FDHS_1.0");
        config.set("t_inlet", 45.0);
        config.set("copies_per_app", 2);
        config.set("instr_scale", 0.04);
        config.set("trace", trace);
        policies = {"No-limit", "DTM-TS", "DTM-remap", "DTM-TS+remap"};
        sweep.set("memory_org",
                  stringList({"ch4_4x4", "2x4", "4x8", "8x2"}));
        sweep.set("refresh", stringList({"ddr2_2x", "aldram"}));
        Json grids = Json::array();
        grids.push(grid(32, 16));
        grids.push(grid(16, 32));
        sweep.set("thermal_model", std::move(grids));
    } else {
        fatal("no inputs defined for workload '" + w.name + "'");
    }

    doc.set("config", std::move(config));
    doc.set("workloads", stringList(kMixes));
    doc.set("policies", stringList(policies));
    if (!sweep.asObject().empty())
        doc.set("sweep", std::move(sweep));
    return doc.dump(2);
}

std::unique_ptr<DtmPolicy>
buildPolicy(const ExperimentEngine::Run &r)
{
    return policyFor(r.factory, r.cfg, r.policy);
}

Pass
runPass(const WorkloadDef &w, const std::string &scenario_text,
        const std::string &workdir, bool traced)
{
    Pass pass;
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();

    // --- setup: parse, lower, build every run's policy once -----------
    ScenarioSpec spec = ScenarioSpec::fromJson(Json::parse(scenario_text));
    const auto t1 = Clock::now();
    LoweredScenario low = spec.lower();
    std::vector<ExperimentEngine::Run> runs;
    runs.reserve(low.totalRuns());
    std::vector<std::string> pointOf;
    pointOf.reserve(low.totalRuns());
    for (const auto &pt : low.points)
        for (const auto &r : pt.runs) {
            runs.push_back(r);
            pointOf.push_back(pt.label);
        }
    const auto t2 = Clock::now();
    for (const auto &r : runs)
        (void)buildPolicy(r);
    const auto t3 = Clock::now();

    pass.parseS = secondsBetween(t0, t1);
    pass.lowerS = secondsBetween(t1, t2);
    pass.policyS = secondsBetween(t2, t3);
    pass.points = low.points.size();
    pass.runs = runs.size();
    pass.classes = low.classes.size();
    pass.runKeys.reserve(runs.size());
    for (std::size_t k = 0; k < runs.size(); ++k)
        pass.runKeys.push_back(pointOf[k] + "|" + runs[k].workload.name +
                               "|" + runs[k].policy);
    if (traced)
        pass.runList = runs;

    DecideTally tally;
    if (traced)
        decoratePolicies(runs, tally);

    ExperimentEngine engine(w.threads);
    const std::string doc_path = workdir + "/" + w.name + ".json";
    const std::string stream_path = workdir + "/" + w.name + ".jsonl";

    if (w.mode == ExecMode::Stream) {
        // --- simulate into the stream -----------------------------------
        const auto s0 = Clock::now();
        JsonlResultWriter writer(stream_path, spec, runs.size(),
                                 ShardSpec{}, /*traces=*/true);
        StreamSink sink(writer, pointOf, low, traced);
        engine.run(runs, sink);
        const auto s1 = Clock::now();
        pass.simulateS = secondsBetween(s0, s1);
        pass.runWallS = std::move(sink.wall);
        pass.appendS = std::move(sink.appendS);
        pass.sinkS = sink.sinkS;
        pass.errors = sink.failed;
        pass.streamBytes = fileBytes(stream_path);

        // --- read back: scan (the resume read), merge, report ------------
        (void)scanStream(stream_path, /*keep_results=*/false);
        const auto s2 = Clock::now();
        MergedStream merged = mergeStreams({stream_path});
        const auto s3 = Clock::now();
        (void)renderReport(merged.results);
        const auto s4 = Clock::now();
        pass.scanS = secondsBetween(s1, s2);
        pass.mergeS = secondsBetween(s2, s3);
        pass.reportS = secondsBetween(s3, s4);
        pass.document = std::move(merged.results);
        // Every run of the grid shares one window length.
        for (const auto &[key, r] : runsOf(pass.document))
            pass.logicalWindows += std::round(
                r.at("running_time_s").asNumber() / runs.front().cfg.window);
        pass.simulatedWindows = pass.logicalWindows;
    } else {
        // --- simulate -----------------------------------------------------
        const auto s0 = Clock::now();
        CollectSink sink(runs.size(), traced);
        BatchStats stats;
        if (w.mode == ExecMode::Batched)
            engine.runBatched(runs, low.classes,
                              static_cast<int>(low.policies.size()), sink,
                              &stats);
        else
            engine.run(runs, sink);
        const auto s1 = Clock::now();
        pass.simulateS = secondsBetween(s0, s1);
        pass.sinkS = sink.sinkS;
        pass.runWallS = sink.wall;
        pass.errors = sink.failures.size();

        // --- assemble + serialize: the `run -o` document ---------------
        ScenarioResults results;
        results.scenario = spec.name;
        std::size_t k = 0;
        for (const auto &pt : low.points) {
            ScenarioResults::Point rp;
            rp.label = pt.label;
            for (std::size_t j = 0; j < pt.runs.size(); ++j, ++k) {
                if (!sink.ok[k])
                    continue;
                SimResult &r = sink.results[k];
                pass.logicalWindows +=
                    std::round(r.runningTime / runs[k].cfg.window);
                rp.suite[runs[k].workload.name][runs[k].policy] =
                    std::move(r);
            }
            results.points.push_back(std::move(rp));
        }
        std::sort(sink.failures.begin(), sink.failures.end());
        for (const auto &[i, what] : sink.failures) {
            RunError e;
            e.index = i;
            e.point = pointOf[i];
            e.workload = runs[i].workload.name;
            e.policy = runs[i].policy;
            e.error = what;
            results.errors.push_back(std::move(e));
        }
        if (w.mode == ExecMode::Batched) {
            pass.simulatedWindows = stats.simulatedWindows;
            pass.forks = stats.forks;
        } else {
            pass.simulatedWindows = pass.logicalWindows;
        }
        toJson(results, /*traces=*/false).save(doc_path);
        const auto s2 = Clock::now();

        // --- read back + report ------------------------------------------
        Json doc = Json::load(doc_path);
        const auto s3 = Clock::now();
        (void)renderReport(doc);
        const auto s4 = Clock::now();
        pass.serializeS = secondsBetween(s1, s2);
        pass.scanS = secondsBetween(s2, s3);
        pass.reportS = secondsBetween(s3, s4);
        pass.streamBytes = fileBytes(doc_path);
        pass.document = std::move(doc);
    }

    pass.wallS = secondsBetween(t0, Clock::now());
    pass.cpuS = processCpuSeconds() - cpu0;
    if (traced) {
        pass.decideCalls = tally.calls;
        pass.decideNs = tally.ns;
    }
    return pass;
}

} // namespace perfbench
