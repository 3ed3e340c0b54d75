/**
 * @file
 * The benchmark driver.
 *
 *   memtherm_bench --workload <name> [--seed <n>] [--seconds <s>]
 *                  [--trace 0|1] [--workdir <dir>] [--reference-dir <dir>]
 *                  [--commit <id>] [--write-reference <path>]
 *
 * --trace 0 repeats the workload for --seconds and reports the
 * end-to-end metrics (medians over passes). --trace 1 reports the
 * per-layer metrics: untraced and traced passes alternate, then the
 * replay times the layers the simulator calls privately. Either way
 * the outputs are checked outside the timed region, and the last
 * stdout line is one JSON object {correct, attempted, failed, metrics}.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "perfbench.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace memtherm;
using namespace perfbench;

namespace
{

/// A measured run needs at least this many passes and per-run samples,
/// so medians and the tail percentile always rest on enough data.
constexpr std::size_t kMinPasses = 5;
constexpr std::size_t kMinRunSamples = 100;
/// The per-run tail percentile reported as run_tail_ms: with at least
/// kMinRunSamples samples, ten or more lie beyond it.
constexpr double kTailPercentile = 90.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".bench_build/work";
    std::string referenceDir = "perfbench/reference";
    std::string commit = "unknown";
    std::string writeReference;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("option " + a + " needs a value");
            return argv[++i];
        };
        auto number = [&](const std::string &v) {
            char *end = nullptr;
            const double x = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || !std::isfinite(x) ||
                x < 0.0)
                fatal("option " + a + " needs a non-negative number, got '" +
                      v + "'");
            return x;
        };
        if (a == "--workload")
            o.workload = next();
        else if (a == "--seed")
            o.seed = static_cast<std::uint64_t>(number(next()));
        else if (a == "--seconds")
            o.seconds = number(next());
        else if (a == "--trace")
            o.trace = number(next()) != 0.0;
        else if (a == "--workdir")
            o.workdir = next();
        else if (a == "--reference-dir")
            o.referenceDir = next();
        else if (a == "--commit")
            o.commit = next();
        else if (a == "--write-reference")
            o.writeReference = next();
        else
            fatal("unknown option '" + a + "'");
    }
    if (o.workload.empty())
        fatal("--workload is required");
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile @p p (0..100) of @p v. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * This process's resident-set high-water mark (VmHWM, MiB). Unlike
 * getrusage's ru_maxrss it is not inherited across exec, so the
 * launching process's footprint does not leak into it.
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
compilerId()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** The host fingerprint every output carries. */
void
printFingerprint(const Options &o)
{
    std::printf("host: nproc=%ld hardware_concurrency=%u cpu=\"%s\" "
                "compiler=\"%s\" build=%s commit=%s\n",
                sysconf(_SC_NPROCESSORS_ONLN),
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                compilerId().c_str(), PERFBENCH_BUILD_TYPE,
                o.commit.c_str());
}

/** Ordered metric list printed as lines and as the result object. */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> m;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        m.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
    }
};

void
printResult(const Metrics &ms, bool correct, std::size_t attempted,
            std::size_t failed)
{
    Json metrics = Json::object();
    for (const auto &[name, vu] : ms.m) {
        std::printf("metric %-28s %.9g %s\n", name.c_str(), vu.first,
                    vu.second.c_str());
        Json v = Json::object();
        v.set("value", vu.first);
        v.set("unit", vu.second);
        metrics.set(name, std::move(v));
    }
    Json out = Json::object();
    out.set("correct", correct);
    out.set("attempted", static_cast<std::uint64_t>(attempted));
    out.set("failed", static_cast<std::uint64_t>(failed));
    out.set("metrics", std::move(metrics));
    std::cout << out.dump(0) << std::endl;
}

Counts
countsOf(const Pass &p)
{
    Counts c;
    c.logicalWindows = p.logicalWindows;
    c.simulatedWindows = p.simulatedWindows;
    c.forks = static_cast<double>(p.forks);
    return c;
}

/**
 * Output check of one pass: the committed reference (every seed of a
 * seed-free workload, the default seed otherwise) and a second path of
 * the same program (any seed). Returns the failing run count.
 */
std::size_t
checkOutputs(const Options &o, const WorkloadDef &w,
             const std::string &scenario_text, const Pass &pass,
             const Counts &counts)
{
    std::string log;
    std::size_t failed = 0;
    if (!w.seeded || o.seed == kDefaultSeed)
        failed += checkAgainstReference(
            o.referenceDir + "/" + w.name + ".json", pass, counts, log);

    // Second path: the scalar runScenario document of the same spec.
    // Batched runs agree with it within the batched tolerance; the
    // merged stream carries traces, so its twin serializes them too.
    const ScenarioSpec spec =
        ScenarioSpec::fromJson(Json::parse(scenario_text));
    ExperimentEngine engine(w.threads);
    const ScenarioResults scalar = runScenario(spec, engine);
    const Json ref = toJson(scalar, w.mode == ExecMode::Stream);
    failed += compareDocuments(pass.document, ref,
                               w.mode == ExecMode::Batched ? kBatchedTol
                                                           : kGoldenTol,
                               log);
    if (!log.empty())
        std::cerr << log;
    return failed;
}

int
measuredRun(const Options &o, const WorkloadDef &w,
            const std::string &text)
{
    (void)runPass(w, text, o.workdir, false); // warm-up, not measured

    std::vector<Pass> passes;
    std::size_t samples = 0;
    const auto t0 = Clock::now();
    for (;;) {
        // Only the last pass's results document is checked; dropping
        // the earlier ones keeps peak memory at one pass's footprint.
        if (!passes.empty())
            passes.back().document = Json();
        passes.push_back(runPass(w, text, o.workdir, false));
        samples += passes.back().runWallS.size();
        const double elapsed = secondsBetween(t0, Clock::now());
        const bool enough =
            passes.size() >= kMinPasses && samples >= kMinRunSamples;
        if ((elapsed >= o.seconds && enough) ||
            (elapsed >= 4.0 * o.seconds && passes.size() >= 2))
            break;
    }
    const double rss = peakRssMb();

    std::vector<double> setup, wall, cpu, wps, runs;
    std::size_t attempted = 0, failed = 0;
    for (const Pass &p : passes) {
        setup.push_back(p.setupS());
        wall.push_back(p.wallS);
        cpu.push_back(p.cpuS);
        wps.push_back(ratio(p.logicalWindows, p.simulateS));
        runs.insert(runs.end(), p.runWallS.begin(), p.runWallS.end());
        attempted += p.runs;
        failed += p.errors;
    }
    failed += checkOutputs(o, w, text, passes.back(),
                           countsOf(passes.back()));

    std::printf("workload %s: seed %llu, %zu passes, %zu run samples, "
                "%zu runs per pass\n",
                w.name.c_str(), static_cast<unsigned long long>(o.seed),
                passes.size(), runs.size(), passes.back().runs);
    std::printf("pass wall_s:");
    for (double x : wall)
        std::printf(" %.4f", x);
    std::printf("\n");
    Metrics ms;
    ms.add("setup_s", median(setup), "s");
    ms.add("wall_s", median(wall), "s");
    ms.add("cpu_s", median(cpu), "s");
    ms.add("windows_per_s", median(wps), "1/s");
    ms.add("run_p50_ms", percentile(runs, 50.0) * 1e3, "ms");
    ms.add("run_tail_ms", percentile(runs, kTailPercentile) * 1e3, "ms");
    ms.add("peak_rss_mb", rss, "MB");
    std::printf("metric %-28s %.9g %s (run_tail_ms is p%.0f)\n",
                "failed_frac", ratio(double(failed), double(attempted)),
                "ratio", kTailPercentile);
    printResult(ms, failed == 0, attempted, failed);
    return 0;
}

int
tracedRun(const Options &o, const WorkloadDef &w, const std::string &text)
{
    (void)runPass(w, text, o.workdir, false); // warm-up, not measured

    // --- alternate untraced and traced passes ---------------------------
    // Only the first untraced pass keeps its results document (and only
    // the first traced pass its run list): every later pass is compared
    // with it on arrival and dropped, so memory stays at one pass's.
    std::vector<Pass> plain, traced;
    std::size_t differing = 0;
    auto record = [&](std::vector<Pass> &into, Pass p) {
        if (!plain.empty()) {
            differing += p.document == plain.front().document ? 0 : 1;
            p.document = Json();
        }
        if (!into.empty())
            p.runList.clear();
        into.push_back(std::move(p));
    };
    const auto t0 = Clock::now();
    for (std::size_t i = 0;; ++i) {
        const bool traced_first = i % 2 == 1;
        if (traced_first)
            record(traced, runPass(w, text, o.workdir, true));
        record(plain, runPass(w, text, o.workdir, false));
        if (!traced_first)
            record(traced, runPass(w, text, o.workdir, true));
        const double elapsed = secondsBetween(t0, Clock::now());
        if (plain.size() >= 3 && elapsed >= 0.5 * o.seconds)
            break;
    }

    std::size_t attempted = 0, failed = 0;
    std::string log;
    auto medianOf = [](const std::vector<Pass> &ps, auto field) {
        std::vector<double> v;
        for (const Pass &p : ps)
            v.push_back(field(p));
        return median(v);
    };
    for (const auto *set : {&plain, &traced})
        for (const Pass &p : *set) {
            attempted += p.runs;
            failed += p.errors;
        }
    // Decorated runs are bit-identical to undecorated ones.
    if (differing) {
        log += "traced pass: results differ from the untraced pass\n";
        failed += differing;
    }
    for (const Pass &p : traced)
        if (p.decideCalls != traced.front().decideCalls) {
            log += "traced pass: decide() call count does not repeat\n";
            ++failed;
        }

    const Pass &tp = traced.front();
    const std::vector<ExperimentEngine::Run> &runs = tp.runList;

    // --- replay the private layers ---------------------------------------
    // Visit runs spread over the grid (stride through the list) until the
    // replay budget is spent, comparing every replayed result with the
    // engine's.
    std::map<std::string, const Json *> engine_results;
    const auto doc_runs = runsOf(plain.front().document);
    for (const auto &[key, r] : doc_runs)
        engine_results[key] = &r;
    LayerReplay rep;
    const bool with_traces = w.mode == ExecMode::Stream;
    const std::size_t n = runs.size();
    const std::size_t stride = std::max<std::size_t>(1, n / 8);
    std::vector<std::size_t> order;
    for (std::size_t start = 0; start < stride; ++start)
        for (std::size_t k = start; k < n; k += stride)
            order.push_back(k);
    const auto r0 = Clock::now();
    std::size_t replayed = 0;
    for (std::size_t k : order) {
        const SimResult res = replayRun(runs[k], rep);
        auto it = engine_results.find(tp.runKeys[k]);
        if (it == engine_results.end() ||
            !(toJson(res, with_traces) == *it->second)) {
            log += "replay: run '" + tp.runKeys[k] +
                   "' differs from the engine's result\n";
            ++rep.mismatches;
        }
        if (++replayed >= 4 &&
            secondsBetween(r0, Clock::now()) >= 0.35 * o.seconds)
            break;
    }
    failed += rep.mismatches + (rep.powerMismatches ? 1 : 0);
    if (rep.powerMismatches)
        log += "replay: power evaluation disagreed with the thermal step\n";

    // Fork cost on the configuration of a few classes' first runs.
    std::vector<double> fork_ns;
    for (std::size_t k = 0; k < n && fork_ns.size() < 4; k += stride)
        fork_ns.push_back(forkNsPerCall(runs[k], 50));
    const double ns_per_fork = median(fork_ns);

    // --- output check (counts with decisions) ----------------------------
    Counts counts = countsOf(plain.front());
    counts.decisions = static_cast<double>(tp.decideCalls);
    if (!w.seeded || o.seed == kDefaultSeed)
        failed += checkAgainstReference(o.referenceDir + "/" + w.name +
                                            ".json",
                                        plain.front(), counts, log);
    if (!log.empty())
        std::cerr << log;

    // --- derive the layer metrics ----------------------------------------
    const double busy = medianOf(traced, [](const Pass &p) {
        return sum(p.runWallS);
    });
    const double sink =
        medianOf(traced, [](const Pass &p) { return p.sinkS; });
    const double ser =
        medianOf(traced, [](const Pass &p) { return p.serializeS; });
    const double scan =
        medianOf(traced, [](const Pass &p) { return p.scanS; });
    const double merge =
        medianOf(traced, [](const Pass &p) { return p.mergeS; });
    const double report =
        medianOf(traced, [](const Pass &p) { return p.reportS; });
    const double simulate =
        medianOf(traced, [](const Pass &p) { return p.simulateS; });
    const double decide_s =
        medianOf(traced, [](const Pass &p) { return p.decideNs; }) * 1e-9;
    const double io = sink + ser + scan + merge + report;
    const double total = busy + io; // the denominator of every share

    const double sim_windows = plain.front().simulatedWindows;
    const double win = static_cast<double>(std::max<std::uint64_t>(
        rep.windows, 1));
    const double refresh_frac = static_cast<double>(rep.refreshWindows) / win;
    auto perWindow = [&](double ns) { return ns / win; };
    auto layerS = [&](double ns_per_call, double calls) {
        return ns_per_call * calls * 1e-9;
    };
    const double sched_s = layerS(perWindow(rep.schedNs), sim_windows);
    const double solve_s = layerS(perWindow(rep.solveNs), sim_windows);
    const double refresh_ns =
        rep.refreshWindows
            ? rep.refreshNs / static_cast<double>(rep.refreshWindows)
            : 0.0;
    const double refresh_s = layerS(refresh_ns, sim_windows * refresh_frac);
    const double power_s = layerS(perWindow(rep.powerNs), sim_windows);
    const double thermal_s = layerS(perWindow(rep.thermalNs), sim_windows);
    const double ambient_s = layerS(perWindow(rep.ambientNs), sim_windows);
    const double fork_s =
        layerS(ns_per_fork, static_cast<double>(plain.front().forks));

    double cells = 0.0;
    for (const auto &r : runs)
        cells += r.cfg.org.nDimmsPerChannel *
                 (2.0 + (r.cfg.bankGrid ? r.cfg.bankGrid->cells() : 0));
    cells = ratio(cells, static_cast<double>(runs.size()));

    std::vector<double> appends;
    for (const Pass &p : traced)
        appends.insert(appends.end(), p.appendS.begin(), p.appendS.end());

    const double shares = ratio(solve_s + refresh_s + power_s + thermal_s +
                                    ambient_s + decide_s + fork_s + sched_s +
                                    io,
                                total);
    const double plain_wall = medianOf(plain, [](const Pass &p) {
        return p.wallS;
    });
    const double traced_wall = medianOf(traced, [](const Pass &p) {
        return p.wallS;
    });

    std::printf("workload %s (traced): seed %llu, %zu untraced + %zu traced "
                "passes, %zu of %zu runs replayed (%llu windows)\n",
                w.name.c_str(), static_cast<unsigned long long>(o.seed),
                plain.size(), traced.size(), replayed, n,
                static_cast<unsigned long long>(rep.windows));
    Metrics ms;
    ms.add("scenario.parse_ms",
           medianOf(traced, [](const Pass &p) { return p.parseS; }) * 1e3,
           "ms");
    ms.add("scenario.lower_ms",
           medianOf(traced, [](const Pass &p) { return p.lowerS; }) * 1e3,
           "ms");
    ms.add("scenario.points", static_cast<double>(tp.points), "count");
    ms.add("scenario.runs", static_cast<double>(tp.runs), "count");
    ms.add("scenario.classes", static_cast<double>(tp.classes), "count");
    ms.add("engine.busy_s", busy, "s");
    ms.add("engine.idle_frac",
           std::max(0.0, 1.0 - ratio(busy, w.threads * simulate)), "ratio");
    ms.add("engine.sink_s", sink, "s");
    ms.add("engine.sink_share", ratio(sink, simulate), "ratio");
    ms.add("sim.logical_windows", plain.front().logicalWindows, "count");
    ms.add("sim.simulated_windows", sim_windows, "count");
    ms.add("sim.prefix_hit_rate",
           1.0 - ratio(sim_windows, plain.front().logicalWindows), "ratio");
    ms.add("sim.forks", static_cast<double>(plain.front().forks), "count");
    ms.add("sim.ns_per_sim_window", ratio(busy * 1e9, sim_windows), "ns");
    ms.add("perf_model.calls", sim_windows, "count");
    ms.add("perf_model.ns_per_call", perWindow(rep.solveNs), "ns");
    ms.add("perf_model.share", ratio(solve_s, total), "ratio");
    ms.add("refresh.ns_per_window", refresh_ns, "ns");
    ms.add("refresh.share", ratio(refresh_s, total), "ratio");
    ms.add("power.ns_per_eval", perWindow(rep.powerNs), "ns");
    ms.add("power.share", ratio(power_s, total), "ratio");
    ms.add("thermal.ns_per_advance", perWindow(rep.thermalNs), "ns");
    ms.add("thermal.cells_per_lane", cells, "count");
    ms.add("thermal.share", ratio(thermal_s, total), "ratio");
    ms.add("ambient.ns_per_advance", perWindow(rep.ambientNs), "ns");
    ms.add("ambient.share", ratio(ambient_s, total), "ratio");
    ms.add("dtm.decide_calls", static_cast<double>(tp.decideCalls), "count");
    ms.add("dtm.ns_per_decide",
           ratio(decide_s * 1e9, static_cast<double>(tp.decideCalls)), "ns");
    ms.add("dtm.share", ratio(decide_s, total), "ratio");
    ms.add("fork.ns_per_fork", ns_per_fork, "ns");
    ms.add("fork.share", ratio(fork_s, total), "ratio");
    ms.add("sched.ns_per_window", perWindow(rep.schedNs), "ns");
    ms.add("sched.share", ratio(sched_s, total), "ratio");
    ms.add("io.serialize_ms", ser * 1e3, "ms");
    ms.add("io.append_us_p50", percentile(appends, 50.0) * 1e6, "us");
    ms.add("io.stream_mb", tp.streamBytes / 1e6, "MB");
    ms.add("io.scan_ms", scan * 1e3, "ms");
    ms.add("io.merge_ms", merge * 1e3, "ms");
    ms.add("io.report_ms", report * 1e3, "ms");
    ms.add("io.share", ratio(io, total), "ratio");
    ms.add("trace.overhead_frac", ratio(traced_wall, plain_wall) - 1.0,
           "ratio");
    ms.add("trace.unattributed_share", 1.0 - shares, "ratio");
    printResult(ms, failed == 0, attempted, failed);
    return 0;
}

/** Write the committed reference results of a workload (default seed). */
int
writeReferenceRun(const Options &o, const WorkloadDef &w,
                  const std::string &text)
{
    if (w.seeded && o.seed != kDefaultSeed)
        fatal("reference results are for the default seed " +
              std::to_string(kDefaultSeed));
    const Pass plain = runPass(w, text, o.workdir, false);
    const Pass traced = runPass(w, text, o.workdir, true);
    if (plain.errors || !(plain.document == traced.document))
        fatal("reference passes disagree or failed; not writing");
    Counts counts = countsOf(plain);
    counts.decisions = static_cast<double>(traced.decideCalls);
    writeReference(o.writeReference, w, plain, counts);
    std::printf("wrote %s (%zu runs)\n", o.writeReference.c_str(),
                plain.runs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options o = parseArgs(argc, argv);
        const WorkloadDef &w = workloadByName(o.workload);
        std::filesystem::create_directories(o.workdir);
        printFingerprint(o);
        const std::string text = makeScenarioText(w, o.seed, o.workdir);
        if (!o.writeReference.empty())
            return writeReferenceRun(o, w, text);
        return o.trace ? tracedRun(o, w, text) : measuredRun(o, w, text);
    } catch (const std::exception &e) {
        std::cerr << "memtherm_bench: " << e.what() << '\n';
        return 1;
    }
}
