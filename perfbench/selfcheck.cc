/**
 * @file
 * The benchmark's own tests: the traced run must not change what it
 * measures, and its replay must reproduce the simulator.
 *
 *   perfbench_selfcheck [--workdir <dir>]     (or: run.py --selfcheck)
 *
 * For every workload:
 *  - a decorated (traced) pass produces results bit-identical to an
 *    undecorated pass;
 *  - replayed runs return bit-identical results to the engine's, and
 *    the replayed power evaluation equals the thermal step's every
 *    window — so every replayed layer call returns what the same call
 *    returns inside the simulator;
 *  - the driver's pass equals the library entry point it mirrors
 *    (runScenario, runScenarioBatched, runScenarioStream + mergeStreams).
 * Plus the tolerance check itself: a digest moved beyond 1e-9 fails, one
 * moved within it passes. Exit status 0 when everything holds.
 */

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "core/sim/result_sink.hh"
#include "perfbench.hh"

using namespace memtherm;
using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

void
checkWorkload(const WorkloadDef &w, const std::string &workdir)
{
    const std::string text = makeScenarioText(w, kDefaultSeed, workdir);
    const Pass plain = runPass(w, text, workdir, false);
    const Pass traced = runPass(w, text, workdir, true);
    expect(plain.errors == 0 && traced.errors == 0,
           w.name + ": every run completes");
    expect(plain.document == traced.document,
           w.name + ": decorated results bit-identical to undecorated");
    expect(traced.decideCalls > 0, w.name + ": decide() calls counted");

    // Replay three runs spread over the grid.
    const auto doc_runs = runsOf(plain.document);
    const std::size_t n = traced.runList.size();
    LayerReplay rep;
    bool same = true;
    for (std::size_t k : {std::size_t{0}, n / 2, n - 1}) {
        const SimResult r = replayRun(traced.runList[k], rep);
        bool found = false;
        for (const auto &[key, res] : doc_runs)
            if (key == traced.runKeys[k]) {
                found = true;
                same = same &&
                       toJson(r, w.mode == ExecMode::Stream) == res;
            }
        same = same && found;
    }
    expect(same, w.name + ": replayed runs bit-identical to the engine's");
    expect(rep.powerMismatches == 0 && rep.windows > 0,
           w.name + ": replayed power evaluation equals the thermal step's");
    expect(forkNsPerCall(traced.runList[0], 2) > 0.0,
           w.name + ": fork replay runs");

    // The library entry point the pass mirrors.
    const ScenarioSpec spec = ScenarioSpec::fromJson(Json::parse(text));
    ExperimentEngine engine(w.threads);
    if (w.mode == ExecMode::Stream) {
        const std::string path = workdir + "/selfcheck.jsonl";
        std::filesystem::remove(path);
        StreamRunOptions opts;
        opts.path = path;
        opts.traces = true;
        const StreamRunStats st = runScenarioStream(spec, engine, opts);
        expect(st.failed == 0 &&
                   mergeStreams({path}).results == plain.document,
               w.name + ": equals runScenarioStream + mergeStreams");
    } else if (w.mode == ExecMode::Batched) {
        BatchStats stats;
        const Json doc = toJson(
            runScenarioBatched(spec, engine,
                               static_cast<int>(spec.policies.size()),
                               &stats),
            false);
        expect(doc == plain.document && stats.forks == plain.forks &&
                   stats.simulatedWindows == plain.simulatedWindows,
               w.name + ": equals runScenarioBatched (results and counts)");
    } else {
        expect(toJson(runScenario(spec, engine), false) == plain.document,
               w.name + ": equals runScenario");
    }
}

void
checkTolerance()
{
    Json a = Json::object();
    Json cells = Json::array();
    for (int i = 0; i < 8; ++i)
        cells.push(80.0 + i);
    a.set("peak", cells);
    Json within = Json::object(), beyond = Json::object();
    Json c1 = Json::array(), c2 = Json::array();
    for (int i = 0; i < 8; ++i) {
        c1.push((80.0 + i) * (i == 3 ? 1.0 + 1e-14 : 1.0));
        c2.push((80.0 + i) * (i == 3 ? 1.0 + 1e-6 : 1.0));
    }
    within.set("peak", c1);
    beyond.set("peak", c2);
    std::string where;
    expect(near(digestOf(within), digestOf(a), kGoldenTol, where),
           "digest: a 1e-14 move stays within the golden tolerance");
    expect(!near(digestOf(beyond), digestOf(a), kGoldenTol, where),
           "digest: a 1e-6 move in one cell is caught");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workdir = ".bench_build/work/selfcheck";
    if (argc == 3 && std::string(argv[1]) == "--workdir")
        workdir = argv[2];
    try {
        std::filesystem::create_directories(workdir);
        checkTolerance();
        for (const auto &w : workloads())
            checkWorkload(w, workdir);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_selfcheck: " << e.what() << '\n';
        return 1;
    }
    std::printf("%s\n", failures ? "selfcheck FAILED" : "selfcheck passed");
    return failures ? 1 : 0;
}
