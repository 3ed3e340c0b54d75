#include "core/sim/engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/json.hh"
#include "common/logging.hh"
#include "core/sim/registry.hh"

namespace memtherm
{

int
ExperimentEngine::defaultThreads()
{
    if (const char *env = std::getenv("MEMTHERM_THREADS")) {
        // The whole string, in [1, INT_MAX]: "4x" and "99999999999" warn.
        if (const std::optional<int> n = parseCount(env))
            return *n;
        warn("MEMTHERM_THREADS='" + std::string(env) +
             "' is not a positive integer; using hardware concurrency");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

std::unique_ptr<DtmPolicy>
ExperimentEngine::makePolicy(const Run &r)
{
    auto policy = r.factory
                      ? r.factory(r.cfg, r.policy)
                      : PolicyRegistry::instance().get(
                            r.policy, {r.cfg.dtmInterval,
                                       r.cfg.emergencyLevels,
                                       r.cfg.remapInterval,
                                       r.cfg.remapHysteresis,
                                       r.cfg.trafficShares});
    panicIfNot(policy != nullptr, "ExperimentEngine: null policy");
    return policy;
}

void
ExperimentEngine::run(const std::vector<Run> &runs, RunSink &sink)
{
    std::vector<RunClass> singletons(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        singletons[i] = RunClass{i, 1};
    runBatched(runs, singletons, 1, sink);
}

void
ExperimentEngine::runBatched(const std::vector<Run> &runs,
                             const std::vector<RunClass> &classes,
                             int batch_width, RunSink &sink,
                             BatchStats *stats)
{
    using clock = std::chrono::steady_clock;

    // The classes must tile the run list in order — every run belongs to
    // exactly one class, so delivery covers every index exactly once —
    // and a chunk simulates its first run's config and workload for all.
    std::size_t covered = 0;
    for (const RunClass &c : classes) {
        panicIfNot(c.first == covered && c.count >= 1 &&
                       c.count <= runs.size() - covered,
                   "runBatched: classes must tile the run list in order");
        const Run &head = runs[c.first];
        for (std::size_t i = c.first + 1; i < c.first + c.count; ++i)
            panicIfNot(runs[i].cfg == head.cfg &&
                           runs[i].workload.name == head.workload.name,
                       "runBatched: a class's runs must share their "
                       "config and workload");
        covered += c.count;
    }
    panicIfNot(covered == runs.size(),
               "runBatched: classes do not cover every run");

    // Split classes into chunks of at most batch_width lanes. A chunk is
    // the unit of dispatch: one runBatch() call on one thread.
    struct Chunk
    {
        std::size_t first = 0;
        std::size_t count = 0;
    };
    const std::size_t width = batch_width >= 1
                                  ? static_cast<std::size_t>(batch_width)
                                  : runs.size() + 1;
    std::vector<Chunk> chunks;
    for (const RunClass &c : classes)
        for (std::size_t off = 0; off < c.count; off += width)
            chunks.push_back(
                Chunk{c.first + off, std::min(width, c.count - off)});

    // The first exception a *sink call* throws; run failures go through
    // sink.onFailure and never abort the batch.
    std::exception_ptr sink_error;

    // Serializes sink invocations (the RunSink contract) and guards
    // sink_error and agg. On one thread the lock is uncontended, and it
    // keeps one code path.
    std::mutex sink_mtx;
    BatchStats agg;
    auto deliver = [&](std::size_t i, SimResult &&r, double wall_s,
                       std::exception_ptr err) {
        std::lock_guard<std::mutex> lock(sink_mtx);
        try {
            if (err)
                sink.onFailure(i, err);
            else
                sink.onResult(i, std::move(r), wall_s);
        } catch (...) {
            if (!sink_error)
                sink_error = std::current_exception();
        }
    };

    auto oneChunk = [&](const Chunk &ch, ThermalSimulator::Scratch &s,
                        BatchStats &thread_stats) {
        const auto t0 = clock::now();

        // Build one policy per member; a failing build (unknown name,
        // bad config) fails only that run and the rest still batch.
        std::vector<std::unique_ptr<DtmPolicy>> built;
        std::vector<std::size_t> idx;
        for (std::size_t i = ch.first; i < ch.first + ch.count; ++i) {
            try {
                built.push_back(makePolicy(runs[i]));
                idx.push_back(i);
            } catch (...) {
                deliver(i, SimResult{}, 0.0, std::current_exception());
            }
        }
        if (idx.empty())
            return;

        std::vector<DtmPolicy *> ptrs;
        ptrs.reserve(built.size());
        for (const auto &p : built)
            ptrs.push_back(p.get());

        BatchStats chunk_stats;
        std::vector<SimResult> results;
        std::exception_ptr err;
        try {
            ThermalSimulator sim(runs[ch.first].cfg);
            results = sim.runBatch(runs[ch.first].workload, ptrs, s,
                                   &chunk_stats);
        } catch (...) {
            err = std::current_exception();
        }
        const double wall_s =
            std::chrono::duration<double>(clock::now() - t0).count();
        // The chunk's wall time is shared work; apportion it evenly so
        // per-run timings still sum to the grid total.
        const double share = wall_s / static_cast<double>(idx.size());
        if (err) {
            // A mid-simulation failure poisons the shared lanes — every
            // member of the chunk fails together.
            for (std::size_t i : idx)
                deliver(i, SimResult{}, share, err);
            return;
        }
        for (std::size_t k = 0; k < idx.size(); ++k)
            deliver(idx[k], std::move(results[k]), share, nullptr);
        thread_stats.add(chunk_stats);
    };

    // Every thread of the call takes chunks, in order, from one index;
    // it owns its scratch, reused across its chunks, and adds its counts
    // once at the end (integers held in doubles: exact in any order).
    std::atomic<std::size_t> next{0};
    auto drain = [&] {
        ThermalSimulator::Scratch scratch;
        BatchStats mine;
        for (std::size_t c; (c = next.fetch_add(1)) < chunks.size();)
            oneChunk(chunks[c], scratch, mine);
        std::lock_guard<std::mutex> lock(sink_mtx);
        agg.add(mine);
    };

    // The calling thread and min(threads, chunks) - 1 helpers; leaving
    // the block joins the helpers (jthread), so none outlives the call.
    const std::size_t workers =
        std::min(static_cast<std::size_t>(nThreads), chunks.size());
    std::string refused; // set when the host would not start a helper
    {
        std::vector<std::jthread> helpers;
        try {
            for (std::size_t h = 1; h < workers; ++h)
                helpers.emplace_back(drain);
        } catch (const std::exception &e) {
            // Hand out no more chunks: the started helpers finish the
            // ones they hold and are joined, then the call fails.
            next.store(chunks.size());
            refused = "engine: cannot start " + std::to_string(workers) +
                      " worker threads (" +
                      std::to_string(helpers.size() + 1) +
                      " started): " + e.what();
        }
        drain();
    }
    if (!refused.empty())
        fatal(refused);

    if (stats)
        stats->add(agg);
    if (sink_error)
        std::rethrow_exception(sink_error);
}

} // namespace memtherm
