#include "core/sim/engine.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>

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

ExperimentEngine::ExperimentEngine(int n_threads)
    : nThreads(n_threads > 0 ? n_threads : defaultThreads())
{
    // One thread means "serial reference mode": runBatched() executes
    // inline on the calling thread and no workers exist.
    if (nThreads < 2)
        return;
    try {
        for (int i = 0; i < nThreads; ++i)
            workers.emplace_back([this] { workerLoop(); });
    } catch (const std::exception &e) {
        // A joinable thread must not be destroyed: stop the workers
        // already started before reporting the count the host refused.
        const std::size_t started = workers.size();
        stop();
        fatal("engine: cannot start " + std::to_string(nThreads) +
              " worker threads (" + std::to_string(started) +
              " started): " + e.what());
    }
}

ExperimentEngine::~ExperimentEngine()
{
    stop();
}

void
ExperimentEngine::stop()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    wake.notify_all();
    for (auto &w : workers)
        w.join();
    workers.clear();
}

void
ExperimentEngine::workerLoop()
{
    // Worker-owned scratch: reused across every run this thread executes,
    // so back-to-back runs stop allocating once the buffers are warm.
    ThermalSimulator::Scratch scratch;
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mtx);
            wake.wait(lock, [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping and drained
            task = std::move(queue.front());
            queue.pop_front();
        }
        task(scratch);
    }
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
    // the unit of dispatch: one pool task, one runBatch() call.
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
    // sink_error and agg. In inline mode the calling thread is the only
    // caller, but the lock is cheap and keeps one code path.
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

    auto oneChunk = [&](const Chunk &ch, ThermalSimulator::Scratch &s) {
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
        if (stats) {
            std::lock_guard<std::mutex> lock(sink_mtx);
            agg.add(chunk_stats);
        }
    };

    if (workers.empty()) {
        ThermalSimulator::Scratch scratch;
        for (const Chunk &ch : chunks)
            oneChunk(ch, scratch);
    } else {
        // Completion state lives on this frame; `done` is guarded by
        // done_mtx (not an atomic) so this call cannot observe the batch
        // as finished before the last worker has released the mutex —
        // i.e. before it is done touching done_cv/done_mtx. An atomic
        // counter would let it return (and destroy these objects)
        // between a worker's increment and its notify.
        std::size_t done = 0;
        std::mutex done_mtx;
        std::condition_variable done_cv;
        {
            std::lock_guard<std::mutex> lock(mtx);
            for (const Chunk &ch : chunks) {
                queue.emplace_back([&, ch](ThermalSimulator::Scratch &s) {
                    oneChunk(ch, s);
                    std::lock_guard<std::mutex> dlock(done_mtx);
                    if (++done == chunks.size())
                        done_cv.notify_all();
                });
            }
        }
        wake.notify_all();
        {
            std::unique_lock<std::mutex> lock(done_mtx);
            done_cv.wait(lock, [&] { return done == chunks.size(); });
        }
    }

    if (stats)
        stats->add(agg);
    if (sink_error)
        std::rethrow_exception(sink_error);
}

} // namespace memtherm
