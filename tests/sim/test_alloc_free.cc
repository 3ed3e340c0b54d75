/**
 * @file
 * The simulator's window loop performs no heap allocation in its steady
 * state (ThermalSimulator::Scratch). A counting global operator new
 * measures ThermalSimulator::run at two simulated lengths: what a run
 * allocates once (lanes, results, trace growth) appears in both, so
 * the difference is what the extra windows allocate.
 *
 * This is a test binary of its own because it replaces the global
 * allocation functions. They forward to malloc/free, every non-aligned
 * form together, so sanitizer builds see matched pairs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "common/rng.hh"
#include "core/dtm/basic_policies.hh"
#include "core/dtm/remap_policy.hh"
#include "core/sim/experiment.hh"

namespace
{

std::atomic<std::size_t> allocations{0};

void *
countedAlloc(std::size_t n)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAllocNothrow(std::size_t n) noexcept
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAllocNothrow(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAllocNothrow(n);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace memtherm
{
namespace
{

/**
 * Heap allocations made by one batch of W1 under @p policies (one
 * policy: exactly ThermalSimulator::run).
 */
std::size_t
allocationsOfRun(SimConfig cfg, const std::vector<DtmPolicy *> &policies,
                 Seconds max_sim_time)
{
    cfg.maxSimTime = max_sim_time;
    ThermalSimulator sim(cfg);
    Workload w1 = workloadMix("W1");

    const std::size_t before = allocations.load();
    ThermalSimulator::Scratch scratch;
    BatchStats stats;
    std::vector<SimResult> rs = sim.runBatch(w1, policies, scratch, &stats);
    const std::size_t made = allocations.load() - before;

    // The runs must be cut by maxSimTime, or the longer one simulates
    // no extra windows and the check below proves nothing.
    for (const SimResult &r : rs) {
        EXPECT_FALSE(r.completed) << r.policy;
        EXPECT_NEAR(r.runningTime, max_sim_time, cfg.window) << r.policy;
    }
    // A batch of several policies must fork, or it tests one lane.
    if (policies.size() > 1) {
        EXPECT_GT(stats.forks, 0u);
    }
    return made;
}

/**
 * 600 extra windows may cost at most 32 allocations, all of them the
 * geometric growth of the trace series; one allocation per window
 * anywhere in the loop would cost 600.
 */
void
expectNoPerWindowAllocation(const SimConfig &cfg,
                            const std::vector<DtmPolicy *> &policies)
{
    const std::size_t short_run = allocationsOfRun(cfg, policies, 2.0);
    const std::size_t long_run = allocationsOfRun(cfg, policies, 8.0);
    EXPECT_LE(long_run, short_run + 32)
        << policies.front()->name() << ": " << short_run
        << " allocations in 2 s, " << long_run << " in 8 s";
}

void
expectNoPerWindowAllocation(DtmPolicy &policy)
{
    expectNoPerWindowAllocation(makeCh4Config(coolingAohs15(), false),
                                {&policy});
}

TEST(AllocationFree, WindowLoopDoesNotAllocatePerWindow)
{
    auto policy = makeCh4Policy("DTM-BW");
    expectNoPerWindowAllocation(*policy);
}

TEST(AllocationFree, ThrottledWindowsDoNotAllocate)
{
    // Thresholds this low hold every sensor reading at level 3 from the
    // first decision, so each scheme acts in every window: DTM-BW's
    // 6.4 GB/s cap keeps the level-1 solve in its clamp regime, DTM-ACG
    // time-shares one core (switch MPKI, rotation), DTM-CDVFS runs at a
    // lowered frequency.
    const EmergencyLevels level3({10.0, 20.0, 30.0, 300.0},
                                 {10.0, 20.0, 30.0, 300.0});
    LeveledPolicy bw = makeCh4BwPolicy(level3);
    LeveledPolicy acg = makeCh4AcgPolicy(level3);
    LeveledPolicy cdvfs = makeCh4CdvfsPolicy(level3);
    for (DtmPolicy *policy : {static_cast<DtmPolicy *>(&bw),
                              static_cast<DtmPolicy *>(&acg),
                              static_cast<DtmPolicy *>(&cdvfs)})
        expectNoPerWindowAllocation(*policy);
}

TEST(AllocationFree, BankGridWindowsDoNotAllocate)
{
    // A 4x8 organization under a 32x16 grid of random bank weights. The
    // remap policy's limits sit below any temperature, so it moves
    // traffic between the DIMMs every 0.1 s; batched with a throttling
    // DTM-BW, the lanes fork at the first decision.
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.org = MemoryOrgConfig{4, 8};
    BankGridConfig grid{32, 16, {}};
    Rng rng(20261018);
    double sum = 0.0;
    for (int c = 0; c < grid.cells(); ++c)
        sum += grid.weights.emplace_back(rng.uniform());
    for (double &w : grid.weights)
        w /= sum;
    cfg.bankGrid = grid;

    RemapConfig rc;
    rc.interval = 0.1;
    rc.limits.ambTdp = rc.limits.dramTdp = 10.0;
    RemapPolicy remap(RemapPolicy::Band::Greedy, rc);
    LeveledPolicy bw = makeCh4BwPolicy(
        EmergencyLevels({10.0, 20.0, 30.0, 300.0}, {10.0, 20.0, 30.0, 300.0}));
    expectNoPerWindowAllocation(cfg, {&remap});
    expectNoPerWindowAllocation(cfg, {&remap, &bw});
}

} // namespace
} // namespace memtherm
