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

#include "core/dtm/basic_policies.hh"
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

/** Heap allocations made by one run of W1 under @p policy. */
std::size_t
allocationsOfRun(DtmPolicy &policy, Seconds max_sim_time)
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);
    cfg.maxSimTime = max_sim_time;
    ThermalSimulator sim(cfg);
    Workload w1 = workloadMix("W1");

    const std::size_t before = allocations.load();
    SimResult r = sim.run(w1, policy);
    const std::size_t made = allocations.load() - before;

    // The runs must be cut by maxSimTime, or the longer one simulates
    // no extra windows and the check below proves nothing.
    EXPECT_FALSE(r.completed) << policy.name();
    EXPECT_NEAR(r.runningTime, max_sim_time, cfg.window) << policy.name();
    return made;
}

/**
 * 600 extra windows may cost at most 32 allocations, all of them the
 * geometric growth of the trace series; one allocation per window
 * anywhere in the loop would cost 600.
 */
void
expectNoPerWindowAllocation(DtmPolicy &policy)
{
    const std::size_t short_run = allocationsOfRun(policy, 2.0);
    const std::size_t long_run = allocationsOfRun(policy, 8.0);
    EXPECT_LE(long_run, short_run + 32)
        << policy.name() << ": " << short_run << " allocations in 2 s, "
        << long_run << " in 8 s";
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

} // namespace
} // namespace memtherm
