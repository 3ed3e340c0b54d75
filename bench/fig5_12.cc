/**
 * @file
 * Fig. 5.12: normalized running time on the SR1500AL at a room system
 * ambient (26 C) with an artificial 90 C AMB TDP — the same 64 C
 * ambient-to-TDP gap as the hot-box experiment. Section 5.4.5's finding:
 * performance tracks the gap, not the absolute ambient.
 */

#include "bench_util.hh"

using namespace memtherm;
using namespace memtherm::bench;

int
main()
{
    const PaperRun run = runPaper("fig5_12");
    printNormalized(
        "Fig 5.12 — normalized running time, SR1500AL @26C / TDP 90C",
        run.suite(), run.spec.workloads, ch5PolicyNames(), "No-limit",
        metricRunningTime);
    return 0;
}
