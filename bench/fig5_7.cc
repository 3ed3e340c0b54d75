/**
 * @file
 * Fig. 5.7: normalized running time of the SPEC CPU2006 workloads
 * (W11, W12) on the PE1950 — a platform scenario (the PE1950 catalog
 * entry supplies the calibrated testbed configuration and the Chapter 5
 * policy lineup).
 */

#include "bench_util.hh"

using namespace memtherm;
using namespace memtherm::bench;

int
main()
{
    const PaperRun run = runPaper("fig5_7");
    printNormalized("Fig 5.7 — normalized running time, CPU2006 (PE1950)",
                    run.suite(), run.spec.workloads, ch5PolicyNames(),
                    "No-limit", metricRunningTime);
    return 0;
}
