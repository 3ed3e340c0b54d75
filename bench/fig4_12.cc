/**
 * @file
 * Fig. 4.12: normalized running time of the DTM schemes under the
 * INTEGRATED thermal model (Section 3.5), normalized to no-limit.
 * The headline change from Fig. 4.3: DTM-CDVFS now beats DTM-ACG,
 * because lowering processor voltage/frequency cools the memory inlet.
 */

#include "bench_util.hh"

using namespace memtherm;
using namespace memtherm::bench;

int
main()
{
    const PaperRun run = runPaper("fig4_12");
    for (std::size_t c = 0; c < run.spec.sweepCooling.size(); ++c) {
        printNormalized(
            "Fig 4.12 — normalized running time, integrated model (" +
                run.spec.sweepCooling[c] + ")",
            run.suite(c), run.spec.workloads, ch4PolicyNames(false),
            "No-limit", metricRunningTime);
    }
    return 0;
}
