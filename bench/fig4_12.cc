/**
 * @file
 * Fig. 4.12: normalized running time of the DTM schemes under the
 * INTEGRATED thermal model (Section 3.5), normalized to no-limit.
 * The headline change from Fig. 4.3: DTM-CDVFS now beats DTM-ACG,
 * because lowering processor voltage/frequency cools the memory inlet.
 */

#include "ch4_suite.hh"

using namespace memtherm;
using namespace memtherm::bench;

int
main()
{
    for (const CoolingConfig &cooling : {coolingFdhs10(), coolingAohs15()}) {
        SimConfig cfg = ch4Config(cooling, true);
        std::vector<std::string> policies{"No-limit", "DTM-TS", "DTM-BW",
                                          "DTM-ACG", "DTM-CDVFS"};
        SuiteResults r = engine().runSuite(cfg, cpu2000Mixes(), policies);
        printNormalized(
            "Fig 4.12 — normalized running time, integrated model (" +
                cooling.name() + ")",
            r, mixNames(), {"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"},
            "No-limit", metricRunningTime);
    }
    return 0;
}
