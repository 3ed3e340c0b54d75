/**
 * @file
 * Chapter 5 calibration harness (not a paper figure): prints the testbed
 * platforms' operating points against the paper's anchors.
 */

#include "bench_util.hh"

using namespace memtherm;
using namespace memtherm::bench;

int
main()
{
    // Homogeneous temperature anchors (Figs. 5.4 / 5.5), DTM-BW safety
    // capped.
    for (const char *name : {"calibration_ch5_anchor_sr1500al",
                             "calibration_ch5_anchor_pe1950"}) {
        const PaperRun run = runPaper(name);
        Table t(run.spec.platform + " homogeneous no-DTM anchor",
                {"app", "avgAmb", "maxAmb", "inlet"});
        for (const auto &w : run.spec.workloads) {
            const SimResult &r = run.suite().at(w).at("DTM-BW");
            t.addRow({w.substr(0, w.rfind('x')),
                      Table::num(r.ambTrace.mean(), 1),
                      Table::num(r.maxAmb, 1),
                      Table::num(r.inletTrace.mean(), 1)});
        }
        t.print(std::cout);
    }

    // Quick policy comparisons on W1 and W8.
    for (const char *name :
         {"calibration_ch5_sr1500al", "calibration_ch5_pe1950"}) {
        const PaperRun run = runPaper(name);
        for (const auto &w : run.spec.workloads) {
            Table t(run.spec.platform + " " + w + " policy comparison",
                    {"policy", "time s", "norm", "L2 miss B", "inlet C",
                     "cpu W", "maxAmb"});
            const SimResult &base = run.suite().at(w).at("No-limit");
            for (const auto &p : run.spec.policies) {
                const SimResult &r = run.suite().at(w).at(p);
                t.addRow({r.policy, Table::num(r.runningTime, 1),
                          Table::num(r.runningTime / base.runningTime, 3),
                          Table::num(r.totalL2Misses / base.totalL2Misses,
                                     3),
                          Table::num(r.inletTrace.mean(), 1),
                          Table::num(r.avgCpuPower(), 1),
                          Table::num(r.maxAmb, 1)});
            }
            t.print(std::cout);
        }
    }
    return 0;
}
