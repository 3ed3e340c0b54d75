/**
 * @file
 * Fig. 5.14: average normalized running time on the PE1950 with AMB TDPs
 * of 88, 90 and 92 C (the emergency-level table shifts with the TDP).
 * Higher TDPs reduce the loss; the policies' relative order holds at
 * every TDP — they "work equally well in future systems with different
 * thermal constraints".
 */

#include "bench_util.hh"
#include "core/sim/registry.hh"

using namespace memtherm;
using namespace memtherm::bench;

int
main()
{
    // One platform per TDP; the 90 C one is the Chapter 5 suite.
    std::vector<PaperRun> runs;
    for (const char *name : {"fig5_14_tdp88", "ch5_pe1950", "fig5_14_tdp92"})
        runs.push_back(runPaper(name));

    std::vector<std::string> headers{"policy"};
    for (const PaperRun &run : runs)
        headers.push_back(
            "TDP " +
            Table::num(platformCatalog().get(run.spec.platform).ambTdp, 0));
    Table t("Fig 5.14 — avg normalized running time vs AMB TDP (PE1950)",
            headers);

    for (const auto &pname : ch5PolicyNames()) {
        std::vector<std::string> row{pname};
        for (const PaperRun &run : runs) {
            double sum = 0.0;
            for (const auto &w : run.spec.workloads)
                sum += run.suite().at(w).at(pname).runningTime /
                       run.suite().at(w).at("No-limit").runningTime;
            row.push_back(Table::num(
                sum / static_cast<double>(run.spec.workloads.size()), 3));
        }
        t.addRow(row);
    }
    t.print(std::cout);
    return 0;
}
