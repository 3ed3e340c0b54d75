/**
 * @file
 * Fig. 5.15: normalized running time and L2 cache misses under DTM-ACG
 * on the PE1950 as the scheduler time slice varies (5..100 ms),
 * normalized to the 100 ms default. Slices below ~20 ms thrash the L2:
 * each switch refills the program's working set.
 */

#include "bench_util.hh"

using namespace memtherm;
using namespace memtherm::bench;

int
main()
{
    const PaperRun run = runPaper("fig5_15");
    const std::vector<double> &slices = run.spec.sweepRotationSlice;

    std::vector<std::string> headers{"metric"};
    for (Seconds s : slices)
        headers.push_back(Table::num(s * 1e3, 0) + " ms");
    Table t("Fig 5.15 — DTM-ACG vs switching time slice (PE1950, "
            "normalized to 100 ms)",
            headers);

    std::vector<double> time_sum(slices.size(), 0.0);
    std::vector<double> miss_sum(slices.size(), 0.0);
    for (const auto &w : run.spec.workloads) {
        for (std::size_t i = 0; i < slices.size(); ++i) {
            const SimResult &r = run.suite(i).at(w).at("DTM-ACG");
            time_sum[i] += r.runningTime;
            miss_sum[i] += r.totalL2Misses;
        }
    }
    std::vector<std::string> trow{"running time"};
    std::vector<std::string> mrow{"L2 misses"};
    for (std::size_t i = 0; i < slices.size(); ++i) {
        trow.push_back(Table::num(time_sum[i] / time_sum.back(), 3));
        mrow.push_back(Table::num(miss_sum[i] / miss_sum.back(), 3));
    }
    t.addRow(trow);
    t.addRow(mrow);
    t.print(std::cout);
    return 0;
}
