/**
 * @file
 * Fig. 4.11: normalized average running time vs the DTM interval
 * {1, 10, 20, 100} ms, normalized to the 10 ms default. Short intervals
 * pay the 25 us control overhead; long intervals react late.
 */

#include "bench_util.hh"

using namespace memtherm;
using namespace memtherm::bench;

int
main()
{
    const PaperRun run = runPaper("fig4_11");
    const std::vector<double> &intervals = run.spec.sweepDtmInterval;

    for (std::size_t c = 0; c < run.spec.sweepCooling.size(); ++c) {
        std::vector<std::string> headers{"policy"};
        for (Seconds itv : intervals)
            headers.push_back(Table::num(itv * 1e3, 0) + " ms");
        Table t("Fig 4.11 — avg running time vs DTM interval (" +
                    run.spec.sweepCooling[c] + "), normalized to 10 ms",
                headers);

        // The cooling axis precedes the interval axis in the grid.
        for (const auto &pname : run.spec.policies) {
            std::vector<double> avg(intervals.size(), 0.0);
            for (const auto &w : run.spec.workloads)
                for (std::size_t i = 0; i < intervals.size(); ++i)
                    avg[i] += run.suite(c * intervals.size() + i)
                                  .at(w)
                                  .at(pname)
                                  .runningTime;
            std::vector<std::string> row{pname};
            for (double v : avg)
                row.push_back(Table::num(v / avg[1], 3));
            t.addRow(row);
        }
        t.print(std::cout);
    }
    return 0;
}
