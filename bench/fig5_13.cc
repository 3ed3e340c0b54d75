/**
 * @file
 * Fig. 5.13: DTM-ACG vs DTM-BW on the SR1500AL at two processor
 * frequencies (3.0 GHz and 2.0 GHz). Memory-bound workloads barely slow
 * at 2.0 GHz, and DTM-ACG's edge persists in both modes.
 */

#include "bench_util.hh"

using namespace memtherm;
using namespace memtherm::bench;

int
main()
{
    // The 3.0 GHz runs (and the no-limit base) are the Chapter 5 suite;
    // the 2.0 GHz ones run on the platform pinned there.
    const PaperRun full = runPaper("ch5_sr1500al");
    const PaperRun slow = runPaper("fig5_13_2ghz");
    Table t("Fig 5.13 — DTM-ACG vs DTM-BW at 3.0 and 2.0 GHz (SR1500AL, "
            "normalized to no-limit @3.0 GHz)",
            {"workload", "BW@3.0", "ACG@3.0", "BW@2.0", "ACG@2.0"});

    std::vector<double> sums(4, 0.0);
    for (const auto &w : full.spec.workloads) {
        const auto &f = full.suite().at(w);
        const auto &s = slow.suite().at(w);
        double base = f.at("No-limit").runningTime;
        double v[4] = {f.at("DTM-BW").runningTime / base,
                       f.at("DTM-ACG").runningTime / base,
                       s.at("DTM-BW").runningTime / base,
                       s.at("DTM-ACG").runningTime / base};
        std::vector<std::string> row{w};
        for (int i = 0; i < 4; ++i) {
            sums[static_cast<std::size_t>(i)] += v[i];
            row.push_back(Table::num(v[i], 3));
        }
        t.addRow(row);
    }
    std::vector<std::string> avg{"average"};
    const double n = static_cast<double>(full.spec.workloads.size());
    for (double s : sums)
        avg.push_back(Table::num(s / n, 3));
    t.addRow(avg);
    t.print(std::cout);
    return 0;
}
