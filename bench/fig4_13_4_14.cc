/**
 * @file
 * Figs. 4.13 and 4.14 over one run of the thermal-interaction-degree
 * sweep (PsiCPU_MEM * xi in {1.0, 1.5, 2.0}), integrated model under
 * FDHS_1.0.
 *
 * - Fig. 4.13: average normalized running time. Stronger interaction ->
 *   hotter memory ambient -> larger penalty for every scheme.
 * - Fig. 4.14: average performance improvement of DTM-ACG and DTM-CDVFS
 *   over DTM-BW. DTM-ACG's edge is roughly flat; DTM-CDVFS's edge grows
 *   with the interaction because it cools the processors that heat the
 *   memory.
 */

#include "bench_util.hh"

using namespace memtherm;
using namespace memtherm::bench;

int
main()
{
    const PaperRun run = runPaper("fig4_13_4_14");
    const std::vector<double> &degrees = run.spec.sweepInteractionDegree;
    const std::vector<std::string> &mixes = run.spec.workloads;
    const double n = static_cast<double>(mixes.size());

    std::vector<std::string> headers{"policy"};
    for (double d : degrees)
        headers.push_back("degree " + Table::num(d, 1));

    Table t13("Fig 4.13 — avg normalized running time vs interaction degree"
              " (FDHS_1.0, integrated)",
              headers);
    for (const auto &pname : ch4PolicyNames(false)) {
        std::vector<std::string> row{pname};
        for (std::size_t di = 0; di < degrees.size(); ++di) {
            double sum = 0.0;
            for (const auto &w : mixes) {
                const auto &per_policy = run.suite(di).at(w);
                sum += per_policy.at(pname).runningTime /
                       per_policy.at("No-limit").runningTime;
            }
            row.push_back(Table::num(sum / n, 3));
        }
        t13.addRow(row);
    }
    t13.print(std::cout);

    Table t14("Fig 4.14 — avg improvement over DTM-BW (%) vs interaction "
              "degree (FDHS_1.0, integrated)",
              headers);
    for (const std::string pname : {"DTM-ACG", "DTM-CDVFS"}) {
        std::vector<std::string> row{pname};
        for (std::size_t di = 0; di < degrees.size(); ++di) {
            double sum = 0.0;
            for (const auto &w : mixes) {
                const auto &per_policy = run.suite(di).at(w);
                sum += (per_policy.at("DTM-BW").runningTime /
                            per_policy.at(pname).runningTime -
                        1.0) *
                       100.0;
            }
            row.push_back(Table::num(sum / n, 1));
        }
        t14.addRow(row);
    }
    t14.print(std::cout);
    return 0;
}
