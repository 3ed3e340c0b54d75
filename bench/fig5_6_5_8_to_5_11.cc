/**
 * @file
 * Figs. 5.6 and 5.8-5.11: five metrics over one run of the Chapter 5
 * suite (W1-W8 under the no-limit baseline and the four Chapter 5 DTM
 * policies) per platform.
 *
 * - Fig. 5.6: normalized running time on (a) the PE1950 and (b) the
 *   SR1500AL, normalized to no-thermal-limit execution.
 * - Fig. 5.8: normalized number of L2 cache misses, normalized to
 *   no-limit. DTM-BW leaves misses unchanged (throttling does not change
 *   demand misses); DTM-ACG and DTM-COMB cut them by reducing shared-L2
 *   contention; DTM-CDVFS leaves them unchanged.
 * - Fig. 5.9: measured memory inlet (processor exhaust) temperature on
 *   the SR1500AL. The cooling air is preheated ~10 C by the processors;
 *   DTM-CDVFS and DTM-COMB run the inlet ~1 C cooler than DTM-BW/DTM-ACG
 *   — the mechanism behind their performance edge.
 * - Fig. 5.10: average CPU power on the SR1500AL, normalized to DTM-BW.
 *   DTM-CDVFS cuts ~15%; DTM-ACG saves little because memory-stalled
 *   cores are already clock-gated by hardware.
 * - Fig. 5.11: total (processor + memory) energy on the SR1500AL,
 *   normalized to DTM-BW. DTM-ACG saves via shorter runs; DTM-CDVFS and
 *   DTM-COMB save via both power and time.
 */

#include "bench_util.hh"

using namespace memtherm;
using namespace memtherm::bench;

namespace
{

double
metricAvgCpuPower(const SimResult &r)
{
    return r.avgCpuPower();
}

} // namespace

int
main()
{
    const PaperRun pe = runPaper("ch5_pe1950");
    const PaperRun sr = runPaper("ch5_sr1500al");
    const std::vector<std::string> policies = ch5PolicyNames();
    const std::vector<std::string> &mixes = sr.spec.workloads;
    const double n = static_cast<double>(mixes.size());

    for (const PaperRun *run : {&pe, &sr})
        printNormalized("Fig 5.6 — normalized running time (" +
                            run->spec.platform + ")",
                        run->suite(), run->spec.workloads, policies,
                        "No-limit", metricRunningTime);
    for (const PaperRun *run : {&pe, &sr})
        printNormalized("Fig 5.8 — normalized L2 cache misses (" +
                            run->spec.platform + ")",
                        run->suite(), run->spec.workloads, policies,
                        "No-limit", metricL2Misses);

    const SuiteResults &r = sr.suite();
    std::vector<std::string> headers{"workload"};
    headers.insert(headers.end(), policies.begin(), policies.end());
    Table inlet("Fig 5.9 — memory inlet temperature, SR1500AL (C)",
                headers);
    std::vector<double> sums(policies.size(), 0.0);
    for (const auto &w : mixes) {
        std::vector<std::string> row{w};
        for (std::size_t i = 0; i < policies.size(); ++i) {
            double v = r.at(w).at(policies[i]).inletTrace.mean();
            sums[i] += v;
            row.push_back(Table::num(v, 1));
        }
        inlet.addRow(row);
    }
    std::vector<std::string> avg{"average"};
    for (double s : sums)
        avg.push_back(Table::num(s / n, 1));
    inlet.addRow(avg);
    inlet.print(std::cout);

    printNormalized("Fig 5.10 — CPU power normalized to DTM-BW (SR1500AL)",
                    r, mixes, policies, "DTM-BW", metricAvgCpuPower);
    Table power("Absolute average CPU power (W)", {"policy", "power W"});
    for (const auto &p : policies) {
        double sum = 0.0;
        for (const auto &w : mixes)
            sum += r.at(w).at(p).avgCpuPower();
        power.addRow({p, Table::num(sum / n, 1)});
    }
    power.print(std::cout);

    printNormalized(
        "Fig 5.11 — CPU+DRAM energy normalized to DTM-BW (SR1500AL)", r,
        mixes, policies, "DTM-BW", metricTotalEnergy);
    return 0;
}
