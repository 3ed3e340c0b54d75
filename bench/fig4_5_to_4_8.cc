/**
 * @file
 * Figs. 4.5-4.8: AMB temperature traces of DTM-TS / DTM-BW / DTM-ACG /
 * DTM-CDVFS (each without and with PID) for workload W1 under AOHS_1.5,
 * first 1000 seconds, 10-second resolution.
 *
 * Expected shapes (Section 4.4.2): TS swings between 109 and 110; BW
 * holds ~109.5 (PID: sticks at 109.8); ACG shows spikes that PID
 * removes; CDVFS swings between 109.5 and 110 with occasional overshoot
 * to 110 that PID eliminates.
 */

#include "bench_util.hh"
#include "common/stats.hh"

using namespace memtherm;
using namespace memtherm::bench;

int
main()
{
    const PaperRun run = runPaper("fig4_5_to_4_8");
    const SuiteResults &r = run.suite();
    const std::vector<std::string> &policies = run.spec.policies;
    std::vector<TimeSeries> traces;
    for (const auto &p : policies)
        traces.push_back(r.at("W1").at(p).ambTrace.downsample(10));

    std::vector<std::string> headers{"t s"};
    headers.insert(headers.end(), policies.begin(), policies.end());
    Table t("Figs 4.5-4.8 — AMB temperature of W1 (AOHS_1.5), 10 s bins",
            headers);
    std::size_t rows = 100; // 1000 s
    for (std::size_t i = 0; i < rows; ++i) {
        std::vector<std::string> row{Table::num((i + 1) * 10.0, 0)};
        for (const auto &tr : traces)
            row.push_back(i < tr.size() ? Table::num(tr.at(i), 2) : "-");
        t.addRow(row);
    }
    t.print(std::cout);

    Table s("Trace summaries (steady state, t > 200 s)",
            {"policy", "mean C", "max C", "swing C"});
    for (std::size_t p = 0; p < policies.size(); ++p) {
        Accumulator acc;
        const TimeSeries &tr = traces[p];
        for (std::size_t i = 20; i < tr.size() && i < rows; ++i)
            acc.add(tr.at(i));
        s.addRow({policies[p], Table::num(acc.mean(), 2),
                  Table::num(acc.max(), 2),
                  Table::num(acc.max() - acc.min(), 2)});
    }
    s.print(std::cout);
    return 0;
}
