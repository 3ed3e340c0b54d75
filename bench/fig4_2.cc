/**
 * @file
 * Fig. 4.2: performance of DTM-TS with varied thermal release point.
 * (a) DRAM TRP sweep under FDHS_1.0 (the DRAM devices bind there);
 * (b) AMB TRP sweep under AOHS_1.5 (the AMB binds there).
 * Running time normalized to the no-thermal-limit system; higher TRP
 * (smaller TDP-TRP gap) recovers performance.
 */

#include "bench_util.hh"
#include "core/dtm/basic_policies.hh"

using namespace memtherm;

namespace
{

void
sweep(const CoolingConfig &cooling, bool sweep_dram,
      const std::vector<Celsius> &trps)
{
    SimConfig cfg = makeCh4Config(cooling, false);
    cfg.copiesPerApp = 25; // the Chapter 4 harness batch depth
    ThermalLimits lim;
    std::vector<Workload> mixes = cpu2000Mixes();

    std::vector<std::string> headers{"workload"};
    for (Celsius trp : trps)
        headers.push_back((sweep_dram ? "DRAM TRP " : "AMB TRP ") +
                          Table::num(trp, 1));
    Table t("Fig 4.2" + std::string(sweep_dram ? "a" : "b") +
                " — DTM-TS normalized running time vs TRP (" +
                cooling.name() + ")",
            headers);

    std::vector<double> sums(trps.size(), 0.0);
    for (const Workload &w : mixes) {
        ThermalSimulator base_sim(cfg);
        SimResult base = base_sim.run(w, *makeCh4Policy("No-limit"));
        std::vector<std::string> row{w.name};
        for (std::size_t i = 0; i < trps.size(); ++i) {
            ThermalSimulator sim(cfg);
            TsPolicy ts(lim.ambTdp, sweep_dram ? lim.ambTrp : trps[i],
                        lim.dramTdp, sweep_dram ? trps[i] : lim.dramTrp);
            SimResult r = sim.run(w, ts);
            double norm = r.runningTime / base.runningTime;
            sums[i] += norm;
            row.push_back(Table::num(norm, 3));
        }
        t.addRow(row);
    }
    std::vector<std::string> avg{"average"};
    for (double s : sums)
        avg.push_back(Table::num(s / static_cast<double>(mixes.size()), 3));
    t.addRow(avg);
    t.print(std::cout);
}

} // namespace

int
main()
{
    // DRAM TDP 85.0, AMB TDP 110.0 (Section 4.4.1).
    sweep(coolingFdhs10(), true, {81.0, 82.0, 83.0, 84.0, 84.5});
    sweep(coolingAohs15(), false, {106.0, 107.0, 108.0, 109.0, 109.5});
    return 0;
}
