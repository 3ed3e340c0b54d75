/**
 * @file
 * Calibration harness (not a paper figure): prints the model's operating
 * points so descriptor parameters can be checked against the paper's
 * anchors — per-app homogeneous throughput classes (Section 4.3.2), mix
 * demands, stable temperatures, and a quick policy comparison on W1.
 */

#include "bench_util.hh"
#include "workloads/spec_catalog.hh"

using namespace memtherm;
using namespace memtherm::bench;

namespace
{

/** Unconstrained demand of a mix at full speed. */
WindowPerf
mixDemand(const Workload &w, const MemSystemPerf &mem)
{
    std::vector<CoreTask> tasks;
    for (const auto *a : w.apps) {
        CoreTask t;
        t.cpiCore = a->cpiCore;
        t.mpki = mpkiAtSharers(a->cache, static_cast<double>(w.apps.size()));
        t.writeFrac = a->writeFrac;
        t.specFrac = a->specFrac;
        t.mlpOverlap = a->mlpOverlap;
        tasks.push_back(t);
    }
    return solvePerfWindow(tasks, 3.2, 3.2,
                           std::numeric_limits<double>::infinity(), mem);
}

} // namespace

int
main()
{
    SimConfig cfg = makeCh4Config(coolingAohs15(), false);

    // --- homogeneous throughput classes ---------------------------------
    Table homo("Homogeneous 4-copy throughput at 3.2 GHz (GB/s)",
               {"app", "throughput", "class"});
    for (const auto &a : SpecCatalog::instance().all()) {
        if (a.suite != Suite::CPU2000)
            continue;
        Workload w = homogeneous(a.name, 4);
        WindowPerf p = mixDemand(w, cfg.memPerf);
        double tput = p.totalRead + p.totalWrite;
        homo.addRow({a.name, Table::num(tput, 1),
                     tput > 10.0 ? ">10" : (tput > 5.0 ? "5-10" : "<5")});
    }
    homo.print(std::cout);

    // --- mix demands and stable temperatures ----------------------------
    MemoryThermalModel therm(cfg.org, cfg.cooling, DimmPowerModel{}, 50.0);
    Table mix("Mix demand and stable hottest temps (AOHS_1.5, 50C)",
              {"mix", "demand GB/s", "stableAmb", "stableDram"});
    for (const auto &w : cpu2000Mixes()) {
        WindowPerf p = mixDemand(w, cfg.memPerf);
        double d = p.totalRead + p.totalWrite;
        mix.addRow({w.name, Table::num(d, 1),
                    Table::num(therm.stableHottestAmb(p.totalRead,
                                                      p.totalWrite, 50.0),
                               1),
                    Table::num(therm.stableHottestDram(p.totalRead,
                                                       p.totalWrite, 50.0),
                               1)});
    }
    mix.print(std::cout);

    // --- quick policy pass on W1 ----------------------------------------
    const PaperRun run = runPaper("calibration_w1");
    Table pol("W1 quick policy comparison (AOHS_1.5)",
              {"policy", "time s", "norm", "traffic GB", "maxAmb",
               "avgBW", "instr/B", "cpuE kJ", "memE kJ"});
    double base = 0.0;
    for (const auto &name : run.spec.policies) {
        const SimResult &r = run.suite().at("W1").at(name);
        if (base == 0.0)
            base = r.runningTime;
        pol.addRow({r.policy, Table::num(r.runningTime, 1),
                    Table::num(r.runningTime / base, 2),
                    Table::num(r.totalTrafficGB(), 0),
                    Table::num(r.maxAmb, 2),
                    Table::num(r.avgBandwidth(), 2),
                    Table::num(r.totalInstr / r.totalTrafficGB() / 1e9, 3),
                    Table::num(r.cpuEnergy / 1000.0, 0),
                    Table::num(r.memEnergy / 1000.0, 0)});
    }
    pol.print(std::cout);
    return 0;
}
