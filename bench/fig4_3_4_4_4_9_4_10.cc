/**
 * @file
 * Figs. 4.3, 4.4, 4.9 and 4.10: four metrics over one run of the
 * Chapter 4 suite (W1-W8 under every DTM scheme, with and without PID,
 * isolated thermal model) under (a) FDHS_1.0 and (b) AOHS_1.5.
 *
 * - Fig. 4.3: normalized running time, normalized to the ideal
 *   no-thermal-limit system.
 * - Fig. 4.4: normalized total memory traffic, normalized to no-limit.
 *   DTM-ACG cuts traffic via reduced L2 contention; DTM-CDVFS slightly
 *   via fewer speculative accesses; PID trades a little traffic for
 *   speed.
 * - Fig. 4.9: normalized FBDIMM energy, normalized to DTM-TS. DTM-ACG
 *   saves the most (less traffic AND less time); PID variants save
 *   slightly more by finishing sooner.
 * - Fig. 4.10: normalized processor energy, normalized to DTM-TS.
 *   DTM-BW wastes energy (the processor spins at full speed behind a
 *   throttled memory); DTM-CDVFS saves the most via voltage scaling;
 *   PID spends extra energy for its performance gains.
 */

#include "bench_util.hh"

using namespace memtherm;
using namespace memtherm::bench;

int
main()
{
    const PaperRun run = runPaper("ch4_isolated");
    struct Figure
    {
        const char *title;
        const char *base;
        double (*metric)(const SimResult &);
    };
    for (const Figure &f :
         {Figure{"Fig 4.3 — normalized running time", "No-limit",
                 metricRunningTime},
          Figure{"Fig 4.4 — normalized total memory traffic", "No-limit",
                 metricTraffic},
          Figure{"Fig 4.9 — normalized FBDIMM energy", "DTM-TS",
                 metricMemEnergy},
          Figure{"Fig 4.10 — normalized processor energy", "DTM-TS",
                 metricCpuEnergy}}) {
        for (std::size_t c = 0; c < run.spec.sweepCooling.size(); ++c)
            printNormalized(std::string(f.title) + " (" +
                                run.spec.sweepCooling[c] + ")",
                            run.suite(c), run.spec.workloads,
                            ch4PolicyNames(true), f.base, f.metric);
    }
    return 0;
}
