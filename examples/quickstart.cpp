/**
 * @file
 * Quickstart: describe one experiment as a declarative ScenarioSpec,
 * run it, and print what happened.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 *
 * The same experiment as data: save the spec's JSON (printed at the
 * end) to a file and run `./build/memtherm run quickstart.json`.
 */

#include <iostream>

#include "core/sim/scenario.hh"

using namespace memtherm;

int
main()
{
    // 1. Describe the experiment. The defaults are the Chapter 4
    //    platform (4-core CMP, four FBDIMM channels with four DIMMs
    //    each, AOHS heat spreader at 1.5 m/s cooling air, isolated
    //    thermal model); we only override the batch depth. Workloads
    //    and policies are catalog names — `memtherm list workloads`
    //    and `memtherm list policies` print the options.
    ScenarioSpec spec;
    spec.name = "quickstart";
    spec.copiesPerApp = 10; // a smaller batch than the paper's 50 copies
    spec.workloads = {"W1"}; // swim, mgrid, applu, galgel (Table 4.2)
    spec.policies = {"No-limit", "DTM-TS", "DTM-ACG"};

    // 2. Run it. The engine fans independent runs out over threads it
    //    starts for the batch (count from MEMTHERM_THREADS, default: all
    //    hardware threads); results are bit-identical to running them
    //    one by one.
    ScenarioResults results = runScenario(spec);
    const SuiteResults &suite = results.points[0].suite;
    const SimResult &base = suite.at("W1").at("No-limit");
    const SimResult &r_ts = suite.at("W1").at("DTM-TS");
    const SimResult &r_acg = suite.at("W1").at("DTM-ACG");

    // 3. Report.
    std::cout << "Workload W1 (batch of 4 apps x " << *spec.copiesPerApp
              << " copies)\n\n";
    for (const SimResult *r : {&base, &r_ts, &r_acg}) {
        std::cout << r->policy << ":\n"
                  << "  running time      " << r->runningTime << " s ("
                  << r->runningTime / base.runningTime << "x no-limit)\n"
                  << "  memory traffic    " << r->totalTrafficGB()
                  << " GB\n"
                  << "  hottest AMB       " << r->maxAmb << " C (TDP 110)\n"
                  << "  memory energy     " << r->memEnergy / 1000.0
                  << " kJ\n"
                  << "  processor energy  " << r->cpuEnergy / 1000.0
                  << " kJ\n\n";
    }

    std::cout << "DTM-ACG speedup over DTM-TS: "
              << (r_ts.runningTime / r_acg.runningTime - 1.0) * 100.0
              << "%\n\n";

    // 4. The whole experiment, as data (feed this to `memtherm run`):
    std::cout << "scenario JSON:\n" << spec.toJson().dump();
    return 0;
}
