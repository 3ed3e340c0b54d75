/**
 * @file
 * Scenario: running hotter data centers.
 *
 * The paper's introduction motivates DTM with operators who raise the
 * ambient temperature to cut cooling costs. This example sweeps the
 * system inlet temperature and shows how the cost of thermal management
 * grows — and how much of it a coordinated scheme (DTM-CDVFS) buys back
 * in processor energy relative to bandwidth throttling.
 */

#include <iostream>

#include "common/table.hh"
#include "core/sim/scenario.hh"

using namespace memtherm;

int
main()
{
    // The inlet sweep is the shipped scenario file (`memtherm run
    // examples/scenarios/datacenter_ambient.json` runs the same grid):
    // W2 at four inlet temperatures, every (inlet, policy) run in flight
    // at once.
    const ScenarioSpec spec = ScenarioSpec::load(
        std::string(MEMTHERM_SOURCE_DIR) +
        "/examples/scenarios/datacenter_ambient.json");
    const ScenarioResults results = runScenario(spec);
    if (!results.errors.empty()) {
        std::cerr << "datacenter_ambient: "
                  << failureSummary(results.errors) << '\n';
        return 1;
    }

    Table t("Raising the machine-room ambient (W2, AOHS_1.5)",
            {"inlet C", "BW time x", "CDVFS time x", "BW cpu kJ",
             "CDVFS cpu kJ", "CDVFS energy saving"});
    for (std::size_t i = 0; i < results.points.size(); ++i) {
        const auto &per_policy = results.points[i].suite.at("W2");
        const SimResult &rb = per_policy.at("No-limit");
        const SimResult &r_bw = per_policy.at("DTM-BW");
        const SimResult &r_cd = per_policy.at("DTM-CDVFS");

        double saving = 1.0 - r_cd.cpuEnergy / r_bw.cpuEnergy;
        t.addRow({Table::num(spec.sweepTInlet[i], 0),
                  Table::num(r_bw.runningTime / rb.runningTime, 2),
                  Table::num(r_cd.runningTime / rb.runningTime, 2),
                  Table::num(r_bw.cpuEnergy / 1e3, 0),
                  Table::num(r_cd.cpuEnergy / 1e3, 0),
                  Table::num(saving * 100.0, 1) + "%"});
    }
    t.print(std::cout);
    std::cout << "Hotter rooms shrink the thermal envelope; coordinated\n"
                 "DVFS keeps the performance loss close to throttling's\n"
                 "while cutting processor energy by roughly half.\n";
    return 0;
}
