/**
 * @file
 * Shared helpers for the per-figure/table experiment harnesses.
 *
 * Every binary prints the same rows/series the paper reports, normalized
 * the same way (Chapter 4 figures to the no-thermal-limit baseline or to
 * DTM-TS; Chapter 5 figures to no-limit or DTM-BW). Each grid is a
 * committed scenario under examples/scenarios/paper/, whose batch depth
 * is reduced from the paper's 50 copies to bound harness runtime; `memtherm
 * run examples/scenarios/paper/<name>.json` reproduces the same runs.
 */

#ifndef MEMTHERM_BENCH_BENCH_UTIL_HH
#define MEMTHERM_BENCH_BENCH_UTIL_HH

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/sim/scenario.hh"
#include "testbed/platform.hh"

#ifndef MEMTHERM_SOURCE_DIR
#error "bench harnesses need MEMTHERM_SOURCE_DIR (set by CMakeLists.txt)"
#endif

namespace memtherm::bench
{

/** A paper scenario and its results. */
struct PaperRun
{
    ScenarioSpec spec;
    ScenarioResults results;

    /** Sweep point @p i's results, keyed [workload][policy]. */
    const SuiteResults &
    suite(std::size_t i = 0) const
    {
        return results.points.at(i).suite;
    }
};

/**
 * Load examples/scenarios/paper/<name>.json and run it on an engine
 * sized by MEMTHERM_THREADS. Any failure is fatal: an unreadable spec,
 * or failed runs, which are listed by grid coordinate before the
 * program exits 1 — a figure never prints a table with a hole in it.
 */
inline PaperRun
runPaper(const std::string &name)
{
    try {
        PaperRun out;
        out.spec = ScenarioSpec::load(std::string(MEMTHERM_SOURCE_DIR) +
                                      "/examples/scenarios/paper/" + name +
                                      ".json");
        out.results = runScenario(out.spec);
        if (!out.results.errors.empty())
            fatal("paper scenario '" + name +
                  "': " + failureSummary(out.results.errors));
        return out;
    } catch (const FatalError &e) {
        std::cerr << e.what() << '\n';
        std::exit(1);
    }
}

/**
 * Emit a normalized-metric table: rows = workloads (+ average), columns =
 * policies, each cell = metric(policy) / metric(base).
 */
inline void
printNormalized(const std::string &title,
                const std::map<std::string,
                               std::map<std::string, SimResult>> &results,
                const std::vector<std::string> &workloads,
                const std::vector<std::string> &policies,
                const std::string &base,
                double (*metric)(const SimResult &), int digits = 3)
{
    std::vector<std::string> headers{"workload"};
    headers.insert(headers.end(), policies.begin(), policies.end());
    Table t(title, headers);
    std::vector<double> sums(policies.size(), 0.0);
    for (const auto &w : workloads) {
        std::vector<std::string> row{w};
        double denom = metric(results.at(w).at(base));
        for (std::size_t i = 0; i < policies.size(); ++i) {
            double v = metric(results.at(w).at(policies[i])) / denom;
            sums[i] += v;
            row.push_back(Table::num(v, digits));
        }
        t.addRow(row);
    }
    std::vector<std::string> avg{"average"};
    for (double s : sums)
        avg.push_back(Table::num(s / static_cast<double>(workloads.size()),
                                 digits));
    t.addRow(avg);
    t.print(std::cout);
}

} // namespace memtherm::bench

#endif // MEMTHERM_BENCH_BENCH_UTIL_HH
