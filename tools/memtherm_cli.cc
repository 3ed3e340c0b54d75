/**
 * @file
 * `memtherm` — the scenario-driven command-line front end: run,
 * merge, report, validate, list and trace gen (docs/cli.md).
 *
 * The command line is parsed by the option tables in cli/args.hh;
 * each cmdX here takes the parsed CliArgs and only executes. A scenario
 * file runs to a summary table, a results JSON (`-o`), a golden check
 * (`--golden`, relative tolerance) or, crash-safe, a JSONL stream
 * (`--stream`, `--resume`, `--shard i/N`) that `merge` folds back into
 * the bytes of an uninterrupted `run -o`. `report` renders results or
 * streams as per-point and per-axis tables and CSV, normalized to a
 * baseline policy in the spirit of Figures 4.5-4.8. A failed run
 * becomes an error record and a nonzero exit while the rest of the grid
 * runs on, and every file written lands via write-to-temp-then-rename.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cli/args.hh"
#include "common/fs_util.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/sim/registry.hh"
#include "core/sim/result_sink.hh"
#include "core/sim/scenario.hh"
#include "dram/trace.hh"

using namespace memtherm;

namespace
{

int
cmdList(const CliArgs &a)
{
    const std::string &what = a.inputs[0];
    for (const CatalogBase *c : catalogListings()) {
        if (what != c->info.keyword)
            continue;
        for (const auto &n : c->names())
            std::cout << n << '\n';
        if (c->info.hint)
            std::cout << c->info.hint << '\n';
        return 0;
    }
    std::cerr << "memtherm list: unknown catalog '" << what
              << "' (valid: " << listKeywords(", ") << ")\n";
    return 1;
}

int
cmdTrace(const CliArgs &a)
{
    std::vector<TraceRecord> records = generateTrace(a.gen);
    saveTrace(a.out, records);
    std::cout << "wrote " << a.out << " (" << records.size()
              << " record(s))\n";
    return 0;
}

int
cmdValidate(const CliArgs &a)
{
    for (const auto &path : a.inputs) {
        ScenarioSpec spec = ScenarioSpec::load(path);
        LoweredScenario low = spec.lower();
        // The full grid arithmetic, so --shard counts can be sized
        // without running anything.
        std::cout << path << ": ok — scenario '" << spec.name << "', "
                  << low.points.size() << " point(s) x "
                  << low.workloads.size() << " workload(s) x "
                  << low.policies.size() << " policy(ies) = "
                  << low.totalRuns() << " run(s), "
                  << low.classes.size() << " equivalence class(es)\n";
    }
    return 0;
}

/** Number rendering for diagnostics; tolerates non-finite values. */
std::string
numForDiag(double v)
{
    if (std::isnan(v))
        return "nan";
    if (std::isinf(v))
        return v > 0 ? "inf" : "-inf";
    return Json::numberToString(v);
}

/**
 * Recursive comparison of results @p a with golden @p b, with a
 * relative tolerance on numbers; on the first mismatch fills @p where /
 * @p detail and returns false. Two NaNs
 * compare equal (a NaN golden entry means "NaN expected here", not a
 * mismatch) and infinities compare by sign.
 */
bool
jsonNear(const Json &a, const Json &b, double tol, const std::string &path,
         std::string &where, std::string &detail)
{
    auto miss = [&](const std::string &d) {
        where = path.empty() ? "(root)" : path;
        detail = d;
        return false;
    };
    if (a.type() != b.type())
        return miss("type mismatch");
    switch (a.type()) {
      case Json::Type::Null:
        return true;
      case Json::Type::Bool:
        return a.asBool() == b.asBool() ? true : miss("bool mismatch");
      case Json::Type::Number: {
          double x = a.asNumber(), y = b.asNumber();
          if (std::isnan(x) && std::isnan(y))
              return true;
          if (!std::isfinite(x) || !std::isfinite(y)) {
              // Equal infinities match; anything else (inf vs finite,
              // inf vs -inf, NaN vs number) is a mismatch. The relative
              // bound below would turn every such pair into NaN > NaN
              // comparisons and misreport them.
              if (x == y)
                  return true;
              return miss(numForDiag(x) + " vs " + numForDiag(y));
          }
          double bound = tol * std::max(std::abs(x), std::abs(y)) + 1e-12;
          if (std::abs(x - y) <= bound)
              return true;
          return miss(numForDiag(x) + " vs " + numForDiag(y));
      }
      case Json::Type::String:
        return a.asString() == b.asString()
                   ? true
                   : miss("'" + a.asString() + "' vs '" + b.asString() +
                          "'");
      case Json::Type::Array: {
          const auto &av = a.asArray(), &bv = b.asArray();
          if (av.size() != bv.size())
              return miss("array length mismatch");
          for (std::size_t i = 0; i < av.size(); ++i) {
              if (!jsonNear(av[i], bv[i], tol,
                            path + "[" + std::to_string(i) + "]", where,
                            detail))
                  return false;
          }
          return true;
      }
      case Json::Type::Object: {
          // A member on one side only is named, before any value.
          for (const auto &[k, v] : a.asObject())
              if (!b.find(k))
                  return miss("member '" + k +
                              "' is in the results but not the golden");
          for (const auto &[k, v] : b.asObject())
              if (!a.find(k))
                  return miss("member '" + k +
                              "' is in the golden but not the results");
          for (const auto &[k, v] : a.asObject())
              if (!jsonNear(v, *b.find(k), tol, path + "." + k, where,
                            detail))
                  return false;
          return true;
      }
    }
    return miss("unreachable");
}

/**
 * The -o and --golden of `run` and `merge`: print @p results' document
 * once, write it to -o, and compare it, parsed, with the reference
 * document at --golden within relative --tol. The first divergence
 * goes to stderr; a write and a match are announced on stdout unless
 * --quiet. Returns the exit status: 1 on divergence, else 0.
 */
int
writeResults(const std::string &cmd, const CliArgs &a,
             const ScenarioResults &results, bool traces)
{
    if (a.out.empty() && a.golden.empty())
        return 0;
    const std::string text = writeDocument(results, traces);
    if (!a.out.empty()) {
        atomicWriteFile(a.out, text);
        if (!a.quiet)
            std::cout << "wrote " << a.out << '\n';
    }
    if (a.golden.empty())
        return 0;
    Json golden = Json::load(a.golden);
    (void)resultSchemaVersionOf(golden, cmd + ": '" + a.golden + "'");
    std::string where, detail;
    if (!jsonNear(Json::parse(text), golden, a.tol, "", where, detail)) {
        std::cerr << cmd << ": results diverge from '" << a.golden
                  << "' at " << where << ": " << detail << " (tol " << a.tol
                  << ")\n";
        return 1;
    }
    if (!a.quiet)
        std::cout << "results match " << a.golden << " (tol " << a.tol
                  << ")\n";
    return 0;
}

/**
 * "dimm<k>" for the argmax of a per-DIMM peak-AMB vector (first index
 * wins a tie), "-" when the results carry no per-DIMM data. Makes a
 * remap policy's payoff visible straight from the summary tables,
 * without opening the CSV.
 */
std::string
hottestDimmLabel(const std::vector<double> &peak_amb)
{
    if (peak_amb.empty())
        return "-";
    std::size_t hot = 0;
    for (std::size_t i = 1; i < peak_amb.size(); ++i)
        if (peak_amb[i] > peak_amb[hot])
            hot = i;
    return "dimm" + std::to_string(hot);
}

void
printSummary(const ScenarioResults &results)
{
    Table t("scenario '" + results.scenario + "'",
            {"point", "workload", "policy", "time s", "max AMB C",
             "max DRAM C", "hottest_dimm", "done"});
    for (const auto &pt : results.points) {
        for (const auto &[w, per_policy] : pt.suite) {
            for (const auto &[p, r] : per_policy) {
                t.addRow({pt.label, w, p, Table::num(r.runningTime, 2),
                          Table::num(r.maxAmb, 2),
                          Table::num(r.maxDram, 2),
                          hottestDimmLabel(r.peakAmbPerDimm),
                          r.completed ? "yes" : "NO"});
            }
        }
    }
    t.print(std::cout);
}

/**
 * Does @p path hold a JSONL result stream rather than a results JSON?
 * The stream header is always the compact first line, so sniffing it
 * beats trusting file extensions.
 */
bool
looksLikeStream(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string line;
    if (!in || !std::getline(in, line))
        return false;
    return line.find("\"type\": \"header\"") != std::string::npos ||
           line.find("\"type\":\"header\"") != std::string::npos;
}

/** Per DIMM, the hottest of its bank-grid cells; empty without a grid. */
std::vector<double>
bankPeakMax(const SimResult &r)
{
    const auto &cells = r.peakBankDramPerDimm;
    const std::size_t n = r.bankCells();
    std::vector<double> out;
    for (auto it = cells.begin(); it != cells.end(); it += n)
        out.push_back(*std::max_element(it, it + n));
    return out;
}

/** Split a sweep-point label ("cooling=X,inlet=46") into coordinates. */
std::vector<std::pair<std::string, std::string>>
labelCoords(const std::string &label)
{
    std::vector<std::pair<std::string, std::string>> out;
    if (label == "base")
        return out;
    std::size_t start = 0;
    for (;;) {
        std::size_t comma = label.find(',', start);
        std::string part =
            label.substr(start, comma == std::string::npos
                                    ? std::string::npos
                                    : comma - start);
        std::size_t eq = part.find('=');
        if (eq == std::string::npos)
            out.emplace_back(part, "");
        else
            out.emplace_back(part.substr(0, eq), part.substr(eq + 1));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/** RFC-4180 quoting: labels contain commas. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

/** `report`'s results document, decoded from the file's text. */
ScenarioResults
readResultsFile(const std::string &path)
{
    const std::optional<std::string> text = readFile(path);
    if (!text)
        fatal("json: cannot open '" + path + "' for reading");
    return readDocument(*text, "memtherm report: '" + path + "'");
}

int
cmdReport(const CliArgs &a)
{
    const std::vector<std::string> &inputs = a.inputs;
    const std::string &results_path = inputs.front();

    // JSONL streams (from `run --stream`) canonicalize through the
    // merge path, so a report over shards or a resumed stream shows
    // exactly what the merged results JSON would. Plain results files
    // come one at a time; streams may come in any number.
    const bool anyStream =
        std::any_of(inputs.begin(), inputs.end(), looksLikeStream);
    for (const auto &p : inputs) {
        if (!anyStream || looksLikeStream(p))
            continue;
        // Not a stream: name an unreadable input (missing, a directory)
        // as merge does, not as a results JSON.
        if (!readFile(p))
            fatal("stream: cannot open '" + p + "'");
        fatal("memtherm report: cannot mix results JSON ('" + p +
              "') with JSONL streams in one report");
    }
    if (!anyStream && inputs.size() > 1) {
        fatal("memtherm report: more than one results file given "
              "(multiple inputs are only supported for JSONL streams)");
    }
    const ScenarioResults results = anyStream
                                        ? mergeStreamResults(inputs).results
                                        : readResultsFile(results_path);
    const std::string &scenario = results.scenario;

    // Failed runs travel with the results ('errors', emitted by run and
    // merge); a summary that silently ignored them would read as a
    // clean grid.
    if (!results.errors.empty()) {
        std::cerr << "memtherm report: note: " << results.errors.size()
                  << " failed run(s) recorded in these results (their "
                     "cells are absent from the tables)\n";
    }

    // The normalization baseline, resolved once for the rows, the sweep
    // summary and every header: --baseline, else No-limit when any run
    // has it, else the first policy in the results.
    std::vector<std::string> seen; // policies, first-seen order
    for (const auto &pt : results.points)
        for (const auto &[w, group] : pt.suite)
            for (const auto &[p, r] : group)
                if (std::find(seen.begin(), seen.end(), p) == seen.end())
                    seen.push_back(p);
    const auto present = [&](const std::string &p) {
        return std::find(seen.begin(), seen.end(), p) != seen.end();
    };
    std::string base = a.baseline;
    if (base.empty()) {
        base = seen.empty() || present("No-limit") ? "No-limit"
                                                   : seen.front();
    } else if (!present(base)) {
        // A --baseline typo would otherwise just blank every
        // normalization column; report it like any other bad lookup.
        fatal("memtherm report: baseline policy '" + a.baseline +
              "' does not appear in the results (valid: " +
              joinNames(seen) + ")");
    }
    // Running time over the baseline run's in the same (point, workload)
    // group. An incomplete baseline run's time is the simulation cap,
    // not a running time — normalizing against it would report garbage,
    // so the column stays empty then, as it does for a group without a
    // baseline run.
    const auto norm = [&](const SimResult &r, const auto &group) -> double {
        const auto it = group.find(base);
        if (it == group.end() || !it->second.completed ||
            !(it->second.runningTime > 0.0))
            return NAN;
        return r.runningTime / it->second.runningTime;
    };

    if (!a.quiet) {
        // Per-point detail: the Figures 4.5-4.8 view (running time
        // normalized to the baseline, plus the thermal peaks).
        for (const auto &pt : results.points) {
            Table t("scenario '" + scenario + "' — point " + pt.label,
                    {"workload", "policy", "time s", "max AMB C",
                     "max DRAM C", "x " + base, "hottest_dimm",
                     "done"});
            for (const auto &[w, group] : pt.suite) {
                for (const auto &[p, r] : group) {
                    const double x = norm(r, group);
                    t.addRow({w, p, Table::num(r.runningTime, 2),
                              Table::num(r.maxAmb, 2),
                              Table::num(r.maxDram, 2),
                              std::isfinite(x) ? Table::num(x, 3) : "-",
                              hottestDimmLabel(r.peakAmbPerDimm),
                              r.completed ? "yes" : "NO"});
                }
            }
            t.print(std::cout);
        }

        // Per-axis sweep summary: one row per point, the label split
        // into one column per sweep axis. Aggregation goes through the
        // bounded-memory online accumulator (one state per point, fed
        // one run at a time) — the same machinery that can summarize a
        // grid far too large to hold as a result vector.
        OnlineAxisAggregator agg(base);
        for (const auto &pt : results.points)
            for (const auto &[w, group] : pt.suite)
                for (const auto &[p, r] : group)
                    agg.add(pt.label, w, p, r.completed, r.runningTime,
                            r.maxAmb, r.maxDram);
        std::map<std::string, OnlineAxisAggregator::PointSummary> byLabel;
        for (const auto &ps : agg.summaries())
            byLabel.emplace(ps.label, ps);

        std::vector<std::string> keys;
        for (const auto &pt : results.points)
            for (const auto &[k, v] : labelCoords(pt.label))
                if (std::find(keys.begin(), keys.end(), k) == keys.end())
                    keys.push_back(k);
        std::vector<std::string> headers =
            keys.empty() ? std::vector<std::string>{"point"} : keys;
        headers.insert(headers.end(),
                       {"runs", "incomplete", "max AMB C", "max DRAM C",
                        "mean x " + base});
        Table s("scenario '" + scenario + "' — sweep summary", headers);
        for (const auto &pt : results.points) {
            std::vector<std::string> row;
            if (keys.empty()) {
                row.push_back(pt.label);
            } else {
                const auto coords = labelCoords(pt.label);
                for (const auto &k : keys) {
                    std::string v = "-";
                    for (const auto &[ck, cv] : coords)
                        if (ck == k)
                            v = cv;
                    row.push_back(v);
                }
            }
            const auto it = byLabel.find(pt.label);
            if (it == byLabel.end()) {
                // A point with no rows never reached the aggregator.
                row.insert(row.end(), {"0", "0", "-", "-", "-"});
            } else {
                const auto &ps = it->second;
                row.push_back(std::to_string(ps.runs));
                row.push_back(std::to_string(ps.incomplete));
                row.push_back(Table::num(ps.maxAmb, 2));
                row.push_back(Table::num(ps.maxDram, 2));
                row.push_back(ps.normN
                                  ? Table::num(ps.normSum / ps.normN, 3)
                                  : "-");
            }
            s.addRow(std::move(row));
        }
        s.print(std::cout);
    }

    if (!a.csv.empty()) {
        // Rendered in memory and written via atomicWriteFile, so a kill
        // mid-report never leaves a truncated CSV behind.
        std::ostringstream f;
        // Per-DIMM column groups, "<name><d><unit>", each as wide as its
        // family's widest vector among the runs. The per-DIMM arrays
        // share one width, the widest organization (an org sweep mixes
        // DIMM counts; shorter rows leave trailing cells empty). The
        // refresh (schema v2) and per-bank (v3) groups appear only when
        // some run carried that model, so reports without it keep the
        // bytes older binaries wrote.
        using Cells = std::vector<double> (*)(const SimResult &);
        const std::tuple<const char *, const char *, int, Cells> groups[] = {
            {"peak_amb_dimm", "_c", 0,
             [](const SimResult &r) { return r.peakAmbPerDimm; }},
            {"peak_dram_dimm", "_c", 0,
             [](const SimResult &r) { return r.peakDramPerDimm; }},
            {"avg_power_dimm", "_w", 0,
             [](const SimResult &r) { return r.avgPowerPerDimm; }},
            {"refresh_bw_loss_dimm", "_gb", 1,
             [](const SimResult &r) { return r.refreshBwLossPerDimm; }},
            {"refresh_energy_dimm", "_j", 1,
             [](const SimResult &r) { return r.refreshEnergyPerDimm; }},
            {"peak_bank_dimm", "_c", 2, bankPeakMax}};
        std::size_t width[3] = {};
        for (const auto &pt : results.points)
            for (const auto &[w, group] : pt.suite)
                for (const auto &[p, r] : group)
                    for (const auto &[name, unit, family, cells] : groups)
                        width[family] =
                            std::max(width[family], cells(r).size());
        f << "scenario,point,workload,policy,completed,running_time_s,"
             "max_amb_c,max_dram_c,time_vs_base";
        for (const auto &[name, unit, family, cells] : groups)
            for (std::size_t d = 0; d < width[family]; ++d)
                f << ',' << name << d << unit;
        f << '\n';
        for (const auto &pt : results.points) {
            for (const auto &[w, group] : pt.suite) {
                for (const auto &[p, r] : group) {
                    const double x = norm(r, group);
                    f << csvField(scenario) << ',' << csvField(pt.label)
                      << ',' << csvField(w) << ',' << csvField(p) << ','
                      << (r.completed ? "true" : "false") << ','
                      << numForDiag(r.runningTime) << ','
                      << numForDiag(r.maxAmb) << ','
                      << numForDiag(r.maxDram) << ','
                      << (std::isfinite(x) ? numForDiag(x) : "");
                    for (const auto &[name, unit, family, cells] : groups) {
                        const std::vector<double> v = cells(r);
                        for (std::size_t d = 0; d < width[family]; ++d) {
                            f << ',';
                            if (d < v.size())
                                f << numForDiag(v[d]);
                        }
                    }
                    f << '\n';
                }
            }
        }
        atomicWriteFile(a.csv, f.str());
        if (!a.quiet)
            std::cout << "wrote " << a.csv << '\n';
    }
    return 0;
}

int
cmdMerge(const CliArgs &a)
{
    const MergedResults merged = mergeStreamResults(a.inputs);
    const std::vector<RunError> &errors = merged.results.errors;

    // An incomplete merge would masquerade as a (smaller) clean result;
    // name what is missing instead of emitting it.
    if (!merged.missingRuns.empty()) {
        std::string ix;
        const std::size_t show =
            std::min<std::size_t>(merged.missingRuns.size(), 10);
        for (std::size_t i = 0; i < show; ++i) {
            if (!ix.empty())
                ix += ", ";
            ix += std::to_string(merged.missingRuns[i]);
        }
        if (merged.missingRuns.size() > show)
            ix += ", ...";
        fatal("memtherm merge: " +
              std::to_string(merged.missingRuns.size()) + " of " +
              std::to_string(merged.totalRuns) +
              " run(s) have no record in the given stream(s) (indices " +
              ix + "); run the missing shards or resume the interrupted "
              "stream");
    }

    if (!a.quiet) {
        std::cout << "merged " << a.inputs.size() << " stream(s): scenario '"
                  << merged.spec.name << "', " << merged.totalRuns
                  << " run(s), " << errors.size()
                  << " failure record(s)\n";
    }
    int rc = writeResults("memtherm merge", a, merged.results,
                          merged.traces);
    // Printed after all regular output, so the intact results of the
    // rest of the grid are never hidden behind the failures.
    if (!errors.empty()) {
        std::cerr << "memtherm merge: " << failureSummary(errors) << '\n';
        rc = 1;
    }
    return rc;
}

/**
 * The prefix-sharing line: what the shared-prefix cache bought, and the
 * level-1 solve's mean work per simulated window.
 */
void
printBatchStats(const BatchStats &stats)
{
    std::cout << "prefix sharing: "
              << Json::numberToString(stats.simulatedWindows) << " of "
              << Json::numberToString(stats.logicalWindows)
              << " window(s) simulated, prefix hit rate "
              << Json::numberToString(stats.hitRate()) << ", "
              << stats.forks << " fork(s), "
              << Json::numberToString(stats.passesPerSolve())
              << " demand passes per solve\n";
}

int
cmdRun(const CliArgs &a)
{
    ScenarioSpec spec = ScenarioSpec::load(a.scenario);
    if (a.copies) {
        spec.copiesPerApp = a.copies;
        spec.sweepCopies.clear();
    }

    ExperimentEngine engine(a.threads);

    int rc = 0; // the -o/--golden outcome
    std::vector<RunError> failures;
    if (!a.stream.empty()) {
        StreamRunOptions sopts;
        sopts.path = a.stream;
        sopts.resume = a.resume;
        sopts.shard = a.shard;
        sopts.traces = a.traces;
        StreamRunStats stats = runScenarioStream(spec, engine, sopts);

        if (!a.quiet) {
            printBatchStats(stats.batch);
            std::cout << "stream " << a.stream << ": "
                      << stats.totalRuns << " run(s) in grid";
            if (a.shard.sharded()) {
                std::cout << ", " << stats.shardRuns << " in shard "
                          << a.shard.label();
            }
            std::cout << ", " << stats.skipped << " already complete, "
                      << stats.executed << " executed, " << stats.failed
                      << " failed\n";
        }
        // -o/--golden view the stream through the canonical merge, so
        // their bytes cannot differ from `memtherm merge` output.
        if (!a.out.empty() || !a.golden.empty()) {
            const MergedResults merged = mergeStreamResults({a.stream});
            rc = writeResults("memtherm run", a, merged.results,
                              merged.traces);
        }
        failures = std::move(stats.failures);
    } else {
        BatchStats batch_stats;
        ScenarioResults results = runScenario(spec, engine, &batch_stats);

        if (!a.quiet) {
            printBatchStats(batch_stats);
            printSummary(results);
        }
        rc = writeResults("memtherm run", a, results, a.traces);
        failures = std::move(results.errors);
    }
    // Failures never hide completed work (everything above still ran and
    // wrote), but they must not exit 0 either.
    if (!failures.empty()) {
        std::cerr << "memtherm run: " << failureSummary(failures) << '\n';
        rc = 1;
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty() || args[0] == "--help" || args[0] == "-h") {
        (args.empty() ? std::cerr : std::cout) << usage();
        return args.empty() ? 1 : 0;
    }
    try {
        const CliArgs a = parseArgs(args[0], {args.begin() + 1, args.end()});
        switch (a.command) {
          case Command::Run:
            return cmdRun(a);
          case Command::Merge:
            return cmdMerge(a);
          case Command::Report:
            return cmdReport(a);
          case Command::Validate:
            return cmdValidate(a);
          case Command::List:
            return cmdList(a);
          case Command::Trace:
            return cmdTrace(a);
        }
    } catch (const UsageError &e) {
        if (*e.what())
            std::cerr << "memtherm: " << e.what() << '\n';
        std::cerr << usage();
    } catch (const FatalError &e) {
        std::cerr << "memtherm: " << e.what() << '\n';
    } catch (const PanicError &e) {
        std::cerr << "memtherm: " << e.what() << '\n';
    }
    return 1;
}
