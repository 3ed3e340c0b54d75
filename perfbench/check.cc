/**
 * @file
 * Output checks: committed reference results (default seed) and
 * second-path comparisons (any seed).
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "common/logging.hh"
#include "perfbench.hh"

namespace perfbench
{

using namespace memtherm;

namespace
{

void
flattenNumbers(const Json &j, std::vector<double> &out)
{
    if (j.isNumber()) {
        out.push_back(j.asNumber());
    } else if (j.isArray()) {
        for (const Json &e : j.asArray())
            flattenNumbers(e, out);
    }
}

Json
countsJson(const Counts &c)
{
    Json j = Json::object();
    j.set("logical_windows", c.logicalWindows);
    j.set("simulated_windows", c.simulatedWindows);
    j.set("forks", c.forks);
    j.set("decisions", c.decisions);
    return j;
}

} // namespace

std::vector<std::pair<std::string, Json>>
runsOf(const Json &doc)
{
    std::vector<std::pair<std::string, Json>> out;
    for (const Json &pt : doc.at("points").asArray()) {
        const std::string &label = pt.at("label").asString();
        for (const auto &[w, per_policy] : pt.at("results").asObject())
            for (const auto &[p, r] : per_policy.asObject())
                out.emplace_back(label + "|" + w + "|" + p, r);
    }
    return out;
}

Json
digestOf(const Json &result)
{
    if (result.isObject()) {
        Json o = Json::object();
        for (const auto &[k, v] : result.asObject())
            o.set(k, digestOf(v));
        return o;
    }
    if (!result.isArray())
        return result;
    std::vector<double> xs;
    flattenNumbers(result, xs);
    double sum = 0.0, wsum = 0.0;
    double lo = xs.empty() ? 0.0 : xs.front();
    double hi = lo;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sum += xs[i];
        wsum += static_cast<double>(i + 1) * xs[i];
        lo = std::min(lo, xs[i]);
        hi = std::max(hi, xs[i]);
    }
    Json d = Json::array();
    d.push(static_cast<double>(xs.size()));
    d.push(sum);
    d.push(lo);
    d.push(hi);
    d.push(wsum);
    return d;
}

bool
near(const Json &a, const Json &b, double tol, std::string &where)
{
    if (a.type() != b.type()) {
        where = "type mismatch";
        return false;
    }
    switch (a.type()) {
      case Json::Type::Number: {
          const double x = a.asNumber(), y = b.asNumber();
          if (x == y)
              return true;
          const double bound =
              tol * std::max(std::abs(x), std::abs(y)) + 1e-12;
          if (std::isfinite(x) && std::isfinite(y) &&
              std::abs(x - y) <= bound)
              return true;
          where = Json::numberToString(x) + " vs " + Json::numberToString(y);
          return false;
      }
      case Json::Type::Array: {
          const auto &av = a.asArray(), &bv = b.asArray();
          if (av.size() != bv.size()) {
              where = "array length";
              return false;
          }
          for (std::size_t i = 0; i < av.size(); ++i)
              if (!near(av[i], bv[i], tol, where)) {
                  where = "[" + std::to_string(i) + "] " + where;
                  return false;
              }
          return true;
      }
      case Json::Type::Object: {
          if (a.asObject().size() != b.asObject().size()) {
              where = "member count";
              return false;
          }
          for (const auto &[k, v] : a.asObject()) {
              const Json *w = b.find(k);
              if (!w) {
                  where = "missing '" + k + "'";
                  return false;
              }
              if (!near(v, *w, tol, where)) {
                  where = "." + k + " " + where;
                  return false;
              }
          }
          return true;
      }
      default:
        if (a == b)
            return true;
        where = "value mismatch";
        return false;
    }
}

void
writeReference(const std::string &path, const WorkloadDef &w,
               const Pass &pass, const Counts &counts)
{
    // One line per run keeps the file small and its diffs readable.
    std::ostringstream text;
    text << "{\n  \"workload\": " << Json(w.name).dump(0)
         << ",\n  \"seed\": " << kDefaultSeed
         << ",\n  \"counts\": " << countsJson(counts).dump(0)
         << ",\n  \"runs\": {";
    const auto runs = runsOf(pass.document);
    for (std::size_t i = 0; i < runs.size(); ++i)
        text << (i ? ",\n    " : "\n    ") << Json(runs[i].first).dump(0)
             << ": " << digestOf(runs[i].second).dump(0);
    text << "\n  }\n}\n";
    std::ofstream out(path);
    out << text.str();
    if (!out.flush())
        fatal("cannot write reference '" + path + "'");
}

std::size_t
checkAgainstReference(const std::string &path, const Pass &pass,
                      const Counts &counts, std::string &log)
{
    const Json ref = Json::load(path);
    const Json &ref_runs = ref.at("runs");
    std::size_t failed = 0;
    std::size_t seen = 0;
    for (const auto &[key, r] : runsOf(pass.document)) {
        const Json *want = ref_runs.find(key);
        std::string where;
        if (!want) {
            log += "reference: no run '" + key + "'\n";
            ++failed;
            continue;
        }
        ++seen;
        if (!near(digestOf(r), *want, kGoldenTol, where)) {
            log += "reference: run '" + key + "' differs at " + where + "\n";
            ++failed;
        }
    }
    if (seen < ref_runs.asObject().size()) {
        log += "reference: " +
               std::to_string(ref_runs.asObject().size() - seen) +
               " run(s) missing from the output\n";
        failed += ref_runs.asObject().size() - seen;
    }

    // Simulated counts repeat exactly; decisions only when both sides
    // measured them (traced passes).
    const Json &rc = ref.at("counts");
    auto exact = [&](const char *name, double got) {
        const double want = rc.at(name).asNumber();
        if (got == want)
            return;
        log += std::string("reference: ") + name + " " +
               Json::numberToString(got) + " != " +
               Json::numberToString(want) + "\n";
        ++failed;
    };
    exact("logical_windows", counts.logicalWindows);
    exact("simulated_windows", counts.simulatedWindows);
    exact("forks", counts.forks);
    if (counts.decisions >= 0.0 && rc.at("decisions").asNumber() >= 0.0)
        exact("decisions", counts.decisions);
    return failed;
}

std::size_t
compareDocuments(const Json &doc, const Json &ref, double tol,
                 std::string &log)
{
    std::map<std::string, const Json *> want;
    const auto ref_runs = runsOf(ref);
    for (const auto &[key, r] : ref_runs)
        want[key] = &r;
    std::size_t failed = 0;
    std::size_t seen = 0;
    for (const auto &[key, r] : runsOf(doc)) {
        auto it = want.find(key);
        std::string where;
        if (it == want.end()) {
            log += "second path: no run '" + key + "'\n";
            ++failed;
            continue;
        }
        ++seen;
        if (!near(r, *it->second, tol, where)) {
            log += "second path: run '" + key + "' differs at " + where +
                   "\n";
            ++failed;
        }
    }
    if (seen < want.size())
        failed += want.size() - seen;
    return failed;
}

} // namespace perfbench
