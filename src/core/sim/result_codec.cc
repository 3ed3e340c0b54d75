#include "core/sim/result_codec.hh"

#include <algorithm>
#include <array>
#include <bitset>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/logging.hh"
#include "core/sim/registry.hh"
#include "core/sim/scenario.hh"

namespace memtherm
{

namespace
{

/** What a result table entry declares besides its member. */
struct ResultDef
{
    const char *key; ///< JSON member of a result object
    int version = 1; ///< result schema version that introduced it
    /// Written only when this vector is non-empty, so results without the
    /// data keep the member set (and bytes) of the older schema.
    std::vector<double> SimResult::*sparse = nullptr;
    bool optional = false; ///< absent reads as empty (so does sparse)
    bool traces = false;   ///< written only when traces are asked for
};

/** A result member that is a JSON object: its sub-members by key. */
template <typename T, std::size_t N>
using Group = std::array<std::pair<const char *, T SimResult::*>, N>;

/** `peak_bank_dram_c`: per DIMM, one row of its bank_grid cells. */
struct BankRows
{
};

/**
 * The table: calls @p f(def, member) for every SimResult member, in the
 * order toJson() writes them; put() and get() know each kind of member.
 */
template <typename F>
void
forEachResultMember(F &&f)
{
    using R = SimResult;
    f({.key = "workload"}, &R::workload);
    f({.key = "policy"}, &R::policy);
    f({.key = "completed"}, &R::completed);
    f({.key = "running_time_s"}, &R::runningTime);
    f({.key = "total_instr"}, &R::totalInstr);
    f({.key = "read_gb"}, &R::totalReadGB);
    f({.key = "write_gb"}, &R::totalWriteGB);
    f({.key = "l2_misses"}, &R::totalL2Misses);
    f({.key = "mem_energy_j"}, &R::memEnergy);
    f({.key = "cpu_energy_j"}, &R::cpuEnergy);
    f({.key = "max_amb_c"}, &R::maxAmb);
    f({.key = "max_dram_c"}, &R::maxDram);
    f({.key = "time_above_amb_tdp_s"}, &R::timeAboveAmbTdp);
    f({.key = "time_above_dram_tdp_s"}, &R::timeAboveDramTdp);
    f({.key = "peak_amb_per_dimm_c", .optional = true}, &R::peakAmbPerDimm);
    f({.key = "peak_dram_per_dimm_c", .optional = true},
      &R::peakDramPerDimm);
    f({.key = "avg_power_per_dimm_w", .optional = true},
      &R::avgPowerPerDimm);
    // Sized only when the run's refresh model is active.
    f({.key = "refresh_bw_loss_per_dimm_gb", .version = 2,
       .sparse = &R::refreshBwLossPerDimm},
      &R::refreshBwLossPerDimm);
    f({.key = "refresh_energy_per_dimm_j", .version = 2,
       .sparse = &R::refreshEnergyPerDimm},
      &R::refreshEnergyPerDimm);
    // Sized only when the run's bank-grid thermal model is active.
    f({.key = "bank_grid", .version = 3, .sparse = &R::peakBankDramPerDimm},
      Group<int, 2>{{{"x", &R::bankGridX}, {"z", &R::bankGridZ}}});
    f({.key = "peak_bank_dram_c", .version = 3,
       .sparse = &R::peakBankDramPerDimm},
      BankRows{});
    f({.key = "traces", .optional = true, .traces = true},
      Group<TimeSeries, 5>{{{"amb_c", &R::ambTrace},
                            {"dram_c", &R::dramTrace},
                            {"inlet_c", &R::inletTrace},
                            {"cpu_power_w", &R::cpuPowerTrace},
                            {"bw_gbps", &R::bwTrace}}});
}

/** Whether toJson(@p r, @p traces) writes the member @p d. */
bool
written(const ResultDef &d, const SimResult &r, bool traces)
{
    return d.traces ? traces : !d.sparse || !(r.*d.sparse).empty();
}

/** Members refused, not dropped: dropping would make merge lossy. */
[[noreturn]] void
unknownMember(const std::string &key, const char *where,
              const std::vector<std::string> &allowed)
{
    fatal("scenario: unknown member '" + key + "' in " + where +
          " (valid: " + joinNames(allowed) + ")");
}

void
checkMembers(const Json &obj, const char *where,
             const std::vector<std::string> &allowed)
{
    for (const auto &[key, v] : obj.asObject())
        if (std::find(allowed.begin(), allowed.end(), key) == allowed.end())
            unknownMember(key, where, allowed);
}

/** put()'s emitter behind toJson(): builds the tree JsonWriter prints. */
class JsonBuilder
{
  public:
    void beginObject() { open(Json::object()); }
    void endObject() { close(); }
    void beginArray() { open(Json::array()); }
    void endArray() { close(); }
    void key(const char *k) { keys.back() = k; }
    void number(double v) { add(Json(v)); }
    void boolean(bool b) { add(Json(b)); }
    void string(const std::string &s) { add(Json(s)); }

    Json take() { return std::move(done); }

  private:
    void
    open(Json container)
    {
        open_.push_back(std::move(container));
        keys.push_back(nullptr);
    }
    void
    close()
    {
        Json v = std::move(open_.back());
        open_.pop_back();
        keys.pop_back();
        add(std::move(v));
    }
    void
    add(Json v)
    {
        if (open_.empty())
            done = std::move(v);
        else if (open_.back().isObject())
            open_.back().set(keys.back(), std::move(v));
        else
            open_.back().push(std::move(v));
    }

    std::vector<Json> open_;        ///< the containers being built
    std::vector<const char *> keys; ///< each one's pending member key
    Json done;
};

template <typename E>
void
putNumbers(E &out, const std::vector<double> &v)
{
    out.beginArray();
    for (double x : v)
        out.number(x);
    out.endArray();
}

/** Emit member @p m (a member pointer, Group or BankRows) to @p out. */
template <typename E, typename M>
void
put(E &out, const SimResult &r, const M &m)
{
    if constexpr (std::is_same_v<M, BankRows>) {
        const std::vector<double> &v = r.peakBankDramPerDimm;
        const std::size_t n = r.bankCells();
        out.beginArray();
        for (std::size_t i = 0; i < v.size(); i += n) {
            out.beginArray();
            for (std::size_t c = i; c < i + n; ++c)
                out.number(v[c]);
            out.endArray();
        }
        out.endArray();
    } else if constexpr (requires { m.size(); }) { // a Group
        out.beginObject();
        for (const auto &[k, sub] : m) {
            out.key(k);
            put(out, r, sub);
        }
        out.endObject();
    } else {
        const auto &v = r.*m;
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, TimeSeries>) {
            out.beginObject();
            out.key("period_s");
            out.number(v.period());
            out.key("values");
            putNumbers(out, v.values());
            out.endObject();
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
            putNumbers(out, v);
        } else if constexpr (std::is_same_v<T, std::string>) {
            out.string(v);
        } else if constexpr (std::is_same_v<T, bool>) {
            out.boolean(v);
        } else {
            out.number(v);
        }
    }
}

/** The whole result object, member by member in table order. */
template <typename E>
void
putResult(E &out, const SimResult &r, bool traces)
{
    out.beginObject();
    forEachResultMember([&](const ResultDef &d, const auto &m) {
        if (written(d, r, traces)) {
            out.key(d.key);
            put(out, r, m);
        }
    });
    out.endObject();
}

/**
 * JsonReader's reading steps over a parsed tree, so get() decodes the
 * results of a document (scenarioResultsFromJson) from the tree they
 * are already in. A wrong type fails in Json's accessors; an offset is
 * a node.
 */
class TreeReader
{
  public:
    explicit TreeReader(const Json &root) : at(&root) {}

    double readNumber() { return at->asNumber(); }
    bool readBool() { return at->asBool(); }
    void readString(std::string &out) { out = at->asString(); }
    void skipValue() {}

    void
    beginObject()
    {
        (void)at->asObject();
        frames.push_back({at, 0});
    }
    bool
    nextMember(std::string &key)
    {
        Frame &f = frames.back();
        const Json::Members &m = f.node->asObject();
        if (f.next == m.size()) {
            frames.pop_back();
            return false;
        }
        key = m[f.next].first;
        at = &m[f.next++].second;
        return true;
    }
    void
    beginArray()
    {
        (void)at->asArray();
        frames.push_back({at, 0});
    }
    bool
    nextElement()
    {
        Frame &f = frames.back();
        const std::vector<Json> &a = f.node->asArray();
        if (f.next == a.size()) {
            frames.pop_back();
            return false;
        }
        at = &a[f.next++];
        return true;
    }

    const Json *offset() const { return at; }
    void seek(const Json *v) { at = v; }

  private:
    struct Frame
    {
        const Json *node;
        std::size_t next; ///< the entry nextMember/nextElement steps to
    };

    const Json *at; ///< the value the next read takes
    std::vector<Frame> frames;
};

/** Append an array of numbers to @p out. */
template <typename In>
void
getNumbers(In &in, std::vector<double> &out)
{
    in.beginArray();
    while (in.nextElement())
        out.push_back(in.readNumber());
}

/**
 * Read put()'s form of @p m from @p in, a JsonReader or a TreeReader;
 * the reader refuses a wrong type.
 */
template <typename In, typename M>
void
get(In &in, SimResult &r, const M &m)
{
    if constexpr (std::is_same_v<M, BankRows>) {
        // Read after `bank_grid`, which sets the row width.
        const std::size_t n = r.bankCells();
        if (n == 0)
            fatal("needs a 'bank_grid' member");
        in.beginArray();
        while (in.nextElement()) {
            const std::size_t before = r.peakBankDramPerDimm.size();
            getNumbers(in, r.peakBankDramPerDimm); // appends
            if (r.peakBankDramPerDimm.size() - before != n)
                fatal("rows must hold the bank grid's " + std::to_string(n) +
                      " cells");
        }
    } else if constexpr (requires { m.size(); }) { // a Group
        in.beginObject();
        std::size_t members = 0;
        std::string key;
        while (in.nextMember(key)) {
            const auto sub = std::find_if(m.begin(), m.end(), [&](auto &e) {
                return key == e.first;
            });
            if (sub == m.end())
                fatal("has an unknown member '" + key + "'");
            get(in, r, sub->second);
            ++members;
        }
        if (members != m.size())
            fatal("must have exactly " + std::to_string(m.size()) +
                  " members");
    } else {
        auto &out = r.*m;
        using T = std::decay_t<decltype(out)>;
        if constexpr (std::is_same_v<T, TimeSeries>) {
            std::optional<double> period;
            std::optional<std::vector<double>> values;
            in.beginObject();
            std::string key;
            while (in.nextMember(key)) {
                if (key == "period_s")
                    period = in.readNumber();
                else if (key == "values")
                    getNumbers(in, values.emplace());
                else
                    unknownMember(key, "a trace", {"period_s", "values"});
            }
            if (!period)
                fatal("json: missing member 'period_s'");
            if (!(*period > 0.0))
                fatal("'period_s' must be positive");
            if (!values)
                fatal("json: missing member 'values'");
            out = TimeSeries(*period);
            for (double x : *values)
                out.add(x);
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
            getNumbers(in, out);
        } else if constexpr (std::is_same_v<T, int>) {
            // A bank grid side, within the scenario layer's cell limit.
            const double x = in.readNumber();
            if (!(x >= 1 && x <= 1024 && x == std::floor(x)))
                fatal("bank grid sides must be integers in [1, 1024]");
            out = static_cast<int>(x);
        } else if constexpr (std::is_same_v<T, std::string>) {
            in.readString(out);
        } else if constexpr (std::is_same_v<T, bool>) {
            out = in.readBool();
        } else {
            out = in.readNumber();
        }
    }
}

/** readResult(), on either reader. */
template <typename In>
SimResult
getResult(In &in, const std::string &where, std::optional<bool> traces)
{
    SimResult r;
    const char *key = nullptr; // the member being read, for diagnostics
    try {
        // Members arrive in any order. `peak_bank_dram_c` needs the row
        // width `bank_grid` sets, so one that comes first is skipped,
        // and read from its offset once every member is in.
        std::bitset<32> seen; // table entries present, by position
        std::optional<decltype(in.offset())> rows;
        std::string name;
        in.beginObject();
        while (in.nextMember(name)) {
            std::size_t i = 0;
            forEachResultMember([&](const ResultDef &d, const auto &m) {
                if (key || name != d.key) {
                    ++i;
                    return;
                }
                key = d.key;
                seen.set(i);
                if (d.traces && traces && !*traces)
                    fatal("present, but the traces flag is off");
                if constexpr (std::is_same_v<std::decay_t<decltype(m)>,
                                             BankRows>) {
                    if (r.bankCells() == 0) {
                        rows = in.offset();
                        in.skipValue();
                        return;
                    }
                }
                get(in, r, m);
            });
            if (!key)
                unknownMember(name, "a result", resultMemberKeys());
            key = nullptr;
        }
        std::size_t i = 0;
        forEachResultMember([&](const ResultDef &d, const auto &m) {
            key = d.key;
            const bool present = seen.test(i++);
            if (d.traces && traces && present != *traces)
                fatal("missing, but the traces flag is on");
            if (!present && !d.sparse && !d.optional)
                fatal("missing");
            if constexpr (std::is_same_v<std::decay_t<decltype(m)>,
                                         BankRows>) {
                if (rows) {
                    const auto end = in.offset();
                    in.seek(*rows);
                    get(in, r, m);
                    in.seek(end);
                }
            }
        });
    } catch (const FatalError &e) {
        fatal(key ? where + ": member '" + key + "'" : where, e);
    }
    return r;
}

} // namespace

const std::vector<std::string> &
resultMemberKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> out;
        forEachResultMember(
            [&](const ResultDef &d, const auto &) { out.push_back(d.key); });
        return out;
    }();
    return keys;
}

Json
toJson(const SimResult &r, bool traces)
{
    JsonBuilder b;
    putResult(b, r, traces);
    return b.take();
}

void
writeResult(JsonWriter &out, const SimResult &r, bool traces)
{
    putResult(out, r, traces);
}

SimResult
readResult(JsonReader &in, const std::string &where,
           std::optional<bool> traces)
{
    return getResult(in, where, traces);
}

SimResult
simResultFromJson(const Json &j, const std::string &where,
                  std::optional<bool> traces)
{
    TreeReader in(j);
    return getResult(in, where, traces);
}

int
resultSchemaVersionOf(const Json &doc, const std::string &where,
                      int max_version)
{
    const Json *v = doc.isObject() ? doc.find("schema_version") : nullptr;
    if (!v)
        return 1; // version-absent legacy file
    // Both checks precede the cast, which is undefined out of range.
    const double ver = v->isNumber() ? v->asNumber() : 0.0;
    if (ver != std::floor(ver) || ver < 1)
        fatal(where + ": 'schema_version' must be a positive integer");
    if (ver > max_version) {
        fatal(where + ": schema version " + Json::numberToString(ver) +
              " is newer than this binary's " +
              std::to_string(max_version) +
              "; upgrade memtherm to read this file");
    }
    return static_cast<int>(ver);
}

Json
toJson(const ScenarioResults &r, bool traces)
{
    // Stamped with the highest version among the members written, and
    // not at all for the historical member set (kResultSchemaVersion).
    int version = 1;
    Json pts = Json::array();
    for (const auto &pt : r.points) {
        Json suite = Json::object();
        for (const auto &[w, per_policy] : pt.suite) {
            Json pw = Json::object();
            for (const auto &[p, res] : per_policy) {
                pw.set(p, toJson(res, traces));
                forEachResultMember([&](const ResultDef &d, const auto &) {
                    if (written(d, res, traces))
                        version = std::max(version, d.version);
                });
            }
            suite.set(w, std::move(pw));
        }
        Json p = Json::object();
        p.set("label", pt.label);
        p.set("results", std::move(suite));
        pts.push(std::move(p));
    }
    Json j = Json::object();
    j.set("scenario", r.scenario);
    if (version > 1)
        j.set("schema_version", version);
    j.set("points", std::move(pts));
    // Emitted only when runs failed, so clean results (and the
    // committed goldens) keep their exact historical shape.
    if (!r.errors.empty()) {
        Json errs = Json::array();
        for (const auto &e : r.errors) {
            Json o = Json::object();
            o.set("index", static_cast<std::uint64_t>(e.index));
            o.set("point", e.point);
            o.set("workload", e.workload);
            o.set("policy", e.policy);
            o.set("error", e.error);
            errs.push(std::move(o));
        }
        j.set("errors", std::move(errs));
    }
    return j;
}

ScenarioResults
scenarioResultsFromJson(const Json &doc, const std::string &where)
{
    const Json *pts = doc.find("points");
    if (!pts) {
        fatal(where + " does not look like memtherm results (expected an "
                      "object with a 'points' array; produce one with "
                      "`memtherm run -o`)");
    }
    // Version-absent files are legacy (v1) and read unchanged; a
    // document from a newer binary is refused rather than misread.
    (void)resultSchemaVersionOf(doc, where);

    ScenarioResults out;
    std::string at = where; // what is being read, for diagnostics
    try {
        checkMembers(doc, "the results",
                     {"scenario", "schema_version", "points", "errors"});
        out.scenario = doc.at("scenario").asString();
        for (const Json &pj : pts->asArray()) {
            at = where + ": points[" + std::to_string(out.points.size()) +
                 "]";
            checkMembers(pj, "a point", {"label", "results"});
            ScenarioResults::Point &pt = out.points.emplace_back();
            pt.label = pj.at("label").asString();
            for (const auto &[w, group] : pj.at("results").asObject()) {
                if (group.asObject().empty())
                    fatal("workload '" + w + "' has no results");
                for (const auto &[p, rj] : group.asObject())
                    pt.suite[w][p] = simResultFromJson(rj, w + "/" + p);
            }
        }
        if (const Json *errs = doc.find("errors")) {
            for (const Json &e : errs->asArray()) {
                at = where + ": errors[" +
                     std::to_string(out.errors.size()) + "]";
                checkMembers(e, "an error", {"index", "point", "workload",
                                             "policy", "error"});
                out.errors.push_back(
                    {e.uintAt("index"), e.at("point").asString(),
                     e.at("workload").asString(), e.at("policy").asString(),
                     e.at("error").asString()});
            }
        }
    } catch (const FatalError &e) {
        fatal(at, e);
    }
    return out;
}

} // namespace memtherm
