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

/** The members of an entry of a document's `errors`, in order... */
const std::vector<std::string> kErrorKeys = {"index", "point", "workload",
                                             "policy", "error"};
/** ...and the strings they hold, after the `index`. */
std::string RunError::*const kErrorStrings[] = {
    nullptr, &RunError::point, &RunError::workload, &RunError::policy,
    &RunError::error};

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

/**
 * put()'s emitter behind toJson(): builds the tree JsonWriter prints.
 * A key is held as a view until its value is added, so the caller's
 * string must live that long.
 */
class JsonBuilder
{
  public:
    void beginObject() { open(Json::object()); }
    void endObject() { close(); }
    void beginArray() { open(Json::array()); }
    void endArray() { close(); }
    void key(std::string_view k) { keys.back() = k; }
    void number(double v) { add(Json(v)); }
    void boolean(bool b) { add(Json(b)); }
    void string(const std::string &s) { add(Json(s)); }

    Json take() { return std::move(done); }

  private:
    void
    open(Json container)
    {
        open_.push_back(std::move(container));
        keys.push_back({});
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
            open_.back().set(std::string(keys.back()), std::move(v));
        else
            open_.back().push(std::move(v));
    }

    std::vector<Json> open_;        ///< the containers being built
    std::vector<std::string_view> keys; ///< each one's pending member key
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

/** The whole results document; see writeDocument(). */
template <typename E>
void
putDocument(E &out, const ScenarioResults &r, bool traces)
{
    // Stamped with the highest version among the members written, and
    // not at all for the historical member set, so version-absent files
    // keep their bytes.
    int version = 1;
    for (const auto &pt : r.points)
        for (const auto &[w, per_policy] : pt.suite)
            for (const auto &[p, res] : per_policy)
                forEachResultMember([&](const ResultDef &d, const auto &) {
                    if (written(d, res, traces))
                        version = std::max(version, d.version);
                });
    out.beginObject();
    out.key("scenario");
    out.string(r.scenario);
    if (version > 1) {
        out.key("schema_version");
        out.number(version);
    }
    out.key("points");
    out.beginArray();
    for (const auto &pt : r.points) {
        out.beginObject();
        out.key("label");
        out.string(pt.label);
        out.key("results");
        out.beginObject();
        for (const auto &[w, per_policy] : pt.suite) {
            out.key(w);
            out.beginObject();
            for (const auto &[p, res] : per_policy) {
                out.key(p);
                putResult(out, res, traces);
            }
            out.endObject();
        }
        out.endObject();
        out.endObject();
    }
    out.endArray();
    // Only when runs failed, so clean results (and the committed
    // goldens) keep their exact historical shape.
    if (!r.errors.empty()) {
        out.key("errors");
        out.beginArray();
        for (const RunError &e : r.errors) {
            out.beginObject();
            out.key("index");
            out.number(static_cast<double>(e.index));
            for (std::size_t k = 1; k < kErrorKeys.size(); ++k) {
                out.key(kErrorKeys[k]);
                out.string(e.*kErrorStrings[k]);
            }
            out.endObject();
        }
        out.endArray();
    }
    out.endObject();
}

/** Append an array of numbers to @p out. */
void
getNumbers(JsonReader &in, std::vector<double> &out)
{
    in.beginArray();
    while (in.nextElement())
        out.push_back(in.readNumber());
}

/** Read put()'s form of @p m from @p in; the reader refuses a wrong type. */
template <typename M>
void
get(JsonReader &in, SimResult &r, const M &m)
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

} // namespace

SimResult
readResult(JsonReader &in, const std::string &where,
           std::optional<bool> traces)
{
    SimResult r;
    const char *key = nullptr; // the member being read, for diagnostics
    try {
        // Members arrive in any order. `peak_bank_dram_c` needs the row
        // width `bank_grid` sets, so one that comes first is skipped,
        // and read from its offset once every member is in.
        std::bitset<32> seen; // table entries present, by position
        std::optional<std::size_t> rows;
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

std::size_t
readRunIndex(JsonReader &in)
{
    const double ix = in.peekType() == Json::Type::Number
                          ? in.readNumber()
                          : (in.skipValue(), -1.0);
    if (!(ix >= 0.0 && ix <= 9007199254740992.0 && ix == std::floor(ix)))
        fatal("json: member 'index' must be an integer within [0, 2^53]");
    return static_cast<std::size_t>(ix);
}

namespace
{

/** resultSchemaVersionOf() of a `schema_version` @p ver (0: no number). */
int
checkedVersion(double ver, int max_version)
{
    // Both checks precede the cast, which is undefined out of range.
    if (ver != std::floor(ver) || ver < 1)
        fatal("'schema_version' must be a positive integer");
    if (ver > max_version) {
        fatal("schema version " + Json::numberToString(ver) +
              " is newer than this binary's " +
              std::to_string(max_version) +
              "; upgrade memtherm to read this file");
    }
    return static_cast<int>(ver);
}

/**
 * Walk the object at @p in's position, its members in any order:
 * @p read(k) reads the value of the member named @p keys[k]. Another
 * member is refused, naming @p what; so is the absence of one whose
 * bit is set in @p required.
 */
template <typename F>
void
readMembers(JsonReader &in, const char *what,
            const std::vector<std::string> &keys, unsigned required, F &&read)
{
    std::string key;
    in.beginObject();
    while (in.nextMember(key)) {
        const auto k = std::find(keys.begin(), keys.end(), key);
        if (k == keys.end())
            unknownMember(key, what, keys);
        required &= ~(1u << (k - keys.begin()));
        read(static_cast<std::size_t>(k - keys.begin()));
    }
    for (std::size_t k = 0; k < keys.size(); ++k)
        if (required & (1u << k))
            fatal("json: missing member '" + keys[k] + "'");
}

/** One element of a document's `points`. */
void
readPoint(JsonReader &in, ScenarioResults::Point &pt)
{
    static const std::vector<std::string> keys = {"label", "results"};
    std::string w, p;
    readMembers(in, "a point", keys, 0b11, [&](std::size_t k) {
        if (k == 0)
            return in.readString(pt.label);
        in.beginObject();
        while (in.nextMember(w)) {
            auto &group = pt.suite[w];
            in.beginObject();
            while (in.nextMember(p))
                group[p] = readResult(in, w + "/" + p);
            if (group.empty())
                fatal("workload '" + w + "' has no results");
        }
    });
}

/** One element of a document's `errors`. */
void
readError(JsonReader &in, RunError &e)
{
    readMembers(in, "an error", kErrorKeys, 0b11111, [&](std::size_t m) {
        if (m == 0)
            e.index = readRunIndex(in);
        else
            in.readString(e.*kErrorStrings[m]);
    });
}

} // namespace

int
resultSchemaVersionOf(const Json &doc, const std::string &where,
                      int max_version)
{
    const Json *v = doc.isObject() ? doc.find("schema_version") : nullptr;
    if (!v)
        return 1; // version-absent legacy file
    try {
        return checkedVersion(v->isNumber() ? v->asNumber() : 0.0,
                              max_version);
    } catch (const FatalError &e) {
        fatal(where, e);
    }
}

Json
toJson(const ScenarioResults &r, bool traces)
{
    JsonBuilder b;
    putDocument(b, r, traces);
    return b.take();
}

std::string
writeDocument(const ScenarioResults &r, bool traces)
{
    std::string text;
    JsonWriter out(text, 2);
    putDocument(out, r, traces);
    text += '\n';
    return text;
}

ScenarioResults
readDocument(std::string_view text, const std::string &where)
{
    static const std::vector<std::string> keys = {
        "scenario", "schema_version", "points", "errors"};
    JsonReader in(text);
    ScenarioResults out;
    std::string at = where; // what is being read, for diagnostics
    unsigned seen = 0;      // bit k: member keys[k] met (bit 4: another)
    std::optional<std::size_t> points; // read last, from this offset
    std::optional<std::string> unknown; // the first member not allowed
    const auto readArray = [&](std::size_t k) { // `points` or `errors`
        in.beginArray();
        for (std::size_t i = 0; in.nextElement(); ++i) {
            at = where + ": " + keys[k] + "[" + std::to_string(i) + "]";
            if (k == 2)
                readPoint(in, out.points.emplace_back());
            else
                readError(in, out.errors.emplace_back());
        }
        at = where;
    };
    try {
        if (in.peekType() == Json::Type::Object) {
            in.beginObject();
            for (std::string key; in.nextMember(key);) {
                const std::size_t k = static_cast<std::size_t>(
                    std::find(keys.begin(), keys.end(), key) - keys.begin());
                if (k == 0) {
                    in.readString(out.scenario);
                } else if (k == 1) {
                    // Version-absent files are legacy (v1) and read
                    // unchanged; a newer binary's file is refused.
                    (void)checkedVersion(
                        in.peekType() == Json::Type::Number
                            ? in.readNumber()
                            : (in.skipValue(), 0.0),
                        kResultSchemaVersion);
                } else if (k == 2 && !(seen & 0b10)) {
                    // No result is decoded before the version is known
                    // to be readable: a `points` ahead of it (or of its
                    // absence) is checked now and read at the end.
                    points = in.offset();
                    in.skipValue();
                } else if (k < keys.size()) {
                    readArray(k);
                } else {
                    if (!unknown)
                        unknown = key;
                    in.skipValue();
                }
                seen |= 1u << k;
            }
        } else {
            in.skipValue();
        }
        in.finish();
    } catch (const FatalError &e) {
        fatal(at, e);
    }
    if (!(seen & 0b100)) {
        fatal(where + " does not look like memtherm results (expected an "
                      "object with a 'points' array; produce one with "
                      "`memtherm run -o`)");
    }
    try {
        if (unknown)
            unknownMember(*unknown, "the results", keys);
        if (!(seen & 0b1))
            fatal("json: missing member 'scenario'");
        if (points) {
            in.seek(*points);
            readArray(2);
        }
    } catch (const FatalError &e) {
        fatal(at, e);
    }
    return out;
}

} // namespace memtherm
