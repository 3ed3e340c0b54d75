#include "core/sim/scenario.hh"

#include <algorithm>
#include <climits>
#include <cmath>
#include <concepts>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/logging.hh"
#include "core/sim/registry.hh"
#include "dram/trace.hh"
#include "testbed/platform.hh"

namespace memtherm
{

namespace
{

/** Shortest exact decimal form, for sweep-point labels. */
std::string
numStr(double v)
{
    return Json::numberToString(v);
}

/** The policy lineup valid for platform (Chapter 5) scenarios. */
std::vector<std::string>
platformPolicyNames()
{
    std::vector<std::string> names = ch5PolicyNames();
    names.insert(names.begin(), "No-limit");
    return names;
}

[[noreturn]] void
specError(const ScenarioSpec &spec, const std::string &what)
{
    std::string where =
        spec.name.empty() ? "scenario" : "scenario '" + spec.name + "'";
    fatal(where + ": " + what);
}

/** Reject members we do not understand — typos fail loudly. */
void
checkMembers(const Json &obj, const std::string &where,
             const std::vector<std::string> &allowed)
{
    for (const auto &[key, v] : obj.asObject()) {
        bool known = false;
        for (const auto &a : allowed)
            known |= (a == key);
        if (!known) {
            fatal("scenario: unknown member '" + key + "' in " + where +
                  " (valid: " + joinNames(allowed) + ")");
        }
    }
}

double
memberNumber(const Json &obj, const std::string &key)
{
    const Json &v = obj.at(key);
    if (!v.isNumber())
        fatal("scenario: member '" + key + "' must be a number");
    return v.asNumber();
}

/**
 * FatalError unless lo <= @p v <= hi: checked before any integer cast,
 * which is undefined behavior for a double outside the target range.
 */
void
checkRange(double v, double lo, double hi, const std::string &what)
{
    if (!(v >= lo && v <= hi)) {
        fatal("scenario: " + what + " must be within [" + numStr(lo) +
              ", " + numStr(hi) + "] (got " + numStr(v) + ")");
    }
}

int
memberInt(const Json &obj, const std::string &key)
{
    double v = memberNumber(obj, key);
    if (v != std::floor(v))
        fatal("scenario: member '" + key + "' must be an integer");
    checkRange(v, INT_MIN, INT_MAX, "member '" + key + "'");
    return static_cast<int>(v);
}

std::string
memberString(const Json &obj, const std::string &key)
{
    const Json &v = obj.at(key);
    if (!v.isString())
        fatal("scenario: member '" + key + "' must be a string");
    return v.asString();
}

/** The array member @p key, of strings or numbers (FatalError else). */
template <typename T>
std::vector<T>
listOf(const Json &v, const std::string &key)
{
    constexpr bool str = std::is_same_v<T, std::string>;
    const std::string kind = str ? "strings" : "numbers";
    if (!v.isArray())
        fatal("scenario: member '" + key + "' must be an array of " + kind);
    std::vector<T> out;
    for (const Json &e : v.asArray()) {
        if (str ? !e.isString() : !e.isNumber())
            fatal("scenario: member '" + key + "' must contain " + kind);
        if constexpr (str)
            out.push_back(e.asString());
        else
            out.push_back(e.asNumber());
    }
    return out;
}

template <typename T>
Json
toJsonList(const std::vector<T> &v)
{
    Json a = Json::array();
    for (const T &x : v)
        a.push(x);
    return a;
}

/** "a|b|c": the label form of a number list ("|" is not reserved). */
std::string
joinNumbers(const std::vector<double> &v)
{
    std::string out;
    for (double x : v) {
        if (!out.empty())
            out += "|";
        out += numStr(x);
    }
    return out;
}

Json
traceJson(const TimeSeries &t)
{
    Json j = Json::object();
    j.set("period_s", t.period());
    j.set("values", toJsonList(t.values()));
    return j;
}

// --- the four inline forms ------------------------------------------------

/**
 * The per-type half of CatalogOrInline, keyed by its inline member type:
 * its JSON form (an object for an optional member, an array for a
 * vector), label, catalog lookup and inline bounds check. The rest — the
 * string-or-inline codec, empty(), "name wins" — is shared.
 *
 *  - noun: what the value is called in errors ("scenario: <noun> ...");
 *  - one/many: the accepted JSON forms of one value / of a sweep array.
 */
template <typename Inline>
struct InlineForm;

/** Shares that must be finite, non-negative and sum to 1 within 1e-9. */
void
checkDistribution(const std::vector<double> &v, const std::string &what)
{
    double sum = 0.0;
    for (double x : v) {
        if (!std::isfinite(x))
            fatal(what + " must be finite");
        if (x < 0.0)
            fatal(what + " must not be negative");
        sum += x;
    }
    if (std::abs(sum - 1.0) >= 1e-9)
        fatal(what + " must sum to 1 (got " + numStr(sum) + ")");
}

template <>
struct InlineForm<std::optional<MemoryOrgConfig>>
{
    static constexpr const char *noun = "memory organization";
    static constexpr const char *one =
        "a catalog name or a {channels, dimms} object";
    static constexpr const char *many =
        "catalog names or {channels, dimms} objects";
    static constexpr auto lookup = memoryOrgByName;

    static MemoryOrgConfig
    parse(const Json &v, const std::string &where)
    {
        checkMembers(v, where, {"channels", "dimms"});
        if (!v.find("channels") || !v.find("dimms")) {
            fatal("scenario: " + where +
                  " needs both 'channels' and 'dimms'");
        }
        MemoryOrgConfig o;
        o.nChannels = memberInt(v, "channels");
        o.nDimmsPerChannel = memberInt(v, "dimms");
        return o;
    }

    static Json
    toJson(const std::optional<MemoryOrgConfig> &o)
    {
        Json j = Json::object();
        j.set("channels", o->nChannels);
        j.set("dimms", o->nDimmsPerChannel);
        return j;
    }

    static std::string
    label(const std::optional<MemoryOrgConfig> &o)
    {
        return std::to_string(o->nChannels) + "x" +
               std::to_string(o->nDimmsPerChannel);
    }

    static MemoryOrgConfig
    check(const std::optional<MemoryOrgConfig> &o, const std::string &what)
    {
        if (o->nChannels < 1 || o->nDimmsPerChannel < 1)
            fatal(what + " must have >= 1 channel and >= 1 DIMM per channel");
        return *o;
    }
};

template <>
struct InlineForm<std::vector<double>>
{
    static constexpr const char *noun = "traffic shape";
    static constexpr const char *one =
        "a catalog shape name or an array of per-DIMM shares";
    static constexpr const char *many =
        "catalog shape names or per-DIMM share vectors";
    static constexpr auto lookup = trafficShapeByName;

    static std::vector<double>
    parse(const Json &v, const std::string &where)
    {
        std::vector<double> shares = listOf<double>(v, where);
        if (shares.empty())
            fatal("scenario: " + where + " share vector must not be empty");
        return shares;
    }

    static Json toJson(const std::vector<double> &s) { return toJsonList(s); }

    static std::string label(const std::vector<double> &s)
    {
        return joinNumbers(s);
    }

    static std::vector<double>
    check(const std::vector<double> &shares, const std::string &what,
          int n_dimms)
    {
        checkDistribution(shares, what + " shares");
        if (static_cast<int>(shares.size()) != n_dimms) {
            fatal(what + " has " + std::to_string(shares.size()) +
                  " share(s) but the memory organization has " +
                  std::to_string(n_dimms) + " DIMM(s) per channel");
        }
        return shares;
    }
};

template <>
struct InlineForm<std::vector<RefreshBand>>
{
    static constexpr const char *noun = "refresh model";
    static constexpr const char *one =
        "a catalog refresh model name or an array of "
        "{min_temp, bw_fraction, dram_power_w[, latency_mult]} bands";
    static constexpr const char *many =
        "catalog refresh model names or band tables";
    static constexpr auto lookup = refreshModelByName;

    static std::vector<RefreshBand>
    parse(const Json &v, const std::string &where)
    {
        std::vector<RefreshBand> bands;
        for (const Json &e : v.asArray()) {
            if (!e.isObject())
                fatal("scenario: " + where + " bands must be objects");
            checkMembers(e, where + " band",
                         {"min_temp", "bw_fraction", "dram_power_w",
                          "latency_mult"});
            if (!e.find("min_temp") || !e.find("bw_fraction") ||
                !e.find("dram_power_w")) {
                fatal("scenario: " + where +
                      " band needs 'min_temp', 'bw_fraction' and "
                      "'dram_power_w'");
            }
            RefreshBand b;
            b.minTemp = memberNumber(e, "min_temp");
            b.bwFraction = memberNumber(e, "bw_fraction");
            b.dramPower = memberNumber(e, "dram_power_w");
            if (e.find("latency_mult"))
                b.latencyMult = memberNumber(e, "latency_mult");
            bands.push_back(b);
        }
        if (bands.empty())
            fatal("scenario: " + where + " band table must not be empty");
        return bands;
    }

    static Json
    toJson(const std::vector<RefreshBand> &bands)
    {
        Json a = Json::array();
        for (const RefreshBand &b : bands) {
            Json j = Json::object();
            j.set("min_temp", b.minTemp);
            j.set("bw_fraction", b.bwFraction);
            j.set("dram_power_w", b.dramPower);
            // latency_mult defaults to 1 on parse, so omitting the
            // default keeps the round trip lossless and the common case
            // terse.
            if (b.latencyMult != 1.0)
                j.set("latency_mult", b.latencyMult);
            a.push(std::move(j));
        }
        return a;
    }

    /** "minTemp:bwFraction:dramPower[:latencyMult]" joined with "|". */
    static std::string
    label(const std::vector<RefreshBand> &bands)
    {
        std::string out;
        for (const RefreshBand &b : bands) {
            if (!out.empty())
                out += "|";
            out += numStr(b.minTemp) + ":" + numStr(b.bwFraction) + ":" +
                   numStr(b.dramPower);
            if (b.latencyMult != 1.0)
                out += ":" + numStr(b.latencyMult);
        }
        return out;
    }

    static RefreshModel
    check(const std::vector<RefreshBand> &bands, const std::string &what)
    {
        for (const RefreshBand &b : bands) {
            if (!std::isfinite(b.minTemp) || !std::isfinite(b.bwFraction) ||
                !std::isfinite(b.dramPower) || !std::isfinite(b.latencyMult))
                fatal(what + " bands must be finite");
            if (b.bwFraction < 0.0 || b.bwFraction >= 1.0)
                fatal(what + " bw_fraction must be in [0, 1)");
            if (b.dramPower < 0.0)
                fatal(what + " dram_power_w must be >= 0");
            if (b.latencyMult <= 0.0)
                fatal(what + " latency_mult must be > 0");
        }
        for (std::size_t i = 1; i < bands.size(); ++i) {
            if (!(bands[i].minTemp > bands[i - 1].minTemp))
                fatal(what + " bands must have strictly increasing min_temp");
        }
        return RefreshModel{bands};
    }
};

template <>
struct InlineForm<std::optional<BankGridConfig>>
{
    static constexpr const char *noun = "thermal model";
    static constexpr const char *one =
        "a catalog thermal model name or a "
        "{grid_x, grid_z[, bank_weights]} object";
    static constexpr const char *many =
        "catalog thermal model names or "
        "{grid_x, grid_z[, bank_weights]} objects";
    static constexpr auto lookup = thermalModelByName;

    static BankGridConfig
    parse(const Json &v, const std::string &where)
    {
        checkMembers(v, where, {"grid_x", "grid_z", "bank_weights"});
        if (!v.find("grid_x") || !v.find("grid_z"))
            fatal("scenario: " + where + " needs both 'grid_x' and 'grid_z'");
        BankGridConfig g;
        g.x = memberInt(v, "grid_x");
        g.z = memberInt(v, "grid_z");
        if (v.find("bank_weights")) {
            g.weights =
                listOf<double>(v.at("bank_weights"), where + " bank_weights");
        }
        return g;
    }

    static Json
    toJson(const std::optional<BankGridConfig> &g)
    {
        Json j = Json::object();
        j.set("grid_x", g->x);
        j.set("grid_z", g->z);
        if (!g->weights.empty())
            j.set("bank_weights", toJsonList(g->weights));
        return j;
    }

    /** "<x>x<z>", with the bank weights appended after ":" when set. */
    static std::string
    label(const std::optional<BankGridConfig> &g)
    {
        std::string out = std::to_string(g->x) + "x" + std::to_string(g->z);
        if (!g->weights.empty())
            out += ":" + joinNumbers(g->weights);
        return out;
    }

    static ThermalModelConfig
    check(const std::optional<BankGridConfig> &g, const std::string &what)
    {
        if (g->x < 1 || g->z < 1)
            fatal(what + " grid dimensions must be >= 1");
        if (g->cells() > 1024) {
            fatal(what + " has " + std::to_string(g->cells()) +
                  " cells per DIMM; the limit is 1024");
        }
        if (!g->weights.empty() &&
            g->weights.size() != static_cast<std::size_t>(g->cells())) {
            fatal(what + " has " + std::to_string(g->weights.size()) +
                  " bank weight(s) but the grid has " +
                  std::to_string(g->cells()) + " cell(s)");
        }
        if (!g->weights.empty())
            checkDistribution(g->weights, what + " bank weights");
        return ThermalModelConfig{g};
    }
};

} // namespace

template <typename Inline, typename Resolved, typename... Context>
std::string
CatalogOrInline<Inline, Resolved, Context...>::label() const
{
    if (!name.empty())
        return name;
    return hasValue() ? InlineForm<Inline>::label(value) : "";
}

template <typename Inline, typename Resolved, typename... Context>
Resolved
CatalogOrInline<Inline, Resolved, Context...>::resolve(
    Context... context) const
{
    using Form = InlineForm<Inline>;
    if (!name.empty())
        return Form::lookup(name, context...);
    if (!hasValue())
        fatal(std::string("scenario: empty ") + Form::noun);
    return Form::check(value,
                       std::string("scenario: ") + Form::noun + " " + label(),
                       context...);
}

template struct CatalogOrInline<std::optional<MemoryOrgConfig>,
                                MemoryOrgConfig>;
template struct CatalogOrInline<std::vector<double>, std::vector<double>,
                                int>;
template struct CatalogOrInline<std::vector<RefreshBand>, RefreshModel>;
template struct CatalogOrInline<std::optional<BankGridConfig>,
                                ThermalModelConfig>;

namespace
{

// --- table entry values, by type ------------------------------------------

template <typename T>
constexpr bool isCatalogOrInline = false;
template <typename I, typename R, typename... C>
constexpr bool isCatalogOrInline<CatalogOrInline<I, R, C...>> = true;

/** Whether a config member is set (a std::optional, or non-empty). */
template <typename M>
bool
isSet(const M &m)
{
    if constexpr (requires { m.has_value(); })
        return m.has_value();
    else
        return !m.empty();
}

/** A set config member's value. */
template <typename M>
const auto &
valueOf(const M &m)
{
    if constexpr (requires { m.has_value(); })
        return *m;
    else
        return m;
}

template <typename M>
using ValueOf = std::decay_t<decltype(valueOf(std::declval<const M &>()))>;

/** A value's sweep-label coordinate (exact: shortest round trip). */
template <typename E>
std::string
labelOf(const E &v)
{
    if constexpr (std::is_same_v<E, std::string>)
        return v;
    else if constexpr (isCatalogOrInline<E>)
        return v.label();
    else if constexpr (std::is_integral_v<E>)
        return std::to_string(v);
    else
        return numStr(v);
}

template <typename E>
Json
encode(const E &v)
{
    if constexpr (isCatalogOrInline<E>) {
        using Form = InlineForm<decltype(v.value)>;
        if (!v.name.empty())
            return Json(v.name);
        // A default-constructed value means "keep the base value" and
        // has no serialized form — callers filter those out; reaching
        // here with one (e.g. an empty sweep entry) is a spec bug.
        if (!v.hasValue())
            fatal(std::string("scenario: empty ") + Form::noun);
        return Form::toJson(v.value);
    } else {
        return Json(v);
    }
}

/** Parse a name-or-inline value: a non-empty catalog name or inline. */
template <typename E>
E
nameOrInline(const Json &v, const std::string &where)
{
    using Form = InlineForm<decltype(E::value)>;
    constexpr bool object = requires(E e) { e.value.has_value(); };
    E out;
    if (v.isString()) {
        out.name = v.asString();
        if (out.name.empty())
            fatal("scenario: " + where + " name must not be empty");
    } else if (object ? v.isObject() : v.isArray()) {
        out.value = Form::parse(v, where);
    } else {
        fatal("scenario: " + where + " must be " + Form::one);
    }
    return out;
}

/** Parse the `config` member @p key. */
template <typename E>
E
decode(const Json &cfg, const std::string &key)
{
    if constexpr (std::is_same_v<E, std::string>) {
        return memberString(cfg, key);
    } else if constexpr (std::is_same_v<E, int>) {
        return memberInt(cfg, key);
    } else if constexpr (std::is_same_v<E, std::uint64_t>) {
        const double v = memberNumber(cfg, key);
        if (v != std::floor(v) || v < 0.0)
            fatal("scenario: '" + key + "' must be a non-negative integer");
        // 2^53: the largest range whose integers a JSON double holds
        // exactly.
        checkRange(v, 0.0, 9007199254740992.0, "'" + key + "'");
        return static_cast<std::uint64_t>(v);
    } else if constexpr (isCatalogOrInline<E>) {
        return nameOrInline<E>(cfg.at(key), "'config." + key + "'");
    } else {
        return memberNumber(cfg, key);
    }
}

/** Parse the array of axis @p key's sweep values. */
template <typename E>
std::vector<E>
decodeList(const Json &a, const std::string &key)
{
    const std::string where = "sweep." + key;
    if constexpr (std::is_same_v<E, std::string>) {
        return listOf<std::string>(a, where);
    } else if constexpr (std::is_same_v<E, int>) {
        std::vector<int> out;
        for (double v : listOf<double>(a, where)) {
            if (v != std::floor(v))
                fatal("scenario: " + where + " must contain integers");
            checkRange(v, INT_MIN, INT_MAX, where + " value");
            out.push_back(static_cast<int>(v));
        }
        return out;
    } else if constexpr (isCatalogOrInline<E>) {
        if (!a.isArray()) {
            fatal("scenario: '" + where + "' must be an array of " +
                  InlineForm<decltype(E::value)>::many);
        }
        std::vector<E> out;
        for (const Json &e : a.asArray())
            out.push_back(nameOrInline<E>(e, "'" + where + "' entry"));
        return out;
    } else {
        return listOf<double>(a, where);
    }
}

// --- values that resolve against the rest of the spec ----------------------

/** One memory organization a grid visits, as errors name it. */
struct OrgPoint
{
    MemoryOrgConfig org;
    std::string desc;
};

/** What a value resolves against besides itself. */
struct ResolveContext
{
    const ScenarioSpec &spec;
    const char *key;
    bool swept;          ///< a sweep entry, else the config member
    const OrgPoint &org; ///< the organization a traffic shape must fit

    /** How errors name the value. */
    std::string
    where() const
    {
        return swept ? "sweep." + std::string(key) + " entry"
                     : "config." + std::string(key);
    }
};

/**
 * The organizations a traffic shape must fit: the sweep axis, else the
 * scalar override, else the base configuration's chain.
 */
std::vector<OrgPoint>
orgPoints(const ScenarioSpec &s)
{
    std::vector<OrgPoint> out;
    for (const MemoryOrgSpec &o : s.sweepMemoryOrg) {
        out.push_back({o.resolve(), "sweep.memory_org organization '" +
                                        o.label() + "'"});
    }
    if (out.empty() && !s.memoryOrg.empty()) {
        out.push_back({s.memoryOrg.resolve(),
                       "config.memory_org organization '" +
                           s.memoryOrg.label() + "'"});
    }
    if (out.empty()) {
        const MemoryOrgSpec def{"", SimConfig{}.org};
        out.push_back({*def.value,
                       "the base organization (" + def.label() + ")"});
    }
    return out;
}

/**
 * A traffic shape's share vector on one organization the grid visits.
 * Resolving per organization checks an inline vector's arity against
 * each one up front, with an error that names both axes.
 */
std::vector<double>
resolveShape(const TrafficShapeSpec &shape, const ResolveContext &ctx)
{
    const MemoryOrgConfig &org = ctx.org.org;
    // Named shapes fit any chain; empty specs fail in resolve().
    const std::size_t n = shape.name.empty() ? shape.value.size() : 0;
    if (n && static_cast<int>(n) != org.nDimmsPerChannel) {
        specError(ctx.spec, ctx.where() + " '" + shape.label() + "' has " +
                                std::to_string(n) + " share(s) but " +
                                ctx.org.desc + " has " +
                                std::to_string(org.nDimmsPerChannel) +
                                " DIMM(s) per channel");
    }
    return shape.resolve(org.nDimmsPerChannel);
}

/** A DVFS table, checked against the Chapter 4 CDVFS schemes. */
DvfsTable
resolveDvfs(const std::string &name, const ResolveContext &ctx)
{
    DvfsTable t = DvfsRegistry::instance().byName(name);
    // Keep the CDVFS schemes honest: their action tables select
    // operating points 0..3.
    const auto &p = ctx.spec.policies;
    if (t.levels() < 4 &&
        (std::count(p.begin(), p.end(), "DTM-CDVFS") ||
         std::count(p.begin(), p.end(), "DTM-CDVFS+PID"))) {
        specError(ctx.spec, "DVFS table '" + name + "' has " +
                                std::to_string(t.levels()) +
                                " levels; DTM-CDVFS selects levels 0..3");
    }
    return t;
}

// --- the axis table ---------------------------------------------------------

/** What a table entry declares besides its members (see forEachAxis). */
struct AxisDef
{
    const char *key;              ///< JSON member in `config` and `sweep`
    const char *prefix = nullptr; ///< label coordinate; null: knob only
    int pos = 0;                  ///< 1-based label/odometer position
    /// Error when a platform scenario sets the knob or sweeps the axis.
    const char *platformReject = nullptr;
    /// Names the base configuration (cooling, ambient): serialized
    /// whenever there is no platform, even at its default, and fixed by
    /// a platform.
    bool baseName = false;
    bool path = false; ///< a file path: an empty string fails to parse
    /// Lower bound of numeric values, knob and sweep alike (doubles are
    /// also checked finite).
    double min = -std::numeric_limits<double>::infinity();
    bool exclusive = false;
    /// Duplicate sweep values compare by label, unless sameAs is set:
    /// then by *resolved* value, the error adding "(same <sameAs> as
    /// '<other>')" when the labels differ.
    const char *dupNoun = "value";
    const char *sameAs = nullptr;
    /// Values resolve once per organization the grid visits (a traffic
    /// shape's share vector depends on the DIMM count).
    bool perOrg = false;
};

const char *const kPlatformDvfs =
    "platform scenarios fix the DVFS table and derive the emergency "
    "ladders from the platform; remove the dvfs/emergency_levels members "
    "and sweeps";
const char *const kPlatformRemap =
    "platform scenarios use the testbed's measured traffic distribution, "
    "so remap policies have nothing to redistribute; remove the "
    "remap_interval/remap_hysteresis members";

/**
 * The table: calls @p f(axis, knob, sweep, resolve, apply) for every
 * `config` knob, in member order — the serialization order that
 * scenarioSpecHash fingerprints. knob and sweep are ScenarioSpec member
 * pointers (sweep nullptr: the knob does not sweep). resolve turns a
 * value into what apply (a callable or a SimConfig member) writes into
 * a grid point's configuration; nullptr resolve is the value itself (or
 * its CatalogOrInline::resolve()), nullptr apply leaves the knob to
 * hand-written code.
 */
template <typename F>
void
forEachAxis(F &&f)
{
    using S = ScenarioSpec;
    using C = SimConfig;
    // A cooling name is looked up when a grid point rebuilds its base
    // configuration from it (lower() checks the base name up front).
    f(AxisDef{.key = "cooling", .prefix = "cooling=", .pos = 3,
              .platformReject = "platform scenarios fix the cooling setup; "
                                "remove the cooling sweep",
              .baseName = true},
      &S::cooling, &S::sweepCooling,
      [](const std::string &n, const ResolveContext &ctx) {
          return std::pair{n, ctx.spec.ambient == "integrated"};
      },
      [](C &c, const std::pair<std::string, bool> &p) {
          c = makeCh4Config(coolingByName(p.first), p.second);
      });
    f(AxisDef{.key = "ambient", .baseName = true}, &S::ambient, nullptr,
      nullptr, nullptr);
    f(AxisDef{.key = "emergency_levels", .prefix = "levels=", .pos = 8,
              .platformReject = kPlatformDvfs},
      &S::emergencyLevels, &S::sweepEmergencyLevels, emergencyLevelsByName,
      &C::emergencyLevels);
    f(AxisDef{.key = "dvfs", .prefix = "dvfs=", .pos = 9,
              .platformReject = kPlatformDvfs},
      &S::dvfs, &S::sweepDvfs, resolveDvfs, &C::dvfs);
    f(AxisDef{.key = "memory_org", .prefix = "org=", .pos = 1,
              .platformReject = "platform scenarios fix the memory "
                                "organization (the testbed hardware fixes "
                                "its DIMM population); remove the "
                                "memory_org member and sweep",
              .dupNoun = "organization", .sameAs = "organization"},
      &S::memoryOrg, &S::sweepMemoryOrg, nullptr, &C::org);
    // Shapes that coincide under *any* organization collide: distinctly
    // named shapes that match on one chain (front_heavy and linear_taper
    // on two DIMMs; every shape on one) would duplicate a measurement
    // the sweep presents as two distributions.
    f(AxisDef{.key = "traffic_shape", .prefix = "shape=", .pos = 2,
              .platformReject = "platform scenarios use the testbed's "
                                "measured traffic distribution; remove the "
                                "traffic_shape member and sweep",
              .dupNoun = "shape", .sameAs = "shares", .perOrg = true},
      &S::trafficShape, &S::sweepTrafficShape, resolveShape,
      &C::trafficShares);
    f(AxisDef{.key = "refresh", .prefix = "refresh=", .pos = 10,
              .platformReject = "platform scenarios measure the testbed's "
                                "real DRAM, refresh included; remove the "
                                "refresh member and sweep",
              .dupNoun = "model", .sameAs = "model"},
      &S::refresh, &S::sweepRefresh, nullptr, &C::refresh);
    f(AxisDef{.key = "thermal_model", .prefix = "thermal=", .pos = 11,
              .platformReject = "platform scenarios measure the testbed's "
                                "real DIMMs at DIMM granularity; remove the "
                                "thermal_model member and sweep",
              .dupNoun = "model", .sameAs = "thermal model"},
      &S::thermalModel, &S::sweepThermalModel,
      [](const ThermalModelSpec &t) { return t.resolve().grid; },
      &C::bankGrid);
    f(AxisDef{.key = "trace",
              .platformReject = "platform scenarios use the testbed's "
                                "measured traffic distribution; remove the "
                                "trace member",
              .path = true},
      &S::trace, nullptr, nullptr, nullptr);
    f(AxisDef{.key = "t_inlet", .prefix = "inlet=", .pos = 4}, &S::tInlet,
      &S::sweepTInlet, nullptr,
      [](C &c, double v) { c.ambient.tInlet = v; });
    f(AxisDef{.key = "copies_per_app", .prefix = "copies=", .pos = 5,
              .min = 1},
      &S::copiesPerApp, &S::sweepCopies, nullptr, &C::copiesPerApp);
    f(AxisDef{.key = "instr_scale", .min = 0, .exclusive = true},
      &S::instrScale, nullptr, nullptr, &C::instrScale);
    f(AxisDef{.key = "max_sim_time", .min = 0, .exclusive = true},
      &S::maxSimTime, nullptr, nullptr, &C::maxSimTime);
    f(AxisDef{.key = "dtm_interval", .prefix = "dtm=", .pos = 7, .min = 0,
              .exclusive = true},
      &S::dtmInterval, &S::sweepDtmInterval, nullptr, &C::dtmInterval);
    f(AxisDef{.key = "remap_interval", .platformReject = kPlatformRemap,
              .min = 0, .exclusive = true},
      &S::remapInterval, nullptr, nullptr, &C::remapInterval);
    f(AxisDef{.key = "remap_hysteresis", .platformReject = kPlatformRemap,
              .min = 0},
      &S::remapHysteresis, nullptr, nullptr, &C::remapHysteresis);
    f(AxisDef{.key = "sensor_noise_sigma", .prefix = "noise=", .pos = 6,
              .min = 0},
      &S::sensorNoiseSigma, &S::sweepSensorNoise, nullptr,
      &C::sensorNoiseSigma);
    f(AxisDef{.key = "sensor_quant", .min = 0}, &S::sensorQuant, nullptr,
      nullptr, &C::sensorQuant);
    f(AxisDef{.key = "sensor_seed"}, &S::sensorSeed, nullptr, nullptr,
      &C::sensorSeed);
}

/** forEachAxis over the sweep axes only, in label/odometer order. */
template <typename F>
void
forEachSweep(F &&f)
{
    for (int pos = 1, found = 1; found; ++pos) {
        found = 0;
        forEachAxis([&](const AxisDef &a, auto knob, auto sweep, auto... rest) {
            if constexpr (!std::is_null_pointer_v<decltype(sweep)>) {
                if (a.pos == pos) {
                    found = 1;
                    f(a, knob, sweep, rest...);
                }
            }
        });
    }
}

/** Whether @p s sets the knob (a base name: whenever off a platform). */
template <typename M>
bool
present(const ScenarioSpec &s, const AxisDef &a, M ScenarioSpec::*knob)
{
    return a.baseName ? s.platform.empty() : isSet(s.*knob);
}

/** The sweep values of axis @p sweep (none for a knob-only entry). */
template <typename Sweep>
std::size_t
sweepSize(const ScenarioSpec &s, Sweep sweep)
{
    if constexpr (std::is_null_pointer_v<Sweep>)
        return 0;
    else
        return (s.*sweep).size();
}

/**
 * The finite/bounds passes, in the order lower() runs them: integer
 * entries report after the real-valued ones.
 */
enum class Check
{
    Finite,   ///< config members must be finite
    Bound,    ///< real-valued config members must honor the lower bound
    IntBound, ///< integer config members must honor the lower bound
    Sweep,    ///< real-valued sweep values: finite and the bound
    IntSweep, ///< integer sweep values: the bound
};

template <typename M, typename Sweep>
void
checkAxis(const ScenarioSpec &s, const AxisDef &a, Check pass,
          M ScenarioSpec::*knob, Sweep sweep)
{
    using E = ValueOf<M>;
    if constexpr (std::is_arithmetic_v<E>) {
        const bool ints = pass == Check::IntBound || pass == Check::IntSweep;
        if (pass != Check::Finite && ints != std::is_integral_v<E>)
            return;
        auto fail = [&](bool swept, const std::string &rule) {
            const std::string key = a.key;
            // The integer axis keeps its historical wording.
            specError(s, (!swept ? key
                          : ints ? key + " sweep values"
                                 : "sweep." + key + " values") +
                             " must be " + rule);
        };
        auto below = [&](double v) {
            return a.exclusive ? v <= a.min : v < a.min;
        };
        auto bound = [&] {
            return std::string(a.exclusive ? "> " : ">= ") + numStr(a.min);
        };
        if (pass < Check::Sweep && isSet(s.*knob)) {
            const double v = static_cast<double>(valueOf(s.*knob));
            if (pass == Check::Finite && !std::isfinite(v))
                fail(false, "finite");
            if (pass != Check::Finite && below(v))
                fail(false, bound());
        }
        if constexpr (!std::is_null_pointer_v<Sweep>) {
            if (pass >= Check::Sweep) {
                for (E v : s.*sweep) {
                    if (!std::isfinite(static_cast<double>(v)))
                        fail(true, "finite");
                    if (below(static_cast<double>(v)))
                        fail(true, bound());
                }
            }
        }
    }
}

/**
 * An entry's values resolved for one organization (none: for every
 * one), as writes into a grid point's configuration: the config
 * member's (null when unset), then one per sweep value.
 */
struct Resolved
{
    std::optional<MemoryOrgConfig> org;
    std::function<void(SimConfig &)> base;
    std::vector<std::function<void(SimConfig &)>> sweep;
};

/**
 * Reject the first sweep value that resolves like an earlier one;
 * @p resolved holds the values of @p sweep, resolved on @p op.
 */
template <typename E, typename R>
void
rejectResolvedDuplicates(const ScenarioSpec &s, const AxisDef &a,
                         const std::vector<E> &sweep,
                         const std::vector<R> &resolved, const OrgPoint &op)
{
    for (std::size_t i = 0; i < resolved.size(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            if (!(resolved[i] == resolved[j]))
                continue;
            const std::string x = labelOf(sweep[i]), y = labelOf(sweep[j]);
            std::string what = "duplicate sweep." + std::string(a.key) + " " +
                               a.dupNoun + " '" + x + "'";
            if (x != y) {
                what += " (same " + std::string(a.sameAs) + " as '" + y + "'";
                if (a.perOrg)
                    what += " under " + op.desc;
                what += ")";
            }
            specError(s, what);
        }
    }
}

/**
 * Resolve an entry's config member and sweep values up front (catalog
 * lookups throw listing the valid keys; inline values check their
 * bounds), rejecting sweep values that resolve alike when the entry
 * compares resolved values.
 */
template <typename M, typename Sweep, typename Resolve, typename Apply>
std::vector<Resolved>
resolveAxis(const ScenarioSpec &s, const AxisDef &a, M ScenarioSpec::*knob,
            Sweep sweep, Resolve resolve, Apply apply)
{
    using E = ValueOf<M>;
    std::vector<Resolved> out;
    if constexpr (!std::is_null_pointer_v<Apply>) {
        if (!present(s, a, knob) && !sweepSize(s, sweep))
            return out;
        static const std::vector<OrgPoint> anyOrg(1);
        const std::vector<OrgPoint> perOrg = a.perOrg ? orgPoints(s)
                                                      : std::vector<OrgPoint>{};
        for (const OrgPoint &op : a.perOrg ? perOrg : anyOrg) {
            auto one = [&](const E &v, bool swept) {
                if constexpr (std::is_null_pointer_v<Resolve>) {
                    if constexpr (isCatalogOrInline<E>)
                        return v.resolve();
                    else
                        return v;
                } else if constexpr (std::is_invocable_v<Resolve, const E &>) {
                    return resolve(v);
                } else {
                    return resolve(v, ResolveContext{s, a.key, swept, op});
                }
            };
            using R = decltype(one(std::declval<const E &>(), false));
            auto bind = [&](R r) -> std::function<void(SimConfig &)> {
                return [apply, r = std::move(r)](SimConfig &c) {
                    if constexpr (std::is_member_object_pointer_v<Apply>)
                        c.*apply = r;
                    else
                        apply(c, r);
                };
            };
            Resolved &res = out.emplace_back();
            if (a.perOrg)
                res.org = op.org;
            if (present(s, a, knob))
                res.base = bind(one(valueOf(s.*knob), false));
            if constexpr (!std::is_null_pointer_v<Sweep>) {
                std::vector<R> vals;
                for (const E &v : s.*sweep)
                    vals.push_back(one(v, true));
                if constexpr (std::equality_comparable<R>) {
                    if (a.sameAs)
                        rejectResolvedDuplicates(s, a, s.*sweep, vals, op);
                }
                for (R &r : vals)
                    res.sweep.push_back(bind(std::move(r)));
            }
        }
    }
    return out;
}

} // namespace

const std::vector<std::string> &
scenarioConfigKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> out;
        forEachAxis([&](const AxisDef &a, auto...) { out.push_back(a.key); });
        return out;
    }();
    return keys;
}

const std::vector<std::string> &
scenarioSweepKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> out;
        forEachSweep([&](const AxisDef &a, auto...) { out.push_back(a.key); });
        return out;
    }();
    return keys;
}

std::size_t
LoweredScenario::totalRuns() const
{
    std::size_t n = 0;
    for (const auto &p : points)
        n += p.runs.size();
    return n;
}

void
ScenarioSpec::validate() const
{
    (void)lower(); // lowering resolves every name and checks the axes
}

LoweredScenario
ScenarioSpec::lower() const
{
    if (workloads.empty())
        specError(*this, "no workloads given");
    if (policies.empty())
        specError(*this, "no policies given");

    LoweredScenario out;
    out.workloads = workloads;
    out.policies = policies;

    std::vector<Workload> ws;
    ws.reserve(workloads.size());
    for (const auto &n : workloads)
        ws.push_back(workloadByName(n));

    std::optional<Platform> plat;
    if (!platform.empty()) {
        plat = platformByName(platform);
        forEachAxis([&](const AxisDef &a, auto knob, auto sweep, auto...) {
            if (a.platformReject &&
                (present(*this, a, knob) || sweepSize(*this, sweep)))
                specError(*this, a.platformReject);
            // The platform supplies the base names; only the defaults
            // may stand.
            if (a.baseName && this->*knob != ScenarioSpec{}.*knob) {
                specError(*this, "platform scenarios fix cooling and "
                                 "ambient; remove those members");
            }
        });
        const auto valid = platformPolicyNames();
        for (const auto &p : policies) {
            if (std::find(valid.begin(), valid.end(), p) == valid.end()) {
                specError(*this, "unknown platform policy '" + p +
                                     "' (valid: " + joinNames(valid) + ")");
            }
        }
    } else {
        // Resolving the base cooling/ambient validates both names even
        // when a sweep replaces them below.
        (void)ambientByName(ambient, coolingByName(cooling));
        const auto &reg = PolicyRegistry::instance();
        for (const auto &p : policies) {
            if (!reg.contains(p)) {
                specError(*this, "unknown policy '" + p + "' (valid: " +
                                     joinNames(reg.names()) + ")");
            }
        }
    }

    // Scalar sanity: non-finite values would otherwise be
    // indistinguishable from "keep the base value" downstream.
    for (Check pass : {Check::Finite, Check::Bound, Check::IntBound}) {
        forEachAxis([&](const AxisDef &a, auto knob, auto sweep, auto...) {
            checkAxis(*this, a, pass, knob, sweep);
        });
    }

    // The trace IS the measured per-DIMM distribution, so an analytic
    // shape alongside it could only be silently ignored or silently
    // override the measurement.
    if (!trace.empty() &&
        (!trafficShape.empty() || !sweepTrafficShape.empty())) {
        specError(*this,
                  "'trace' supplies the per-DIMM traffic distribution; "
                  "remove the traffic_shape member and sweep");
    }

    for (Check pass : {Check::Sweep, Check::IntSweep}) {
        forEachSweep([&](const AxisDef &a, auto knob, auto sweep, auto...) {
            checkAxis(*this, a, pass, knob, sweep);
        });
    }

    // Duplicates: SuiteResults is keyed [workload][policy] and sweep
    // points are keyed by label, so a duplicate anywhere would silently
    // clobber a result. Label-compared axes use their label rendering,
    // which is exact (shortest-round-trip formatting); the name-or-inline
    // axes compare *resolved* values below, so a catalog name and an
    // equal inline spelling cannot collapse onto one sweep point.
    auto rejectDuplicates = [&](const std::vector<std::string> &keys,
                                const std::string &what) {
        for (std::size_t i = 0; i < keys.size(); ++i)
            for (std::size_t j = 0; j < i; ++j)
                if (keys[i] == keys[j])
                    specError(*this,
                              "duplicate " + what + " '" + keys[i] + "'");
    };
    rejectDuplicates(workloads, "workload");
    rejectDuplicates(policies, "policy");
    const std::size_t nAxes = scenarioSweepKeys().size();
    std::vector<const char *> prefixes;
    std::vector<std::vector<std::string>> labels;
    prefixes.reserve(nAxes);
    labels.reserve(nAxes);
    forEachSweep([&](const AxisDef &a, auto, auto sweep, auto...) {
        prefixes.push_back(a.prefix);
        auto &axis = labels.emplace_back();
        for (const auto &v : this->*sweep)
            axis.push_back(labelOf(v));
        if (!a.sameAs && axis.size() > 1) {
            rejectDuplicates(axis, "sweep." + std::string(a.key) + " " +
                                       a.dupNoun);
        }
    });

    // Resolve every value up front, sweep axes first and in sweep order;
    // the grid points below apply the results in table order, each
    // entry's sweep coordinate else its config member.
    std::vector<std::vector<Resolved>> swept;
    std::vector<std::pair<int, std::vector<Resolved>>> applies;
    swept.reserve(nAxes);
    applies.reserve(scenarioConfigKeys().size());
    forEachSweep([&](const AxisDef &a, auto... members) {
        swept.push_back(resolveAxis(*this, a, members...));
    });
    forEachAxis([&](const AxisDef &a, auto... members) {
        applies.emplace_back(a.pos, a.pos ? std::move(swept[a.pos - 1])
                                          : resolveAxis(*this, a, members...));
    });

    // A trace decodes into the per-bank heat weights, so inline
    // bank_weights alongside one could only fight the measurement.
    if (!trace.empty()) {
        auto hasWeights = [](const ThermalModelSpec &t) {
            return t.name.empty() && t.value && !t.value->weights.empty();
        };
        if (hasWeights(thermalModel) ||
            std::any_of(sweepThermalModel.begin(), sweepThermalModel.end(),
                        hasWeights)) {
            specError(*this,
                      "'trace' supplies the per-bank activity weights; "
                      "remove the thermal model's bank_weights");
        }
    }

    // Load the trace once; it decodes per grid point below (the profile
    // depends on the point's organization and grid resolution).
    std::vector<TraceRecord> traceRecords;
    if (!trace.empty())
        traceRecords = loadTrace(trace);

    // The grid: an odometer over the sweep axes, last axis fastest. An
    // empty axis contributes one "keep the base value" slot.
    std::vector<std::size_t> dim, ix(labels.size());
    for (const auto &l : labels)
        dim.push_back(std::max<std::size_t>(l.size(), 1));
    std::size_t nRuns = 0;
    for (;;) {
        LoweredScenario::Point pt;
        for (std::size_t k = 0; k < labels.size(); ++k) {
            if (labels[k].empty())
                continue;
            if (!pt.label.empty())
                pt.label += ",";
            pt.label += prefixes[k];
            pt.label += labels[k][ix[k]];
        }
        if (pt.label.empty())
            pt.label = "base";

        // Table order: the cooling entry (first) rebuilds the base
        // configuration, and the organization precedes the traffic
        // shape resolved for it.
        SimConfig cfg = plat ? plat->sim : SimConfig{};
        for (const auto &[pos, resolved] : applies) {
            for (const Resolved &r : resolved) {
                if (r.org && *r.org != cfg.org)
                    continue;
                if (!r.sweep.empty())
                    r.sweep[ix[pos - 1]](cfg);
                else if (r.base)
                    r.base(cfg);
            }
        }

        // A trace decodes against the point's organization and grid:
        // per-DIMM shares always, per-bank heat weights when the
        // bank-grid model is active at this point.
        if (!traceRecords.empty()) {
            TraceProfile prof = decodeTrace(
                traceRecords, cfg.org.nChannels, cfg.org.nDimmsPerChannel,
                cfg.bankGrid ? cfg.bankGrid->cells() : 0);
            cfg.trafficShares = std::move(prof.dimmShares);
            if (cfg.bankGrid)
                cfg.bankGrid->weights = std::move(prof.bankWeights);
        }
        // The simulator panics on a decision period below its trace
        // window; report it as a configuration error instead.
        if (cfg.dtmInterval < cfg.window) {
            specError(*this, "dtm_interval " + numStr(cfg.dtmInterval) +
                                 " is below the simulator window (" +
                                 numStr(cfg.window) + " s)");
        }

        // Remap boundaries must land on DTM decision boundaries — the
        // remap policies only run inside DTM decisions, so a period
        // below the window or off the dtm_interval grid would silently
        // remap late. Checked only when the knob is set: the default
        // period deliberately stays out of dtm_interval sweeps that
        // never name a remap policy.
        if (remapInterval) {
            if (cfg.remapInterval < cfg.window) {
                specError(*this,
                          "remap_interval " + numStr(cfg.remapInterval) +
                              " is below the simulator window (" +
                              numStr(cfg.window) + " s)");
            }
            double ratio = cfg.remapInterval / cfg.dtmInterval;
            double whole = std::round(ratio);
            if (whole < 1.0 ||
                std::abs(ratio - whole) > 1e-9 * std::max(1.0, ratio)) {
                specError(*this,
                          "remap_interval " + numStr(cfg.remapInterval) +
                              " is not a whole multiple of dtm_interval " +
                              numStr(cfg.dtmInterval) +
                              " (remap decisions run inside DTM "
                              "decisions, so the periods must nest)");
            }
        }

        pt.cfg = cfg;
        std::optional<Platform> pointPlat = plat;
        if (pointPlat)
            pointPlat->sim = cfg;
        pt.runs.reserve(ws.size() * policies.size());
        for (const Workload &w : ws)
            for (const auto &pol : policies)
                pt.runs.push_back(pointPlat
                                      ? ch5EngineRun(*pointPlat, w, pol)
                                      : ExperimentEngine::Run{cfg, w, pol, {}});

        // Equivalence classes over the global run order (see the header's
        // LoweredScenario::classes contract): the runs were just emitted
        // workload-major with the policy fastest, which is exactly the
        // contiguity the classes assert. ch5EngineRun specializes the
        // config per policy (SR1500AL "No-limit" runs at a 26 C room
        // ambient), so platform runs never share a prefix.
        const std::size_t width = plat ? 1 : policies.size();
        for (std::size_t r = 0; r < pt.runs.size(); r += width)
            out.classes.push_back({nRuns + r, width});
        nRuns += pt.runs.size();
        out.points.push_back(std::move(pt));

        // Advance the odometer; carry out of axis 0 means we are done.
        std::size_t k = dim.size();
        for (; k > 0; --k) {
            if (++ix[k - 1] < dim[k - 1])
                break;
            ix[k - 1] = 0;
        }
        if (k == 0)
            break;
    }
    return out;
}

Json
ScenarioSpec::toJson() const
{
    Json j = Json::object();
    j.set("name", name);
    if (!description.empty())
        j.set("description", description);
    if (!platform.empty())
        j.set("platform", platform);

    Json cfg = Json::object();
    forEachAxis([&](const AxisDef &a, auto knob, auto...) {
        if (present(*this, a, knob))
            cfg.set(a.key, encode(valueOf(this->*knob)));
    });
    if (!cfg.asObject().empty())
        j.set("config", std::move(cfg));

    j.set("workloads", toJsonList(workloads));
    j.set("policies", toJsonList(policies));

    Json sweep = Json::object();
    forEachSweep([&](const AxisDef &a, auto, auto values, auto...) {
        if ((this->*values).empty())
            return;
        Json arr = Json::array();
        for (const auto &v : this->*values)
            arr.push(encode(v));
        sweep.set(a.key, std::move(arr));
    });
    if (!sweep.asObject().empty())
        j.set("sweep", std::move(sweep));

    return j;
}

ScenarioSpec
ScenarioSpec::fromJson(const Json &j)
{
    if (!j.isObject())
        fatal("scenario: document must be a JSON object");
    checkMembers(j, "the scenario",
                 {"name", "description", "platform", "config", "workloads",
                  "policies", "sweep"});

    ScenarioSpec s;
    if (j.find("name"))
        s.name = memberString(j, "name");
    if (j.find("description"))
        s.description = memberString(j, "description");
    if (j.find("platform"))
        s.platform = memberString(j, "platform");

    if (const Json *cfg = j.find("config")) {
        if (!cfg->isObject())
            fatal("scenario: 'config' must be an object");
        checkMembers(*cfg, "'config'", scenarioConfigKeys());
        forEachAxis([&](const AxisDef &a, auto knob, auto...) {
            if (!cfg->find(a.key))
                return;
            s.*knob = decode<ValueOf<std::decay_t<decltype(s.*knob)>>>(
                *cfg, a.key);
            if (a.path && !isSet(s.*knob)) {
                fatal("scenario: '" + std::string(a.key) +
                      "' path must not be empty");
            }
        });
    }

    if (j.find("workloads"))
        s.workloads = listOf<std::string>(j.at("workloads"), "workloads");
    if (j.find("policies"))
        s.policies = listOf<std::string>(j.at("policies"), "policies");

    if (const Json *sweep = j.find("sweep")) {
        if (!sweep->isObject())
            fatal("scenario: 'sweep' must be an object");
        checkMembers(*sweep, "'sweep'", scenarioSweepKeys());
        forEachSweep([&](const AxisDef &a, auto, auto values, auto...) {
            if (const Json *arr = sweep->find(a.key)) {
                s.*values = decodeList<
                    typename std::decay_t<decltype(s.*values)>::value_type>(
                    *arr, a.key);
            }
        });
    }
    return s;
}

ScenarioSpec
ScenarioSpec::load(const std::string &path)
{
    return fromJson(Json::load(path));
}

void
ScenarioSpec::save(const std::string &path) const
{
    toJson().save(path);
}

Json
toJson(const SimResult &r, bool traces)
{
    Json j = Json::object();
    j.set("workload", r.workload);
    j.set("policy", r.policy);
    j.set("completed", r.completed);
    j.set("running_time_s", r.runningTime);
    j.set("total_instr", r.totalInstr);
    j.set("read_gb", r.totalReadGB);
    j.set("write_gb", r.totalWriteGB);
    j.set("l2_misses", r.totalL2Misses);
    j.set("mem_energy_j", r.memEnergy);
    j.set("cpu_energy_j", r.cpuEnergy);
    j.set("max_amb_c", r.maxAmb);
    j.set("max_dram_c", r.maxDram);
    j.set("time_above_amb_tdp_s", r.timeAboveAmbTdp);
    j.set("time_above_dram_tdp_s", r.timeAboveDramTdp);
    j.set("peak_amb_per_dimm_c", toJsonList(r.peakAmbPerDimm));
    j.set("peak_dram_per_dimm_c", toJsonList(r.peakDramPerDimm));
    j.set("avg_power_per_dimm_w", toJsonList(r.avgPowerPerDimm));
    // Schema v2 members, present only when the run's refresh model was
    // active (the vectors are sized iff SimConfig::refresh is non-empty),
    // so every pre-refresh golden keeps its exact member set.
    if (!r.refreshBwLossPerDimm.empty()) {
        j.set("refresh_bw_loss_per_dimm_gb",
              toJsonList(r.refreshBwLossPerDimm));
        j.set("refresh_energy_per_dimm_j",
              toJsonList(r.refreshEnergyPerDimm));
    }
    // Schema v3 members, present only when the run's bank-grid thermal
    // model was active (the vector is sized iff SimConfig::bankGrid is
    // set), so every lumped-model golden keeps its exact member set.
    if (!r.peakBankDramPerDimm.empty()) {
        Json g = Json::object();
        g.set("x", r.bankGridX);
        g.set("z", r.bankGridZ);
        j.set("bank_grid", std::move(g));
        const std::size_t cells = static_cast<std::size_t>(r.bankGridX) *
                                  static_cast<std::size_t>(r.bankGridZ);
        Json per_dimm = Json::array();
        for (std::size_t base = 0; base < r.peakBankDramPerDimm.size();
             base += cells) {
            Json row = Json::array();
            for (std::size_t c = 0; c < cells; ++c)
                row.push(r.peakBankDramPerDimm[base + c]);
            per_dimm.push(std::move(row));
        }
        j.set("peak_bank_dram_c", std::move(per_dimm));
    }
    if (traces) {
        Json t = Json::object();
        t.set("amb_c", traceJson(r.ambTrace));
        t.set("dram_c", traceJson(r.dramTrace));
        t.set("inlet_c", traceJson(r.inletTrace));
        t.set("cpu_power_w", traceJson(r.cpuPowerTrace));
        t.set("bw_gbps", traceJson(r.bwTrace));
        j.set("traces", std::move(t));
    }
    return j;
}

Json
toJson(const SuiteResults &r, bool traces)
{
    Json j = Json::object();
    for (const auto &[w, per_policy] : r) {
        Json pw = Json::object();
        for (const auto &[p, res] : per_policy)
            pw.set(p, toJson(res, traces));
        j.set(w, std::move(pw));
    }
    return j;
}

int
resultSchemaVersionOf(const Json &doc, const std::string &where,
                      int max_version)
{
    const Json *v = doc.isObject() ? doc.find("schema_version") : nullptr;
    if (!v)
        return 1; // version-absent legacy file
    if (!v->isNumber() || v->asNumber() != std::floor(v->asNumber()) ||
        v->asNumber() < 1) {
        fatal(where + ": 'schema_version' must be a positive integer");
    }
    const int ver = static_cast<int>(v->asNumber());
    if (ver > max_version) {
        fatal(where + ": schema version " + std::to_string(ver) +
              " is newer than this binary's " +
              std::to_string(max_version) +
              "; upgrade memtherm to read this file");
    }
    return ver;
}

Json
toJson(const ScenarioResults &r, bool traces)
{
    Json j = Json::object();
    j.set("scenario", r.scenario);
    // Schema versioning (kResultSchemaVersion): stamped with the
    // *minimum* version the document's members imply — 3 only when a
    // v3-only member (the per-bank peaks) is present, 2 when only
    // v2-only members (the per-DIMM refresh fields) are, nothing for
    // the historical member set — so documents keep their exact
    // historical bytes until they actually use a newer field.
    bool has_v2 = false, has_v3 = false;
    for (const auto &pt : r.points)
        for (const auto &[w, per_policy] : pt.suite)
            for (const auto &[p, res] : per_policy) {
                has_v2 |= !res.refreshBwLossPerDimm.empty();
                has_v3 |= !res.peakBankDramPerDimm.empty();
            }
    if (has_v3)
        j.set("schema_version", 3);
    else if (has_v2)
        j.set("schema_version", 2);
    Json pts = Json::array();
    for (const auto &pt : r.points) {
        Json p = Json::object();
        p.set("label", pt.label);
        p.set("results", toJson(pt.suite, traces));
        pts.push(std::move(p));
    }
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

} // namespace memtherm
