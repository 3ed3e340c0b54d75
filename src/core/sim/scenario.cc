#include "core/sim/scenario.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <concepts>
#include <functional>
#include <limits>
#include <map>
#include <tuple>
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

/** How errors name a spec: "scenario", or "scenario '<name>'". */
std::string
specWho(const ScenarioSpec &spec)
{
    return spec.name.empty() ? "scenario" : "scenario '" + spec.name + "'";
}

[[noreturn]] void
specError(const ScenarioSpec &spec, const std::string &what)
{
    fatal(specWho(spec) + ": " + what);
}

/**
 * Warn when a decoded trace puts every byte of a DIMM it touches on
 * fewer cells than the bank grid has: the DIMM's whole DRAM power then
 * heats those cells, at scaled weights up to the cell count.
 */
void
warnIfSparse(const ScenarioSpec &spec, const std::array<int, 3> &geometry,
             const TraceProfile &p)
{
    const int cells = geometry[2];
    int sparse = 0;
    double heaviest = 0.0;
    for (int d = 0; d < geometry[1]; ++d) {
        if (p.dimmShares[d] == 0.0)
            continue;
        const auto w = p.bankWeights.begin() + d * cells;
        if (std::count(w, w + cells, 0.0) == 0)
            continue;
        ++sparse;
        heaviest = std::max(heaviest, *std::max_element(w, w + cells));
    }
    if (sparse == 0)
        return;
    warn(specWho(spec) + ": trace '" + spec.trace + "' puts all the bytes "
         "of " + std::to_string(sparse) + " DIMM(s) on fewer than the " +
         std::to_string(cells) + " bank cells of the grid (" +
         std::to_string(geometry[0]) + " channel(s) x " +
         std::to_string(geometry[1]) + " DIMM(s)); the largest scaled cell "
         "weight is " + numStr(heaviest * cells) + " (the mean is 1)");
}

/**
 * Where a value sits in a scenario document: a chain of member keys and
 * array indices, rendered ("sweep.memory_org[0].dimms") only when an
 * error names it, so reading a valid document formats nothing.
 */
struct Path
{
    const Path *parent = nullptr;
    const char *key = nullptr; ///< a member key; null: element `index`
    std::size_t index = 0;

    Path operator/(const char *k) const { return {this, k}; }
    Path operator[](std::size_t i) const { return {this, nullptr, i}; }

    std::string
    str() const
    {
        std::string out = parent ? parent->str() : "";
        if (!key)
            return out + "[" + std::to_string(index) + "]";
        return out.empty() ? key : out + "." + key;
    }
};

/**
 * Every value error, in one grammar: "<who>: '<path>' must be <kind>",
 * who being "scenario" while parsing, and the spec (specWho) once a
 * lowering check names it.
 */
[[noreturn]] void
mustBe(const Path &path, const std::string &kind,
       const ScenarioSpec *spec = nullptr)
{
    fatal((spec ? specWho(*spec) : "scenario") + ": '" + path.str() +
          "' must be " + kind);
}

/** How an error names a place: a phrase ("a trace"), or a path. */
std::string
describe(const char *phrase)
{
    return phrase;
}

std::string
describe(const Path &path)
{
    return "'" + path.str() + "'";
}

/** Reject members we do not understand — typos fail loudly. */
template <typename Where>
void
checkMembers(const Json &obj, const Where &where,
             const std::vector<std::string> &allowed)
{
    for (const auto &[key, v] : obj.asObject()) {
        if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
            fatal("scenario: unknown member '" + key + "' in " +
                  describe(where) + " (valid: " + joinNames(allowed) + ")");
        }
    }
}

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

// --- the value codecs -------------------------------------------------------

/**
 * How a scenario value of type T is read (parse: FatalError through
 * mustBe, naming the value's full path), written back (toJson: the
 * inverse, byte-stable) and rendered as a sweep-label coordinate
 * (label: exact, and free of the label grammar's reserved "," and "=").
 * One specialization per value type; adding a type means adding one.
 */
template <typename T>
struct ValueCodec;

/** The codec of a config member's value (see valueOf). */
template <typename M>
using CodecOf = ValueCodec<ValueOf<M>>;

template <>
struct ValueCodec<std::string>
{
    static std::string
    parse(const Json &v, const Path &p)
    {
        if (!v.isString())
            mustBe(p, "a string");
        return v.asString();
    }

    static Json toJson(const std::string &s) { return Json(s); }
    static std::string label(const std::string &s) { return s; }
};

template <>
struct ValueCodec<double>
{
    static double
    parse(const Json &v, const Path &p)
    {
        if (!v.isNumber())
            mustBe(p, "a number");
        return v.asNumber();
    }

    static Json toJson(double d) { return Json(d); }
    static std::string label(double d) { return numStr(d); }
};

/**
 * An integer, range-checked before the cast (undefined behavior for a
 * double outside the target type). The unsigned one (the sensor seed)
 * stops at 2^53, the largest range whose integers a JSON number holds
 * exactly.
 */
template <typename I>
struct IntegerCodec
{
    static constexpr bool sign = std::is_signed_v<I>;
    static constexpr double lo =
        sign ? static_cast<double>(std::numeric_limits<I>::min()) : 0.0;
    static constexpr double hi =
        sign ? static_cast<double>(std::numeric_limits<I>::max())
             : 9007199254740992.0;

    static I
    parse(const Json &v, const Path &p)
    {
        if (!v.isNumber() || v.asNumber() != std::floor(v.asNumber()))
            mustBe(p, sign ? "an integer" : "a non-negative integer");
        const double x = v.asNumber();
        if (!(x >= lo && x <= hi)) {
            mustBe(p, "within [" + numStr(lo) + ", " + numStr(hi) +
                          "] (got " + numStr(x) + ")");
        }
        return static_cast<I>(x);
    }

    static Json toJson(I i) { return Json(i); }
    static std::string label(I i) { return std::to_string(i); }
};

template <>
struct ValueCodec<int> : IntegerCodec<int>
{
};

template <>
struct ValueCodec<std::uint64_t> : IntegerCodec<std::uint64_t>
{
};

/** An array; its label joins the elements' with "|" (not reserved). */
template <typename T>
struct ValueCodec<std::vector<T>>
{
    static std::vector<T>
    parse(const Json &v, const Path &p)
    {
        if (!v.isArray())
            mustBe(p, "an array");
        std::vector<T> out;
        out.reserve(v.asArray().size());
        for (const Json &e : v.asArray())
            out.push_back(ValueCodec<T>::parse(e, p[out.size()]));
        return out;
    }

    static Json
    toJson(const std::vector<T> &v)
    {
        Json a = Json::array();
        for (const T &x : v)
            a.push(ValueCodec<T>::toJson(x));
        return a;
    }

    static std::string
    label(const std::vector<T> &v)
    {
        std::string out;
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i)
                out += "|";
            out += ValueCodec<T>::label(v[i]);
        }
        return out;
    }
};

/**
 * A member of an inline object: its key, its field, and the separator
 * before its coordinate in the object's label. A required member must be
 * present; an optional one reads as its default when absent, and is
 * written (and labeled) only when it differs from it, which keeps the
 * round trip lossless and the common case terse.
 */
template <typename S, typename T>
struct Member
{
    using Codec = ValueCodec<T>;

    const char *key;
    T S::*field;
    const char *sep;
    bool required = true;

    bool
    shown(const S &s) const
    {
        return required || s.*field != S{}.*field;
    }
};

/** The members of an inline object type, in serialization order. */
template <typename S>
struct Members;

template <>
struct Members<MemoryOrgConfig>
{
    static constexpr std::tuple list{
        Member{"channels", &MemoryOrgConfig::nChannels, ""},
        Member{"dimms", &MemoryOrgConfig::nDimmsPerChannel, "x"}};
};

template <>
struct Members<RefreshBand>
{
    static constexpr std::tuple list{
        Member{"min_temp", &RefreshBand::minTemp, ""},
        Member{"bw_fraction", &RefreshBand::bwFraction, ":"},
        Member{"dram_power_w", &RefreshBand::dramPower, ":"},
        Member{"latency_mult", &RefreshBand::latencyMult, ":", false}};
};

template <>
struct Members<BankGridConfig>
{
    static constexpr std::tuple list{
        Member{"grid_x", &BankGridConfig::x, ""},
        Member{"grid_z", &BankGridConfig::z, "x"},
        Member{"bank_weights", &BankGridConfig::weights, ":", false}};
};

/** An inline object, member by member (see Members). */
template <typename S>
    requires requires { Members<S>::list; }
struct ValueCodec<S>
{
    static S
    parse(const Json &v, const Path &p)
    {
        if (!v.isObject())
            mustBe(p, "an object");
        static const std::vector<std::string> keys = std::apply(
            [](const auto &...m) {
                return std::vector<std::string>{m.key...};
            },
            Members<S>::list);
        checkMembers(v, p, keys);
        S out;
        forEachMember([&](const auto &m) {
            using C = typename std::decay_t<decltype(m)>::Codec;
            if (const Json *x = v.find(m.key))
                out.*m.field = C::parse(*x, p / m.key);
            else if (m.required)
                mustBe(p / m.key, "present");
        });
        return out;
    }

    static Json
    toJson(const S &s)
    {
        Json j = Json::object();
        forEachMember([&](const auto &m) {
            using C = typename std::decay_t<decltype(m)>::Codec;
            if (m.shown(s))
                j.set(m.key, C::toJson(s.*m.field));
        });
        return j;
    }

    static std::string
    label(const S &s)
    {
        std::string out;
        forEachMember([&](const auto &m) {
            using C = typename std::decay_t<decltype(m)>::Codec;
            if (m.shown(s)) {
                out += m.sep;
                out += C::label(s.*m.field);
            }
        });
        return out;
    }

  private:
    template <typename F>
    static void
    forEachMember(F &&f)
    {
        std::apply([&](const auto &...m) { (f(m), ...); }, Members<S>::list);
    }
};

// --- the four inline forms ------------------------------------------------

/**
 * The per-type half of CatalogOrInline, keyed by its inline member type:
 * its catalog and inline bounds check, and how errors name it. The rest
 * — the string-or-inline codec, empty(), "name wins" — is shared.
 *
 *  - noun: what the value is called in errors ("scenario: <noun> ...");
 *  - one: the JSON forms a value accepts.
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
    static constexpr auto catalog = memoryOrgCatalog;

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
    static constexpr auto catalog = trafficShapeCatalog;

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
    static constexpr auto catalog = refreshCatalog;

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
    static constexpr auto catalog = thermalModelCatalog;

    static ThermalModelConfig
    check(const std::optional<BankGridConfig> &g, const std::string &what)
    {
        if (g->x < 1 || g->z < 1)
            fatal(what + " grid dimensions must be >= 1");
        // Bound each dimension before multiplying: x * z in int wraps.
        if (g->x > 1024 || g->z > 1024 || g->cells() > 1024) {
            fatal(what + " has " +
                  std::to_string(static_cast<long long>(g->x) * g->z) +
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

/**
 * A name-or-inline value: a non-empty catalog name, or the inline form
 * (an object for a std::optional member, an array for a vector).
 */
template <typename Inline, typename Resolved, typename... Context>
struct ValueCodec<CatalogOrInline<Inline, Resolved, Context...>>
{
    using V = CatalogOrInline<Inline, Resolved, Context...>;
    using Form = InlineForm<Inline>;

    static V
    parse(const Json &v, const Path &p)
    {
        constexpr bool object = requires(Inline i) { i.has_value(); };
        V out;
        if (v.isString())
            out.name = v.asString();
        else if (object ? v.isObject() : v.isArray())
            out.value = CodecOf<Inline>::parse(v, p);
        else
            mustBe(p, Form::one);
        if (out.empty())
            mustBe(p, "non-empty");
        return out;
    }

    static Json
    toJson(const V &v)
    {
        if (!v.name.empty())
            return Json(v.name);
        // A default-constructed value means "keep the base value" and
        // has no serialized form — callers filter those out; reaching
        // here with one (e.g. an empty sweep entry) is a spec bug.
        if (!v.hasValue())
            fatal(std::string("scenario: empty ") + Form::noun);
        return CodecOf<Inline>::toJson(valueOf(v.value));
    }

    static std::string label(const V &v) { return v.label(); }
};

} // namespace

template <typename Inline, typename Resolved, typename... Context>
std::string
CatalogOrInline<Inline, Resolved, Context...>::label() const
{
    if (!name.empty())
        return name;
    return hasValue() ? CodecOf<Inline>::label(valueOf(value)) : "";
}

template <typename Inline, typename Resolved, typename... Context>
Resolved
CatalogOrInline<Inline, Resolved, Context...>::resolve(
    Context... context) const
{
    using Form = InlineForm<Inline>;
    if (!name.empty())
        return Form::catalog().get(name, context...);
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
    DvfsTable t = dvfsCatalog().get(name);
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
    /// Bounds of numeric values, knob and sweep alike (doubles are also
    /// checked finite); exclusive applies to min.
    double min = -std::numeric_limits<double>::infinity();
    bool exclusive = false;
    double max = std::numeric_limits<double>::infinity();
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
          c = makeCh4Config(coolingCatalog().get(p.first), p.second);
      });
    f(AxisDef{.key = "ambient", .baseName = true}, &S::ambient, nullptr,
      nullptr, nullptr);
    f(AxisDef{.key = "interaction_degree", .prefix = "degree=", .pos = 12,
              .platformReject = "platform scenarios calibrate their own "
                                "CPU-to-memory coupling; remove the "
                                "interaction_degree member and sweep",
              .min = 0},
      &S::interactionDegree, &S::sweepInteractionDegree,
      [](double degree, const ResolveContext &ctx) {
          if (ctx.spec.ambient != "integrated")
              specError(ctx.spec,
                        ctx.where() + " needs the integrated ambient (set "
                                      "config.ambient to \"integrated\")");
          return degree * kXiCalibration;
      },
      [](C &c, double xi) { c.ambient.psiCpuMemXi = xi; });
    f(AxisDef{.key = "emergency_levels", .prefix = "levels=", .pos = 8,
              .platformReject = kPlatformDvfs},
      &S::emergencyLevels, &S::sweepEmergencyLevels,
      [](const std::string &n) { return emergencyLevelCatalog().get(n); },
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
      // One payload per resolved value, shared by every point.
      [](const ThermalModelSpec &t) {
          return SharedBankGrid(t.resolve().grid);
      },
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
              .min = 1, .max = kMaxBatchCopies},
      &S::copiesPerApp, &S::sweepCopies, nullptr, &C::copiesPerApp);
    f(AxisDef{.key = "instr_scale", .min = 0, .exclusive = true},
      &S::instrScale, nullptr, nullptr, &C::instrScale);
    f(AxisDef{.key = "max_sim_time", .min = 0, .exclusive = true},
      &S::maxSimTime, nullptr, nullptr, &C::maxSimTime);
    f(AxisDef{.key = "dtm_interval", .prefix = "dtm=", .pos = 7, .min = 0,
              .exclusive = true},
      &S::dtmInterval, &S::sweepDtmInterval, nullptr, &C::dtmInterval);
    f(AxisDef{.key = "rotation_slice", .prefix = "slice=", .pos = 13,
              .min = 0, .exclusive = true},
      &S::rotationSlice, &S::sweepRotationSlice, nullptr, &C::rotationSlice);
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
 * A numeric entry's bounds, for its config member and then each sweep
 * value: finite, and the table's bounds.
 */
template <typename M, typename Sweep>
void
checkBounds(const ScenarioSpec &s, const AxisDef &a, M ScenarioSpec::*knob,
            Sweep sweep)
{
    if constexpr (std::is_arithmetic_v<ValueOf<M>>) {
        auto check = [&](double v, const Path &p) {
            if (!std::isfinite(v))
                mustBe(p, "finite", &s);
            if (a.exclusive ? v <= a.min : v < a.min)
                mustBe(p, std::string(a.exclusive ? "> " : ">= ") +
                              numStr(a.min), &s);
            if (v > a.max)
                mustBe(p, "<= " + numStr(a.max), &s);
        };
        const Path config{.key = "config"}, axes{.key = "sweep"};
        if (isSet(s.*knob))
            check(static_cast<double>(*(s.*knob)), config / a.key);
        if constexpr (!std::is_null_pointer_v<Sweep>) {
            const Path axis = axes / a.key;
            for (std::size_t i = 0; i < (s.*sweep).size(); ++i)
                check(static_cast<double>((s.*sweep)[i]), axis[i]);
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
            const std::string x = ValueCodec<E>::label(sweep[i]),
                              y = ValueCodec<E>::label(sweep[j]);
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
                    if constexpr (requires { v.resolve(); })
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
    return lowered(true);
}

std::vector<std::string>
ScenarioSpec::pointLabels() const
{
    std::vector<std::string> out;
    for (const auto &pt : lowered(false).points)
        out.push_back(pt.label);
    return out;
}

LoweredScenario
ScenarioSpec::lowered(bool read_trace) const
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
        ws.push_back(workloadCatalog().get(n));

    std::optional<Platform> plat;
    if (!platform.empty()) {
        plat = platformCatalog().get(platform);
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
        (void)ambientCatalog().get(ambient, coolingCatalog().get(cooling));
        const auto &reg = PolicyRegistry::instance();
        for (const auto &p : policies) {
            if (!reg.contains(p))
                specError(*this, reg.unknown(p));
        }
    }

    // Scalar sanity: non-finite values would otherwise be
    // indistinguishable from "keep the base value" downstream.
    forEachAxis([&](const AxisDef &a, auto knob, auto sweep, auto...) {
        checkBounds(*this, a, knob, sweep);
    });

    // The trace IS the measured per-DIMM distribution, so an analytic
    // shape alongside it could only be silently ignored or silently
    // override the measurement.
    if (!trace.empty() &&
        (!trafficShape.empty() || !sweepTrafficShape.empty())) {
        specError(*this,
                  "'trace' supplies the per-DIMM traffic distribution; "
                  "remove the traffic_shape member and sweep");
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
    forEachSweep([&]<typename E>(const AxisDef &a, auto,
                                 std::vector<E> ScenarioSpec::*sweep,
                                 auto...) {
        prefixes.push_back(a.prefix);
        auto &axis = labels.emplace_back();
        for (const E &v : this->*sweep)
            axis.push_back(ValueCodec<E>::label(v));
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

    // Load the trace once. Its profile depends only on a point's
    // (channels, DIMMs per channel, bank cells), so each distinct triple
    // decodes once below; the memo lives only for this call.
    std::vector<TraceRecord> traceRecords;
    if (!trace.empty() && read_trace)
        traceRecords = loadTrace(trace);
    std::map<std::array<int, 3>, TraceProfile> traceProfiles;
    // The decoded grids, one payload per (profile, grid shape): every
    // run of those points shares it.
    std::map<std::array<int, 4>, SharedBankGrid> tracedGrids;

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
            const std::array<int, 3> key{
                cfg.org.nChannels, cfg.org.nDimmsPerChannel,
                cfg.bankGrid ? cfg.bankGrid->cells() : 0};
            auto it = traceProfiles.find(key);
            if (it == traceProfiles.end()) {
                it = traceProfiles
                         .emplace(key, decodeTrace(traceRecords, key[0],
                                                   key[1], key[2]))
                         .first;
                if (key[2] > 0)
                    warnIfSparse(*this, key, it->second);
            }
            cfg.trafficShares = it->second.dimmShares;
            if (cfg.bankGrid) {
                const BankGridConfig &g = *cfg.bankGrid;
                SharedBankGrid &traced =
                    tracedGrids[{key[0], key[1], g.x, g.z}];
                if (!traced)
                    traced = BankGridConfig{g.x, g.z,
                                            it->second.bankWeights};
                cfg.bankGrid = traced;
            }
        }
        // The window must resolve the decision period and the
        // scheduler slice, so the shortest of the three sets it.
        cfg.window =
            std::min({cfg.window, cfg.dtmInterval, cfg.rotationSlice});

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
        // workload-major with the policy fastest, so a class is a stretch
        // of one workload's runs whose configs compare equal.
        for (std::size_t r = 0; r < pt.runs.size(); ++r) {
            if (r % policies.size() != 0 &&
                pt.runs[r].cfg == pt.runs[r - 1].cfg)
                ++out.classes.back().count;
            else
                out.classes.push_back({nRuns + r, 1});
        }
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
    forEachAxis([&]<typename M>(const AxisDef &a, M ScenarioSpec::*knob,
                                auto...) {
        if (present(*this, a, knob))
            cfg.set(a.key, CodecOf<M>::toJson(valueOf(this->*knob)));
    });
    if (!cfg.asObject().empty())
        j.set("config", std::move(cfg));

    using Names = ValueCodec<std::vector<std::string>>;
    j.set("workloads", Names::toJson(workloads));
    j.set("policies", Names::toJson(policies));

    Json sweep = Json::object();
    forEachSweep([&]<typename V>(const AxisDef &a, auto,
                                 V ScenarioSpec::*values, auto...) {
        if (!(this->*values).empty())
            sweep.set(a.key, ValueCodec<V>::toJson(this->*values));
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

    // Read the member at @p p of @p obj into @p out; false when absent.
    auto read = []<typename M>(const Json &obj, const Path &p, M &out) {
        const Json *v = obj.find(p.key);
        if (v)
            out = CodecOf<M>::parse(*v, p);
        return v != nullptr;
    };
    // The `config` or `sweep` object, checked against its keys.
    auto section = [&](const Path &p, const std::vector<std::string> &keys) {
        const Json *v = j.find(p.key);
        if (v && !v->isObject())
            mustBe(p, "an object");
        if (v)
            checkMembers(*v, p, keys);
        return v;
    };

    ScenarioSpec s;
    read(j, {.key = "name"}, s.name);
    read(j, {.key = "description"}, s.description);
    read(j, {.key = "platform"}, s.platform);

    const Path config{.key = "config"};
    if (const Json *cfg = section(config, scenarioConfigKeys())) {
        forEachAxis([&](const AxisDef &a, auto knob, auto...) {
            if (read(*cfg, config / a.key, s.*knob) && a.path &&
                !isSet(s.*knob))
                mustBe(config / a.key, "a non-empty path");
        });
    }

    read(j, {.key = "workloads"}, s.workloads);
    read(j, {.key = "policies"}, s.policies);

    const Path axes{.key = "sweep"};
    if (const Json *sweep = section(axes, scenarioSweepKeys())) {
        forEachSweep([&](const AxisDef &a, auto, auto values, auto...) {
            read(*sweep, axes / a.key, s.*values);
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

} // namespace memtherm
