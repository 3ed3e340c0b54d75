/**
 * @file
 * Seeded fuzz harness for the JSON layer and the scenario-spec
 * serialization:
 *
 *  - a random-spec generator drives toJson -> dump -> parse -> fromJson
 *    -> toJson round-trips that must be byte-identical;
 *  - truncated and mutated documents must produce FatalError with
 *    line:col context (json.cc's `at line L:C` suffix), never a crash
 *    or misparse — the CI sanitizer job runs this suite under
 *    ASan+UBSan with MEMTHERM_FUZZ_CASES=10000.
 *
 * The case count defaults to ~1000 and scales with the
 * MEMTHERM_FUZZ_CASES environment variable; every case derives from the
 * fixed base seed, so a failure reproduces by case index.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/sim/registry.hh"
#include "core/sim/scenario.hh"

namespace memtherm
{
namespace
{

std::size_t
fuzzCases()
{
    if (const char *env = std::getenv("MEMTHERM_FUZZ_CASES")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end && *end == '\0' && v > 0)
            return static_cast<std::size_t>(v);
    }
    return 1000;
}

/** A printable string with escape-worthy characters mixed in. */
std::string
randomString(Rng &rng, std::size_t max_len)
{
    static const char alphabet[] =
        "abcdefghijklmnopqrstuvwxyz"
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-./"
        "\"\\\n\t";
    const std::size_t len = rng.below(max_len + 1);
    std::string out;
    for (std::size_t i = 0; i < len; ++i)
        out += alphabet[rng.below(sizeof(alphabet) - 1)];
    return out;
}

template <typename T>
const T &
pick(Rng &rng, const std::vector<T> &v)
{
    return v[rng.below(v.size())];
}

/** A catalog organization or an inline {channels, dimms} pair. */
MemoryOrgSpec
randomOrg(Rng &rng)
{
    MemoryOrgSpec o;
    if (rng.uniform() < 0.5)
        o.name = pick(rng, memoryOrgCatalog().names());
    else
        o.value = MemoryOrgConfig{1 + static_cast<int>(rng.below(8)),
                                  1 + static_cast<int>(rng.below(8))};
    return o;
}

/** A catalog shape or an inline share vector. */
TrafficShapeSpec
randomShape(Rng &rng)
{
    TrafficShapeSpec t;
    if (rng.uniform() < 0.5) {
        t.name = pick(rng, trafficShapeCatalog().names());
    } else {
        const std::size_t n = 1 + rng.below(4);
        for (std::size_t i = 0; i < n; ++i)
            t.value.push_back(rng.uniform());
    }
    return t;
}

/**
 * A catalog refresh model or an inline band table; latency_mult is the
 * serializer's omitted default (1) about half the time.
 */
RefreshSpec
randomRefresh(Rng &rng)
{
    RefreshSpec r;
    if (rng.uniform() < 0.5) {
        r.name = pick(rng, refreshCatalog().names());
    } else {
        const std::size_t n = 1 + rng.below(3);
        for (std::size_t i = 0; i < n; ++i) {
            RefreshBand b;
            b.minTemp = rng.uniform(-20.0, 120.0);
            b.bwFraction = rng.uniform();
            b.dramPower = rng.uniform(0.0, 2.0);
            if (rng.uniform() < 0.5)
                b.latencyMult = rng.uniform(0.5, 1.5);
            r.value.push_back(b);
        }
    }
    return r;
}

/** A catalog thermal model or an inline grid, with or without weights. */
ThermalModelSpec
randomThermal(Rng &rng)
{
    ThermalModelSpec t;
    if (rng.uniform() < 0.5) {
        t.name = pick(rng, thermalModelCatalog().names());
    } else {
        BankGridConfig g{1 + static_cast<int>(rng.below(4)),
                         1 + static_cast<int>(rng.below(4)),
                         {}};
        if (rng.uniform() < 0.5)
            for (int c = 0; c < g.cells(); ++c)
                g.weights.push_back(rng.uniform());
        t.value = g;
    }
    return t;
}

/** One to three draws of @p gen. */
template <typename Gen>
auto
randomAxis(Rng &rng, Gen gen)
{
    std::vector<decltype(gen(rng))> out;
    const std::size_t n = 1 + rng.below(3);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(gen(rng));
    return out;
}

/**
 * A structurally valid random spec: catalog names come from the real
 * registries (fromJson stores them; resolution happens at lower()), so
 * the round-trip exercises every member the serializer knows — every
 * config member and every sweep axis, name-or-inline values in both
 * forms.
 */
ScenarioSpec
randomSpec(Rng &rng)
{
    ScenarioSpec s;
    s.name = "fuzz_" + std::to_string(rng.below(1000000));
    if (rng.uniform() < 0.5)
        s.description = randomString(rng, 40);

    const bool platform = rng.uniform() < 0.15;
    if (platform) {
        s.platform = pick(rng, platformCatalog().names());
    } else {
        s.cooling = pick(rng, coolingCatalog().names());
        s.ambient = pick(rng, ambientCatalog().names());
        if (rng.uniform() < 0.3)
            s.emergencyLevels = pick(rng, emergencyLevelCatalog().names());
        if (rng.uniform() < 0.3)
            s.dvfs = pick(rng, dvfsCatalog().names());
        if (rng.uniform() < 0.3)
            s.memoryOrg = randomOrg(rng);
        if (rng.uniform() < 0.3)
            s.trafficShape = randomShape(rng);
        if (rng.uniform() < 0.3)
            s.refresh = randomRefresh(rng);
        if (rng.uniform() < 0.3)
            s.thermalModel = randomThermal(rng);
        if (rng.uniform() < 0.2)
            s.trace = "traces/" + std::to_string(rng.next()) + ".trace";
        if (rng.uniform() < 0.4)
            s.tInlet = rng.uniform(20.0, 60.0);
        if (rng.uniform() < 0.2)
            s.remapInterval = rng.uniform(0.01, 2.0);
        if (rng.uniform() < 0.2)
            s.remapHysteresis = rng.uniform(0.0, 5.0);
        if (rng.uniform() < 0.3)
            s.sensorNoiseSigma = rng.uniform();
        if (rng.uniform() < 0.2)
            s.sensorQuant = rng.uniform(0.0, 2.0);
        if (rng.uniform() < 0.3) // JSON numbers: keep within 2^53
            s.sensorSeed = rng.below(1ULL << 50);
        if (rng.uniform() < 0.2)
            s.sweepMemoryOrg = randomAxis(rng, randomOrg);
        if (rng.uniform() < 0.2)
            s.sweepTrafficShape = randomAxis(rng, randomShape);
        if (rng.uniform() < 0.25)
            s.sweepTInlet = {rng.uniform(20.0, 60.0),
                             rng.uniform(20.0, 60.0)};
        if (rng.uniform() < 0.25)
            s.sweepCopies = {1 + static_cast<int>(rng.below(4))};
        if (rng.uniform() < 0.2)
            s.sweepCooling = {pick(rng, coolingCatalog().names())};
        if (rng.uniform() < 0.2)
            s.sweepSensorNoise = {rng.uniform(), rng.uniform()};
        if (rng.uniform() < 0.2)
            s.sweepDtmInterval = {rng.uniform(0.005, 0.2)};
        if (rng.uniform() < 0.2)
            s.sweepEmergencyLevels = {
                pick(rng, emergencyLevelCatalog().names())};
        if (rng.uniform() < 0.2)
            s.sweepDvfs = {pick(rng, dvfsCatalog().names())};
        if (rng.uniform() < 0.2)
            s.sweepRefresh = randomAxis(rng, randomRefresh);
        if (rng.uniform() < 0.2)
            s.sweepThermalModel = randomAxis(rng, randomThermal);
    }
    if (rng.uniform() < 0.4)
        s.copiesPerApp = 1 + static_cast<int>(rng.below(6));
    if (rng.uniform() < 0.3)
        s.maxSimTime = rng.uniform(100.0, 5000.0);
    if (rng.uniform() < 0.3)
        s.dtmInterval = rng.uniform(0.005, 0.2);
    if (rng.uniform() < 0.3)
        s.instrScale = rng.uniform(0.1, 2.0);

    const std::vector<std::string> wl = workloadCatalog().names();
    s.workloads = {pick(rng, wl)};
    if (rng.uniform() < 0.5)
        s.workloads.push_back(pick(rng, wl));
    s.policies = {"No-limit"};
    if (rng.uniform() < 0.5)
        s.policies.push_back("DTM-TS");
    return s;
}

TEST(JsonFuzz, RandomSpecsRoundTripByteIdentically)
{
    const std::size_t cases = fuzzCases();
    Rng seed_stream(0x5eedf00dULL);
    for (std::size_t i = 0; i < cases; ++i) {
        Rng rng(seed_stream.next());
        const ScenarioSpec spec = randomSpec(rng);
        const std::string once = spec.toJson().dump(2);
        ScenarioSpec back;
        try {
            back = ScenarioSpec::fromJson(Json::parse(once));
        } catch (const FatalError &e) {
            FAIL() << "case " << i << ": serialized spec refused: "
                   << e.what() << "\n" << once;
        }
        EXPECT_EQ(back, spec) << "case " << i;
        EXPECT_EQ(back.toJson().dump(2), once) << "case " << i;
        // The compact form parses to the same value too.
        EXPECT_EQ(Json::parse(spec.toJson().dump(0)).dump(2), once)
            << "case " << i;
    }
}

TEST(JsonFuzz, RandomValuesSurviveDumpParseDump)
{
    // The JSON layer's own contract: parse(dump(v)) == v for arbitrary
    // machine-generated values, doubles included (shortest round-trip
    // formatting).
    const std::size_t cases = fuzzCases();
    Rng seed_stream(0xaced5eedULL);
    for (std::size_t i = 0; i < cases; ++i) {
        Rng rng(seed_stream.next());
        Json v = Json::object();
        v.set("s", randomString(rng, 30));
        v.set("d", rng.uniform(-1e12, 1e12));
        v.set("tiny", rng.uniform() * 1e-300);
        v.set("i", static_cast<double>(rng.next() >> 12));
        v.set("b", rng.uniform() < 0.5);
        Json arr = Json::array();
        const std::size_t n = rng.below(6);
        for (std::size_t k = 0; k < n; ++k)
            arr.push(rng.uniform(-1.0, 1.0));
        v.set("a", std::move(arr));
        const std::string text = v.dump(2);
        EXPECT_EQ(Json::parse(text).dump(2), text) << "case " << i;
    }
}

/** Expect a FatalError whose message carries line:col context. */
void
expectDiagnostic(const std::string &text)
{
    try {
        (void)Json::parse(text);
        // Some mutations still parse — that is fine; the property under
        // test is "no crash, and failures are located".
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(" at line "), std::string::npos)
            << "undiagnosed failure for input: " << text.substr(0, 80)
            << " -> " << what;
    }
}

TEST(JsonFuzz, TruncationsFailWithLineColNotCrash)
{
    const std::size_t cases = fuzzCases();
    Rng seed_stream(0x7c0ffeeULL);
    for (std::size_t i = 0; i < cases; ++i) {
        Rng rng(seed_stream.next());
        std::string whole = randomSpec(rng).toJson().dump(2);
        while (!whole.empty() &&
               (whole.back() == '\n' || whole.back() == ' '))
            whole.pop_back();
        // A strict prefix of the (whitespace-trimmed) document leaves
        // its outer object unbalanced, so parse must refuse — with a
        // location, not a crash.
        const std::size_t cut = rng.below(whole.size());
        try {
            (void)Json::parse(whole.substr(0, cut));
            FAIL() << "case " << i << ": truncation at " << cut
                   << " parsed";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(" at line "),
                      std::string::npos)
                << "case " << i << ": " << e.what();
        }
    }
}

TEST(JsonFuzz, MutationsNeverCrashAndFailuresAreLocated)
{
    const std::size_t cases = fuzzCases();
    Rng seed_stream(0xdeadbeefULL);
    static const char junk[] = "{}[],:\"\\ truefalsnul\n\t-+.eE";
    for (std::size_t i = 0; i < cases; ++i) {
        Rng rng(seed_stream.next());
        std::string doc = randomSpec(rng).toJson().dump(2);
        const std::size_t edits = 1 + rng.below(8);
        for (std::size_t k = 0; k < edits; ++k) {
            const std::size_t at = rng.below(doc.size());
            doc[at] = junk[rng.below(sizeof(junk) - 1)];
        }
        expectDiagnostic(doc);
        // The spec layer on top must also fail cleanly, never crash:
        // unknown members, bad types and bad names are FatalError.
        try {
            (void)ScenarioSpec::fromJson(Json::parse(doc));
        } catch (const FatalError &) {
            // expected for most mutations
        }
    }
}

TEST(JsonFuzz, GarbageCorpusRegressions)
{
    // Hand-picked minimal inputs that historically catch parser bugs.
    for (const char *text :
         {"", "{", "[", "\"", "{\"a\":}", "{\"a\":1,}", "[1,2",
          "[1 2]", "tru", "nul", "false0", "-", "0x10", "1e", "1e+",
          "\"\\u12\"", "\"\\q\"", "{\"a\" 1}", "{1:2}", "[,]",
          "\"unterminated", "{\"a\":\"b\"}}", "1 2", "\x01",
          "{\"a\":\n\"b\",\n}"}) {
        try {
            (void)Json::parse(text);
            FAIL() << "accepted garbage: " << text;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(" at line "),
                      std::string::npos)
                << text << " -> " << e.what();
        }
    }
    // Deep nesting must not smash the stack: the parser's depth cap
    // refuses pathological documents with a located diagnostic.
    const std::string deep(100000, '[');
    try {
        (void)Json::parse(deep);
        FAIL() << "accepted 100k-deep nesting";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("nesting deeper than"), std::string::npos)
            << what;
        EXPECT_NE(what.find(" at line "), std::string::npos) << what;
    }
}

} // namespace
} // namespace memtherm
