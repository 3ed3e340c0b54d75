/**
 * @file
 * Seeded fuzz harness for the JSON layer, the scenario-spec
 * serialization and the result readers:
 *
 *  - a random-spec generator drives toJson -> dump -> parse -> fromJson
 *    -> toJson round-trips that must be byte-identical;
 *  - truncated and mutated documents must produce FatalError with
 *    line:col context (json.cc's `at line L:C` suffix), never a crash
 *    or misparse — the CI sanitizer job runs this suite under
 *    ASan+UBSan with MEMTHERM_FUZZ_CASES=10000;
 *  - random SimResults and result documents round-trip through the
 *    result codec byte-identically, its text writers print the tree's
 *    dump() bytes (a record's dump(0), a document's dump(2)), its text
 *    decoder agrees with the tree decoder it replaced (kept here as the
 *    oracle) on every mutated record, and a document read back with
 *    its members shuffled decodes to the same results;
 *  - JsonReader::skipValue refuses exactly what Json::parse refuses,
 *    with the same diagnostic, over the JSON fuzz corpus;
 *  - a real stream, mutated record by record, and a results document,
 *    mutated as a tree or damaged as text, reach scanStream,
 *    mergeStreams and the document decoder, which may refuse them only
 *    with FatalError;
 *  - `memtherm` command lines built from the option tables' own rows,
 *    then mutated, are refused by parseArgs only with FatalError, and
 *    every accepted one satisfies the options' invariants.
 *
 * The `#memtherm-trace` parser's fuzz cases live in
 * tests/dram/test_trace.cc, beside its differential oracle.
 *
 * The case count defaults to ~1000 and scales with the
 * MEMTHERM_FUZZ_CASES environment variable; every case derives from the
 * fixed base seed, so a failure reproduces by case index.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "cli/args.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/sim/registry.hh"
#include "core/sim/result_sink.hh"
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

/** An ordinary, extreme, subnormal or integral double, or -0. */
double
randomDouble(Rng &rng)
{
    constexpr double max = std::numeric_limits<double>::max();
    switch (rng.below(6)) {
      case 0:
        return -0.0;
      case 1:
        return rng.uniform() < 0.5 ? max : -max;
      case 2:
        return std::numeric_limits<double>::denorm_min() *
               static_cast<double>(1 + rng.below(1000));
      case 3:
        return static_cast<double>(rng.next() >> 11); // within 2^53
      case 4:
        return rng.uniform(-1e300, 1e300);
      default:
        return rng.uniform(-200.0, 200.0);
    }
}

std::vector<double>
randomDoubles(Rng &rng, std::size_t n)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(randomDouble(rng));
    return out;
}

/** A SimResult with or without refresh arrays, a bank grid and traces. */
SimResult
randomResult(Rng &rng)
{
    SimResult r;
    r.workload = randomString(rng, 12);
    r.policy = randomString(rng, 12);
    r.completed = rng.uniform() < 0.5;
    for (double *v : {&r.runningTime, &r.totalInstr, &r.totalReadGB,
                      &r.totalWriteGB, &r.totalL2Misses, &r.memEnergy,
                      &r.cpuEnergy, &r.maxAmb, &r.maxDram,
                      &r.timeAboveAmbTdp, &r.timeAboveDramTdp})
        *v = randomDouble(rng);
    const std::size_t dimms = 1 + rng.below(8);
    r.peakAmbPerDimm = randomDoubles(rng, dimms);
    r.peakDramPerDimm = randomDoubles(rng, dimms);
    r.avgPowerPerDimm = randomDoubles(rng, dimms);
    if (rng.uniform() < 0.5) {
        r.refreshBwLossPerDimm = randomDoubles(rng, dimms);
        r.refreshEnergyPerDimm = randomDoubles(rng, dimms);
    }
    if (rng.uniform() < 0.5) {
        r.bankGridX = 1 + static_cast<int>(rng.below(4));
        r.bankGridZ = 1 + static_cast<int>(rng.below(4));
        r.peakBankDramPerDimm = randomDoubles(rng, dimms * r.bankCells());
    }
    for (TimeSeries *t : {&r.ambTrace, &r.dramTrace, &r.inletTrace,
                          &r.cpuPowerTrace, &r.bwTrace}) {
        *t = TimeSeries(rng.uniform() < 0.2
                            ? std::numeric_limits<double>::denorm_min()
                            : rng.uniform(1e-3, 10.0));
        for (double v : randomDoubles(rng, rng.below(6)))
            t->add(v);
    }
    return r;
}

TEST(ResultCodecFuzz, RandomResultsRoundTripByteIdentically)
{
    const std::size_t cases = fuzzCases();
    Rng seed_stream(0xc0dec0deULL);
    for (std::size_t i = 0; i < cases; ++i) {
        Rng rng(seed_stream.next());
        const bool traces = rng.uniform() < 0.5;
        const SimResult r = randomResult(rng);
        const std::string once = toJson(r, traces).dump(0);
        try {
            JsonReader in(once);
            const SimResult back = readResult(in, "result", traces);
            in.finish();
            EXPECT_EQ(toJson(back, traces).dump(0), once) << "case " << i;
        } catch (const FatalError &e) {
            FAIL() << "case " << i << ": " << e.what() << "\n" << once;
        }

        // And as a document: points, suites, errors, the version stamp.
        ScenarioResults doc;
        doc.scenario = randomString(rng, 12);
        for (std::size_t p = 1 + rng.below(2); p > 0; --p) {
            ScenarioResults::Point &pt = doc.points.emplace_back();
            pt.label = randomString(rng, 12);
            for (std::size_t k = rng.below(3); k > 0; --k)
                pt.suite[randomString(rng, 4)][randomString(rng, 4)] =
                    randomResult(rng);
        }
        if (rng.uniform() < 0.3)
            doc.errors.push_back({rng.below(1ULL << 53), "p", "W1",
                                  "No-limit", randomString(rng, 20)});
        const std::string text = toJson(doc, traces).dump(2);
        EXPECT_EQ(writeDocument(readDocument(text, "doc"), traces), text)
            << "case " << i;
    }
}

/** A value of another kind, or a number no reader should trust. */
Json
hostileValue(Rng &rng)
{
    static const double numbers[] = {1e15,  1e300, -1e300, -1.0,
                                     0.5,   1.5,   -0.0,   4294967297.0,
                                     2e6,   0.0,   1024.0, 9007199254740994.0};
    switch (rng.below(7)) {
      case 0:
        return Json();
      case 1:
        return Json(rng.uniform() < 0.5);
      case 2:
        return Json(randomString(rng, 6));
      case 3:
        return Json::array();
      case 4:
        return Json::object();
      default:
        return Json(numbers[rng.below(std::size(numbers))]);
    }
}

/**
 * @p j with one node changed: a member dropped, an unknown member
 * added, or a value (at any depth) flipped to a hostile one.
 */
Json
mutateJson(const Json &j, Rng &rng)
{
    const bool object = j.isObject() && !j.asObject().empty();
    const bool array = j.isArray() && !j.asArray().empty();
    if ((!object && !array) || rng.uniform() < 0.25)
        return hostileValue(rng);
    const std::size_t n = object ? j.asObject().size() : j.asArray().size();
    const std::size_t at = rng.below(n);
    const std::size_t op = rng.below(4); // 0 drop, 1 add, else descend
    Json out = object ? Json::object() : Json::array();
    for (std::size_t i = 0; i < n; ++i) {
        const Json &v = object ? j.asObject()[i].second : j.asArray()[i];
        const Json value = i == at && op > 1 ? mutateJson(v, rng) : v;
        if (i == at && op == 0)
            continue;
        if (object)
            out.set(j.asObject()[i].first, value);
        else
            out.push(value);
        if (i == at && op == 1 && object)
            out.set("unknown_" + randomString(rng, 4), hostileValue(rng));
    }
    return out;
}

/**
 * Run @p f; it may refuse its input only with a FatalError. A
 * PanicError (our bug reached from user input), std::bad_alloc or any
 * other exception fails the case.
 */
template <typename F>
void
expectOnlyFatal(std::size_t i, const char *what, F &&f)
{
    try {
        f();
    } catch (const FatalError &) {
    } catch (const std::exception &e) {
        ADD_FAILURE() << "case " << i << ": " << what
                      << " escaped a non-fatal error: " << e.what();
    }
}

TEST(ResultCodecFuzz, MutatedStreamsAndDocumentsFailOnlyFatally)
{
    // A real two-run stream whose records carry every result member:
    // refresh arrays, bank-grid peaks and (every other case) traces.
    ScenarioSpec spec;
    spec.name = "fuzz_stream";
    spec.copiesPerApp = 1;
    spec.maxSimTime = 20.0;
    spec.refresh.name = "ddr2_2x";
    spec.thermalModel.name = "bank_grid";
    spec.workloads = {"W1"};
    spec.policies = {"No-limit", "DTM-TS"};
    ExperimentEngine engine(1);
    std::vector<std::string> base[2];
    for (const bool traces : {false, true}) {
        StreamRunOptions opts;
        opts.path = ::testing::TempDir() + "memtherm_fuzz_base" +
                    std::to_string(traces) + ".jsonl";
        std::remove(opts.path.c_str());
        opts.traces = traces;
        runScenarioStream(spec, engine, opts);
        std::ifstream in(opts.path);
        for (std::string line; std::getline(in, line);)
            base[traces].push_back(line);
        ASSERT_EQ(base[traces].size(), 3u);
    }
    const Json doc = mergeStreams({::testing::TempDir() +
                                   "memtherm_fuzz_base1.jsonl"})
                         .results;
    const std::string path = ::testing::TempDir() + "memtherm_fuzz.jsonl";

    const std::size_t cases = fuzzCases();
    Rng seed_stream(0x5ca77e57ULL);
    for (std::size_t i = 0; i < cases; ++i) {
        Rng rng(seed_stream.next());
        std::vector<std::string> lines = base[i % 2];
        std::string &line = lines[rng.below(lines.size())];
        bool torn = false;
        switch (rng.below(4)) {
          case 0: // truncated: mid-file damage, or a crash tail
            line.resize(rng.below(line.size()));
            torn = &line == &lines.back() && rng.uniform() < 0.5;
            break;
          case 1: // the header's traces flag against the records'
            lines[0] = Json::parse(lines[0])
                           .set("traces", Json(i % 2 == 0))
                           .dump(0);
            break;
          default: // a member flipped, dropped, added, or out of range
            line = mutateJson(Json::parse(line), rng).dump(0);
        }
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            for (std::size_t k = 0; k < lines.size(); ++k)
                out << lines[k] << (torn && k + 1 == lines.size() ? "" : "\n");
        }
        expectOnlyFatal(i, "scanStream", [&] { scanStream(path, true); });
        expectOnlyFatal(i, "scanStream (ids)",
                        [&] { scanStream(path, false); });
        expectOnlyFatal(i, "mergeStreams", [&] { mergeStreams({path}); });
        expectOnlyFatal(i, "readDocument", [&] {
            readDocument(mutateJson(doc, rng).dump(2), "doc");
        });
    }
}

/** What a read did: "ok", or the FatalError's message. */
template <typename F>
std::string
outcome(F &&f)
{
    try {
        f();
        return "ok";
    } catch (const FatalError &e) {
        return e.what();
    }
}

/**
 * The JSON fuzz corpus: the garbage regressions, numbers at and past a
 * double's range, random values, and random specs truncated or with
 * junk characters edited in.
 */
std::vector<std::string>
jsonCorpus()
{
    std::vector<std::string> out = {
        "", "{", "[", "\"", "{\"a\":}", "{\"a\":1,}", "[1,2", "[1 2]", "tru",
        "nul", "false0", "-", "0x10", "1e", "1e+", "\"\\u12\"", "\"\\q\"",
        "{\"a\" 1}", "{1:2}", "[,]", "\"unterminated", "{\"a\":\"b\"}}",
        "1 2", "\x01", "{\"a\":\n\"b\",\n}", "{\"a\": 1, \"a\": 2}",
        "{\"a\": {\"b\": 1}, \"b\": {\"b\": 2, \"\\u0062\": 3}}",
        "\"\\ud800\"", "\"\\udc00\"", "\"\\ud800\\u0041\"", "\"\\ud83d\\ude00\"",
        "\"a\tb\"", "01", "-01", "1.", ".5", "1.e5", "+1", "-0", "0e0",
        "1e400", "-1e400", "1e-400", "4.9e-324", "2.4e-324",
        "1.7976931348623157e308", "1.8e308", "0e99999", "1e0000000001",
        "123456789012345678901234567890e-330", std::string(400, '9'),
        "0." + std::string(320, '0') + "1", std::string(300, '[')};
    const std::size_t cases = fuzzCases();
    Rng seed_stream(0x5e1ec7edULL);
    static const char junk[] = "{}[],:\"\\ truefalsnul\n\t-+.eE0\x01";
    for (std::size_t i = 0; i < cases; ++i) {
        Rng rng(seed_stream.next());
        Json v = Json::object();
        v.set("s", randomString(rng, 30));
        v.set("d", randomDouble(rng));
        Json arr = Json::array();
        for (std::size_t k = rng.below(6); k > 0; --k)
            arr.push(randomDouble(rng));
        v.set("a", std::move(arr));
        out.push_back(v.dump(rng.below(3)));
        std::string doc = randomSpec(rng).toJson().dump(2);
        out.push_back(doc.substr(0, rng.below(doc.size())));
        for (std::size_t k = 1 + rng.below(8); k > 0; --k)
            doc[rng.below(doc.size())] = junk[rng.below(sizeof(junk) - 1)];
        out.push_back(doc);
    }
    return out;
}

TEST(ResultCodecFuzz, SkipValueRefusesExactlyWhatParseRefuses)
{
    for (const std::string &text : jsonCorpus()) {
        const std::string parsed = outcome([&] { (void)Json::parse(text); });
        const std::string skipped = outcome([&] {
            JsonReader in(text);
            in.skipValue();
            in.finish();
        });
        EXPECT_EQ(skipped, parsed) << text.substr(0, 200);
    }
}

/**
 * The tree decoder the result codec had before its text decoder
 * replaced it, kept as that decoder's oracle: a parsed result read
 * member by member in table order, any member order accepted.
 */
namespace tree
{

void
numbers(const Json &v, std::vector<double> &out)
{
    for (const Json &x : v.asArray())
        out.push_back(x.asNumber());
}

void
series(const Json &v, TimeSeries &out)
{
    for (const auto &[k, x] : v.asObject())
        if (k != "period_s" && k != "values")
            fatal("unknown trace member '" + k + "'");
    const double period = v.at("period_s").asNumber();
    if (!(period > 0.0))
        fatal("'period_s' must be positive");
    out = TimeSeries(period);
    for (const Json &x : v.at("values").asArray())
        out.add(x.asNumber());
}

int
side(const Json &v)
{
    const double x = v.asNumber();
    if (!(x >= 1 && x <= 1024 && x == std::floor(x)))
        fatal("bank grid sides must be integers in [1, 1024]");
    return static_cast<int>(x);
}

SimResult
decode(const Json &j, std::optional<bool> traces)
{
    const std::vector<std::string> &keys = resultMemberKeys();
    for (const auto &[k, v] : j.asObject())
        if (std::find(keys.begin(), keys.end(), k) == keys.end())
            fatal("unknown member '" + k + "'");
    using R = SimResult;
    SimResult r;
    r.workload = j.at("workload").asString();
    r.policy = j.at("policy").asString();
    r.completed = j.at("completed").asBool();
    const std::pair<const char *, double R::*> scalars[] = {
        {"running_time_s", &R::runningTime},
        {"total_instr", &R::totalInstr},
        {"read_gb", &R::totalReadGB},
        {"write_gb", &R::totalWriteGB},
        {"l2_misses", &R::totalL2Misses},
        {"mem_energy_j", &R::memEnergy},
        {"cpu_energy_j", &R::cpuEnergy},
        {"max_amb_c", &R::maxAmb},
        {"max_dram_c", &R::maxDram},
        {"time_above_amb_tdp_s", &R::timeAboveAmbTdp},
        {"time_above_dram_tdp_s", &R::timeAboveDramTdp}};
    for (const auto &[k, m] : scalars)
        r.*m = j.at(k).asNumber();
    const std::pair<const char *, std::vector<double> R::*> arrays[] = {
        {"peak_amb_per_dimm_c", &R::peakAmbPerDimm},
        {"peak_dram_per_dimm_c", &R::peakDramPerDimm},
        {"avg_power_per_dimm_w", &R::avgPowerPerDimm},
        {"refresh_bw_loss_per_dimm_gb", &R::refreshBwLossPerDimm},
        {"refresh_energy_per_dimm_j", &R::refreshEnergyPerDimm}};
    for (const auto &[k, m] : arrays)
        if (const Json *v = j.find(k))
            numbers(*v, r.*m);
    if (const Json *g = j.find("bank_grid")) {
        if (g->asObject().size() != 2)
            fatal("must have exactly 2 members");
        r.bankGridX = side(g->at("x"));
        r.bankGridZ = side(g->at("z"));
    }
    if (const Json *rows = j.find("peak_bank_dram_c")) {
        const std::size_t n = r.bankCells();
        if (n == 0)
            fatal("needs a 'bank_grid' member");
        for (const Json &row : rows->asArray()) {
            const std::size_t before = r.peakBankDramPerDimm.size();
            numbers(row, r.peakBankDramPerDimm);
            if (r.peakBankDramPerDimm.size() - before != n)
                fatal("rows must hold the bank grid's cells");
        }
    }
    const Json *t = j.find("traces");
    if (traces && (t != nullptr) != *traces)
        fatal("traces against the flag");
    if (t) {
        if (t->asObject().size() != 5)
            fatal("must have exactly 5 members");
        const std::pair<const char *, TimeSeries R::*> all[] = {
            {"amb_c", &R::ambTrace},
            {"dram_c", &R::dramTrace},
            {"inlet_c", &R::inletTrace},
            {"cpu_power_w", &R::cpuPowerTrace},
            {"bw_gbps", &R::bwTrace}};
        for (const auto &[k, m] : all)
            series(t->at(k), r.*m);
    }
    return r;
}

} // namespace tree

/** A random result, at times with the legacy (v1) member set. */
SimResult
randomAnyResult(Rng &rng)
{
    SimResult r = randomResult(rng);
    if (rng.uniform() < 0.25) {
        r.peakAmbPerDimm.clear();
        r.peakDramPerDimm.clear();
        r.avgPowerPerDimm.clear();
    }
    return r;
}

TEST(ResultCodecFuzz, TextWriterPrintsTheTreeDumpBytes)
{
    const std::size_t cases = fuzzCases();
    Rng seed_stream(0x7e47d0a1ULL);
    std::string text;
    for (std::size_t i = 0; i < cases; ++i) {
        Rng rng(seed_stream.next());
        const bool traces = rng.uniform() < 0.5;
        const SimResult r = randomAnyResult(rng);
        text.clear();
        JsonWriter w(text);
        writeResult(w, r, traces);
        ASSERT_EQ(text, toJson(r, traces).dump(0)) << "case " << i;
        JsonReader in(text);
        const SimResult back = readResult(in, "result", traces);
        in.finish();
        EXPECT_EQ(toJson(back, traces).dump(0), text) << "case " << i;
    }
}

/** @p j with every object's members (at any depth) in a random order. */
Json
shuffled(const Json &j, Rng &rng)
{
    if (j.isArray()) {
        Json out = Json::array();
        for (const Json &e : j.asArray())
            out.push(shuffled(e, rng));
        return out;
    }
    if (!j.isObject())
        return j;
    const Json::Members &m = j.asObject();
    std::vector<std::size_t> order(m.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    Json out = Json::object();
    for (std::size_t i : order)
        out.set(m[i].first, shuffled(m[i].second, rng));
    return out;
}

TEST(ResultCodecFuzz, DecodersAgreeWithTheReplacedTreeDecoder)
{
    const std::size_t cases = fuzzCases();
    Rng seed_stream(0xa9eed0deULL);
    static const char junk[] = "{}[],:\"\\ 0-.e\x01";
    for (std::size_t i = 0; i < cases; ++i) {
        Rng rng(seed_stream.next());
        const Json clean = toJson(randomAnyResult(rng), rng.uniform() < 0.5);
        std::string text;
        switch (rng.below(5)) {
          case 0: // a member flipped, dropped, added, or out of range
            text = mutateJson(clean, rng).dump(rng.below(2));
            break;
          case 1: // any member order, nested objects included
            text = shuffled(clean, rng).dump(0);
            break;
          case 2:
            text = shuffled(mutateJson(clean, rng), rng).dump(0);
            break;
          case 3: { // a repeated member, at the end of the object
            text = clean.dump(0);
            const Json::Members &m = clean.asObject();
            text.insert(text.size() - 1,
                        ", \"" + m[rng.below(m.size())].first + "\": 1");
            break;
          }
          default: // junk characters, or a truncation
            text = clean.dump(0);
            if (rng.uniform() < 0.5) {
                text.resize(rng.below(text.size()));
            } else {
                for (std::size_t k = 1 + rng.below(4); k > 0; --k)
                    text[rng.below(text.size())] =
                        junk[rng.below(sizeof(junk) - 1)];
            }
        }
        const std::optional<bool> traces =
            rng.uniform() < 0.3 ? std::nullopt
                                : std::optional(rng.uniform() < 0.5);

        // The codec's get() table, reading text, must agree with the
        // oracle.
        SimResult want, got;
        const std::string oracle = outcome(
            [&] { want = tree::decode(Json::parse(text), traces); });
        const std::string decoded = outcome([&] {
            JsonReader in(text);
            got = readResult(in, "result", traces);
            in.finish();
        });
        ASSERT_EQ(decoded == "ok", oracle == "ok")
            << "case " << i << ": text decoder " << decoded
            << ", tree decoder " << oracle << "\n"
            << text.substr(0, 400);
        if (oracle == "ok") {
            EXPECT_EQ(toJson(got, true).dump(0), toJson(want, true).dump(0))
                << "case " << i;
            EXPECT_EQ(got.bankGridX, want.bankGridX) << "case " << i;
            EXPECT_EQ(got.bankGridZ, want.bankGridZ) << "case " << i;
        }
    }
}

/**
 * A results document: points with zero to two results each (with or
 * without refresh arrays, a bank grid, traces; half the documents keep
 * the v1 member set, so they carry no version stamp), and at times the
 * `errors` of failed runs.
 */
ScenarioResults
randomDocument(Rng &rng)
{
    const bool v1 = rng.uniform() < 0.5;
    ScenarioResults doc;
    doc.scenario = randomString(rng, 12);
    for (std::size_t p = rng.below(3); p > 0; --p) {
        ScenarioResults::Point &pt = doc.points.emplace_back();
        pt.label = randomString(rng, 12);
        for (std::size_t k = rng.below(3); k > 0; --k) {
            SimResult r = randomAnyResult(rng);
            if (v1 || rng.uniform() < 0.5) {
                r.refreshBwLossPerDimm.clear();
                r.refreshEnergyPerDimm.clear();
            }
            if (v1 || rng.uniform() < 0.5) {
                r.bankGridX = r.bankGridZ = 0;
                r.peakBankDramPerDimm.clear();
            }
            pt.suite[randomString(rng, 4)][randomString(rng, 4)] =
                std::move(r);
        }
    }
    for (std::size_t e = rng.uniform() < 0.4 ? 1 + rng.below(3) : 0; e > 0;
         --e)
        doc.errors.push_back({rng.below(1ULL << 53), randomString(rng, 6),
                              randomString(rng, 4), randomString(rng, 4),
                              randomString(rng, 20)});
    return doc;
}

TEST(ResultCodecFuzz, DocumentWriterPrintsTheTreeDumpBytes)
{
    const std::size_t cases = fuzzCases();
    Rng seed_stream(0xd0c5d0c5ULL);
    std::size_t stamped = 0, unstamped = 0, failed = 0;
    for (std::size_t i = 0; i < cases; ++i) {
        Rng rng(seed_stream.next());
        const bool traces = rng.uniform() < 0.5;
        const ScenarioResults doc = randomDocument(rng);
        const std::string text = writeDocument(doc, traces);
        ASSERT_EQ(text, toJson(doc, traces).dump(2)) << "case " << i;
        const bool stamp =
            text.find("\n  \"schema_version\": ") != std::string::npos;
        ++(stamp ? stamped : unstamped);
        failed += !doc.errors.empty();
    }
    // Every shape the layout knows was printed.
    EXPECT_GT(stamped, 0u);
    EXPECT_GT(unstamped, 0u);
    EXPECT_GT(failed, 0u);
}

TEST(ResultCodecFuzz, ShuffledDocumentsDecodeToTheSameResults)
{
    const std::size_t cases = fuzzCases();
    Rng seed_stream(0x5bff1ed0ULL);
    for (std::size_t i = 0; i < cases; ++i) {
        Rng rng(seed_stream.next());
        const bool traces = rng.uniform() < 0.5;
        const ScenarioResults doc = randomDocument(rng);
        const std::string text = writeDocument(doc, traces);
        const std::string reordered =
            shuffled(Json::parse(text), rng).dump(rng.below(3));
        try {
            EXPECT_EQ(writeDocument(readDocument(reordered, "doc"), traces),
                      text)
                << "case " << i;
        } catch (const FatalError &e) {
            FAIL() << "case " << i << ": " << e.what() << "\n"
                   << reordered.substr(0, 400);
        }
    }
}

TEST(ResultCodecFuzz, MutatedDocumentTextFailsOnlyFatally)
{
    // Damage a document's text rather than its tree: truncations, junk
    // characters, and a repeated member, each at a random position.
    const std::size_t cases = fuzzCases();
    Rng seed_stream(0x7e7d0c5eULL);
    static const char junk[] = "{}[],:\"\\ 0-.e\x01";
    for (std::size_t i = 0; i < cases; ++i) {
        Rng rng(seed_stream.next());
        std::string text = writeDocument(randomDocument(rng), rng.uniform() < 0.5);
        switch (rng.below(3)) {
          case 0:
            text.resize(rng.below(text.size()));
            break;
          case 1:
            for (std::size_t k = 1 + rng.below(4); k > 0; --k)
                text[rng.below(text.size())] =
                    junk[rng.below(sizeof(junk) - 1)];
            break;
          default: { // a member repeated right after an object opens
            const std::size_t at = text.find('{', rng.below(text.size()));
            if (at != std::string::npos)
                text.insert(at + 1, "\"points\": [], \"label\": 1, ");
          }
        }
        expectOnlyFatal(i, "readDocument",
                        [&] { readDocument(text, "doc"); });
    }
}

/**
 * A value option @p o accepts, for a well-formed command line; half of
 * the counts sit at their bound, one past it included.
 */
std::string
validValue(Rng &rng, const CliOption &o)
{
    if (o.flag == std::string("--shard"))
        return std::to_string(1 + rng.below(2)) + "/2";
    using namespace arg;
    return std::visit(
        [&](const auto &k) -> std::string {
            using K = std::decay_t<decltype(k)>;
            if constexpr (std::is_same_v<K, Count>)
                return std::to_string(
                    rng.uniform() < 0.5
                        ? k.max - 1LL + static_cast<long long>(rng.below(3))
                        : 1LL + static_cast<long long>(rng.below(8)));
            else if constexpr (std::is_same_v<K, Tol>)
                return rng.uniform() < 0.5 ? "1e-9" : "0";
            else if constexpr (std::is_same_v<K, Number>)
                return "50";
            else if constexpr (std::is_same_v<K, U64> ||
                               std::is_same_v<K, Block>)
                return rng.uniform() < 0.5 ? "64" : "0x40";
            else if constexpr (std::is_same_v<K, Pattern>)
                return rng.uniform() < 0.5 ? "linear" : "random";
            else
                return "f" + std::to_string(rng.below(4)) + ".json";
        },
        o.kind);
}

TEST(CliArgsFuzz, MutatedArgvFailOnlyFatally)
{
    // Tokens each argument grammar has an opinion about.
    static const std::string hostile[] = {
        "", std::string("\0", 1), std::string("1\0" "2", 3), "-", "--",
        "0", "-1", "-0", "+2", " 2", "2 ", "0x10", "1025", "2147483647",
        "2147483648", "99999999999999999999", "18446744073709551616", "nan",
        "-nan", "inf", "-inf", "infinity", "1e999", "-1e999", "1e-400",
        "0x1p-30", "1/2", "2/1", "0/0", "1/1000001", "linear", "--bogus",
        "stray.json"};
    const std::vector<CliCommand> &commands = cliCommands();
    std::vector<std::string> flags;
    std::size_t rows = 0;
    for (const CliCommand &c : commands) {
        rows += c.options.size() + 1;
        for (const CliOption &o : c.options)
            flags.push_back(o.flag);
    }

    const std::size_t cases = fuzzCases();
    std::size_t accepted = 0;
    Rng seed_stream(0xc11a1ba5ULL);
    for (std::size_t i = 0; i < cases; ++i) {
        Rng rng(seed_stream.next());
        // Commands weighted by their rows, so `run` and its rules get
        // the most lines.
        std::size_t pick = rng.below(rows);
        const CliCommand *cp = commands.data();
        while (pick > cp->options.size())
            pick -= (cp++)->options.size() + 1;
        const CliCommand &c = *cp;
        std::vector<std::string> argv;
        switch (c.positionals) {
          case Positionals::Keyword:
            argv.push_back("policies");
            break;
          case Positionals::Gen:
            argv.push_back("gen");
            break;
          case Positionals::One:
            argv.push_back("s.json");
            break;
          case Positionals::Many:
            for (std::size_t n = 1 + rng.below(2); n > 0; --n)
                argv.push_back("s" + std::to_string(n) + ".json");
        }
        for (const CliOption &o : c.options) {
            if (rng.uniform() < 0.5)
                continue;
            argv.push_back(o.flag);
            if (!std::holds_alternative<arg::Switch>(o.kind))
                argv.push_back(validValue(rng, o));
        }

        // A quarter of the lines stay as built, to reach the invariants.
        for (std::size_t edits = rng.below(4); edits > 0; --edits) {
            const std::size_t at = rng.below(argv.size() + 1);
            const auto pos = argv.begin() + static_cast<long>(at);
            const std::string &t = hostile[rng.below(std::size(hostile))];
            switch (rng.below(6)) {
              case 0: // a value (or anything) dropped
                if (at < argv.size())
                    argv.erase(pos);
                break;
              case 1: // a value replaced
                if (at < argv.size())
                    *pos = t;
                break;
              case 2: // a flag repeated, with a hostile value
                argv.push_back(flags[rng.below(flags.size())]);
                argv.push_back(t);
                break;
              case 3: // a stray positional
                argv.insert(pos, "stray.json");
                break;
              case 4: // an unknown flag, or another command's
                argv.insert(pos, rng.uniform() < 0.5
                                     ? "--bogus"
                                     : flags[rng.below(flags.size())]);
                break;
              default: // a hostile token anywhere
                argv.insert(pos, t);
            }
        }
        const std::string cmd = rng.uniform() < 0.02 ? "bogus" : c.name;

        expectOnlyFatal(i, "parseArgs", [&] {
            const CliArgs a = parseArgs(cmd, argv);
            const std::string at = "case " + std::to_string(i) + ": " +
                                   cmd + " " +
                                   ::testing::PrintToString(argv);
            EXPECT_TRUE(a.threads >= 0 && a.copies >= 0)
                << at; // 0 is "not given"; a given count is >= 1
            EXPECT_LE(a.copies, kMaxBatchCopies) << at;
            EXPECT_TRUE(std::isfinite(a.tol) && a.tol >= 0.0) << at;
            const ShardSpec &sh = a.shard;
            EXPECT_TRUE(!a.stream.empty() ||
                        (!a.resume && a.shardArg.empty()))
                << at;
            EXPECT_TRUE(1 <= sh.index && sh.index <= sh.count &&
                        sh.count <= ShardSpec::kMaxCount)
                << at;
            EXPECT_TRUE(!sh.sharded() || (a.out.empty() && a.golden.empty()))
                << at;
            ++accepted;
        });
    }
    EXPECT_GT(accepted, cases / 5);
}

} // namespace
} // namespace memtherm
