/**
 * @file
 * Tests for the crash-safe streaming layer: spec hashing, shard
 * arithmetic, JSONL write/scan round-trips, checkpoint/resume (including
 * torn-tail recovery and spec-drift rejection), shard merging
 * bit-identity, per-run fault injection, the bounded-memory report
 * aggregator's order invariance, and the result codec's readers (stream
 * headers, result payloads, committed goldens).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/sim/result_sink.hh"
#include "core/sim/scenario.hh"

namespace memtherm
{
namespace
{

/** Tiny but real scenario: 2 inlet points x 1 workload x 2 policies. */
ScenarioSpec
tinySpec()
{
    ScenarioSpec spec;
    spec.name = "sink_test";
    spec.copiesPerApp = 1;
    spec.maxSimTime = 500.0;
    spec.workloads = {"W1"};
    spec.policies = {"No-limit", "DTM-TS"};
    spec.sweepTInlet = {46.0, 50.0};
    return spec;
}

/** Fresh path under the test temp dir (removes any leftover file). */
std::string
tmpPath(const std::string &name)
{
    std::string path = ::testing::TempDir() + "memtherm_" + name;
    std::remove(path.c_str());
    return path;
}

TEST(SpecHash, StableAndSensitive)
{
    ScenarioSpec spec = tinySpec();
    const std::string h = scenarioSpecHash(spec);
    ASSERT_EQ(h.size(), 16u);
    for (char c : h)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << h;

    // Same spec, same hash — including through a JSON round-trip.
    EXPECT_EQ(scenarioSpecHash(tinySpec()), h);
    EXPECT_EQ(scenarioSpecHash(ScenarioSpec::fromJson(spec.toJson())), h);

    // Any edit an operator could make must change the fingerprint.
    ScenarioSpec edited = tinySpec();
    edited.maxSimTime = 501.0;
    EXPECT_NE(scenarioSpecHash(edited), h);
    edited = tinySpec();
    edited.policies.pop_back();
    EXPECT_NE(scenarioSpecHash(edited), h);
}

/**
 * A spec that sets every config member and every sweep axis, with the
 * name-or-inline axes in both forms, so the pin below covers every
 * member toJson can emit and the order it emits them in.
 */
ScenarioSpec
maximalSpec()
{
    ScenarioSpec s;
    s.name = "maximal";
    s.description = "every knob and axis";
    s.cooling = "FDHS_1.0";
    s.ambient = "integrated";
    s.emergencyLevels = "ch4";
    s.dvfs = "simulated_cmp";
    s.memoryOrg = {"", MemoryOrgConfig{2, 8}};
    s.trafficShape = {"", {0.5, 0.25, 0.25}};
    s.refresh = {"", {{20.0, 0.05, 0.1, 1.0}, {85.0, 0.1, 0.2, 1.25}}};
    s.thermalModel = {"", BankGridConfig{2, 2, {0.4, 0.3, 0.2, 0.1}}};
    s.trace = "traces/w1.trace";
    s.tInlet = 46.5;
    s.copiesPerApp = 2;
    s.instrScale = 0.25;
    s.maxSimTime = 1234.5;
    s.dtmInterval = 0.02;
    s.remapInterval = 0.1;
    s.remapHysteresis = 1.5;
    s.sensorNoiseSigma = 0.3;
    s.sensorQuant = 0.25;
    s.sensorSeed = 9007199254740992ULL; // 2^53
    s.workloads = {"W1", "swimx4"};
    s.policies = {"No-limit", "DTM-TS"};
    s.sweepMemoryOrg = {{"2x4", {}}, {"", MemoryOrgConfig{3, 5}}};
    s.sweepTrafficShape = {{"hot_dimm0", {}}, {"", {0.75, 0.25}}};
    s.sweepCooling = {"AOHS_1.0", "FDHS_3.0"};
    s.sweepTInlet = {38.0, 44.5};
    s.sweepCopies = {1, 3};
    s.sweepSensorNoise = {0.0, 0.5};
    s.sweepDtmInterval = {0.01, 0.05};
    s.sweepEmergencyLevels = {"ch4", "pe1950"};
    s.sweepDvfs = {"simulated_cmp", "xeon5160"};
    s.sweepRefresh = {{"ddr2_2x", {}}, {"", {{0.0, 0.02, 0.05, 0.8}}}};
    s.sweepThermalModel = {{"bank_grid", {}},
                           {"", BankGridConfig{3, 1, {}}}};
    return s;
}

TEST(SpecHash, PinnedCanonicalBytes)
{
    // scenarioSpecHash fingerprints toJson().dump(0), and --resume
    // refuses a stream whose header hash differs, so any change to the
    // serialized bytes of an existing spec (a member reordered, a
    // default emitted) must fail here rather than strand every stream
    // on disk. The literals were recorded from the committed examples.
    const std::vector<std::pair<std::string, std::string>> pinned = {
        {"bank_hotspot", "8587a55f4b924fad"},
        {"ch4_baseline", "ae4c680cd6d94ed4"},
        {"datacenter_ambient", "3d939ab2f22b3c61"},
        {"dtm_sensitivity", "8f14c0c2d9d2dd43"},
        {"fan_failure", "a04ef5793d6f324e"},
        {"hot_dimm", "457e9af3f1738248"},
        {"hot_dimm_remap", "750efe068da68e12"},
        {"memory_org", "d84475e4c3ffd1b1"},
        {"policy_sweep", "e7e431370fe170d4"},
        {"refresh_runaway", "860796118a73613f"},
        {"sensor_noise", "0513a2947b5904c3"},
    };
    for (const auto &[name, hash] : pinned) {
        const ScenarioSpec spec = ScenarioSpec::load(
            std::string(MEMTHERM_SOURCE_DIR) + "/examples/scenarios/" +
            name + ".json");
        EXPECT_EQ(scenarioSpecHash(spec), hash) << name;
    }
    const ScenarioSpec max = maximalSpec();
    EXPECT_EQ(scenarioSpecHash(max), "3fce3f67c0aeb9fe")
        << max.toJson().dump(2);
    EXPECT_EQ(ScenarioSpec::fromJson(max.toJson()), max);
}

TEST(ShardSpec, ParseAcceptsWellFormedSlices)
{
    ShardSpec s = ShardSpec::parse("2/3");
    EXPECT_EQ(s.index, 2);
    EXPECT_EQ(s.count, 3);
    EXPECT_TRUE(s.sharded());
    EXPECT_EQ(s.label(), "2/3");
    EXPECT_FALSE(ShardSpec::parse("1/1").sharded());
}

TEST(ShardSpec, ParseRejectsMalformedSlices)
{
    for (const char *bad :
         {"", "3", "0/3", "4/3", "x/3", "1/0", "1/x", "-1/3", "1/3/5"}) {
        EXPECT_THROW(ShardSpec::parse(bad), FatalError) << bad;
    }
}

TEST(ShardSpec, RoundRobinPartitionCoversEveryIndexOnce)
{
    const int N = 3;
    for (std::size_t k = 0; k < 20; ++k) {
        int owners = 0;
        for (int i = 1; i <= N; ++i)
            owners += ShardSpec{i, N}.owns(k) ? 1 : 0;
        EXPECT_EQ(owners, 1) << "index " << k;
    }
}

TEST(ResultStream, WriteScanRoundTrip)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath("roundtrip.jsonl");

    StreamRunStats stats = runScenarioStream(spec, engine, opts);
    EXPECT_EQ(stats.totalRuns, 4u);
    EXPECT_EQ(stats.executed, 4u);
    EXPECT_EQ(stats.failed, 0u);

    StreamScan scan = scanStream(opts.path);
    EXPECT_TRUE(scan.spec == spec);
    EXPECT_EQ(scan.specHash, scenarioSpecHash(spec));
    EXPECT_EQ(scan.totalRuns, 4u);
    EXPECT_FALSE(scan.droppedPartialTail);
    ASSERT_EQ(scan.records.size(), 4u);

    std::vector<bool> seen(4, false);
    for (const StreamRecord &r : scan.records) {
        EXPECT_FALSE(r.failed);
        ASSERT_LT(r.index, 4u);
        EXPECT_FALSE(seen[r.index]);
        seen[r.index] = true;
        EXPECT_EQ(r.workload, "W1");
    }
}

TEST(ResultStream, MergeMatchesDirectScenarioRun)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath("merge_direct.jsonl");
    runScenarioStream(spec, engine, opts);

    MergedStream merged = mergeStreams({opts.path});
    EXPECT_TRUE(merged.errors.empty());
    EXPECT_TRUE(merged.missingRuns.empty());
    EXPECT_TRUE(merged.results == toJson(runScenario(spec, engine)));
}

TEST(ResultStream, ResumeSkipsCompletedAndDropsTornTail)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);

    StreamRunOptions full;
    full.path = tmpPath("resume_full.jsonl");
    runScenarioStream(spec, engine, full);
    const Json reference = mergeStreams({full.path}).results;

    // Reconstruct a crashed stream: header + first two intact records,
    // then the torn tail a kill mid-append would leave.
    std::vector<std::string> lines;
    {
        std::ifstream in(full.path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 5u);
    StreamRunOptions part;
    part.path = tmpPath("resume_part.jsonl");
    {
        std::ofstream out(part.path, std::ios::binary);
        out << lines[0] << '\n' << lines[1] << '\n' << lines[2] << '\n';
        out << "{\"type\": \"result\", \"index\": 9"; // no newline
    }

    part.resume = true;
    StreamRunStats stats = runScenarioStream(spec, engine, part);
    EXPECT_EQ(stats.skipped, 2u);
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_TRUE(mergeStreams({part.path}).results == reference);

    // Nothing left: a second resume is a no-op.
    stats = runScenarioStream(spec, engine, part);
    EXPECT_EQ(stats.skipped, 4u);
    EXPECT_EQ(stats.executed, 0u);
}

TEST(ResultStream, ResumeRejectsEditedSpec)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath("resume_drift.jsonl");
    runScenarioStream(spec, engine, opts);

    ScenarioSpec edited = tinySpec();
    edited.maxSimTime = 600.0;
    opts.resume = true;
    EXPECT_THROW(runScenarioStream(edited, engine, opts), FatalError);
}

TEST(ResultStream, FreshRunRefusesToClobberAnExistingStream)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath("no_clobber.jsonl");
    runScenarioStream(spec, engine, opts);
    EXPECT_THROW(runScenarioStream(spec, engine, opts), FatalError);
}

TEST(ResultStream, ResumeOfMissingFileStartsFresh)
{
    // Unattended restart loops always pass --resume; the first launch
    // must not need a special case.
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath("resume_fresh.jsonl");
    opts.resume = true;
    StreamRunStats stats = runScenarioStream(spec, engine, opts);
    EXPECT_EQ(stats.skipped, 0u);
    EXPECT_EQ(stats.executed, 4u);
}

TEST(ResultStream, ThreeShardsMergeBitIdenticalToUnsharded)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);

    StreamRunOptions full;
    full.path = tmpPath("shard_full.jsonl");
    runScenarioStream(spec, engine, full);
    MergedStream reference = mergeStreams({full.path});

    std::vector<std::string> shardPaths;
    std::size_t shardTotal = 0;
    for (int i = 1; i <= 3; ++i) {
        StreamRunOptions opts;
        opts.path = tmpPath("shard" + std::to_string(i) + ".jsonl");
        opts.shard = {i, 3};
        StreamRunStats stats = runScenarioStream(spec, engine, opts);
        shardTotal += stats.executed;
        shardPaths.push_back(opts.path);
    }
    EXPECT_EQ(shardTotal, 4u);

    MergedStream merged = mergeStreams(shardPaths);
    EXPECT_TRUE(merged.missingRuns.empty());
    EXPECT_TRUE(merged.results == reference.results);

    // A strict subset reports exactly the absent shard's indices.
    MergedStream partial = mergeStreams({shardPaths[0], shardPaths[2]});
    EXPECT_EQ(partial.missingRuns, (std::vector<std::size_t>{1}));
}

TEST(ResultStream, InjectedRunFailureIsIsolatedAndRetriable)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);

    setenv("MEMTHERM_FAULT_FAIL_RUN", "1", 1);
    ScenarioResults direct = runScenario(spec, engine);
    ASSERT_EQ(direct.errors.size(), 1u);
    EXPECT_EQ(direct.errors[0].index, 1u);
    EXPECT_EQ(direct.errors[0].workload, "W1");
    EXPECT_FALSE(direct.errors[0].error.empty());

    StreamRunOptions opts;
    opts.path = tmpPath("fault.jsonl");
    StreamRunStats stats = runScenarioStream(spec, engine, opts);
    unsetenv("MEMTHERM_FAULT_FAIL_RUN");
    EXPECT_EQ(stats.executed, 4u);
    EXPECT_EQ(stats.failed, 1u);
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].index, 1u);

    MergedStream broken = mergeStreams({opts.path});
    ASSERT_EQ(broken.errors.size(), 1u);
    EXPECT_EQ(broken.errors[0].index, 1u);
    EXPECT_TRUE(broken.missingRuns.empty()); // error records count

    // The retry on resume replaces the error with a result,
    // bit-identical to a never-failed run.
    opts.resume = true;
    stats = runScenarioStream(spec, engine, opts);
    EXPECT_EQ(stats.skipped, 3u);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.failed, 0u);

    StreamRunOptions clean;
    clean.path = tmpPath("fault_clean.jsonl");
    runScenarioStream(spec, engine, clean);
    MergedStream healed = mergeStreams({opts.path});
    EXPECT_TRUE(healed.errors.empty());
    EXPECT_TRUE(healed.results == mergeStreams({clean.path}).results);
}

/**
 * Both MEMTHERM_FAULT_* variables take the whole-string integer grammar
 * of every other count, admitting 0: blanks, signs, other bases and
 * out-of-range values warn and inject nothing.
 */
TEST(ResultStream, FaultVariablesParseWholeStringIndices)
{
    ScenarioSpec spec = tinySpec();
    spec.sweepTInlet.clear(); // two runs
    ExperimentEngine engine(1);

    setenv("MEMTHERM_FAULT_FAIL_RUN", "0", 1);
    ScenarioResults first = runScenario(spec, engine);
    ASSERT_EQ(first.errors.size(), 1u);
    EXPECT_EQ(first.errors[0].index, 0u);

    for (const std::string bad :
         {" 1", "+1", "1 ", "-1", "-18446744073709551615", "0x1", ""}) {
        SCOPED_TRACE("'" + bad + "'");
        setenv("MEMTHERM_FAULT_FAIL_RUN", bad.c_str(), 1);
        ::testing::internal::CaptureStderr();
        ScenarioResults r = runScenario(spec, engine);
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_TRUE(r.errors.empty());
        EXPECT_NE(err.find("MEMTHERM_FAULT_FAIL_RUN='" + bad +
                           "' is not an integer >= 0; ignoring"),
                  std::string::npos)
            << err;
    }
    unsetenv("MEMTHERM_FAULT_FAIL_RUN");

    // The crash knob shares the parser (the writer reads it on open).
    setenv("MEMTHERM_FAULT_AFTER_RUN", "+1", 1);
    ::testing::internal::CaptureStderr();
    JsonlResultWriter(tmpPath("fault_grammar.jsonl"), spec, 2, ShardSpec{},
                      false);
    const std::string err = ::testing::internal::GetCapturedStderr();
    unsetenv("MEMTHERM_FAULT_AFTER_RUN");
    EXPECT_NE(err.find("MEMTHERM_FAULT_AFTER_RUN='+1' is not an integer "
                       ">= 0; ignoring"),
              std::string::npos)
        << err;
}

TEST(ResultStream, MergeRejectsStreamsOfDifferentScenarios)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions a;
    a.path = tmpPath("mix_a.jsonl");
    runScenarioStream(spec, engine, a);

    ScenarioSpec other = tinySpec();
    other.maxSimTime = 600.0;
    StreamRunOptions b;
    b.path = tmpPath("mix_b.jsonl");
    runScenarioStream(other, engine, b);

    EXPECT_THROW(mergeStreams({a.path, b.path}), FatalError);
}

TEST(ResultStream, StreamBytesAreIndependentOfThreadCount)
{
    ScenarioSpec spec = tinySpec();
    StreamRunOptions serial;
    serial.path = tmpPath("det_serial.jsonl");
    StreamRunOptions parallel4;
    parallel4.path = tmpPath("det_parallel.jsonl");

    ExperimentEngine one(1);
    ExperimentEngine four(4);
    runScenarioStream(spec, one, serial);
    runScenarioStream(spec, four, parallel4);

    // Line *order* may differ with threads; the merged canonical
    // document may not.
    EXPECT_TRUE(mergeStreams({serial.path}).results ==
                mergeStreams({parallel4.path}).results);
}

/**
 * 2 inlet points x 1 workload x 5 policies. Round-robin 3-way sharding
 * leaves the pairs (policy 0, 3) and (1, 4) of a class in one shard;
 * this order pairs policies whose decisions agree here (No-limit with
 * DTM-TS, DTM-BW with DTM-CDVFS), so the shards share prefixes too.
 */
ScenarioSpec
batchySpec()
{
    ScenarioSpec spec = tinySpec();
    spec.name = "sink_batch_test";
    spec.policies = {"No-limit", "DTM-BW", "DTM-ACG", "DTM-TS",
                     "DTM-CDVFS"};
    return spec;
}

/**
 * Streams at each chunk width the runner picks: a 3-way sharding, with
 * one shard crashed by MEMTHERM_FAULT_AFTER_RUN and resumed, merges to
 * exactly the scalar document's bytes, and the shards' logical windows
 * add up to the unsharded run's. The grid has 2 classes of 5 runs: at
 * 1 thread they run whole, at 3 they split into ceil(runs / 3)-lane
 * chunks, and at 16 every chunk is one lane, which shares nothing.
 */
TEST(ResultStream, BatchedShardsCrashResumeMergeToScalarBytes)
{
    const ScenarioSpec spec = batchySpec();
    std::string scalar;
    {
        ExperimentEngine engine(1);
        scalar = toJson(runScenarioBatched(spec, engine, 1)).dump();
    }

    for (int threads : {1, 3, 16}) {
        const std::string tag = "t" + std::to_string(threads);
        std::vector<std::string> paths;
        {
            ExperimentEngine engine(threads);
            BatchStats whole;
            (void)runScenario(spec, engine, &whole);
            if (threads == 16) {
                EXPECT_EQ(whole.simulatedWindows, whole.logicalWindows)
                    << tag;
            } else {
                EXPECT_LT(whole.simulatedWindows, whole.logicalWindows)
                    << tag;
            }

            double logical = 0.0, simulated = 0.0;
            for (int i = 1; i <= 3; ++i) {
                StreamRunOptions opts;
                opts.path = tmpPath("batch_" + tag + "_shard" +
                                    std::to_string(i) + ".jsonl");
                opts.shard = {i, 3};
                const StreamRunStats st =
                    runScenarioStream(spec, engine, opts);
                EXPECT_EQ(st.failed, 0u) << tag;
                logical += st.batch.logicalWindows;
                simulated += st.batch.simulatedWindows;
                paths.push_back(opts.path);
            }
            EXPECT_EQ(logical, whole.logicalWindows) << tag;
            if (threads == 1) { // class-mates left in one shard share
                EXPECT_LT(simulated, logical) << tag;
            }
            EXPECT_EQ(mergeStreams(paths).results.dump(), scalar) << tag;
        }

        // Shard 2 again, killed after its first persisted result. No
        // engine threads exist while the death test forks.
        StreamRunOptions crash;
        crash.path = tmpPath("batch_" + tag + "_crash.jsonl");
        crash.shard = {2, 3};
        EXPECT_EXIT(
            {
                setenv("MEMTHERM_FAULT_AFTER_RUN", "1", 1);
                ExperimentEngine child(threads);
                runScenarioStream(spec, child, crash);
            },
            ::testing::ExitedWithCode(86), "")
            << tag;
        ASSERT_EQ(scanStream(crash.path, false).records.size(), 1u) << tag;

        crash.resume = true;
        ExperimentEngine engine(threads);
        const StreamRunStats resumed = runScenarioStream(spec, engine, crash);
        EXPECT_EQ(resumed.skipped, 1u) << tag;
        EXPECT_EQ(resumed.executed, resumed.shardRuns - 1) << tag;
        paths[1] = crash.path;
        EXPECT_EQ(mergeStreams(paths).results.dump(), scalar) << tag;
    }
}

/**
 * MEMTHERM_FAULT_FAIL_RUN under batching fails exactly the injected
 * run; its class-mates still batch and complete, and a resume heals the
 * stream to the scalar document.
 */
TEST(ResultStream, InjectedFailureUnderBatchingSparesClassMates)
{
    const ScenarioSpec spec = batchySpec();
    ExperimentEngine scalar_engine(1);
    const std::string scalar =
        toJson(runScenarioBatched(spec, scalar_engine, 1)).dump();

    for (int threads : {1, 3, 16}) {
        const std::string tag = "t" + std::to_string(threads);
        ExperimentEngine engine(threads);
        setenv("MEMTHERM_FAULT_FAIL_RUN", "1", 1);
        const ScenarioResults direct = runScenario(spec, engine);
        StreamRunOptions opts;
        opts.path = tmpPath("batch_fault_" + tag + ".jsonl");
        StreamRunStats st = runScenarioStream(spec, engine, opts);
        unsetenv("MEMTHERM_FAULT_FAIL_RUN");

        ASSERT_EQ(direct.errors.size(), 1u) << tag;
        EXPECT_EQ(direct.errors[0].index, 1u) << tag;
        EXPECT_EQ(direct.errors[0].policy, "DTM-BW") << tag;
        std::size_t completed = 0;
        for (const auto &pt : direct.points)
            for (const auto &[w, by_policy] : pt.suite)
                completed += by_policy.size();
        EXPECT_EQ(completed, 9u) << tag;

        EXPECT_EQ(st.executed, 10u) << tag;
        ASSERT_EQ(st.failures.size(), 1u) << tag;
        EXPECT_EQ(st.failures[0].index, 1u) << tag;

        opts.resume = true;
        st = runScenarioStream(spec, engine, opts);
        EXPECT_EQ(st.executed, 1u) << tag;
        EXPECT_EQ(st.failed, 0u) << tag;
        EXPECT_EQ(mergeStreams({opts.path}).results.dump(), scalar) << tag;
    }
}

TEST(OnlineAggregator, MatchesAnyFeedOrder)
{
    struct Row
    {
        const char *point, *workload, *policy;
        bool completed;
        double t, amb, dram;
    };
    const std::vector<Row> rows{
        {"p1", "W1", "No-limit", true, 100.0, 80.0, 85.0},
        {"p1", "W1", "DTM-TS", true, 120.0, 78.0, 83.0},
        {"p1", "W4", "No-limit", true, 200.0, 81.0, 86.0},
        {"p1", "W4", "DTM-TS", false, 260.0, 79.0, 84.0},
        {"p2", "W1", "No-limit", true, 90.0, 70.0, 75.0},
        {"p2", "W1", "DTM-TS", true, 99.0, 69.0, 74.0},
    };

    auto feed = [&](const std::vector<std::size_t> &order) {
        OnlineAxisAggregator agg("No-limit");
        for (std::size_t i : order) {
            const Row &r = rows[i];
            agg.add(r.point, r.workload, r.policy, r.completed, r.t,
                    r.amb, r.dram);
        }
        return agg.summaries();
    };

    std::vector<std::size_t> inOrder{0, 1, 2, 3, 4, 5};
    // Every non-baseline run arrives before its baseline.
    std::vector<std::size_t> reversed{5, 4, 3, 2, 1, 0};

    auto a = feed(inOrder);
    auto b = feed(reversed);
    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Order changes first-appearance labels; compare by content.
        const auto &x = a[i];
        const auto &y = b[a.size() - 1 - i];
        EXPECT_EQ(x.label, y.label);
        EXPECT_EQ(x.runs, y.runs);
        EXPECT_EQ(x.incomplete, y.incomplete);
        EXPECT_EQ(x.maxAmb, y.maxAmb);
        EXPECT_EQ(x.maxDram, y.maxDram);
        EXPECT_DOUBLE_EQ(x.normSum, y.normSum);
        EXPECT_EQ(x.normN, y.normN);
    }

    // Spot-check p1: 4 runs, one incomplete; normalization includes the
    // incomplete DTM-TS run (the baseline gates, not the run itself):
    // 1.0 + 1.2 + 1.0 + 1.3 = 4.5 over 4 runs.
    const auto &p1 = a[0];
    EXPECT_EQ(p1.label, "p1");
    EXPECT_EQ(p1.runs, 4u);
    EXPECT_EQ(p1.incomplete, 1u);
    EXPECT_EQ(p1.maxAmb, 81.0);
    EXPECT_EQ(p1.maxDram, 86.0);
    EXPECT_DOUBLE_EQ(p1.normSum, 4.5);
    EXPECT_EQ(p1.normN, 4u);
}

TEST(OnlineAggregator, UnusableBaselineYieldsNoNormalization)
{
    OnlineAxisAggregator agg("No-limit");
    // The baseline never completed: nothing in the group normalizes.
    agg.add("p1", "W1", "DTM-TS", true, 120.0, 78.0, 83.0);
    agg.add("p1", "W1", "No-limit", false, 100.0, 80.0, 85.0);
    auto s = agg.summaries();
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s[0].runs, 2u);
    EXPECT_EQ(s[0].incomplete, 1u);
    EXPECT_EQ(s[0].normN, 0u);
    EXPECT_DOUBLE_EQ(s[0].normSum, 0.0);
}

TEST(ResultStream, HeaderSchemaVersionAcceptRejectMatrix)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath("schema.jsonl");
    runScenarioStream(spec, engine, opts);

    std::vector<std::string> lines;
    {
        std::ifstream in(opts.path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_GE(lines.size(), 2u);

    // A freshly written header records this binary's document schema.
    Json hdr = Json::parse(lines[0]);
    const Json *sv = hdr.find("schema_version");
    ASSERT_NE(sv, nullptr);
    EXPECT_EQ(static_cast<int>(sv->asNumber()), kResultSchemaVersion);

    // Rewrite the stream with a patched header and re-scan it.
    auto withHeader = [&](const Json &header, const std::string &name) {
        std::string path = tmpPath(name);
        std::ofstream out(path, std::ios::binary);
        out << header.dump(0) << '\n';
        for (std::size_t i = 1; i < lines.size(); ++i)
            out << lines[i] << '\n';
        return path;
    };

    // Legacy stream (written before schema versioning): accepted as v1.
    Json legacy = Json::object();
    for (const auto &[k, v] : hdr.asObject())
        if (k != "schema_version")
            legacy.set(k, v);
    StreamScan scan =
        scanStream(withHeader(legacy, "schema_legacy.jsonl"));
    EXPECT_EQ(scan.records.size(), 4u);

    // Older explicit version: accepted.
    Json v1 = legacy;
    v1.set("schema_version", 1);
    EXPECT_EQ(scanStream(withHeader(v1, "schema_v1.jsonl")).records.size(),
              4u);

    // A stream from a newer binary: refused with a clear error.
    Json future = legacy;
    future.set("schema_version", kResultSchemaVersion + 1);
    EXPECT_THROW(scanStream(withHeader(future, "schema_future.jsonl")),
                 FatalError);

    // Nonsense versions: refused.
    Json zero = legacy;
    zero.set("schema_version", 0);
    EXPECT_THROW(scanStream(withHeader(zero, "schema_zero.jsonl")),
                 FatalError);
}

TEST(ResultStream, ScanRejectsMidFileCorruption)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath("corrupt.jsonl");
    runScenarioStream(spec, engine, opts);

    // Corrupt a *middle* line: that cannot come from a crash of the
    // append-and-flush writer, so it must be an error, not a skip.
    std::vector<std::string> lines;
    {
        std::ifstream in(opts.path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_GE(lines.size(), 3u);
    std::string corrupted = tmpPath("corrupt_mid.jsonl");
    {
        std::ofstream out(corrupted, std::ios::binary);
        out << lines[0] << '\n';
        out << "{\"type\": \"result\", \"index\"\n"; // terminated garbage
        for (std::size_t i = 2; i < lines.size(); ++i)
            out << lines[i] << '\n';
    }
    EXPECT_THROW(scanStream(corrupted), FatalError);
}

TEST(ResultStream, TailTornInsideAnEscapedStringIsStillATail)
{
    // Regression: the torn-tail classifier keys on the missing final
    // newline alone, so a tear landing *inside an escape sequence* of a
    // JSON string — after the backslash of '\"', leaving the string
    // open — must still read as a crash tail (dropped, resumable), not
    // as corruption.
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath("escape_tail.jsonl");
    runScenarioStream(spec, engine, opts);

    std::vector<std::string> lines;
    {
        std::ifstream in(opts.path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 5u);

    // Tears at increasing awkwardness: mid-escape (trailing lone
    // backslash), just after an escaped quote (string still open), and
    // a lone opening quote.
    const std::vector<std::string> tails{
        R"({"type":"result","index":9,"point":"a\)",
        R"({"type":"result","index":9,"point":"a\"b)",
        R"({"type":"result","index":9,"point":")",
    };
    for (std::size_t t = 0; t < tails.size(); ++t) {
        const std::string torn =
            tmpPath("escape_tail_" + std::to_string(t) + ".jsonl");
        std::size_t intact_bytes = 0;
        {
            std::ofstream out(torn, std::ios::binary);
            for (const std::string &l : lines) {
                out << l << '\n';
                intact_bytes += l.size() + 1;
            }
            out << tails[t]; // no newline: the crash signature
        }
        StreamScan scan = scanStream(torn);
        EXPECT_TRUE(scan.droppedPartialTail) << tails[t];
        EXPECT_EQ(scan.records.size(), 4u) << tails[t];
        EXPECT_EQ(scan.cleanSize, intact_bytes) << tails[t];

        // The same bytes WITH a terminating newline cannot be a crash
        // of this writer: that is mid-file corruption, a hard error.
        const std::string terminated =
            tmpPath("escape_term_" + std::to_string(t) + ".jsonl");
        {
            std::ofstream out(terminated, std::ios::binary);
            for (const std::string &l : lines)
                out << l << '\n';
            out << tails[t] << '\n';
        }
        EXPECT_THROW(scanStream(terminated), FatalError) << tails[t];
    }
}

TEST(ResultStream, MergeAcceptsMixedV1AndV2ShardHeaders)
{
    // One shard set, three vintages of writer: a version-absent legacy
    // header (reads as v1), an explicit v2, and this binary's header.
    // Merging must accept all three and reproduce the unsharded
    // document bit for bit.
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);

    StreamRunOptions full;
    full.path = tmpPath("mixed_full.jsonl");
    runScenarioStream(spec, engine, full);
    const Json reference = mergeStreams({full.path}).results;

    std::vector<std::string> shardPaths;
    for (int i = 1; i <= 3; ++i) {
        StreamRunOptions opts;
        opts.path = tmpPath("mixed_shard" + std::to_string(i) + ".jsonl");
        opts.shard = {i, 3};
        runScenarioStream(spec, engine, opts);
        shardPaths.push_back(opts.path);
    }

    // Rewrite shard 1's header as legacy (no schema_version member) and
    // shard 2's as an explicit v2; shard 3 keeps this binary's header.
    auto rewriteHeader = [](const std::string &path, int version) {
        std::vector<std::string> lines;
        {
            std::ifstream in(path);
            std::string line;
            while (std::getline(in, line))
                lines.push_back(line);
        }
        Json hdr = Json::parse(lines[0]);
        Json patched = Json::object();
        for (const auto &[k, v] : hdr.asObject()) {
            if (k == "schema_version") {
                if (version > 0)
                    patched.set(k, version);
                continue;
            }
            patched.set(k, v);
        }
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << patched.dump(0) << '\n';
        for (std::size_t i = 1; i < lines.size(); ++i)
            out << lines[i] << '\n';
    };
    rewriteHeader(shardPaths[0], 0); // legacy: absent -> v1
    rewriteHeader(shardPaths[1], 2);

    MergedStream merged = mergeStreams(shardPaths);
    EXPECT_TRUE(merged.errors.empty());
    EXPECT_TRUE(merged.missingRuns.empty());
    EXPECT_TRUE(merged.results == reference);
}

TEST(ResultSchema, PinnedOlderReaderRefusesNewerDocument)
{
    // A v3 document (per-bank fields) against a reader pinned to v2:
    // the max_version override must produce the upgrade refusal, the
    // same document under the default cap must pass.
    Json doc = Json::object();
    doc.set("schema_version", 3);
    EXPECT_EQ(resultSchemaVersionOf(doc, "'doc'"), 3);
    try {
        (void)resultSchemaVersionOf(doc, "'doc'", /*max_version=*/2);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("schema version 3"), std::string::npos)
            << what;
        EXPECT_NE(what.find("2"), std::string::npos) << what;
    }
    // Version-absent documents read as v1 under any cap.
    Json legacy = Json::object();
    EXPECT_EQ(resultSchemaVersionOf(legacy, "'doc'", 2), 1);
}

TEST(ResultSchema, DocumentsStampTheMinimumVersionTheyNeed)
{
    // The stamping ladder: plain results stay version-absent (exact
    // historical bytes), refresh-coupled results stamp 2, bank-grid
    // results stamp 3.
    ScenarioSpec plain = tinySpec();
    ExperimentEngine engine(2);
    Json doc1 = toJson(runScenario(plain, engine));
    EXPECT_EQ(doc1.find("schema_version"), nullptr);

    ScenarioSpec refreshed = tinySpec();
    refreshed.refresh.name = "ddr2_2x";
    Json doc2 = toJson(runScenario(refreshed, engine));
    const Json *v2 = doc2.find("schema_version");
    ASSERT_NE(v2, nullptr);
    EXPECT_EQ(static_cast<int>(v2->asNumber()), 2);

    ScenarioSpec gridded = tinySpec();
    gridded.thermalModel.name = "bank_grid";
    Json doc3 = toJson(runScenario(gridded, engine));
    const Json *v3 = doc3.find("schema_version");
    ASSERT_NE(v3, nullptr);
    EXPECT_EQ(static_cast<int>(v3->asNumber()), kResultSchemaVersion);
}

/** The lines of a stream file, without their newlines. */
std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/** Write @p lines (each newline-terminated) to a fresh file @p name. */
std::string
writeLines(const std::string &name, const std::vector<std::string> &lines)
{
    const std::string path = tmpPath(name);
    std::ofstream out(path, std::ios::binary);
    for (const std::string &l : lines)
        out << l << '\n';
    return path;
}

/** A copy of object @p j with member @p key set to @p v. */
Json
withMember(const Json &j, const std::string &key, Json v)
{
    Json out = j;
    out.set(key, std::move(v));
    return out;
}

/** What @p f throws as a FatalError; fails the test when it throws none. */
template <typename F>
std::string
fatalOf(F &&f)
{
    try {
        f();
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected a FatalError";
    return "";
}

/** A real stream of tinySpec(): its header line, then four records. */
std::vector<std::string>
tinyStreamLines(const std::string &name, bool traces = false)
{
    ExperimentEngine engine(2);
    StreamRunOptions opts;
    opts.path = tmpPath(name);
    opts.traces = traces;
    runScenarioStream(tinySpec(), engine, opts);
    return readLines(opts.path);
}

TEST(ResultStream, HeaderRunCountIsCheckedBeforeMergeSizesAnything)
{
    // A header-only stream claiming 10^15 runs: merge used to size its
    // per-index table from the header before the embedded spec could
    // vouch for the count, and died of std::bad_alloc.
    const Json hdr = Json::parse(tinyStreamLines("huge_src.jsonl")[0]);
    const std::string path = writeLines(
        "huge.jsonl", {withMember(hdr, "total_runs", 1e15).dump(0)});
    const std::string what = fatalOf([&] { mergeStreams({path}); });
    EXPECT_NE(what.find("'total_runs'"), std::string::npos) << what;
}

TEST(ResultStream, FractionalFormatIsRefused)
{
    const Json hdr = Json::parse(tinyStreamLines("frac_src.jsonl")[0]);
    const std::string path = writeLines(
        "frac.jsonl", {withMember(hdr, "format", 1.5).dump(0)});
    const std::string what = fatalOf([&] { scanStream(path); });
    EXPECT_NE(what.find("'format'"), std::string::npos) << what;
}

TEST(ResultStream, OutOfIntRangeFormatIsReportedUnwrapped)
{
    // 2^32 + 1 used to be cast to int before the comparison (undefined
    // behavior; it printed as a negative format).
    const Json hdr = Json::parse(tinyStreamLines("wide_src.jsonl")[0]);
    const std::string path = writeLines(
        "wide.jsonl", {withMember(hdr, "format", 4294967297.0).dump(0)});
    const std::string what = fatalOf([&] { scanStream(path); });
    EXPECT_NE(what.find("'format'"), std::string::npos) << what;
    EXPECT_NE(what.find("4294967297"), std::string::npos) << what;
}

TEST(ResultStream, ShardHeaderMustBeAValidSlice)
{
    const Json hdr = Json::parse(tinyStreamLines("shard_src.jsonl")[0]);
    for (const auto &[index, count] :
         std::vector<std::pair<double, double>>{
             {0, 3}, {4, 3}, {1, 2e6}, {1.5, 3}, {-1, 3}, {1, 1e300}}) {
        Json sh = Json::object();
        sh.set("index", index);
        sh.set("count", count);
        const std::string path = writeLines(
            "shard.jsonl", {withMember(hdr, "shard", sh).dump(0)});
        const std::string what = fatalOf([&] { scanStream(path); });
        EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    }
}

TEST(ResultStream, MalformedResultPayloadFailsAtItsOwnLine)
{
    std::vector<std::string> lines = tinyStreamLines("payload_src.jsonl");
    ASSERT_EQ(lines.size(), 5u);
    const Json rec = Json::parse(lines[2]);
    const Json res = rec.at("result");

    const auto scanWith = [&](const Json &bad) {
        std::vector<std::string> copy = lines;
        copy[2] = withMember(rec, "result", bad).dump(0);
        const std::string path = writeLines("payload.jsonl", copy);
        return fatalOf([&] { scanStream(path); });
    };
    // A wrong type, an unknown member, a missing member, a trace the
    // header did not announce, per-bank peaks without their grid.
    std::string what = scanWith(withMember(res, "max_amb_c", "hot"));
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("'max_amb_c'"), std::string::npos) << what;
    what = scanWith(withMember(res, "max_amb", 1.0));
    EXPECT_NE(what.find("unknown member 'max_amb'"), std::string::npos)
        << what;
    Json missing = Json::object();
    for (const auto &[k, v] : res.asObject())
        if (k != "completed")
            missing.set(k, v);
    what = scanWith(missing);
    EXPECT_NE(what.find("'completed'"), std::string::npos) << what;
    what = scanWith(withMember(res, "traces", Json::object()));
    EXPECT_NE(what.find("'traces'"), std::string::npos) << what;
    Json rows = Json::array();
    rows.push(Json::array().push(40.0));
    what = scanWith(withMember(res, "peak_bank_dram_c", rows));
    EXPECT_NE(what.find("'bank_grid'"), std::string::npos) << what;

    // Resume reads identities only and never decodes the payload.
    std::vector<std::string> copy = lines;
    copy[2] = withMember(rec, "result",
                         withMember(res, "max_amb_c", "hot")).dump(0);
    EXPECT_EQ(scanStream(writeLines("ids.jsonl", copy), false)
                  .records.size(),
              4u);
}

TEST(ResultStream, ScanChecksThePayloadsItSkips)
{
    // A resume scan decodes no result payload, but each one it skips is
    // still held to Json::parse's grammar: damage inside a mid-file
    // payload fails naming its line, as it did when scans parsed it.
    const std::vector<std::string> lines =
        tinyStreamLines("skipped_src.jsonl");
    ASSERT_EQ(lines.size(), 5u);
    const std::string &rec = lines[2];
    const std::size_t open = rec.find("\"result\": {");
    ASSERT_NE(open, std::string::npos);
    const std::size_t inside = open + 11; // past the payload's '{'
    const std::size_t amb = rec.find("\"max_amb_c\": ", inside);
    const std::size_t policy = rec.find("\"policy\": \"", inside);
    ASSERT_NE(amb, std::string::npos);
    ASSERT_NE(policy, std::string::npos);

    const std::vector<std::pair<std::string, std::string>> damaged = {
        {rec.substr(0, inside) + "\"completed\": true, " +
             rec.substr(inside),
         "duplicate member 'completed'"},
        {rec.substr(0, amb + 13) + "01" + rec.substr(amb + 13),
         "invalid number"},
        {rec.substr(0, policy + 11) + '\x01' + rec.substr(policy + 11),
         "raw control character in string"},
    };
    for (const auto &[line, why] : damaged) {
        std::vector<std::string> copy = lines;
        copy[2] = line;
        const std::string path = writeLines("skipped.jsonl", copy);
        for (const bool keep : {false, true}) {
            const std::string what =
                fatalOf([&] { scanStream(path, keep); });
            EXPECT_NE(what.find("line 3"), std::string::npos) << what;
            EXPECT_NE(what.find(why), std::string::npos) << what;
        }
    }
}

TEST(ResultStream, RecordTracesMustMatchTheHeaderFlag)
{
    std::vector<std::string> lines =
        tinyStreamLines("traced_src.jsonl", /*traces=*/true);
    ASSERT_EQ(lines.size(), 5u);
    const StreamScan scan = scanStream(writeLines("traced.jsonl", lines));
    EXPECT_FALSE(scan.records[0].result.ambTrace.empty());

    // The header turns traces off; the records still carry them.
    lines[0] =
        withMember(Json::parse(lines[0]), "traces", Json(false)).dump(0);
    const std::string what =
        fatalOf([&] { scanStream(writeLines("untraced.jsonl", lines)); });
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("'traces'"), std::string::npos) << what;
}

TEST(ResultStream, UnknownRecordMemberIsRefused)
{
    // A member no record defines is refused, as in a document, not
    // dropped: a merge would lose it.
    std::vector<std::string> lines = tinyStreamLines("extra_src.jsonl");
    ASSERT_EQ(lines.size(), 5u);
    lines[2] = withMember(Json::parse(lines[2]), "extra_member", 1).dump(0);
    const std::string path = writeLines("extra.jsonl", lines);
    for (const bool keep : {false, true})
        EXPECT_EQ(fatalOf([&] { scanStream(path, keep); }),
                  "fatal: stream '" + path +
                      "' line 3: scenario: unknown member 'extra_member' "
                      "in a stream record (valid: type, index, point, "
                      "workload, policy, wall_s, result, error)");
    EXPECT_THROW(mergeStreamResults({path}), FatalError);
}

TEST(ResultStream, UnknownHeaderMemberIsRefused)
{
    // The header refuses what no writer emits, as records do; its shard
    // object too.
    std::vector<std::string> lines = tinyStreamLines("hdr_extra_src.jsonl");
    const Json hdr = Json::parse(lines[0]);
    lines[0] = withMember(hdr, "extra_header", 1).dump(0);
    const std::string path = writeLines("hdr_extra.jsonl", lines);
    for (const bool keep : {false, true})
        EXPECT_EQ(fatalOf([&] { scanStream(path, keep); }),
                  "fatal: stream '" + path +
                      "' line 1: unknown member 'extra_header' in the "
                      "stream header (valid: type, format, schema_version, "
                      "scenario, spec_hash, total_runs, shard, traces, "
                      "spec)");
    EXPECT_THROW(mergeStreamResults({path}), FatalError);

    Json sh = Json::object();
    sh.set("index", 1);
    sh.set("count", 1);
    sh.set("offset", 0);
    lines[0] = withMember(hdr, "shard", sh).dump(0);
    const std::string sharded = writeLines("shard_extra.jsonl", lines);
    EXPECT_EQ(fatalOf([&] { scanStream(sharded); }),
              "fatal: stream '" + sharded +
                  "' line 1: unknown member 'offset' in the stream "
                  "header's shard (valid: index, count)");
}

TEST(ResultSchema, MalformedNumberIsNotATypeError)
{
    // A typed member read checks the value before its type, so a
    // malformed number reads as Json::parse reads it.
    EXPECT_EQ(fatalOf([] { readDocument("{\"scenario\": 01}", "'doc'"); }),
              "fatal: 'doc': json: invalid number at line 1:14");
    std::vector<std::string> lines = tinyStreamLines("badnum_src.jsonl");
    ASSERT_EQ(lines.size(), 5u);
    const std::size_t at = lines[2].find("\"policy\": \"") + 10;
    const std::size_t end = lines[2].find('"', at + 1) + 1;
    lines[2] = lines[2].substr(0, at) + "01" + lines[2].substr(end);
    const std::string path = writeLines("badnum.jsonl", lines);
    for (const bool keep : {false, true})
        EXPECT_EQ(fatalOf([&] { scanStream(path, keep); }),
                  "fatal: stream '" + path +
                      "' line 3: json: invalid number at line 1:" +
                      std::to_string(at + 1));
}

TEST(ResultSchema, GoldensDecodeAndReencodeToTheirOwnBytes)
{
    // No simulation: every committed golden read by the text decoder
    // and printed by the document writer is its own bytes, so this pin
    // holds on any compiler (the run goldens agree only to 1e-9).
    namespace fs = std::filesystem;
    const fs::path data = fs::path(MEMTHERM_SOURCE_DIR) / "tests" / "data";
    std::vector<fs::path> goldens = {data / "traced" /
                                     "traced_grid.golden.json"};
    for (const auto &entry : fs::directory_iterator(data))
        if (entry.path().filename().string().ends_with(".golden.json"))
            goldens.push_back(entry.path());
    for (const fs::path &path : goldens) {
        const std::string name = path.filename().string();
        std::ifstream in(path, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        ASSERT_FALSE(text.str().empty()) << name;
        const ScenarioResults results = readDocument(text.str(), name);
        const bool traces = text.str().find("\"traces\": {") !=
                            std::string::npos;
        EXPECT_EQ(writeDocument(results, traces), text.str()) << name;
    }
    EXPECT_GE(goldens.size(), 12u) << "the committed goldens were not found";
}

TEST(ResultSchema, DocumentDecoderNamesWhatIsWrong)
{
    ScenarioSpec spec = tinySpec();
    ExperimentEngine engine(2);
    const std::string text = writeDocument(runScenario(spec, engine));
    EXPECT_EQ(writeDocument(readDocument(text, "'doc'")), text);
    const Json doc = Json::parse(text);

    EXPECT_NE(fatalOf([&] {
                  readDocument("{}", "'doc'");
              }).find("does not look like memtherm results"),
              std::string::npos);
    EXPECT_NE(fatalOf([&] {
                  readDocument(withMember(doc, "extra", 1).dump(2), "'doc'");
              }).find("unknown member 'extra'"),
              std::string::npos);
    Json err = Json::object();
    err.set("index", -1);
    err.set("point", "p");
    err.set("workload", "W1");
    err.set("policy", "No-limit");
    err.set("error", "boom");
    Json errs = Json::array();
    errs.push(err);
    const std::string what = fatalOf([&] {
        readDocument(withMember(doc, "errors", errs).dump(2), "'doc'");
    });
    EXPECT_NE(what.find("errors[0]"), std::string::npos) << what;
    EXPECT_NE(what.find("'index'"), std::string::npos) << what;
    // Every member of an error entry and of a point is required.
    Json partial = Json::object();
    partial.set("index", 0);
    const std::string missing = fatalOf([&] {
        readDocument(
            withMember(doc, "errors", Json::array().push(partial)).dump(2),
            "'doc'");
    });
    EXPECT_NE(missing.find("errors[0]: json: missing member 'point'"),
              std::string::npos)
        << missing;
    Json points = Json::array();
    points.push(Json::object().set("results", Json::object()));
    const std::string unlabeled = fatalOf([&] {
        readDocument(withMember(doc, "points", points).dump(2), "'doc'");
    });
    EXPECT_NE(unlabeled.find("points[0]: json: missing member 'label'"),
              std::string::npos)
        << unlabeled;

    // A too-new version is refused with the upgrade message before any
    // result is decoded, wherever the member sits: here after a point
    // whose result is not one.
    Json bad = Json::object();
    bad.set("label", "base");
    bad.set("results",
            Json::object().set("W1", Json::object().set("p", Json(1))));
    Json future = Json::object();
    future.set("scenario", "s");
    future.set("points", Json::array().push(bad));
    future.set("schema_version", kResultSchemaVersion + 1);
    const std::string newer =
        fatalOf([&] { readDocument(future.dump(2), "'doc'"); });
    EXPECT_NE(newer.find("schema version " +
                         std::to_string(kResultSchemaVersion + 1) +
                         " is newer than this binary's"),
              std::string::npos)
        << newer;
    // Inside a document, a wrong type names its point and line:col.
    future.set("schema_version", 1);
    const std::string typed =
        fatalOf([&] { readDocument(future.dump(2), "'doc'"); });
    EXPECT_NE(typed.find("points[0]: W1/p: json: expected object, have "
                         "number at line 8:16"),
              std::string::npos)
        << typed;
}

} // namespace
} // namespace memtherm
