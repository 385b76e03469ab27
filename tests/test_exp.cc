/**
 * @file
 * Tests for src/exp: the campaign runner's determinism contract
 * (N-worker == 1-worker, bit for bit), its robustness contract
 * (throwing / over-budget trials are results, not crashes), the
 * statistics merge operations it aggregates through, and the JSON
 * export layer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "core/microscope.hh"
#include "cpu/program.hh"
#include "exp/campaign.hh"
#include "exp/checkpoint.hh"
#include "exp/result_sink.hh"
#include "os/machine.hh"

using namespace uscope;

// ---------------------------------------------------------------------
// Stats merges.
// ---------------------------------------------------------------------

TEST(SummaryMerge, MatchesSingleStreamAccumulation)
{
    Rng rng(7);
    std::vector<double> samples;
    for (int i = 0; i < 1000; ++i)
        samples.push_back(rng.uniform() * 100.0 - 20.0);

    Summary whole;
    for (double s : samples)
        whole.add(s);

    // Split into 4 uneven shards, then merge.
    Summary shards[4];
    for (std::size_t i = 0; i < samples.size(); ++i)
        shards[(i * i) % 4].add(samples[i]);
    Summary merged;
    for (const Summary &shard : shards)
        merged.merge(shard);

    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.min(), whole.min());
    EXPECT_EQ(merged.max(), whole.max());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(merged.variance(), whole.variance(), 1e-6);
}

TEST(SummaryMerge, EmptySidesAreIdentity)
{
    Summary a;
    a.add(3.0);
    a.add(5.0);

    Summary b;
    b.merge(a);  // empty.merge(x) == x
    EXPECT_EQ(b.count(), 2u);
    EXPECT_EQ(b.mean(), a.mean());
    EXPECT_EQ(b.min(), 3.0);

    Summary empty;
    a.merge(empty);  // x.merge(empty) == x
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.mean(), 4.0);
}

TEST(MicroscopeStatsMerge, FieldsAdd)
{
    ms::MicroscopeStats a;
    a.handleFaults = 3;
    a.episodes = 1;
    ms::MicroscopeStats b;
    b.handleFaults = 2;
    b.totalReplays = 40;
    a.merge(b);
    EXPECT_EQ(a.handleFaults, 5u);
    EXPECT_EQ(a.episodes, 1u);
    EXPECT_EQ(a.totalReplays, 40u);
}

// ---------------------------------------------------------------------
// JSON.
// ---------------------------------------------------------------------

TEST(Json, ScalarsArraysObjects)
{
    json::Value v = json::Value::object()
                        .set("name", "fig10")
                        .set("n", std::uint64_t{10000})
                        .set("ratio", 0.5)
                        .set("ok", true)
                        .set("none", json::Value());
    v.set("list",
          json::Value::array().push(1).push(2).push("three"));
    EXPECT_EQ(v.dump(),
              "{\"name\":\"fig10\",\"n\":10000,\"ratio\":0.5,"
              "\"ok\":true,\"none\":null,\"list\":[1,2,\"three\"]}");
}

TEST(Json, EscapingAndOverwrite)
{
    json::Value v = json::Value::object();
    v.set("k", "a\"b\\c\nd");
    v.set("k", "replaced\t");
    EXPECT_EQ(v.dump(), "{\"k\":\"replaced\\t\"}");
    EXPECT_EQ(json::Value::escape("\x01"), "\\u0001");
}

TEST(Json, NonFiniteDoublesAreNull)
{
    json::Value v = json::Value::array();
    v.push(std::numeric_limits<double>::quiet_NaN());
    v.push(std::numeric_limits<double>::infinity());
    EXPECT_EQ(v.dump(), "[null,null]");
}

// ---------------------------------------------------------------------
// Seed derivation.
// ---------------------------------------------------------------------

TEST(TrialSeed, DeterministicAndDecorrelated)
{
    EXPECT_EQ(exp::deriveTrialSeed(42, 0), exp::deriveTrialSeed(42, 0));
    EXPECT_NE(exp::deriveTrialSeed(42, 0), exp::deriveTrialSeed(42, 1));
    EXPECT_NE(exp::deriveTrialSeed(42, 0), exp::deriveTrialSeed(43, 0));
    // Adjacent trials must not get adjacent (correlated) seeds.
    const auto a = exp::deriveTrialSeed(42, 5);
    const auto b = exp::deriveTrialSeed(42, 6);
    EXPECT_GT(a > b ? a - b : b - a, 1000u);
}

TEST(SeedDerivation, GoldenValues)
{
    // Every campaign fingerprint is a function of these formulas, and
    // every other identity check compares arms of one build: a formula
    // that changes, or goes missing, would shift all arms equally and
    // pass them.  Literal values pin the formulas across commits.
    EXPECT_EQ(exp::deriveTrialSeed(42, 0), 0x3b69bdf5dcdb9d38ull);
    EXPECT_EQ(exp::deriveTrialSeed(42, 7), 0xa0d049d34a7876e7ull);
    EXPECT_EQ(exp::deriveRetrySeed(42, 7, 1), 0x1a99cfe64fe4198dull);
    EXPECT_EQ(exp::deriveRetrySeed(42, 7, 2), 0x799098f2b940ab98ull);
    EXPECT_EQ(exp::deriveWarmupSeed(42), 0xb18d344888ae5f83ull);
    const std::uint64_t trial = exp::deriveTrialSeed(42, 0);
    EXPECT_EQ(exp::deriveReplaySeed(trial, 0), 0x015fba92a6a37b03ull);
    EXPECT_EQ(exp::deriveReplaySeed(trial, 3), 0xe87b75a07940cb27ull);
}

// ---------------------------------------------------------------------
// The campaign runner.
// ---------------------------------------------------------------------

namespace
{

/** A seed-dependent synthetic trial: cheap but non-trivial. */
exp::CampaignSpec
syntheticSpec(std::size_t trials, unsigned workers)
{
    exp::CampaignSpec spec;
    spec.name = "synthetic";
    spec.trials = trials;
    spec.masterSeed = 1234;
    spec.workers = workers;
    spec.body = [](const exp::TrialContext &ctx) {
        Rng rng(ctx.seed);
        exp::TrialOutput out;
        double acc = 0;
        for (int i = 0; i < 257; ++i) {
            const double sample = rng.uniform() * 1000.0;
            out.metric.add(sample);
            acc += sample;
        }
        out.simCycles = 1000 + rng.below(1000);
        out.scope.totalReplays = ctx.index;
        out.payload = json::Value::object()
                          .set("acc", acc)
                          .set("first", rng.next());
        return out;
    };
    return spec;
}

} // namespace

TEST(Campaign, AggregateBitIdenticalAcrossWorkerCounts)
{
    const exp::CampaignResult serial =
        exp::runCampaign(syntheticSpec(64, 1));
    const exp::CampaignResult parallel =
        exp::runCampaign(syntheticSpec(64, 4));

    EXPECT_EQ(serial.workers, 1u);
    EXPECT_EQ(parallel.workers, 4u);
    EXPECT_EQ(serial.aggregate.ok, 64u);
    EXPECT_EQ(parallel.aggregate.ok, 64u);

    // Bit-exact double comparisons on purpose: the contract is
    // bit-identical aggregation, not "close".
    EXPECT_EQ(serial.aggregate.metric.count(),
              parallel.aggregate.metric.count());
    EXPECT_EQ(serial.aggregate.metric.mean(),
              parallel.aggregate.metric.mean());
    EXPECT_EQ(serial.aggregate.metric.variance(),
              parallel.aggregate.metric.variance());
    EXPECT_EQ(serial.aggregate.metric.min(),
              parallel.aggregate.metric.min());
    EXPECT_EQ(serial.aggregate.metric.max(),
              parallel.aggregate.metric.max());
    EXPECT_EQ(serial.aggregate.simCycles, parallel.aggregate.simCycles);
    EXPECT_EQ(serial.aggregate.scope.totalReplays,
              parallel.aggregate.scope.totalReplays);

    // Per-trial results (wall clock aside) are identical too.
    ASSERT_EQ(serial.trials.size(), parallel.trials.size());
    for (std::size_t i = 0; i < serial.trials.size(); ++i) {
        EXPECT_EQ(serial.trials[i].seed, parallel.trials[i].seed);
        EXPECT_EQ(serial.trials[i].output.payload.dump(),
                  parallel.trials[i].output.payload.dump());
    }

    // And the exported aggregate JSON matches byte for byte.
    EXPECT_EQ(serial.aggregate.toJson().dump(),
              parallel.aggregate.toJson().dump());
}

TEST(Campaign, ThrowingTrialIsRecordedNotFatal)
{
    exp::CampaignSpec spec = syntheticSpec(8, 3);
    auto inner = spec.body;
    spec.body = [inner](const exp::TrialContext &ctx) {
        if (ctx.index == 3)
            throw std::runtime_error("injected trial failure");
        if (ctx.index == 5)
            throw 17;  // non-std::exception
        return inner(ctx);
    };

    const exp::CampaignResult result = exp::runCampaign(std::move(spec));
    EXPECT_EQ(result.aggregate.ok, 6u);
    EXPECT_EQ(result.aggregate.failed, 2u);
    EXPECT_EQ(result.aggregate.timedOut, 0u);
    EXPECT_EQ(result.trials[3].status, exp::TrialStatus::Failed);
    EXPECT_EQ(result.trials[3].error, "injected trial failure");
    EXPECT_EQ(result.trials[5].error, "unknown exception");
    // The failed trials contribute nothing to the aggregate metric.
    EXPECT_EQ(result.aggregate.metric.count(), 6u * 257u);
}

TEST(Campaign, CycleBudgetTimesOutAsResult)
{
    exp::CampaignSpec spec = syntheticSpec(6, 2);
    spec.cycleBudget = 5000;
    auto inner = spec.body;
    spec.body = [inner](const exp::TrialContext &ctx) {
        if (ctx.index == 1) {
            // Cooperative check mid-trial: throws TrialTimeout.
            ctx.checkBudget(ctx.cycleBudget + 1);
        }
        exp::TrialOutput out = inner(ctx);
        if (ctx.index == 4)
            out.simCycles = 1'000'000;  // blew the budget, post hoc
        return out;
    };

    const exp::CampaignResult result = exp::runCampaign(std::move(spec));
    EXPECT_EQ(result.aggregate.timedOut, 2u);
    EXPECT_EQ(result.aggregate.ok, 4u);
    EXPECT_EQ(result.trials[1].status, exp::TrialStatus::TimedOut);
    EXPECT_EQ(result.trials[4].status, exp::TrialStatus::TimedOut);
    // The post-hoc case still carries its (partial) output.
    EXPECT_EQ(result.trials[4].output.simCycles, 1'000'000u);
}

TEST(Campaign, ReducerRunsInIndexOrderAndProgressIsMonotonic)
{
    // Callers reduce over result.trials, which hold every trial in
    // index order whatever order the 4 workers finished them in.
    exp::CampaignSpec spec = syntheticSpec(32, 4);
    std::vector<std::size_t> progress;
    spec.progress = [&](std::size_t done, std::size_t total) {
        EXPECT_EQ(total, 32u);
        progress.push_back(done);
    };

    const exp::CampaignResult result = exp::runCampaign(std::move(spec));
    ASSERT_EQ(result.trials.size(), 32u);
    for (std::size_t i = 0; i < result.trials.size(); ++i)
        EXPECT_EQ(result.trials[i].index, i);
    ASSERT_EQ(progress.size(), 32u);
    for (std::size_t i = 0; i < progress.size(); ++i)
        EXPECT_EQ(progress[i], i + 1);
}

TEST(Campaign, RealMachineTrialsAreDeterministic)
{
    // Each trial owns a full simulated Machine and runs a small
    // program; the simulated cycle count is the metric.
    const auto make = [](unsigned workers) {
        exp::CampaignSpec spec;
        spec.name = "machine-campaign";
        spec.trials = 4;
        spec.masterSeed = 9;
        spec.workers = workers;
        spec.cycleBudget = 1'000'000;
        spec.body = [](const exp::TrialContext &ctx) {
            os::Machine machine(ctx.machine);
            auto &kernel = machine.kernel();
            const os::Pid pid = kernel.createProcess("worker-victim");
            const VAddr page = kernel.allocVirtual(pid, pageSize);

            cpu::ProgramBuilder b;
            b.movi(1, static_cast<std::int64_t>(page));
            for (unsigned i = 0; i <= ctx.index; ++i)
                b.ld(2, 1, static_cast<std::int64_t>(i * lineSize));
            b.halt();
            kernel.startOnContext(
                pid, 0,
                std::make_shared<const cpu::Program>(b.build()));
            if (!machine.runUntilHalted(0, ctx.cycleBudget))
                throw exp::TrialTimeout("victim never halted");

            exp::TrialOutput out;
            out.simCycles = machine.cycle();
            out.metric.add(static_cast<double>(machine.cycle()));
            return out;
        };
        return spec;
    };

    const exp::CampaignResult serial = exp::runCampaign(make(1));
    const exp::CampaignResult parallel = exp::runCampaign(make(2));
    EXPECT_EQ(serial.aggregate.ok, 4u);
    EXPECT_EQ(serial.aggregate.simCycles, parallel.aggregate.simCycles);
    EXPECT_EQ(serial.aggregate.metric.mean(),
              parallel.aggregate.metric.mean());
}

TEST(Campaign, MachineFactorySeedStamping)
{
    exp::CampaignSpec spec;
    spec.trials = 3;
    spec.masterSeed = 77;
    spec.workers = 1;
    std::vector<std::uint64_t> seeds;
    spec.machineFactory = [](const exp::TrialContext &) {
        return os::MachineConfig{};  // forgot to seed — runner stamps it
    };
    spec.body = [&](const exp::TrialContext &ctx) {
        seeds.push_back(ctx.machine.seed);
        return exp::TrialOutput{};
    };
    exp::runCampaign(std::move(spec));
    ASSERT_EQ(seeds.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(seeds[i], exp::deriveTrialSeed(77, i));
}

TEST(Campaign, MachineFactorySettingDefaultSeedValueIsHonoured)
{
    // Regression: a factory that *deliberately* chooses the default
    // seed value (42) used to be indistinguishable from one that never
    // seeded, and was silently re-stamped with the trial seed.
    exp::CampaignSpec spec;
    spec.trials = 3;
    spec.masterSeed = 77;
    spec.workers = 1;
    std::vector<std::uint64_t> seeds;
    spec.machineFactory = [](const exp::TrialContext &) {
        os::MachineConfig config;
        config.seed = 42;  // deliberately the default value
        return config;
    };
    spec.body = [&](const exp::TrialContext &ctx) {
        seeds.push_back(ctx.machine.seed);
        return exp::TrialOutput{};
    };
    exp::runCampaign(std::move(spec));
    ASSERT_EQ(seeds.size(), 3u);
    for (std::uint64_t seed : seeds)
        EXPECT_EQ(seed, 42u);
}

TEST(Seed, TracksExplicitAssignment)
{
    os::Seed seed;
    EXPECT_FALSE(seed.explicitlySet);
    EXPECT_EQ(static_cast<std::uint64_t>(seed), 42u);

    seed = 42;  // assigning the default value still counts as "set"
    EXPECT_TRUE(seed.explicitlySet);

    os::MachineConfig config;
    EXPECT_FALSE(config.seed.explicitlySet);
    config.seed = 7;
    EXPECT_TRUE(config.seed.explicitlySet);
    // Arithmetic through the implicit conversion keeps working.
    EXPECT_EQ(config.seed * 3 + 1, 22u);
}

TEST(TrialContext, CheckBudgetBoundaryIsInclusive)
{
    exp::TrialContext ctx;
    ctx.cycleBudget = 100;
    // The budget is inclusive: exactly-budget trials are admitted,
    // the first cycle past it times out.
    EXPECT_NO_THROW(ctx.checkBudget(100));
    EXPECT_THROW(ctx.checkBudget(101), exp::TrialTimeout);

    ctx.cycleBudget = 0;  // unbounded
    EXPECT_NO_THROW(ctx.checkBudget(~Cycles{0}));
}

TEST(Campaign, ExactBudgetAdmittedOneCycleOverTimesOut)
{
    // Trial 0 consumes exactly the budget (fast-forward must clamp its
    // clock jumps to the run() limit, not overshoot); trial 1 runs one
    // cycle past it.
    exp::CampaignSpec spec;
    spec.trials = 2;
    spec.masterSeed = 5;
    spec.workers = 1;
    spec.cycleBudget = 5000;
    spec.body = [](const exp::TrialContext &ctx) {
        os::Machine machine(ctx.machine);
        machine.run(ctx.cycleBudget + ctx.index);
        exp::TrialOutput out;
        out.simCycles = machine.cycle();
        return out;
    };
    const exp::CampaignResult result = exp::runCampaign(std::move(spec));
    ASSERT_EQ(result.trials.size(), 2u);
    EXPECT_EQ(result.trials[0].output.simCycles, 5000u);
    EXPECT_EQ(result.trials[0].status, exp::TrialStatus::Ok);
    EXPECT_EQ(result.trials[1].output.simCycles, 5001u);
    EXPECT_EQ(result.trials[1].status, exp::TrialStatus::TimedOut);
}

TEST(ResultSink, AnnotatesNonFiniteValuesInDumps)
{
    exp::CampaignSpec spec;
    spec.name = "nonfinite-campaign";
    spec.trials = 1;
    spec.workers = 1;
    spec.body = [](const exp::TrialContext &) {
        exp::TrialOutput out;
        out.payload = json::Value::object().set(
            "bad", std::numeric_limits<double>::quiet_NaN());
        return out;
    };
    const exp::CampaignResult result = exp::runCampaign(std::move(spec));

    exp::JsonFileSink sink(testing::TempDir());
    sink.consume(result);
    std::ifstream in(sink.lastPath());
    const std::string dumped((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    EXPECT_NE(dumped.find("\"bad\": null"), std::string::npos);
    EXPECT_NE(dumped.find("\"non_finite_nulled\": 1"), std::string::npos);
}

TEST(Campaign, MetricSnapshotsFlowIntoResults)
{
    const auto make = [](unsigned workers) {
        exp::CampaignSpec spec;
        spec.name = "metrics-campaign";
        spec.trials = 6;
        spec.masterSeed = 3;
        spec.workers = workers;
        spec.body = [](const exp::TrialContext &ctx) {
            obs::MetricRegistry registry;
            registry.counter("trial.widgets").set(ctx.index + 1);
            registry.latency("trial.latency")
                .record(static_cast<double>(ctx.index) * 10.0);
            exp::TrialOutput out;
            out.metrics = registry.snapshot();
            return out;
        };
        return spec;
    };

    const exp::CampaignResult result = exp::runCampaign(make(2));
    // 1+2+...+6 across the index-ordered merge.
    const obs::MetricValue *widgets =
        result.aggregate.metrics.find("trial.widgets");
    ASSERT_NE(widgets, nullptr);
    EXPECT_EQ(widgets->counter, 21u);
    EXPECT_EQ(result.aggregate.metrics.find("trial.latency")
                  ->latency.count(),
              6u);

    // Metrics appear in both per-trial and aggregate JSON.
    EXPECT_NE(result.trials[0].toJson().dump().find(
                  "\"metrics\":{\"trial.latency\""),
              std::string::npos);
    EXPECT_NE(result.aggregate.toJson().dump().find(
                  "\"trial.widgets\":21"),
              std::string::npos);

    // And aggregate identically regardless of worker count.
    EXPECT_EQ(result.aggregate.metrics.toJson().dump(),
              exp::runCampaign(make(1)).aggregate.metrics.toJson().dump());
}

// ---------------------------------------------------------------------
// Result sinks.
// ---------------------------------------------------------------------

TEST(ResultSink, JsonFileRoundTrip)
{
    exp::CampaignResult result = exp::runCampaign(syntheticSpec(4, 2));
    exp::JsonFileSink sink(testing::TempDir());
    sink.consume(result);
    ASSERT_FALSE(sink.lastPath().empty());

    std::FILE *f = std::fopen(sink.lastPath().c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text(1 << 16, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), f));
    std::fclose(f);

    EXPECT_NE(text.find("\"campaign\": \"synthetic\""),
              std::string::npos);
    EXPECT_NE(text.find("\"trial_results\""), std::string::npos);
    EXPECT_NE(text.find("\"sim_cycles_per_second\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Spec validation.
// ---------------------------------------------------------------------

TEST(Campaign, SpecWithoutBodyThrows)
{
    exp::CampaignSpec spec;
    spec.trials = 4;
    EXPECT_THROW(exp::runCampaign(std::move(spec)),
                 std::invalid_argument);
}

TEST(Campaign, SpecWithZeroTrialsThrows)
{
    exp::CampaignSpec spec = syntheticSpec(1, 1);
    spec.trials = 0;
    EXPECT_THROW(exp::runCampaign(std::move(spec)),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Retry policy.
// ---------------------------------------------------------------------

TEST(RetrySeed, AttemptZeroIsTheTrialSeed)
{
    EXPECT_EQ(exp::deriveRetrySeed(42, 7, 0),
              exp::deriveTrialSeed(42, 7));
    // Attempts get decorrelated fresh seeds, deterministically.
    EXPECT_NE(exp::deriveRetrySeed(42, 7, 1),
              exp::deriveRetrySeed(42, 7, 0));
    EXPECT_NE(exp::deriveRetrySeed(42, 7, 1),
              exp::deriveRetrySeed(42, 7, 2));
    EXPECT_EQ(exp::deriveRetrySeed(42, 7, 3),
              exp::deriveRetrySeed(42, 7, 3));
}

namespace
{

/** syntheticSpec whose index-2 trial fails once and whose index-4
 *  trial always fails — the retry-policy fixture. */
exp::CampaignSpec
flakySpec(std::size_t trials, unsigned workers, unsigned max_retries)
{
    exp::CampaignSpec spec = syntheticSpec(trials, workers);
    spec.maxRetries = max_retries;
    auto inner = spec.body;
    const std::uint64_t master = spec.masterSeed;
    spec.body = [inner, master](const exp::TrialContext &ctx) {
        const bool first_attempt =
            ctx.seed == exp::deriveRetrySeed(master, ctx.index, 0);
        if (ctx.index == 2 && first_attempt)
            throw std::runtime_error("flaky once");
        if (ctx.index == 4)
            throw std::runtime_error("always broken");
        return inner(ctx);
    };
    return spec;
}

} // namespace

TEST(Campaign, FailingTrialRetriesWithDerivedSeeds)
{
    const exp::CampaignResult result =
        exp::runCampaign(flakySpec(6, 3, 2));

    EXPECT_EQ(result.aggregate.retried, 1u);
    EXPECT_EQ(result.aggregate.failed, 1u);
    EXPECT_EQ(result.aggregate.ok, 4u);

    const exp::TrialResult &flaky = result.trials[2];
    EXPECT_EQ(flaky.status, exp::TrialStatus::Retried);
    EXPECT_EQ(flaky.attempts, 2u);
    // The successful attempt's seed is recorded, and the failure text
    // is kept for the record.
    EXPECT_EQ(flaky.seed, exp::deriveRetrySeed(1234, 2, 1));
    EXPECT_EQ(flaky.error, "flaky once");
    EXPECT_GT(flaky.output.metric.count(), 0u);

    const exp::TrialResult &broken = result.trials[4];
    EXPECT_EQ(broken.status, exp::TrialStatus::Failed);
    EXPECT_EQ(broken.attempts, 3u);  // 1 original + 2 retries
    EXPECT_EQ(broken.error, "always broken");

    // Retried trials contribute to the aggregate; Failed ones do not.
    EXPECT_EQ(result.aggregate.metric.count(), 5u * 257u);

    // The whole retry history is a pure function of the seeds, so the
    // campaign fingerprint is worker-count invariant.
    const exp::CampaignResult serial =
        exp::runCampaign(flakySpec(6, 1, 2));
    EXPECT_EQ(result.aggregate.toJson().dump(),
              serial.aggregate.toJson().dump());
}

TEST(Campaign, TimedOutIsNeverRetried)
{
    exp::CampaignSpec spec = syntheticSpec(3, 1);
    spec.cycleBudget = 100;
    spec.maxRetries = 5;
    unsigned invocations = 0;
    spec.body = [&invocations](const exp::TrialContext &ctx) {
        ++invocations;
        if (ctx.index == 1)
            ctx.checkBudget(ctx.cycleBudget + 1);
        return exp::TrialOutput{};
    };
    const exp::CampaignResult result = exp::runCampaign(std::move(spec));
    EXPECT_EQ(result.trials[1].status, exp::TrialStatus::TimedOut);
    EXPECT_EQ(result.trials[1].attempts, 1u);
    // The budget was genuinely consumed; no retry was spent on it.
    EXPECT_EQ(invocations, 3u);
}

TEST(TrialExecutor, WarmupCacheKeepsOnlyTheCurrentMasterSeed)
{
    // A long-lived executor (a service worker) runs many campaigns of
    // one structureKey.  Each master seed warms up its own state, so
    // a new seed must drop the old seed's frozen machine and artifact.
    unsigned warmups = 0;
    std::weak_ptr<const void> artifact;
    const auto spec = [&](std::uint64_t master_seed) {
        exp::CampaignSpec s;
        s.name = "warmup_cache";
        s.trials = 1;
        s.masterSeed = master_seed;
        s.structureKey = "warmup_cache";
        s.warmup = [&](os::Machine &) {
            ++warmups;
            auto data = std::make_shared<const int>(0);
            artifact = data;
            return std::shared_ptr<const void>(data);
        };
        s.body = [](const exp::TrialContext &ctx) {
            EXPECT_NE(ctx.fork, nullptr);
            return exp::TrialOutput{};
        };
        return s;
    };

    exp::TrialExecutor executor;
    const exp::CampaignSpec a = spec(1);
    executor.beginCampaign(a);
    EXPECT_EQ(executor.runTrial(a, 0, 0).status, exp::TrialStatus::Ok);
    ASSERT_EQ(warmups, 1u);
    const std::weak_ptr<const void> warmed_a = artifact;
    ASSERT_FALSE(warmed_a.expired());

    // Same key and seed: the cached warmup is reused.
    executor.beginCampaign(a);
    EXPECT_EQ(executor.runTrial(a, 0, 0).status, exp::TrialStatus::Ok);
    EXPECT_EQ(warmups, 1u);
    EXPECT_FALSE(warmed_a.expired());

    // Same key, another seed: seed 1's entry goes at campaign start.
    const exp::CampaignSpec b = spec(2);
    executor.beginCampaign(b);
    EXPECT_TRUE(warmed_a.expired());
    EXPECT_EQ(executor.runTrial(b, 0, 0).status, exp::TrialStatus::Ok);
    EXPECT_EQ(warmups, 2u);
}

// ---------------------------------------------------------------------
// Worker death.
// ---------------------------------------------------------------------

TEST(Campaign, DyingWorkerDegradesGracefully)
{
    exp::CampaignSpec spec = syntheticSpec(12, 3);
    std::atomic<bool> killed{false};
    spec.progress = [&killed](std::size_t, std::size_t) {
        if (!killed.exchange(true))
            throw std::runtime_error("observer crashed");
    };

    const exp::CampaignResult result = exp::runCampaign(std::move(spec));
    EXPECT_GE(result.workerDeaths, 1u);
    EXPECT_LE(result.workerDeaths, 3u);

    // Every trial still completed, and the aggregate is bit-identical
    // to a run whose workers all survived.
    EXPECT_EQ(result.aggregate.ok, 12u);
    EXPECT_EQ(result.trialCount, 12u);
    const exp::CampaignResult clean =
        exp::runCampaign(syntheticSpec(12, 3));
    EXPECT_EQ(result.aggregate.toJson().dump(),
              clean.aggregate.toJson().dump());
}

// ---------------------------------------------------------------------
// Fingerprint text.
// ---------------------------------------------------------------------

namespace
{

/** @p snapshot without the host-mechanics meta-counters. */
obs::MetricSnapshot
stripMeta(const obs::MetricSnapshot &snapshot)
{
    obs::MetricSnapshot out = snapshot;
    std::erase_if(out.values, [](const obs::MetricValue &v) {
        return v.name.starts_with("obs.trace.") ||
               v.name.starts_with("mem.physmem.");
    });
    return out;
}

/** The fingerprint text as json::Value trees spell it: the oracle the
 *  direct writer in deterministicFingerprint must match byte for
 *  byte. */
std::string
treeFingerprint(const exp::CampaignResult &result)
{
    exp::CampaignAggregate aggregate = result.aggregate;
    aggregate.metrics = stripMeta(aggregate.metrics);
    std::string fp = aggregate.toJson().dump();
    for (const exp::TrialResult &trial : result.trials) {
        fp += '\n';
        fp += trial.output.payload.dump();
        fp += stripMeta(trial.output.metrics).toJson().dump();
        fp += json::Value(trial.output.simCycles).dump();
        fp += exp::trialStatusName(trial.status);
    }
    return fp;
}

/** A double from the corners: non-finite, signed zero, subnormal,
 *  huge, or plain. */
double
randomDouble(Rng &rng)
{
    switch (rng.below(8)) {
      case 0: return std::numeric_limits<double>::quiet_NaN();
      case 1:
        return rng.chance(0.5) ? std::numeric_limits<double>::infinity()
                               : -std::numeric_limits<double>::infinity();
      case 2: return -0.0;
      case 3: return std::numeric_limits<double>::denorm_min() *
                     static_cast<double>(rng.below(1000));
      case 4: return std::bit_cast<double>(rng.next() >> 2);
      default: return (rng.uniform() - 0.5) * 1e6;
    }
}

/** A short string that may need escaping. */
std::string
randomText(Rng &rng)
{
    static const char *const pieces[] = {"a", "key", "\"", "\\", "\n",
                                         "\t", "\x01", "\x1f", "\xc3\xa9",
                                         "/", " "};
    std::string out;
    for (std::uint64_t i = rng.below(6); i > 0; --i)
        out += pieces[rng.below(std::size(pieces))];
    return out;
}

json::Value
randomPayload(Rng &rng, int depth)
{
    switch (rng.below(depth > 2 ? 5 : 7)) {
      case 0: return json::Value();
      case 1: return json::Value(rng.chance(0.5));
      case 2: return json::Value(static_cast<std::int64_t>(rng.next()));
      case 3: return json::Value(randomDouble(rng));
      case 4: return json::Value(randomText(rng));
      case 5: {
        json::Value array = json::Value::array();
        for (std::uint64_t i = rng.below(4); i > 0; --i)
            array.push(randomPayload(rng, depth + 1));
        return array;
      }
      default: {
        json::Value object = json::Value::object();
        for (std::uint64_t i = rng.below(4); i > 0; --i)
            object.set(randomText(rng), randomPayload(rng, depth + 1));
        return object;
      }
    }
}

/** A finished campaign with random trials, aggregated as the runner
 *  does.  A metric's kind is a function of its name, so the
 *  aggregate merge never sees a kind clash. */
exp::CampaignResult
randomCampaign(std::uint64_t seed)
{
    static const char *const names[] = {
        "cpu.retired", "mem.physmem.pages_repointed", "obs.trace.events",
        "obs.trace.dropped", "vm.walks", "weird \"name\"\\\n",
        "\x01" "ctl", "mem.l1d.misses", "obs.tracer", "mem.physmemx",
        "z.latency", "\xc3\xa9t\xc3\xa9"};
    Rng rng(seed);
    exp::CampaignResult result;
    result.name = randomText(rng);
    result.trialCount = 1 + rng.below(6);
    result.masterSeed = rng.next();
    result.workers = static_cast<unsigned>(rng.below(9));
    result.wallSeconds = rng.uniform();
    for (std::size_t i = 0; i < result.trialCount; ++i) {
        exp::TrialResult trial;
        trial.index = i;
        trial.seed = rng.next();
        trial.status = static_cast<exp::TrialStatus>(rng.below(4));
        trial.output.simCycles = rng.next();
        trial.output.scope.episodes = rng.below(100);
        for (std::uint64_t s = rng.below(3); s > 0; --s)
            trial.output.metric.add(randomDouble(rng));
        if (rng.chance(0.8))
            trial.output.payload = randomPayload(rng, 0);
        if (rng.chance(0.2))
            trial.output.payload =
                json::Value::raw(trial.output.payload.dump());
        // One trial in eight has no metrics, one in eight only the
        // meta-counters (names[1..3]).
        const std::uint64_t shape = rng.below(8);
        obs::MetricRegistry registry;
        for (std::size_t n = 0; n < std::size(names); ++n) {
            const bool meta = n >= 1 && n <= 3;
            if (shape == 0 || (shape == 1 && !meta) || rng.chance(0.4))
                continue;
            switch (n % 3) {
              case 0: registry.counter(names[n]).set(rng.next()); break;
              case 1:
                registry.gauge(names[n]).set(randomDouble(rng));
                break;
              default:
                for (std::uint64_t s = rng.below(3); s > 0; --s)
                    registry.latency(names[n]).record(randomDouble(rng));
            }
        }
        trial.output.metrics = registry.snapshot();
        result.trials.push_back(std::move(trial));
    }
    result.aggregate = exp::aggregateTrials(result.trials);
    return result;
}

} // namespace

TEST(Fingerprint, DirectTextMatchesTreeOracle)
{
    bool sawEmptyMetrics = false;
    bool sawMetaOnly = false;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        const exp::CampaignResult result = randomCampaign(seed);
        ASSERT_EQ(exp::deterministicFingerprint(result),
                  treeFingerprint(result))
            << "seed " << seed;
        // The service's result frame spells the report the same way.
        std::string report;
        result.appendJson(report);
        ASSERT_EQ(report, result.toJson(false).dump()) << "seed " << seed;
        for (const exp::TrialResult &trial : result.trials) {
            sawEmptyMetrics |= trial.output.metrics.empty();
            sawMetaOnly |= !trial.output.metrics.empty() &&
                           stripMeta(trial.output.metrics).empty();
        }
    }
    EXPECT_TRUE(sawEmptyMetrics);
    EXPECT_TRUE(sawMetaOnly);

    // An aggregate whose metrics are all meta-counters drops its
    // "metrics" member, exactly as the tree form does.
    exp::CampaignResult meta;
    obs::MetricRegistry registry;
    registry.counter("obs.trace.events").set(3);
    meta.trials.resize(1);
    meta.trials[0].output.metrics = registry.snapshot();
    meta.aggregate = exp::aggregateTrials(meta.trials);
    EXPECT_EQ(exp::deterministicFingerprint(meta), treeFingerprint(meta));
    EXPECT_EQ(exp::deterministicFingerprint(meta).find("metrics"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Checkpoint / resume.
// ---------------------------------------------------------------------

TEST(Checkpoint, TrialSerializationRoundTripsBitExactly)
{
    exp::TrialResult trial;
    trial.index = 5;
    trial.seed = exp::deriveRetrySeed(9, 5, 1);
    trial.status = exp::TrialStatus::Retried;
    trial.attempts = 2;
    trial.error = "first attempt: bad\nmultiline detail";
    trial.wallSeconds = 1.5;
    trial.output.simCycles = 123456;
    trial.output.metric.add(1.0);
    trial.output.metric.add(2.5e-300);  // subnormal-range double
    trial.output.metric.add(-0.0);      // signed zero survives too
    trial.output.scope.handleFaults = 3;
    trial.output.scope.totalReplays = 99;
    obs::MetricRegistry registry;
    registry.counter("t.count").set(7);
    registry.gauge("t.gauge").set(0.1);  // not exactly representable
    registry.latency("t.lat").record(3.25);
    registry.latency("t.lat").record(-1.75);
    trial.output.metrics = registry.snapshot();
    trial.output.payload = json::Value::object()
                               .set("nested", json::Value::array()
                                                  .push(1)
                                                  .push("two"))
                               .set("pi", 3.141592653589793);

    const std::string text = exp::CampaignCheckpoint::serializeTrial(trial);
    const auto parsed = exp::CampaignCheckpoint::parseTrial(text);
    ASSERT_TRUE(parsed.has_value());

    EXPECT_EQ(parsed->index, trial.index);
    EXPECT_EQ(parsed->seed, trial.seed);
    EXPECT_EQ(parsed->status, trial.status);
    EXPECT_EQ(parsed->attempts, trial.attempts);
    EXPECT_EQ(parsed->error, trial.error);
    EXPECT_EQ(parsed->output.payload.dump(), trial.output.payload.dump());
    EXPECT_EQ(parsed->output.metrics.toJson().dump(),
              trial.output.metrics.toJson().dump());

    // The acid test: serializing the parse reproduces every byte,
    // i.e. every double round-tripped through its bit pattern.
    EXPECT_EQ(exp::CampaignCheckpoint::serializeTrial(*parsed), text);
    // The record format is pinned: old checkpoints must keep loading.
    EXPECT_EQ(text.size(), 464u);
    EXPECT_EQ(exp::fnv1aHex(text), "0x62965294a49ff8f0");
}

TEST(Checkpoint, MalformedTrialFilesAreRejected)
{
    EXPECT_FALSE(exp::CampaignCheckpoint::parseTrial("").has_value());
    EXPECT_FALSE(
        exp::CampaignCheckpoint::parseTrial("garbage\n").has_value());

    exp::TrialResult trial;
    trial.output.metric.add(1.0);
    const std::string text =
        exp::CampaignCheckpoint::serializeTrial(trial);
    EXPECT_TRUE(exp::CampaignCheckpoint::parseTrial(text).has_value());
    // Any truncation invalidates the record.
    EXPECT_FALSE(exp::CampaignCheckpoint::parseTrial(
                     text.substr(0, text.size() / 2))
                     .has_value());

    // Numbers are bare digits: a sign is corruption, not a value.
    const auto edited = [&](const std::string &from,
                            const std::string &to) {
        std::string out = text;
        const std::size_t at = out.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return out.replace(at, from.size(), to);
    };
    for (const auto &[from, to] :
         {std::pair<std::string, std::string>{"\nindex 0\n",
                                              "\nindex -1\n"},
          {"\nattempts 1\n", "\nattempts +1\n"},
          {"\nsim_cycles 0\n", "\nsim_cycles 0x0\n"},
          {"\nwall 0000000000000000\n", "\nwall +000000000000000\n"},
          {"\nwall 0000000000000000\n", "\nwall 0x00000000000000\n"}})
        EXPECT_FALSE(
            exp::CampaignCheckpoint::parseTrial(edited(from, to))
                .has_value())
            << to;

    // Metric names must be sorted and unique, as snapshots are.
    exp::TrialResult named;
    obs::MetricRegistry registry;
    registry.counter("a").set(1);
    registry.counter("b").set(2);
    named.output.metrics = registry.snapshot();
    const std::string sorted =
        exp::CampaignCheckpoint::serializeTrial(named);
    EXPECT_TRUE(exp::CampaignCheckpoint::parseTrial(sorted).has_value());
    std::swap(named.output.metrics.values[0],
              named.output.metrics.values[1]);
    EXPECT_FALSE(exp::CampaignCheckpoint::parseTrial(
                     exp::CampaignCheckpoint::serializeTrial(named))
                     .has_value());
    named.output.metrics.values[0].name = obs::MetricName("b");
    EXPECT_FALSE(exp::CampaignCheckpoint::parseTrial(
                     exp::CampaignCheckpoint::serializeTrial(named))
                     .has_value());
}

namespace
{

/** A fresh, empty checkpoint directory under the test temp root. */
std::string
freshCheckpointDir(const char *name)
{
    const std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

} // namespace

TEST(Checkpoint, KilledCampaignResumesBitIdentically)
{
    const std::string dir = freshCheckpointDir("uscope_resume_ckpt");

    // The ground truth: the same campaign, never interrupted.
    const exp::CampaignResult baseline =
        exp::runCampaign(syntheticSpec(10, 2));

    // First run: trials 6..9 die (as if the campaign was killed while
    // they ran).  Failed trials are not persisted.
    exp::CampaignSpec crashing = syntheticSpec(10, 2);
    crashing.checkpointDir = dir;
    auto inner = crashing.body;
    crashing.body = [inner](const exp::TrialContext &ctx) {
        if (ctx.index >= 6)
            throw std::runtime_error("killed mid-campaign");
        return inner(ctx);
    };
    const exp::CampaignResult first = exp::runCampaign(std::move(crashing));
    EXPECT_EQ(first.aggregate.ok, 6u);
    EXPECT_EQ(first.aggregate.failed, 4u);
    EXPECT_EQ(first.resumedTrials, 0u);

    // Second run: healthy body, same spec, same directory.  Only the
    // four unfinished trials execute; the aggregate matches the
    // uninterrupted run bit for bit.
    exp::CampaignSpec resumed = syntheticSpec(10, 2);
    resumed.checkpointDir = dir;
    std::atomic<unsigned> invocations{0};
    auto healthy = resumed.body;
    resumed.body = [healthy, &invocations](const exp::TrialContext &ctx) {
        ++invocations;
        return healthy(ctx);
    };
    const exp::CampaignResult second = exp::runCampaign(std::move(resumed));
    EXPECT_EQ(second.resumedTrials, 6u);
    EXPECT_EQ(invocations.load(), 4u);
    EXPECT_EQ(second.aggregate.ok, 10u);
    EXPECT_EQ(second.aggregate.toJson().dump(),
              baseline.aggregate.toJson().dump());
    ASSERT_EQ(second.trials.size(), baseline.trials.size());
    for (std::size_t i = 0; i < baseline.trials.size(); ++i) {
        EXPECT_EQ(second.trials[i].seed, baseline.trials[i].seed);
        EXPECT_EQ(second.trials[i].output.payload.dump(),
                  baseline.trials[i].output.payload.dump());
    }

    // A third run restores everything and executes nothing.
    exp::CampaignSpec replay = syntheticSpec(10, 2);
    replay.checkpointDir = dir;
    replay.body = [](const exp::TrialContext &) -> exp::TrialOutput {
        throw std::runtime_error("must not run");
    };
    const exp::CampaignResult third = exp::runCampaign(std::move(replay));
    EXPECT_EQ(third.resumedTrials, 10u);
    EXPECT_EQ(third.aggregate.toJson().dump(),
              baseline.aggregate.toJson().dump());
}

TEST(Checkpoint, MismatchedManifestIsDiscarded)
{
    const std::string dir = freshCheckpointDir("uscope_mismatch_ckpt");

    exp::CampaignSpec a = syntheticSpec(4, 1);
    a.name = "campaign-a";
    a.checkpointDir = dir;
    exp::runCampaign(std::move(a));

    // A different campaign pointed at the same directory must not
    // inherit campaign-a's trials.
    exp::CampaignSpec b = syntheticSpec(4, 1);
    b.name = "campaign-b";
    b.masterSeed = 4321;
    b.checkpointDir = dir;
    const exp::CampaignResult fresh = exp::runCampaign(std::move(b));
    EXPECT_EQ(fresh.resumedTrials, 0u);
    EXPECT_EQ(fresh.aggregate.ok, 4u);

    // The directory now belongs to campaign-b: a rerun resumes it.
    exp::CampaignSpec again = syntheticSpec(4, 1);
    again.name = "campaign-b";
    again.masterSeed = 4321;
    again.checkpointDir = dir;
    EXPECT_EQ(exp::runCampaign(std::move(again)).resumedTrials, 4u);
}

TEST(Checkpoint, CorruptTrialFilesAreReRunNotTrusted)
{
    // A crash can leave a per-trial file truncated mid-write (the
    // atomic rename protects against *partial* files only when the
    // writer lives to rename; a torn filesystem or manual tampering
    // does not).  A corrupt record must degrade to "re-run that
    // trial" — never to a crash, and never to trusting the bytes.
    const std::string dir = freshCheckpointDir("uscope_corrupt_ckpt");

    const exp::CampaignResult baseline =
        exp::runCampaign(syntheticSpec(8, 1));

    exp::CampaignSpec seeded = syntheticSpec(8, 1);
    seeded.checkpointDir = dir;
    exp::runCampaign(std::move(seeded));

    const auto path = [&](std::size_t index) {
        return dir + "/trial_" + std::to_string(index) + ".ckpt";
    };
    const auto clobber = [&](std::size_t index, const std::string &text) {
        std::ofstream out(path(index),
                          std::ios::binary | std::ios::trunc);
        out << text;
    };
    // Three distinct failure shapes: truncated mid-record,
    // non-parseable garbage, zero bytes.
    std::stringstream intact;
    intact << std::ifstream(path(2), std::ios::binary).rdbuf();
    clobber(2, intact.str().substr(0, intact.str().size() / 2));
    clobber(5, "not a trial record\n");
    clobber(7, "");

    exp::CampaignSpec resumed = syntheticSpec(8, 1);
    resumed.checkpointDir = dir;
    std::atomic<unsigned> invocations{0};
    auto healthy = resumed.body;
    resumed.body = [healthy, &invocations](const exp::TrialContext &ctx) {
        ++invocations;
        return healthy(ctx);
    };
    const exp::CampaignResult second =
        exp::runCampaign(std::move(resumed));

    // Exactly the three corrupted trials re-ran; the five intact ones
    // restored — and the final aggregate is bit-identical to the
    // never-interrupted baseline.
    EXPECT_EQ(second.resumedTrials, 5u);
    EXPECT_EQ(invocations.load(), 3u);
    EXPECT_EQ(second.aggregate.toJson().dump(),
              baseline.aggregate.toJson().dump());
    EXPECT_EQ(exp::deterministicFingerprint(second),
              exp::deterministicFingerprint(baseline));
}
