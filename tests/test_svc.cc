/**
 * @file
 * Campaign service suite (DESIGN.md §13).
 *
 * Three layers:
 *
 *  - Pure units: frame splitting under pathological fragmentation,
 *    the shard scheduler's steal/death state machine, request
 *    round-trips, registry construction, and golden per-recipe
 *    fingerprints pinned across commits.
 *  - End-to-end determinism: a real daemon (in a thread) with real
 *    worker *processes* (fork + exec of this very test binary — see
 *    main() below) must produce fingerprints byte-identical to
 *    in-process CampaignRunner runs of the same request.
 *  - The hard cases the service exists for: a worker SIGKILLed
 *    mid-shard (steal + checkpoint-resume must keep the fingerprint
 *    byte-identical), and two clients submitting concurrently (each
 *    result matches its in-process twin and reproduces).
 *  - Observability (DESIGN.md §14): the stats request/reply frames,
 *    per-worker trial credits summing to campaign totals across any
 *    steal/kill history, structured error replies to malformed
 *    frames, obs-level fingerprint invariance through the service,
 *    and per-trial trace spills merging into one per-worker-lane
 *    Chrome trace.
 *  - Lifecycle + failure handling (DESIGN.md §16): cancellation with
 *    partial aggregates and resumable checkpoints, attach-after-
 *    disconnect with byte-identical fingerprints, the stuck-trial
 *    warn -> kill -> TimedOut ladder, graceful degradation with every
 *    worker dead (queue + bounded respawns + cancel), SIGTERM/drain
 *    persistence with restart auto-resume, and the
 *    whole e2e layer re-run under the ChaosPlan preset.
 *  - The scheduler alone (DESIGN.md §13, §16): svc::Scheduler on a
 *    fake clock with no process and no sleep, one test per failure
 *    path and a seeded property test over random interleavings.
 *  - Start and stop (DESIGN.md §13): a client that connects to a
 *    listener bound after it started and gives up at its deadline,
 *    and shutdowns that leave no worker process behind, also when
 *    they come before the workers have said hello.
 *
 * The e2e tests use the machine-less "selftest" recipe: microseconds
 * per trial, so kill/steal/respawn round-trips run in test time.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "exp/campaign.hh"
#include "exp/checkpoint.hh"
#include "obs/chrome_trace.hh"
#include "obs/prof.hh"
#include "svc/chaos.hh"
#include "svc/client.hh"
#include "svc/daemon.hh"
#include "svc/registry.hh"
#include "svc/scheduler.hh"
#include "svc/shard.hh"
#include "svc/wire.hh"
#include "svc/worker.hh"

using namespace uscope;

namespace
{

// ---------------------------------------------------------------------
// Wire framing.
// ---------------------------------------------------------------------

TEST(SvcWire, FrameRoundTripsThroughSplitter)
{
    const std::string payload = "{\"type\":\"ping\"}";
    const std::string frame = svc::encodeFrame(payload);
    ASSERT_EQ(frame.size(), payload.size() + 4);

    svc::FrameSplitter splitter;
    splitter.feed(frame.data(), frame.size());
    const auto got = splitter.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, payload);
    EXPECT_FALSE(splitter.next().has_value());
}

TEST(SvcWire, SplitterHandlesPathologicalFragmentation)
{
    // Three frames — including an empty payload — delivered one byte
    // at a time must pop intact and in order.
    const std::vector<std::string> payloads = {
        "first", "", std::string(1000, 'x')};
    std::string stream;
    for (const std::string &p : payloads)
        stream += svc::encodeFrame(p);

    svc::FrameSplitter splitter;
    std::vector<std::string> got;
    for (char c : stream) {
        splitter.feed(&c, 1);
        while (auto frame = splitter.next())
            got.push_back(*frame);
    }
    EXPECT_EQ(got, payloads);
    EXPECT_FALSE(splitter.corrupt());
}

TEST(SvcWire, OversizedFrameMarksStreamCorrupt)
{
    svc::FrameSplitter splitter;
    const char huge[4] = {'\x7f', '\x00', '\x00', '\x00'};
    splitter.feed(huge, 4);
    EXPECT_TRUE(splitter.corrupt());
    EXPECT_FALSE(splitter.next().has_value());
}

TEST(SvcWire, LengthPrefixSplitAcrossFeedsReassembles)
{
    // The length prefix itself arriving one byte per feed() — the
    // nastiest torn-write shape a chaos-injected sender produces.
    const std::string payload = "{\"type\":\"pong\"}";
    const std::string frame = svc::encodeFrame(payload);
    svc::FrameSplitter splitter;
    for (std::size_t i = 0; i < 4; ++i) {
        splitter.feed(frame.data() + i, 1);
        EXPECT_FALSE(splitter.next().has_value());
        EXPECT_FALSE(splitter.corrupt());
    }
    splitter.feed(frame.data() + 4, frame.size() - 4);
    const auto got = splitter.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, payload);
}

TEST(SvcWire, MegabyteFrameByteAtATimeSurvives)
{
    std::string payload(1u << 20, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>('a' + (i % 23));
    const std::string frame = svc::encodeFrame(payload);
    svc::FrameSplitter splitter;
    for (char c : frame)
        splitter.feed(&c, 1);
    const auto got = splitter.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, payload);
    EXPECT_FALSE(splitter.corrupt());
}

TEST(SvcWire, FrameAtExactlyTheCapIsNotCorrupt)
{
    // A prefix declaring exactly kMaxFrameBytes is legal: the
    // splitter waits for the payload without buffering anything it
    // was not fed (no pre-allocation on the declared length).
    static_assert(svc::kMaxFrameBytes == (256u << 20));
    svc::FrameSplitter splitter;
    const char at_cap[4] = {'\x10', '\x00', '\x00', '\x00'};
    splitter.feed(at_cap, 4);
    EXPECT_FALSE(splitter.corrupt());
    EXPECT_FALSE(splitter.next().has_value());
}

TEST(SvcWire, FrameOneOverTheCapIsCorrupt)
{
    svc::FrameSplitter splitter;
    const char over[4] = {'\x10', '\x00', '\x00', '\x01'};
    splitter.feed(over, 4);
    EXPECT_TRUE(splitter.corrupt());
    // Corruption is sticky: later well-formed frames are not parsed
    // out of an unsynchronizable stream.
    const std::string good = svc::encodeFrame("{}");
    splitter.feed(good.data(), good.size());
    EXPECT_FALSE(splitter.next().has_value());
    EXPECT_TRUE(splitter.corrupt());
}

TEST(SvcWire, ZeroLengthFramesBackToBackAllPop)
{
    std::string stream;
    for (int i = 0; i < 64; ++i)
        stream += svc::encodeFrame("");
    svc::FrameSplitter splitter;
    splitter.feed(stream.data(), stream.size());
    int popped = 0;
    while (auto frame = splitter.next()) {
        EXPECT_TRUE(frame->empty());
        ++popped;
    }
    EXPECT_EQ(popped, 64);
}

TEST(SvcWire, BufferedConnQueuesPastKernelAndDrainsInOrder)
{
    // The daemon-session mode: a peer that reads nothing while the
    // sender pushes more than the kernel buffers must never block
    // send() — bytes queue in user space (wantWrite() goes true) and
    // drain losslessly once flushOut() runs against a reading peer.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const int small = 16 * 1024;
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small,
                 sizeof small);
    svc::Conn sender(fds[0]);
    sender.setBuffered(true);

    const std::string blob(8 * 1024, 'z');
    constexpr int kFrames = 64;
    for (int i = 0; i < kFrames; ++i) {
        ASSERT_TRUE(sender.send(json::Value::object()
                                    .set("seq", i)
                                    .set("blob", blob)));
    }
    EXPECT_TRUE(sender.wantWrite()) << "512 KiB should not fit in a "
                                       "16 KiB kernel buffer";
    EXPECT_TRUE(sender.open());

    svc::FrameSplitter receiver;
    char buf[4096];
    int got = 0;
    for (int spins = 0; spins < 100000 && got < kFrames; ++spins) {
        sender.flushOut();
        const ssize_t n =
            ::recv(fds[1], buf, sizeof buf, MSG_DONTWAIT);
        if (n > 0)
            receiver.feed(buf, static_cast<std::size_t>(n));
        while (auto frame = receiver.next()) {
            const auto msg = json::Value::parse(*frame);
            ASSERT_TRUE(msg.has_value());
            ASSERT_NE(msg->get("seq"), nullptr);
            EXPECT_EQ(msg->get("seq")->asU64(),
                      static_cast<std::uint64_t>(got));
            ++got;
        }
    }
    EXPECT_EQ(got, kFrames);
    EXPECT_FALSE(sender.wantWrite());
    ::close(fds[1]);
}

// ---------------------------------------------------------------------
// Chaos plans.
// ---------------------------------------------------------------------

TEST(SvcChaos, OffAndEmptyParseInert)
{
    EXPECT_FALSE(svc::ChaosPlan::parse("").enabled());
    EXPECT_FALSE(svc::ChaosPlan::parse("off").enabled());
    EXPECT_FALSE(svc::ChaosPlan{}.enabled());
    // Anything but the two states warns and stays calm, like
    // USCOPE_FAULT_PLAN.
    EXPECT_FALSE(svc::ChaosPlan::parse("torn=0.5,seed=7").enabled());
    EXPECT_FALSE(svc::ChaosPlan::parse("storm").enabled());
}

TEST(SvcChaos, PresetIsEnabledButExcludesProcessKillers)
{
    const svc::ChaosPlan plan = svc::ChaosPlan::chaos();
    EXPECT_TRUE(plan.enabled());
    EXPECT_GT(plan.tornFrameRate, 0.0);
    EXPECT_GT(plan.heartbeatDropRate, 0.0);
    EXPECT_GT(plan.clientStallRate, 0.0);
    EXPECT_EQ(svc::ChaosPlan::parse("chaos").tornFrameRate,
              plan.tornFrameRate);
}

TEST(SvcChaos, TearPointsLandStrictlyInsideTheFrame)
{
    svc::ChaosPlan plan;
    plan.tornFrameRate = 1.0;
    svc::setChaosPlan(plan);
    for (int i = 0; i < 200; ++i) {
        const auto cut = svc::chaosTearPoint(64);
        ASSERT_TRUE(cut.has_value());
        EXPECT_GE(*cut, 1u);
        EXPECT_LT(*cut, 64u);
    }
    svc::setChaosPlan(svc::ChaosPlan{}); // back to inert
    EXPECT_FALSE(svc::chaosTearPoint(64).has_value());
}

// ---------------------------------------------------------------------
// Shard scheduler.
// ---------------------------------------------------------------------

TEST(SvcShard, InitialShardsPartitionTheGrid)
{
    svc::ShardScheduler sched(10, 3);
    ASSERT_EQ(sched.shardCount(), 3u);
    std::size_t covered = 0;
    std::size_t expected_lo = 0;
    for (std::size_t i = 0; i < sched.shardCount(); ++i) {
        const auto &s = sched.shard(i);
        EXPECT_EQ(s.lo, expected_lo);
        EXPECT_GT(s.hi, s.lo);
        covered += s.hi - s.lo;
        expected_lo = s.hi;
    }
    EXPECT_EQ(covered, 10u);
    EXPECT_EQ(expected_lo, 10u);
}

TEST(SvcShard, StealSplitsTheFattestLiveShard)
{
    svc::ShardScheduler sched(16, 2); // [0,8) and [8,16)
    const auto a = sched.assign(0);
    const auto b = sched.assign(1);
    ASSERT_TRUE(a && b);
    EXPECT_FALSE(a->stolenFrom || b->stolenFrom);

    // Worker 0 finishes everything; worker 1 reported 2 trials.
    for (std::size_t i = a->lo; i < a->hi; ++i)
        sched.onTrial(a->shard, i);
    sched.onShardDone(a->shard);
    sched.onTrial(b->shard, 8);
    sched.onTrial(b->shard, 9);

    // Re-assigning worker 0 must steal the upper half of worker 1's
    // remainder [10,16) — split at 13.
    const auto stolen = sched.assign(0);
    ASSERT_TRUE(stolen.has_value());
    ASSERT_TRUE(stolen->stolenFrom.has_value());
    EXPECT_EQ(*stolen->stolenFrom, b->shard);
    EXPECT_EQ(stolen->lo, 13u);
    EXPECT_EQ(stolen->hi, 16u);
    EXPECT_EQ(sched.shard(b->shard).hi, 13u); // victim shrunk
    EXPECT_EQ(sched.steals(), 1u);

    // Duplicate reports (the shrink raced a trial) are deduped.
    EXPECT_TRUE(sched.onTrial(b->shard, 13));
    EXPECT_FALSE(sched.onTrial(stolen->shard, 13));
    EXPECT_EQ(sched.completed(), 11u);
}

TEST(SvcShard, WorkerDeathReturnsLiveShardsResumably)
{
    svc::ShardScheduler sched(8, 2); // [0,4), [4,8)
    const auto a = sched.assign(0);
    const auto b = sched.assign(1);
    ASSERT_TRUE(a && b);
    sched.onTrial(a->shard, 0);
    sched.onTrial(a->shard, 1);

    EXPECT_EQ(sched.onWorkerDead(0), 1u);
    // The survivor (or a respawn) inherits from the low-water mark:
    // trials 0 and 1 are not re-dispatched.
    const auto resumed = sched.assign(1);
    // Worker 1 still owns shard b; a *pending* shard exists, so no
    // steal is needed.
    ASSERT_TRUE(resumed.has_value());
    EXPECT_FALSE(resumed->stolenFrom.has_value());
    EXPECT_EQ(resumed->shard, a->shard);
    EXPECT_EQ(resumed->lo, 2u);
    EXPECT_EQ(resumed->hi, 4u);
}

TEST(SvcShard, SeedDoneSkipsRestoredTrialsAtAssignment)
{
    svc::ShardScheduler sched(6, 1);
    sched.seedDone(0);
    sched.seedDone(1);
    EXPECT_EQ(sched.completed(), 2u);
    const auto a = sched.assign(0);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->lo, 2u);

    for (std::size_t i = 2; i < 6; ++i)
        sched.onTrial(a->shard, i);
    EXPECT_TRUE(sched.allDone());
}

TEST(SvcShard, FullyRestoredCampaignAssignsNothing)
{
    svc::ShardScheduler sched(4, 2);
    for (std::size_t i = 0; i < 4; ++i)
        sched.seedDone(i);
    EXPECT_TRUE(sched.allDone());
    EXPECT_FALSE(sched.assign(0).has_value());
}

// ---------------------------------------------------------------------
// Requests + registry.
// ---------------------------------------------------------------------

/** The worker's trial frame as it was once built: a json::Value tree,
 *  dumped and framed. */
std::string
treeTrialFrame(int worker, std::uint64_t campaign, std::uint64_t shard,
               const exp::TrialResult &result, bool restored)
{
    return svc::encodeFrame(
        json::Value::object()
            .set("type", "trial")
            .set("id", worker)
            .set("campaign", campaign)
            .set("shard", shard)
            .set("index", static_cast<std::uint64_t>(result.index))
            .set("restored", restored)
            .set("data", exp::CampaignCheckpoint::serializeTrial(result))
            .dump());
}

TEST(SvcWire, TrialFrameMatchesTheTreeDump)
{
    svc::CampaignRequest request;
    request.recipe = "aes_prefix_replay";
    request.trials = 1;
    request.masterSeed = 42;
    exp::CampaignSpec spec = svc::buildSpec(request);
    spec.workers = 1;
    const exp::TrialResult ok = exp::runCampaign(spec).trials.at(0);
    ASSERT_FALSE(ok.output.metrics.empty());
    ASSERT_FALSE(ok.output.payload.isNull());

    // A restored trial carries its payload as the raw checkpoint text.
    const exp::TrialResult restored = *exp::CampaignCheckpoint::parseTrial(
        exp::CampaignCheckpoint::serializeTrial(ok));
    exp::TrialResult failed = ok;
    failed.status = exp::TrialStatus::Failed;
    failed.attempts = 3;
    failed.error = "body threw \"bad\" \\ input\nsecond line\t\x01";

    const struct
    {
        const exp::TrialResult &result;
        bool restored;
    } cases[] = {{ok, false}, {restored, true}, {failed, false}};
    for (const auto &c : cases) {
        std::string frame = "bytes already queued";
        svc::appendTrialFrame(frame, 3, 1u << 20, 7, c.result, c.restored);
        ASSERT_TRUE(frame.starts_with("bytes already queued"));
        frame.erase(0, std::string_view("bytes already queued").size());
        EXPECT_EQ(frame, treeTrialFrame(3, 1u << 20, 7, c.result,
                                        c.restored));
        // And the daemon reads the record back out of it.
        svc::FrameSplitter splitter;
        splitter.feed(frame.data(), frame.size());
        const std::optional<std::string> payload = splitter.next();
        ASSERT_TRUE(payload.has_value());
        const std::optional<json::Value> msg = json::Value::parse(*payload);
        ASSERT_TRUE(msg.has_value());
        EXPECT_EQ(svc::stringField(*msg, "data"),
                  exp::CampaignCheckpoint::serializeTrial(c.result));
    }
}

TEST(SvcRegistry, RequestRoundTripsThroughJson)
{
    svc::CampaignRequest request;
    request.recipe = "selftest";
    request.name = "my-run";
    request.trials = 17;
    request.masterSeed = 0x1234;
    request.cycleBudget = 1000;
    request.maxRetries = 2;
    request.params = json::Value::object().set("work", 512);

    const auto parsed =
        svc::CampaignRequest::fromJson(request.toJson());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->recipe, request.recipe);
    EXPECT_EQ(parsed->name, request.name);
    EXPECT_EQ(parsed->trials, request.trials);
    EXPECT_EQ(parsed->masterSeed, request.masterSeed);
    EXPECT_EQ(parsed->cycleBudget, request.cycleBudget);
    EXPECT_EQ(parsed->maxRetries, request.maxRetries);
    EXPECT_EQ(parsed->identityKey(), request.identityKey());
}

TEST(SvcRegistry, MalformedRequestsAreRejected)
{
    EXPECT_FALSE(
        svc::CampaignRequest::fromJson(json::Value::object())
            .has_value());
    EXPECT_FALSE(
        svc::CampaignRequest::fromJson(json::Value("not an object"))
            .has_value());
    // "full" is not an obs level.
    EXPECT_FALSE(svc::CampaignRequest::fromJson(
                     json::Value::object()
                         .set("recipe", "selftest")
                         .set("obs", "full"))
                     .has_value());
}

TEST(SvcRegistry, BuildAppliesOverrides)
{
    for (const char *name : {"selftest", "fig10_port_contention",
                             "fig11_aes_replay", "aes_prefix_replay"}) {
        svc::CampaignRequest builtin;
        builtin.recipe = name;
        EXPECT_TRUE(static_cast<bool>(svc::buildSpec(builtin).body))
            << name;
    }
    svc::CampaignRequest unknown;
    unknown.recipe = "no_such_recipe";
    EXPECT_THROW(svc::buildSpec(unknown), SimFatal);

    svc::CampaignRequest request;
    request.recipe = "selftest";
    request.trials = 5;
    request.masterSeed = 99;
    const exp::CampaignSpec spec = svc::buildSpec(request);
    EXPECT_EQ(spec.trials, 5u);
    EXPECT_EQ(spec.masterSeed, 99u);
    EXPECT_EQ(spec.structureKey, "selftest");
    EXPECT_TRUE(spec.perTrialMetrics); // checkpoint compatibility
    ASSERT_TRUE(static_cast<bool>(spec.body));
}

TEST(SvcRegistry, RecipesHonourMachineFactory)
{
    // The simulator recipes build their attack machines from the
    // trial's config, so a spec's machine factory reaches them: an
    // explicit empty plan keeps them quiet (even under a chaos
    // USCOPE_FAULT_PLAN), a dense one makes interrupts fire.
    fault::FaultPlan dense;
    dense.interruptMeanGap = 800;
    const auto interrupts = [](const char *recipe,
                               const fault::FaultPlan &plan) {
        svc::CampaignRequest request;
        request.recipe = recipe;
        request.trials = 2;
        request.params = json::Value::object()
                             .set("samples", 40)
                             .set("replays", 2);
        exp::CampaignSpec spec = svc::buildSpec(request);
        spec.workers = 1;
        spec.machineFactory = [plan](const exp::TrialContext &) {
            os::MachineConfig config;
            config.fault = plan;
            return config;
        };
        const exp::CampaignResult result = exp::runCampaign(spec);
        const obs::MetricValue *fired =
            result.aggregate.metrics.find("fault.interrupts");
        return fired ? fired->counter : 0;
    };
    for (const char *recipe :
         {"fig10_port_contention", "fig11_aes_replay"}) {
        EXPECT_EQ(interrupts(recipe, fault::FaultPlan{}), 0u) << recipe;
        EXPECT_GT(interrupts(recipe, dense), 0u) << recipe;
    }
}

TEST(SvcRegistry, GoldenRecipeFingerprints)
{
    // Cross-commit pins, not arm-vs-arm checks: a change that moves
    // every arm of a comparison equally still fails here.  An explicit
    // empty FaultPlan keeps USCOPE_FAULT_PLAN=chaos from moving the
    // simulator recipes.  Update a literal only for a deliberate,
    // explained change to that recipe's results.
    struct Golden
    {
        const char *recipe;
        std::size_t trials;
        const char *fingerprint;
    };
    const Golden goldens[] = {
        {"selftest", 4, "0xbd1588c4444b280d"},
        {"fig10_port_contention", 2, "0xfa53047a6aacfc88"},
        {"fig11_aes_replay", 2, "0x6e0bf2b11c78848b"},
        {"aes_prefix_replay", 3, "0x6bcd8cc873cd74d4"},
    };
    for (const Golden &golden : goldens) {
        svc::CampaignRequest request;
        request.recipe = golden.recipe;
        request.trials = golden.trials;
        request.masterSeed = 42;
        exp::CampaignSpec spec = svc::buildSpec(request);
        spec.workers = 1;
        spec.machineFactory = [](const exp::TrialContext &) {
            os::MachineConfig config;
            config.fault = fault::FaultPlan{};
            return config;
        };
        EXPECT_EQ(exp::fnv1aHex(exp::deterministicFingerprint(
                      exp::runCampaign(spec))),
                  golden.fingerprint)
            << golden.recipe;
    }
}

TEST(SvcRegistry, UnknownRecipeThrows)
{
    svc::CampaignRequest request;
    request.recipe = "no-such-recipe";
    EXPECT_THROW(svc::buildSpec(request), SimFatal);
}

// ---------------------------------------------------------------------
// End-to-end: daemon + worker processes vs in-process runner.
// ---------------------------------------------------------------------

/** Short unique socket paths (sun_path is ~107 bytes). */
std::string
uniquePath(const char *tag)
{
    static int counter = 0;
    return "/tmp/uscope_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(counter++);
}

/** A daemon on its own thread, shut down via the client protocol. */
struct DaemonFixture
{
    svc::DaemonConfig config;
    std::thread thread;

    explicit DaemonFixture(svc::DaemonConfig cfg)
        : config(std::move(cfg))
    {
        thread = std::thread([this] {
            svc::Daemon daemon(config);
            daemon.run();
        });
    }

    ~DaemonFixture()
    {
        svc::Client client(config.socketPath);
        if (client.connected())
            client.shutdownDaemon();
        thread.join();
        if (!config.stateDir.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(config.stateDir, ec);
        }
    }
};

svc::CampaignRequest
selftestRequest(std::size_t trials, std::uint64_t seed)
{
    svc::CampaignRequest request;
    request.recipe = "selftest";
    request.trials = trials;
    request.masterSeed = seed;
    return request;
}

std::string
inProcessFingerprint(const svc::CampaignRequest &request,
                     unsigned workers = 1)
{
    exp::CampaignSpec spec = svc::buildSpec(request);
    spec.workers = workers;
    return exp::fnv1aHex(
        exp::deterministicFingerprint(exp::runCampaign(spec)));
}

/** Sum the per-worker {"run","restored"} credit map. */
std::pair<std::uint64_t, std::uint64_t>
creditTotals(const json::Value &credits)
{
    std::uint64_t run = 0;
    std::uint64_t restored = 0;
    for (const auto &[worker, credit] : credits.entries()) {
        const json::Value *r = credit.get("run");
        const json::Value *s = credit.get("restored");
        run += r ? r->asU64() : 0;
        restored += s ? s->asU64() : 0;
    }
    return {run, restored};
}

// ---------------------------------------------------------------------
// Start and stop: the backoff waits (svc::retryUntil) that replaced the
// fixed-interval connect and reap loops.
// ---------------------------------------------------------------------

TEST(SvcStartStop, ClientConnectsToAListenerThatBindsLater)
{
    const std::string path = uniquePath("late");
    int listen_fd = -1;
    std::thread binder([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        listen_fd = svc::listenUnix(path);
    });
    svc::Client client(path, 5000);
    binder.join();
    EXPECT_TRUE(client.connected());
    ::close(listen_fd);
    ::unlink(path.c_str());
}

TEST(SvcStartStop, ClientGivesUpAtItsDeadline)
{
    const auto start = std::chrono::steady_clock::now();
    svc::Client client(uniquePath("nobody"), 50);
    const auto waited = std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(client.connected());
    EXPECT_GE(waited, std::chrono::milliseconds(50));
    EXPECT_LT(waited, std::chrono::seconds(1));
}

TEST(SvcStartStop, ShutdownReapsEveryWorker)
{
    {
        svc::DaemonConfig config;
        config.socketPath = uniquePath("reap");
        config.workers = 2;
        DaemonFixture daemon(std::move(config));
        svc::Client client(daemon.config.socketPath);
        ASSERT_TRUE(client.connected());
        const svc::SubmitResult result =
            client.submit(selftestRequest(8, 3));
        ASSERT_TRUE(result.ok) << result.error;
    }
    // The daemon ran on a thread of this process, so its workers were
    // this process's children: none may be left, exited or not.
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

TEST(SvcStartStop, ShutdownBeforeWorkersSayHelloIsPrompt)
{
    // The fixture's destructor connects and asks for shutdown at once,
    // so the request lands while both workers are still exec'ing: they
    // hold no shard and must not wait out the 2 s reaping grace.
    svc::DaemonConfig config;
    config.socketPath = uniquePath("early");
    config.workers = 2;
    std::optional<DaemonFixture> daemon(std::in_place, std::move(config));
    const auto start = std::chrono::steady_clock::now();
    daemon.reset();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

TEST(SvcService, FingerprintMatchesInProcessRun)
{
    svc::DaemonConfig config;
    config.socketPath = uniquePath("e2e");
    config.workers = 2;
    DaemonFixture daemon(std::move(config));

    svc::Client client(daemon.config.socketPath);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.ping());

    const svc::CampaignRequest request = selftestRequest(24, 7);
    std::size_t updates_seen = 0;
    const svc::SubmitResult result =
        client.submit(request, /*stream_every=*/8,
                      [&](const json::Value &update) {
                          ++updates_seen;
                          // Partial aggregates stream in montonically.
                          const json::Value *completed =
                              update.get("completed");
                          ASSERT_NE(completed, nullptr);
                          EXPECT_LE(completed->asU64(), 24u);
                      });
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.totalTrials, 24u);
    EXPECT_GE(updates_seen, 1u);
    EXPECT_EQ(result.updates, updates_seen);

    // The whole point: dispatching over processes and sockets — with
    // whatever stealing happened to occur — changes nothing.
    EXPECT_EQ(result.fingerprint, inProcessFingerprint(request));
    // And the in-process reference is itself worker-count-invariant.
    EXPECT_EQ(result.fingerprint, inProcessFingerprint(request, 4));

    // Every trial is credited to exactly one worker, none restored.
    const auto [run, restored] = creditTotals(result.credits);
    EXPECT_EQ(run, 24u);
    EXPECT_EQ(restored, 0u);
}

TEST(SvcService, WorkerKilledMidShardResumesBitIdentically)
{
    // Worker 0's first incarnation SIGKILLs itself after 3 trials —
    // mid-shard, checkpoint files on disk, no goodbye.  The daemon
    // must detect the death, return the shard, respawn, and the
    // inheriting worker must restore the dead worker's completed
    // trials from the checkpoint and run the rest — with a final
    // fingerprint byte-identical to an uninterrupted in-process run.
    svc::DaemonConfig config;
    config.socketPath = uniquePath("kill");
    config.workers = 2;
    config.stateDir = uniquePath("killstate");
    config.worker0DieAfter = 3;
    DaemonFixture daemon(std::move(config));

    svc::Client client(daemon.config.socketPath);
    ASSERT_TRUE(client.connected());

    const svc::CampaignRequest request = selftestRequest(32, 9);
    const svc::SubmitResult result = client.submit(request);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_GE(result.workerDeaths, 1u);
    EXPECT_EQ(result.fingerprint, inProcessFingerprint(request));

    // Credits survive the kill: the dead worker's checkpointed
    // trials are either restored by the inheritor or re-run, but
    // every trial is credited exactly once.
    {
        const auto [run, restored] = creditTotals(result.credits);
        EXPECT_EQ(run + restored, 32u);
    }

    // Durability: the finished campaign's trials are all persisted,
    // so resubmitting the identical request is a pure restore — and
    // still the same bytes.
    const svc::SubmitResult again = client.submit(request);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.resumedTrials, 32u);
    EXPECT_EQ(again.workerDeaths, 0u);
    EXPECT_EQ(again.fingerprint, result.fingerprint);

    // A pure daemon-side restore dispatches nothing to workers, so
    // no worker earns a credit: run + restored + resumedTrials still
    // covers every trial exactly once.
    {
        const auto [run, restored] = creditTotals(again.credits);
        EXPECT_EQ(run + restored + again.resumedTrials, 32u);
        EXPECT_EQ(run, 0u);
    }
}

TEST(SvcService, TwoConcurrentClientsMatchTheirInProcessTwins)
{
    svc::DaemonConfig config;
    config.socketPath = uniquePath("pair");
    config.workers = 2;
    DaemonFixture daemon(std::move(config));

    // Two requests that differ only in their seed, submitted
    // concurrently on two connections, so their shards interleave on
    // the same worker pool.
    const svc::CampaignRequest first = selftestRequest(16, 42);
    const svc::CampaignRequest second = selftestRequest(16, 43);
    const auto submit = [&](const svc::CampaignRequest &request,
                            svc::SubmitResult *out) {
        svc::Client client(daemon.config.socketPath);
        ASSERT_TRUE(client.connected());
        *out = client.submit(request);
    };
    svc::SubmitResult first_result, second_result;
    std::thread first_thread(submit, std::cref(first), &first_result);
    std::thread second_thread(submit, std::cref(second),
                              &second_result);
    first_thread.join();
    second_thread.join();

    ASSERT_TRUE(first_result.ok) << first_result.error;
    ASSERT_TRUE(second_result.ok) << second_result.error;
    EXPECT_NE(first_result.fingerprint, second_result.fingerprint);

    // Sharing the pool changes nothing: each result equals its own
    // in-process twin, and a resubmission returns the same bytes.
    EXPECT_EQ(first_result.fingerprint, inProcessFingerprint(first));
    EXPECT_EQ(second_result.fingerprint, inProcessFingerprint(second));

    svc::Client client(daemon.config.socketPath);
    ASSERT_TRUE(client.connected());
    const svc::SubmitResult first_again = client.submit(first);
    ASSERT_TRUE(first_again.ok) << first_again.error;
    EXPECT_EQ(first_again.fingerprint, first_result.fingerprint);
}

TEST(SvcService, SimulatorRecipeMatchesInProcessRun)
{
    // One full-simulator recipe through the service: Fig.-10-shaped
    // port contention, small enough for test time.
    svc::DaemonConfig config;
    config.socketPath = uniquePath("fig10");
    config.workers = 2;
    DaemonFixture daemon(std::move(config));

    svc::Client client(daemon.config.socketPath);
    ASSERT_TRUE(client.connected());

    svc::CampaignRequest request;
    request.recipe = "fig10_port_contention";
    request.trials = 4;
    request.masterSeed = 42;
    request.params = json::Value::object()
                         .set("samples", 60)
                         .set("replays", 4);

    const svc::SubmitResult result = client.submit(request);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.fingerprint, inProcessFingerprint(request));
}

// ---------------------------------------------------------------------
// Observability: stats frames, structured errors, trace spills.
// ---------------------------------------------------------------------

TEST(SvcService, StatsExposeLiveAndLifetimeDaemonState)
{
    svc::DaemonConfig config;
    config.socketPath = uniquePath("stats");
    config.workers = 2;
    DaemonFixture daemon(std::move(config));

    // Baseline: a quiet daemon still answers with its worker table.
    {
        svc::Client client(daemon.config.socketPath);
        ASSERT_TRUE(client.connected());
        const auto stats = client.stats();
        ASSERT_TRUE(stats.has_value());
        ASSERT_NE(stats->get("workers"), nullptr);
        EXPECT_EQ(stats->get("workers")->asU64(), 2u);
        ASSERT_NE(stats->get("uptime_seconds"), nullptr);
        EXPECT_GE(stats->get("uptime_seconds")->asDouble(-1.0), 0.0);
        ASSERT_NE(stats->get("campaigns"), nullptr);
        EXPECT_TRUE(stats->get("campaigns")->items().empty());
        const json::Value *table = stats->get("worker_table");
        ASSERT_NE(table, nullptr);
        ASSERT_EQ(table->items().size(), 2u);
        for (const json::Value &worker : table->items()) {
            EXPECT_GT(worker.get("pid")->asU64(), 0u);
            EXPECT_GE(
                worker.get("heartbeat_age_seconds")->asDouble(-1.0),
                0.0);
        }
    }

    // A campaign slow enough to be observed mid-flight from a second
    // connection.
    svc::CampaignRequest request = selftestRequest(48, 5);
    request.params = json::Value::object().set("work", 1000000);

    std::atomic<bool> done{false};
    svc::SubmitResult result;
    std::thread submitter([&] {
        svc::Client client(daemon.config.socketPath);
        EXPECT_TRUE(client.connected());
        result = client.submit(request);
        done.store(true);
    });

    bool caught_live = false;
    while (!done.load() && !caught_live) {
        svc::Client client(daemon.config.socketPath);
        if (!client.connected())
            continue;
        const auto stats = client.stats();
        if (!stats.has_value())
            continue;
        const json::Value *campaigns = stats->get("campaigns");
        if (!campaigns || campaigns->items().empty())
            continue;

        const json::Value &campaign = campaigns->items().front();
        EXPECT_EQ(campaign.get("recipe")->asString(), "selftest");
        EXPECT_EQ(campaign.get("total")->asU64(), 48u);
        EXPECT_LE(campaign.get("completed")->asU64(), 48u);
        EXPECT_GE(campaign.get("age_seconds")->asDouble(-1.0), 0.0);
        const json::Value *shards = campaign.get("shards");
        ASSERT_NE(shards, nullptr);
        ASSERT_FALSE(shards->items().empty());
        const json::Value &shard = shards->items().front();
        EXPECT_NE(shard.get("lo"), nullptr);
        EXPECT_NE(shard.get("hi"), nullptr);
        EXPECT_NE(shard.get("owner"), nullptr);
        caught_live = true;
    }
    submitter.join();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(caught_live)
        << "campaign finished before stats could observe it";

    // Lifetime counters survive the campaign's completion.
    svc::Client client(daemon.config.socketPath);
    ASSERT_TRUE(client.connected());
    const auto stats = client.stats();
    ASSERT_TRUE(stats.has_value());
    const json::Value *metrics = stats->get("metrics");
    ASSERT_NE(metrics, nullptr);
    const json::Value *completed =
        metrics->get("svc.daemon.campaigns_completed");
    ASSERT_NE(completed, nullptr);
    EXPECT_GE(completed->asU64(), 1u);
    const json::Value *trials =
        metrics->get("svc.daemon.trials_completed");
    ASSERT_NE(trials, nullptr);
    EXPECT_GE(trials->asU64(), 48u);
    const json::Value *requests =
        metrics->get("svc.daemon.stats_requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_GE(requests->asU64(), 2u);
    // The daemon profiles its own phases unconditionally.
    const json::Value *prof = stats->get("prof");
    ASSERT_NE(prof, nullptr);
    EXPECT_NE(prof->get("prof.svc.dispatch"), nullptr);
}

namespace
{

/** Read one length-prefixed frame off a raw socket (5s timeout).
 *  Bytes past that frame stay in @p splitter for the next call. */
std::optional<std::string>
recvFrame(int fd, svc::FrameSplitter &splitter)
{
    char buf[4096];
    for (int spins = 0; spins < 5000; ++spins) {
        if (auto frame = splitter.next())
            return frame;
        const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) {
            splitter.feed(buf, static_cast<std::size_t>(n));
        } else if (n == 0) {
            return std::nullopt;
        } else {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
    }
    return std::nullopt;
}

std::optional<std::string>
recvFrame(int fd)
{
    svc::FrameSplitter splitter;
    return recvFrame(fd, splitter);
}

} // namespace

TEST(SvcService, MalformedFrameGetsStructuredErrorReply)
{
    svc::DaemonConfig config;
    config.socketPath = uniquePath("badframe");
    config.workers = 1;
    DaemonFixture daemon(std::move(config));

    // Wait for the socket to exist via the normal client, then talk
    // raw bytes on a second connection.
    {
        svc::Client probe(daemon.config.socketPath);
        ASSERT_TRUE(probe.connected());
        ASSERT_TRUE(probe.ping());
    }
    const int fd = svc::connectUnix(daemon.config.socketPath);
    ASSERT_GE(fd, 0);

    const std::string bad = svc::encodeFrame("this is not json");
    ASSERT_EQ(::send(fd, bad.data(), bad.size(), 0),
              static_cast<ssize_t>(bad.size()));

    const std::optional<std::string> reply = recvFrame(fd);
    ASSERT_TRUE(reply.has_value()) << "no error reply";
    const std::optional<json::Value> parsed =
        json::Value::parse(*reply);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_NE(parsed->get("type"), nullptr);
    EXPECT_EQ(parsed->get("type")->asString(), "error");
    ASSERT_NE(parsed->get("message"), nullptr);
    EXPECT_NE(parsed->get("message")->asString().find("malformed"),
              std::string::npos);

    // The session survives the bad frame: a valid ping still pongs.
    const std::string ping = svc::encodeFrame("{\"type\":\"ping\"}");
    ASSERT_EQ(::send(fd, ping.data(), ping.size(), 0),
              static_cast<ssize_t>(ping.size()));
    const std::optional<std::string> pong = recvFrame(fd);
    ASSERT_TRUE(pong.has_value());
    EXPECT_NE(pong->find("pong"), std::string::npos);
    ::close(fd);

    // And the daemon tallied it.
    svc::Client client(daemon.config.socketPath);
    ASSERT_TRUE(client.connected());
    const auto stats = client.stats();
    ASSERT_TRUE(stats.has_value());
    const json::Value *metrics = stats->get("metrics");
    ASSERT_NE(metrics, nullptr);
    const json::Value *badFrames =
        metrics->get("svc.daemon.bad_frames");
    ASSERT_NE(badFrames, nullptr);
    EXPECT_GE(badFrames->asU64(), 1u);
}

TEST(SvcService, ObsLevelsDoNotPerturbServiceFingerprints)
{
    // No state dir: the second submission re-executes rather than
    // restoring, so the comparison is between two real runs.
    svc::DaemonConfig config;
    config.socketPath = uniquePath("obsinv");
    config.workers = 2;
    DaemonFixture daemon(std::move(config));

    svc::Client client(daemon.config.socketPath);
    ASSERT_TRUE(client.connected());

    svc::CampaignRequest request = selftestRequest(24, 13);
    request.obs = obs::ObsLevel::Off;
    const svc::SubmitResult dark = client.submit(request);
    ASSERT_TRUE(dark.ok) << dark.error;

    request.obs = obs::ObsLevel::Trace;
    const svc::SubmitResult lit = client.submit(request);
    ASSERT_TRUE(lit.ok) << lit.error;

    EXPECT_EQ(dark.fingerprint, lit.fingerprint);
    EXPECT_EQ(dark.fingerprint, inProcessFingerprint(request));
}

TEST(SvcService, TraceSpillsLandInStateDirAndMergeAcrossWorkers)
{
    svc::DaemonConfig config;
    config.socketPath = uniquePath("spill");
    config.workers = 2;
    config.stateDir = uniquePath("spillstate");
    DaemonFixture daemon(std::move(config));

    svc::Client client(daemon.config.socketPath);
    ASSERT_TRUE(client.connected());

    // A real-simulator recipe, so the spills carry actual events.  Four
    // monitor samples keep each spill near 1,600 events, because
    // reading, merging and re-parsing the spills is most of this
    // test's time under TSan.
    svc::CampaignRequest request;
    request.recipe = "fig10_port_contention";
    request.trials = 4;
    request.masterSeed = 21;
    request.obs = obs::ObsLevel::Trace;
    request.params = json::Value::object()
                         .set("samples", 4)
                         .set("replays", 2);

    const svc::SubmitResult result = client.submit(request);
    ASSERT_TRUE(result.ok) << result.error;

    // Workers spill per-trial traces under <campaign state>/traces.
    std::string spill_dir;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(
             daemon.config.stateDir)) {
        if (entry.is_directory() &&
            entry.path().filename() == "traces")
            spill_dir = entry.path().string();
    }
    ASSERT_FALSE(spill_dir.empty())
        << "no traces/ dir under " << daemon.config.stateDir;

    const std::vector<obs::TraceSpill> spills =
        obs::loadTraceSpills(spill_dir);
    ASSERT_GE(spills.size(), 4u);
    for (const obs::TraceSpill &spill : spills)
        EXPECT_FALSE(spill.log.empty())
            << "empty spill from worker " << spill.worker;

    // The svc_client trace path: merge into one multi-lane document.
    const std::string merged = obs::mergeChromeTraces(spills);
    EXPECT_NE(merged.find("traceEvents"), std::string::npos);
    EXPECT_NE(merged.find("worker "), std::string::npos);
    const std::optional<json::Value> doc = json::Value::parse(merged);
    ASSERT_TRUE(doc.has_value());
    EXPECT_FALSE(doc->get("traceEvents")->items().empty());
}

// ---------------------------------------------------------------------
// Lifecycle + failure handling (DESIGN.md §16).
// ---------------------------------------------------------------------

/**
 * A quick selftest request whose trial @p hold_index (by default the
 * last) sleeps @p hold_ms before computing, so a cancel, an attach or
 * a drain lands while the campaign still runs.  The hold changes no
 * result: its fingerprint is that of selftestRequest(@p trials,
 * @p seed).
 */
svc::CampaignRequest
heldRequest(std::size_t trials, std::uint64_t seed,
            std::uint64_t hold_ms,
            std::optional<std::uint64_t> hold_index = std::nullopt)
{
    svc::CampaignRequest request = selftestRequest(trials, seed);
    request.params =
        json::Value::object()
            .set("hang_index", hold_index.value_or(trials - 1))
            .set("hang_ms", hold_ms);
    return request;
}

std::uint64_t
metricU64(const svc::DaemonConfig &config, const char *key)
{
    svc::Client client(config.socketPath);
    if (!client.connected())
        return 0;
    const auto stats = client.stats();
    if (!stats.has_value())
        return 0;
    const json::Value *metrics = stats->get("metrics");
    const json::Value *v = metrics ? metrics->get(key) : nullptr;
    return v ? v->asU64() : 0;
}

TEST(SvcLifecycle, CancelReturnsPartialAndResumeFinishesIdentically)
{
    svc::DaemonConfig config;
    config.socketPath = uniquePath("cancel");
    config.workers = 2;
    config.stateDir = uniquePath("cancelstate");
    DaemonFixture daemon(std::move(config));

    // The last trial holds for 1 s: far longer than a cancel takes to
    // land, far shorter than the daemon's 10 s stuck-trial warning.
    const svc::CampaignRequest request = heldRequest(64, 11, 1000);

    // Submit on one connection; cancel by request identity from a
    // second once at least one trial has streamed in (so the resume
    // below provably restores something).
    std::atomic<bool> saw_update{false};
    svc::SubmitResult result;
    std::thread submitter([&] {
        svc::Client client(daemon.config.socketPath);
        ASSERT_TRUE(client.connected());
        result = client.submit(request, /*stream_every=*/1,
                               [&](const json::Value &) {
                                   saw_update.store(true);
                               });
    });
    while (!saw_update.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    svc::Client canceller(daemon.config.socketPath);
    ASSERT_TRUE(canceller.connected());
    const svc::SubmitResult cancel_ack = canceller.cancel(request);
    ASSERT_TRUE(cancel_ack.cancelled) << cancel_ack.error;
    EXPECT_FALSE(cancel_ack.partialJson.empty());

    // The owner's submit() resolves to cancelled with the same
    // partial aggregate — not a hang, not a bare error.
    submitter.join();
    EXPECT_TRUE(result.cancelled);
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.partialJson.empty());
    const auto partial = json::Value::parse(result.partialJson);
    ASSERT_TRUE(partial.has_value());
    ASSERT_NE(partial->get("ok"), nullptr);
    EXPECT_GE(partial->get("ok")->asU64(), 1u);
    EXPECT_LT(partial->get("ok")->asU64(), 64u);

    // The checkpoint survived the cancel: resubmitting resumes the
    // already-completed trials and the final fingerprint is still
    // byte-identical to a never-cancelled run.
    svc::Client client(daemon.config.socketPath);
    ASSERT_TRUE(client.connected());
    const svc::SubmitResult resumed = client.submit(request);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_GE(resumed.resumedTrials, 1u);
    EXPECT_EQ(resumed.fingerprint,
              inProcessFingerprint(selftestRequest(64, 11)));

    EXPECT_GE(metricU64(daemon.config,
                        "svc.daemon.campaigns_cancelled"),
              1u);
}

TEST(SvcLifecycle, CancelUnknownCampaignSaysNotFound)
{
    svc::DaemonConfig config;
    config.socketPath = uniquePath("cnone");
    config.workers = 1;
    DaemonFixture daemon(std::move(config));

    svc::Client client(daemon.config.socketPath);
    ASSERT_TRUE(client.connected());
    const svc::SubmitResult ack = client.cancel(std::uint64_t{9999});
    EXPECT_FALSE(ack.cancelled);
    EXPECT_TRUE(ack.notFound) << ack.error;
}

TEST(SvcLifecycle, AttachAfterDisconnectMatchesUninterruptedRun)
{
    svc::DaemonConfig config;
    config.socketPath = uniquePath("attach");
    config.workers = 2;
    config.stateDir = uniquePath("attachstate");
    DaemonFixture daemon(std::move(config));
    {
        svc::Client probe(daemon.config.socketPath);
        ASSERT_TRUE(probe.connected());
        ASSERT_TRUE(probe.ping());
    }

    // Submit over a raw socket, read the accepted frame, then drop
    // the connection — the crash-mid-submit shape.  The campaign must
    // keep running ownerless.
    const svc::CampaignRequest request = heldRequest(32, 23, 500);
    const int fd = svc::connectUnix(daemon.config.socketPath);
    ASSERT_GE(fd, 0);
    const std::string submit = svc::encodeFrame(
        json::Value::object()
            .set("type", "submit")
            .set("request", request.toJson())
            .dump(-1));
    ASSERT_EQ(::send(fd, submit.data(), submit.size(), 0),
              static_cast<ssize_t>(submit.size()));
    const std::optional<std::string> accepted = recvFrame(fd);
    ASSERT_TRUE(accepted.has_value());
    EXPECT_NE(accepted->find("accepted"), std::string::npos);
    ::close(fd);

    // Reconnect and attach by request identity.  Falling back to
    // submit() covers the race where the campaign finished (or was
    // never accepted) before the attach landed — durable state makes
    // that path a resume with the same bytes.
    svc::Client client(daemon.config.socketPath);
    ASSERT_TRUE(client.connected());
    svc::SubmitResult result = client.attach(request);
    if (result.notFound)
        result = client.submit(request);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.fingerprint,
              inProcessFingerprint(selftestRequest(32, 23)));
}

TEST(SvcLifecycle, WorkerFlagTyposAreUsageErrors)
{
    // Junk never becomes 0, and a 0 ms heartbeat (which would spin) is
    // refused: each exits 2 before the worker connects anywhere.
    for (const char *bad :
         {"--id=x", "--heartbeat-ms=0", "--heartbeat-ms=5ms",
          "--die-after-trials=-1", "--log-level=degub"}) {
        char *argv[] = {const_cast<char *>("test_svc"),
                        const_cast<char *>(svc::kWorkerArg),
                        const_cast<char *>(bad)};
        int exit_code = 0;
        testing::internal::CaptureStderr();
        EXPECT_TRUE(svc::maybeRunWorkerMain(3, argv, &exit_code)) << bad;
        testing::internal::GetCapturedStderr();
        EXPECT_EQ(exit_code, 2) << bad;
    }
}

TEST(SvcLifecycle, SurvivesEveryWorkerDeadQueuesAndCancels)
{
    // Workers that die instantly at exec: the daemon must stay up,
    // answer pings and stats, queue the campaign, respawn each slot no
    // faster than the fixed respawn delay allows, and still honor a
    // cancel — graceful degradation, not an error cascade.
    const auto started = std::chrono::steady_clock::now();
    svc::DaemonConfig config;
    config.socketPath = uniquePath("deadpool");
    config.workers = 2;
    config.workerExe = "/bin/false";
    DaemonFixture daemon(std::move(config));

    svc::Client probe(daemon.config.socketPath);
    ASSERT_TRUE(probe.connected());
    ASSERT_TRUE(probe.ping());

    const svc::CampaignRequest queued = selftestRequest(8, 3);
    svc::SubmitResult queued_result;
    std::thread submitter([&] {
        svc::Client client(daemon.config.socketPath);
        ASSERT_TRUE(client.connected());
        queued_result = client.submit(queued);
    });
    while (metricU64(daemon.config,
                     "svc.daemon.campaigns_accepted") < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // Let the crash loop run for a few respawn delays.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    const auto stats = probe.stats();
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - started)
                               .count();
    ASSERT_TRUE(stats.has_value());
    const json::Value *campaigns = stats->get("campaigns");
    ASSERT_NE(campaigns, nullptr);
    ASSERT_EQ(campaigns->items().size(), 1u);
    EXPECT_EQ(campaigns->items().front().get("completed")->asU64(), 0u);
    // Spawn k of a slot happens no earlier than (k - 1) respawn delays
    // after the daemon started, so the delay bounds the crash loop.
    const json::Value *table = stats->get("worker_table");
    ASSERT_NE(table, nullptr);
    ASSERT_EQ(table->items().size(), 2u);
    for (const json::Value &worker : table->items()) {
        const double spawns =
            static_cast<double>(worker.get("spawns")->asU64());
        // At least two respawn delays fit in the 600 ms wait, so a
        // slot that never respawned would show one spawn.
        EXPECT_GE(spawns, 2.0);
        EXPECT_LE(spawns, elapsed / svc::kRespawnDelaySec + 1.0)
            << "elapsed " << elapsed << "s";
    }
    EXPECT_GE(metricU64(daemon.config, "svc.daemon.worker_deaths"),
              1u);

    // Cancel unwedges the queued submitter cleanly.
    const svc::SubmitResult ack = probe.cancel(queued);
    EXPECT_TRUE(ack.cancelled) << ack.error;
    submitter.join();
    EXPECT_TRUE(queued_result.cancelled);
}

TEST(SvcLifecycle, StuckTrialEscalatesWarnKillTimedOut)
{
    // Trial 2 hangs for a nominal minute.  With an aggressive ladder
    // (warn at 50 ms, SIGKILL at 250 ms, two kills => TimedOut) the
    // daemon must clear it in test time: kill the worker twice, record
    // trial 2 as TimedOut, and let the respawned worker finish the
    // rest — a *measurement* of the hang, not a service failure.
    svc::DaemonConfig config;
    config.socketPath = uniquePath("stuck");
    config.workers = 1;
    config.heartbeatMs = 20;
    config.heartbeatTimeoutSec = 0.25;
    config.trialWarnSec = 0.05;
    config.trialKillLimit = 2;
    DaemonFixture daemon(std::move(config));

    svc::CampaignRequest request = selftestRequest(5, 17);
    request.params = json::Value::object()
                         .set("hang_index", 2)
                         .set("hang_ms", 60000);

    svc::Client client(daemon.config.socketPath);
    ASSERT_TRUE(client.connected());
    const svc::SubmitResult result = client.submit(request);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.totalTrials, 5u);
    EXPECT_GE(result.workerDeaths, 2u);

    const auto parsed = json::Value::parse(result.resultJson);
    ASSERT_TRUE(parsed.has_value());
    const json::Value *aggregate = parsed->get("aggregate");
    ASSERT_NE(aggregate, nullptr);
    ASSERT_NE(aggregate->get("timed_out"), nullptr);
    EXPECT_EQ(aggregate->get("timed_out")->asU64(), 1u);
    EXPECT_EQ(aggregate->get("ok")->asU64(), 4u);

    EXPECT_GE(metricU64(daemon.config, "svc.daemon.trial_warns"),
              1u);
    EXPECT_GE(metricU64(daemon.config, "svc.daemon.trial_timeouts"),
              1u);
}

TEST(SvcLifecycle, DrainPersistsManifestAndRestartAutoResumes)
{
    const std::string state_dir = uniquePath("drainstate");
    const std::string socket_a = uniquePath("drain_a");
    // Trial 1 holds for 1 s: the drain lands while it runs, and the
    // worker stops at the trial boundary that follows, leaving trials
    // 2..47 for the restart.
    const svc::CampaignRequest request = heldRequest(48, 29, 1000, 1);

    // Daemon A: drained mid-campaign via the client protocol (the
    // SIGTERM handler funnels into the same beginDrain path).  Not a
    // DaemonFixture — drain *is* its shutdown, and the state dir must
    // outlive it.  One worker: a second would steal every trial but
    // the held one, and the campaign would finish before the drain.
    std::thread daemon_a([&] {
        svc::DaemonConfig config;
        config.socketPath = socket_a;
        config.workers = 1;
        config.stateDir = state_dir;
        svc::Daemon daemon(std::move(config));
        daemon.run();
    });

    std::atomic<bool> saw_update{false};
    svc::SubmitResult interrupted;
    std::thread submitter([&] {
        svc::Client client(socket_a);
        ASSERT_TRUE(client.connected());
        interrupted = client.submit(request, /*stream_every=*/1,
                                    [&](const json::Value &) {
                                        saw_update.store(true);
                                    });
    });
    while (!saw_update.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    {
        // Drain and a submit pipelined in one write: the daemon reads
        // both before it can exit, so the submit deterministically
        // meets a draining daemon and is refused with an error frame.
        const int fd = svc::connectUnix(socket_a);
        ASSERT_GE(fd, 0);
        const std::string frames =
            svc::encodeFrame(
                json::Value::object().set("type", "drain").dump(-1)) +
            svc::encodeFrame(json::Value::object()
                                 .set("type", "submit")
                                 .set("request",
                                      selftestRequest(8, 31).toJson())
                                 .dump(-1));
        ASSERT_EQ(::send(fd, frames.data(), frames.size(), 0),
                  static_cast<ssize_t>(frames.size()));
        svc::FrameSplitter splitter;
        const std::optional<std::string> ack = recvFrame(fd, splitter);
        ASSERT_TRUE(ack.has_value());
        EXPECT_NE(ack->find("\"draining\""), std::string::npos) << *ack;
        const std::optional<std::string> refusal =
            recvFrame(fd, splitter);
        ASSERT_TRUE(refusal.has_value());
        const auto parsed = json::Value::parse(*refusal);
        ASSERT_TRUE(parsed.has_value()) << *refusal;
        EXPECT_EQ(svc::stringField(*parsed, "type"), "error");
        EXPECT_NE(svc::stringField(*parsed, "message").find("draining"),
                  std::string::npos)
            << *refusal;
        ::close(fd);
    }
    daemon_a.join();
    submitter.join();
    // The drain stopped the campaign short of a result; the owner
    // got an informational frame + EOF, never a fake success.
    EXPECT_FALSE(interrupted.ok);
    ::unlink(socket_a.c_str());

    // Daemon B on the same state dir auto-resumes the pending
    // manifest with no client attached; attach-by-identity picks the
    // resumed campaign back up (submit fallback covers it having
    // already finished) and the bytes match an uninterrupted run.
    svc::DaemonConfig config_b;
    config_b.socketPath = uniquePath("drain_b");
    config_b.workers = 2;
    config_b.stateDir = state_dir;
    DaemonFixture daemon_b(std::move(config_b));

    svc::Client client(daemon_b.config.socketPath);
    ASSERT_TRUE(client.connected());
    svc::SubmitResult result = client.attach(request);
    if (result.notFound)
        result = client.submit(request);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.fingerprint,
              inProcessFingerprint(selftestRequest(48, 29)));
    // Work done before the drain was not thrown away.
    const auto [run, restored] = creditTotals(result.credits);
    EXPECT_GE(restored + result.resumedTrials, 1u)
        << "drain checkpointed nothing";
    EXPECT_EQ(run + restored + result.resumedTrials, 48u);
}

TEST(SvcLifecycle, ChaosPresetLeavesFingerprintsByteIdentical)
{
    // The whole point of the chaos harness: torn frames, dropped and
    // delayed heartbeats, stalling clients — and the fingerprint
    // still bit-compares against a calm in-process run.  setenv
    // covers the re-exec'd workers; setChaosPlan covers the
    // in-process daemon + client.
    ::setenv("USCOPE_SVC_CHAOS", "chaos", 1);
    svc::setChaosPlan(svc::ChaosPlan::chaos());
    struct Restore
    {
        ~Restore()
        {
            svc::setChaosPlan(svc::ChaosPlan{});
            ::unsetenv("USCOPE_SVC_CHAOS");
        }
    } restore;

    svc::DaemonConfig config;
    config.socketPath = uniquePath("chaos");
    config.workers = 2;
    config.stateDir = uniquePath("chaosstate");
    DaemonFixture daemon(std::move(config));

    svc::Client client(daemon.config.socketPath);
    ASSERT_TRUE(client.connected());
    const svc::CampaignRequest request = selftestRequest(32, 37);
    std::size_t updates = 0;
    const svc::SubmitResult result =
        client.submit(request, /*stream_every=*/4,
                      [&](const json::Value &) { ++updates; });
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_GE(updates, 1u);
    EXPECT_EQ(result.fingerprint, inProcessFingerprint(request));
}

// ---------------------------------------------------------------------
// The scheduler on a fake clock (DESIGN.md §13, §16): no process, no
// socket, no sleep.  The rig plays the daemon and its workers: it
// answers each Spawn with a made-up pid, says hello for the workers,
// reports the trials of the shards they are sent (computed in-process)
// and fails the test when an action targets a worker that is dead or
// has not said hello.
// ---------------------------------------------------------------------

using Kind = svc::Action::Kind;
using Ev = svc::Event::Kind;

svc::DaemonConfig
rigConfig(unsigned workers, std::string state_dir = {})
{
    svc::DaemonConfig config;
    config.socketPath = "unused";
    config.workers = workers;
    config.stateDir = std::move(state_dir);
    return config;
}

json::Value
frame(const char *type)
{
    return json::Value::object().set("type", type);
}

struct SchedRig
{
    /** One played worker process. */
    struct Worker
    {
        bool alive = false;
        bool connected = false;
        bool busy = false;
        /** Skipped by step() (a wedged process). */
        bool silent = false;
        std::uint64_t campaign = 0;
        std::size_t shard = 0;
        std::size_t lo = 0;
        std::size_t next = 0;
        std::size_t hi = 0;
        /** A shrink not read yet (lagShrinks): the steal overlap. */
        std::optional<std::size_t> shrinkTo;
        std::shared_ptr<exp::CampaignCheckpoint> checkpoint;
    };

    svc::Scheduler sched;
    double now = 0.0;
    std::vector<Worker> workers;
    /** Every frame sent to each client session, in order. */
    std::map<std::uint64_t, std::vector<json::Value>> inbox;
    /** Pending manifests by path, as the daemon would have them. */
    std::map<std::string, std::string> manifests;
    /** The in-process run of each campaign id, whose trials the
     *  played workers report. */
    std::map<std::uint64_t, exp::CampaignResult> runs;
    std::vector<svc::Action> last;
    std::size_t spawns = 0;
    std::size_t kills = 0;
    bool stopped = false;
    /** Played workers honour a shrink only at a later step, chosen by
     *  this stream, so they may report past the new boundary. */
    Rng *lagShrinks = nullptr;

    explicit SchedRig(const svc::DaemonConfig &config)
        : sched(config), workers(config.workers)
    {
    }

    std::size_t
    count(Kind kind) const
    {
        return static_cast<std::size_t>(std::count_if(
            last.begin(), last.end(),
            [&](const svc::Action &a) { return a.kind == kind; }));
    }

    /** Frames of @p type the last event sent to worker @p id. */
    std::vector<json::Value>
    sentTo(std::size_t id, const char *type) const
    {
        std::vector<json::Value> out;
        for (const svc::Action &a : last)
            if (a.kind == Kind::ToWorker && a.target == id &&
                svc::stringField(a.frame, "type") == type)
                out.push_back(a.frame);
        return out;
    }

    /** The last frame of @p type client @p key received. */
    std::optional<json::Value>
    received(std::uint64_t key, const char *type)
    {
        const std::vector<json::Value> &frames = inbox[key];
        for (auto it = frames.rbegin(); it != frames.rend(); ++it)
            if (svc::stringField(*it, "type") == type)
                return *it;
        return std::nullopt;
    }

    /** Carry out one event's actions, as the daemon would. */
    const std::vector<svc::Action> &
    absorb(const svc::Scheduler::Actions &actions)
    {
        // A copy: answering a Spawn calls back into the scheduler.
        last = actions;
        for (const svc::Action &a : last) {
            const auto id = static_cast<std::size_t>(a.target);
            switch (a.kind) {
              case Kind::ToClient:
                inbox[a.target].push_back(a.frame);
                break;
              case Kind::ToWorker:
                EXPECT_TRUE(id < workers.size() && workers[id].connected)
                    << "frame to worker " << id
                    << ", which is dead or has not said hello";
                if (id < workers.size() && workers[id].connected)
                    deliver(workers[id], a.frame);
                break;
              case Kind::Spawn:
                EXPECT_FALSE(workers[id].alive) << "spawn of live " << id;
                workers[id] = Worker{};
                workers[id].alive = true;
                ++spawns;
                sched.spawned(now, static_cast<int>(id),
                              1000 + static_cast<long>(id));
                break;
              case Kind::Kill:
                EXPECT_TRUE(workers[id].alive) << "kill of dead " << id;
                workers[id] = Worker{};
                ++kills;
                break;
              case Kind::WriteManifest:
                manifests[a.path] = a.frame.dump();
                break;
              case Kind::RemoveManifest:
                manifests.erase(a.path);
                break;
              case Kind::Stop:
                stopped = true;
                break;
            }
        }
        return last;
    }

    void
    deliver(Worker &w, const json::Value &msg)
    {
        const std::string type = svc::stringField(msg, "type");
        if (type == "shrink" && svc::field(msg, "shard") == w.shard) {
            const std::size_t hi = svc::field(msg, "hi");
            if (lagShrinks)
                w.shrinkTo = std::min(w.shrinkTo.value_or(hi), hi);
            else
                w.hi = std::min(w.hi, hi);
        }
        if (type != "shard")
            return;
        w.busy = true;
        w.campaign = svc::field(msg, "campaign");
        w.shard = svc::field(msg, "shard");
        w.lo = w.next = svc::field(msg, "lo");
        w.hi = svc::field(msg, "hi");
        w.shrinkTo.reset();
        const std::optional<svc::CampaignRequest> request =
            svc::CampaignRequest::fromJson(*msg.get("request"));
        exp::CampaignSpec spec = svc::buildSpec(*request);
        if (!runs.count(w.campaign))
            runs[w.campaign] = exp::runCampaign(spec);
        spec.checkpointDir = svc::stringField(msg, "checkpoint_dir");
        w.checkpoint.reset();
        if (!spec.checkpointDir.empty())
            w.checkpoint = std::make_shared<exp::CampaignCheckpoint>(spec);
    }

    const std::vector<svc::Action> &
    event(Ev kind, std::uint64_t source = 0,
          const json::Value *msg = nullptr)
    {
        return absorb(sched.on({kind, now, source, msg, {}}));
    }

    const std::vector<svc::Action> &
    tick(double dt = 0.0)
    {
        now += dt;
        return event(Ev::Tick);
    }

    void
    hello(std::size_t id)
    {
        workers[id].connected = true;
        event(Ev::WorkerHello, id);
    }

    /** The first tick spawns every slot; each says hello. */
    void
    boot()
    {
        tick();
        for (std::size_t id = 0; id < workers.size(); ++id)
            hello(id);
    }

    const std::vector<svc::Action> &
    client(std::uint64_t key, const json::Value &msg)
    {
        return event(Ev::ClientFrame, key, &msg);
    }

    const std::vector<svc::Action> &
    submit(std::uint64_t key, const svc::CampaignRequest &request,
           std::uint64_t stream_every = 0)
    {
        return client(key, frame("submit")
                               .set("request", request.toJson())
                               .set("stream_every", stream_every));
    }

    json::Value
    stats()
    {
        client(99, frame("stats"));
        return inbox[99].back();
    }

    const std::vector<svc::Action> &
    fromWorker(std::size_t id, const json::Value &msg)
    {
        return event(Ev::WorkerFrame, id, &msg);
    }

    /** Worker @p id reports trial @p index of its current shard. */
    const std::vector<svc::Action> &
    report(std::size_t id, std::size_t index)
    {
        const Worker &w = workers[id];
        const exp::TrialResult &trial = runs.at(w.campaign).trials[index];
        if (w.checkpoint)
            w.checkpoint->store(trial);
        return fromWorker(
            id, frame("trial")
                    .set("id", static_cast<std::uint64_t>(id))
                    .set("campaign", w.campaign)
                    .set("shard", static_cast<std::uint64_t>(w.shard))
                    .set("index", static_cast<std::uint64_t>(index))
                    .set("restored", false)
                    .set("data", exp::CampaignCheckpoint::serializeTrial(
                                     trial)));
    }

    /** Worker @p id's next move: its next trial, or shard_done at the
     *  end of its shard, or a heartbeat when idle. */
    const std::vector<svc::Action> &
    step(std::size_t id)
    {
        Worker &w = workers[id];
        if (w.shrinkTo && lagShrinks && lagShrinks->chance(0.5)) {
            w.hi = std::min(w.hi, *w.shrinkTo);
            w.shrinkTo.reset();
        }
        if (!w.busy)
            return fromWorker(id, frame("heartbeat"));
        if (w.next < w.hi)
            return report(id, w.next++);
        w.busy = false;
        return fromWorker(id,
                          frame("shard_done")
                              .set("campaign", w.campaign)
                              .set("shard",
                                   static_cast<std::uint64_t>(w.shard)));
    }

    /** Worker @p id's process exits, or its connection drops. */
    const std::vector<svc::Action> &
    die(std::size_t id, Ev how)
    {
        event(how, id);
        workers[id] = Worker{};
        return last;
    }

    /** Let every live worker say hello and every busy, unsilenced one
     *  step, ticking between rounds, until client @p key has a frame
     *  of @p type. */
    std::optional<json::Value>
    runUntil(std::uint64_t key, const char *type)
    {
        for (int round = 0; round < 10000; ++round) {
            if (std::optional<json::Value> f = received(key, type))
                return f;
            for (std::size_t id = 0; id < workers.size(); ++id) {
                if (workers[id].alive && !workers[id].connected)
                    hello(id);
                if (workers[id].busy && !workers[id].silent)
                    step(id);
            }
            tick(0.001);
        }
        return std::nullopt;
    }
};

std::uint64_t
statsMetric(const json::Value &stats, const char *key)
{
    const json::Value *v = stats.get("metrics")->get(key);
    return v ? v->asU64() : 0;
}

std::string
aggregateOf(const exp::CampaignResult &run,
            std::initializer_list<std::size_t> indices)
{
    std::vector<exp::TrialResult> done;
    for (std::size_t i : indices)
        done.push_back(run.trials[i]);
    return exp::aggregateTrials(done).toJson().dump();
}

TEST(SvcScheduler, WorkerDeathReturnsItsShardAndRespawnsAfterTheDelay)
{
    SchedRig rig(rigConfig(2));
    rig.boot();
    EXPECT_EQ(rig.spawns, 2u);
    const svc::CampaignRequest request = selftestRequest(8, 41);
    rig.submit(1, request);
    ASSERT_EQ(rig.sentTo(0, "shard").size(), 1u);
    ASSERT_EQ(rig.sentTo(1, "shard").size(), 1u);
    rig.step(0);
    rig.step(0);

    rig.now += 1.0;
    rig.die(0, Ev::WorkerExited);
    EXPECT_EQ(rig.count(Kind::Kill), 0u); // it exited on its own
    json::Value stats = rig.stats();
    const json::Value &shard0 =
        stats.get("campaigns")->items()[0].get("shards")->items()[0];
    EXPECT_EQ(shard0.get("owner")->asI64(), -1); // back in the pool
    EXPECT_EQ(shard0.get("next")->asU64(), 2u);  // resumes at trial 2
    EXPECT_EQ(statsMetric(stats, "svc.daemon.worker_deaths"), 1u);

    rig.tick(0.9 * svc::kRespawnDelaySec);
    EXPECT_EQ(rig.count(Kind::Spawn), 0u);
    rig.tick(0.2 * svc::kRespawnDelaySec);
    ASSERT_EQ(rig.count(Kind::Spawn), 1u);
    EXPECT_EQ(rig.last.front().target, 0u);
    rig.hello(0);
    rig.tick();
    const std::vector<json::Value> resumed = rig.sentTo(0, "shard");
    ASSERT_EQ(resumed.size(), 1u);
    EXPECT_EQ(svc::field(resumed[0], "lo"), 2u);

    const std::optional<json::Value> result = rig.runUntil(1, "result");
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(svc::stringField(*result, "fingerprint"),
              inProcessFingerprint(request));
    EXPECT_EQ(svc::field(*result, "worker_deaths"), 1u);

    // While draining, a dead slot stays dead.
    for (std::size_t id : {0u, 1u})
        while (rig.workers[id].busy)
            rig.step(id);
    rig.submit(1, selftestRequest(8, 43));
    rig.client(2, frame("drain"));
    rig.die(1, Ev::WorkerExited);
    rig.tick(4 * svc::kRespawnDelaySec); // well inside the drain grace
    EXPECT_FALSE(rig.stopped);           // worker 0 is still busy
    EXPECT_EQ(rig.count(Kind::Spawn), 0u);
}

TEST(SvcScheduler, HeartbeatTimeoutKillsOnlyASilentBusyWorker)
{
    svc::DaemonConfig config = rigConfig(2);
    config.trialWarnSec = 10.0;
    config.heartbeatTimeoutSec = 30.0;
    SchedRig rig(config);
    rig.boot();
    rig.submit(1, selftestRequest(1, 5)); // one shard: worker 1 idles
    ASSERT_TRUE(rig.workers[0].busy);
    ASSERT_FALSE(rig.workers[1].busy);

    rig.tick(29.0);
    EXPECT_EQ(rig.count(Kind::Kill), 0u);
    rig.tick(2.0);
    ASSERT_EQ(rig.count(Kind::Kill), 1u);
    EXPECT_EQ(rig.last.front().target, 0u);
    // The idle worker, as silent, was not touched; it inherits the
    // returned shard in the same tick.
    EXPECT_TRUE(rig.workers[1].alive);
    EXPECT_EQ(rig.sentTo(1, "shard").size(), 1u);

    const json::Value stats = rig.stats();
    EXPECT_EQ(statsMetric(stats, "svc.daemon.worker_deaths"), 1u);
    EXPECT_EQ(statsMetric(stats, "svc.daemon.trial_warns"), 1u);
    EXPECT_EQ(stats.get("worker_table")->items()[0].get("kills")->asU64(),
              1u);
}

TEST(SvcScheduler, StuckTrialWarnsOnceKillsAtTheTimeoutThenTimesOut)
{
    svc::DaemonConfig config = rigConfig(1);
    config.trialWarnSec = 1.0;
    config.heartbeatTimeoutSec = 2.0;
    config.trialKillLimit = 2;
    SchedRig rig(config);
    rig.boot();
    rig.submit(1, selftestRequest(4, 47));
    rig.step(0);
    rig.step(0); // trials 0 and 1; then it wedges on trial 2
    const auto warns = [&] {
        return statsMetric(rig.stats(), "svc.daemon.trial_warns");
    };
    const auto timeouts = [&] {
        return statsMetric(rig.stats(), "svc.daemon.trial_timeouts");
    };

    rig.tick(1.5);
    EXPECT_EQ(warns(), 1u);
    rig.tick(0.1);
    EXPECT_EQ(warns(), 1u); // once per silence
    rig.fromWorker(0, frame("heartbeat")); // re-arms the warning
    rig.tick(1.5);
    EXPECT_EQ(warns(), 2u);
    EXPECT_EQ(rig.count(Kind::Kill), 0u);
    rig.tick(0.6); // 2.1 s since the heartbeat
    EXPECT_EQ(rig.count(Kind::Kill), 1u);
    EXPECT_EQ(timeouts(), 0u); // one kill: retry

    rig.tick(svc::kRespawnDelaySec + 0.01);
    ASSERT_EQ(rig.count(Kind::Spawn), 1u);
    rig.hello(0);
    rig.tick();
    ASSERT_EQ(rig.sentTo(0, "shard").size(), 1u);
    EXPECT_EQ(svc::field(rig.sentTo(0, "shard")[0], "lo"), 2u);
    rig.tick(2.1); // wedged again on trial 2
    EXPECT_EQ(rig.count(Kind::Kill), 1u);
    EXPECT_EQ(timeouts(), 1u); // second kill: give up on trial 2

    const std::optional<json::Value> result = rig.runUntil(1, "result");
    ASSERT_TRUE(result.has_value());
    const auto parsed = json::Value::parse(result->dump());
    ASSERT_TRUE(parsed.has_value());
    const json::Value *aggregate =
        parsed->get("result")->get("aggregate");
    EXPECT_EQ(aggregate->get("timed_out")->asU64(), 1u);
    EXPECT_EQ(aggregate->get("ok")->asU64(), 3u);
}

TEST(SvcScheduler, DrainShrinksRefusesKeepsManifestsAndResumeReloads)
{
    const std::string state_dir = uniquePath("sched_drain");
    const svc::CampaignRequest request = selftestRequest(8, 53);
    std::map<std::string, std::string> manifests;
    {
        SchedRig rig(rigConfig(2, state_dir));
        rig.boot();
        rig.submit(1, request);
        ASSERT_EQ(rig.manifests.size(), 1u);
        rig.step(0);
        rig.step(0);
        rig.step(1); // trials 0, 1 and 4 are checkpointed

        rig.client(2, frame("drain"));
        for (std::size_t id : {0u, 1u}) {
            const std::vector<json::Value> shrinks = rig.sentTo(id, "shrink");
            ASSERT_EQ(shrinks.size(), 1u);
            EXPECT_EQ(svc::field(shrinks[0], "hi"), 0u);
        }
        EXPECT_TRUE(rig.received(1, "draining").has_value());
        EXPECT_TRUE(rig.received(2, "draining").has_value());

        rig.submit(3, selftestRequest(4, 59));
        const std::optional<json::Value> refusal = rig.received(3, "error");
        ASSERT_TRUE(refusal.has_value());
        EXPECT_NE(svc::stringField(*refusal, "message").find("draining"),
                  std::string::npos);

        rig.tick();
        EXPECT_FALSE(rig.stopped); // both workers are still busy
        rig.step(0);
        rig.step(1); // each stops at its trial boundary
        rig.tick();
        EXPECT_TRUE(rig.stopped);
        EXPECT_EQ(rig.manifests.size(), 1u);
        manifests = rig.manifests;
    }

    SchedRig rig(rigConfig(2, state_dir));
    rig.boot();
    for (const auto &[path, text] : manifests) {
        const std::optional<json::Value> manifest = json::Value::parse(text);
        rig.absorb(rig.sched.on(
            {Ev::PendingManifest, rig.now, 0, &*manifest, path}));
    }
    const json::Value stats = rig.stats();
    ASSERT_EQ(stats.get("campaigns")->items().size(), 1u);
    EXPECT_EQ(
        stats.get("campaigns")->items()[0].get("resumed")->asU64(), 3u);

    rig.client(4, frame("attach").set("request", request.toJson()));
    EXPECT_TRUE(rig.received(4, "attached").has_value());
    const std::optional<json::Value> result = rig.runUntil(4, "result");
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(svc::stringField(*result, "fingerprint"),
              inProcessFingerprint(request));
    EXPECT_TRUE(rig.manifests.empty());
    std::error_code ec;
    std::filesystem::remove_all(state_dir, ec);
}

TEST(SvcScheduler, CancelSendsThePartialToOwnerAndCancellerOnce)
{
    const std::string state_dir = uniquePath("sched_cancel");
    SchedRig rig(rigConfig(2, state_dir));
    rig.boot();
    const svc::CampaignRequest request = selftestRequest(8, 61);
    rig.submit(1, request);
    ASSERT_EQ(rig.manifests.size(), 1u);
    rig.step(0);
    rig.step(1);
    rig.step(0); // trials 0, 4 and 1

    rig.client(2, frame("cancel").set("request", request.toJson()));
    EXPECT_EQ(rig.sentTo(0, "shrink").size(), 1u);
    EXPECT_EQ(rig.sentTo(1, "shrink").size(), 1u);
    EXPECT_EQ(rig.count(Kind::RemoveManifest), 1u);
    EXPECT_TRUE(rig.manifests.empty());
    ASSERT_EQ(rig.inbox[1].size(), 2u); // accepted, cancelled
    ASSERT_EQ(rig.inbox[2].size(), 1u);
    const json::Value &cancelled = rig.inbox[2].front();
    EXPECT_EQ(rig.inbox[1].back().dump(), cancelled.dump());
    EXPECT_EQ(svc::stringField(cancelled, "type"), "cancelled");
    EXPECT_EQ(svc::field(cancelled, "completed"), 3u);
    EXPECT_EQ(cancelled.get("aggregate")->dump(),
              aggregateOf(rig.runs.at(1), {0, 1, 4}));
    const auto [run, restored] = creditTotals(*cancelled.get("credits"));
    EXPECT_EQ(run + restored, 3u);
    EXPECT_FALSE(svc::stringField(cancelled, "checkpoint_dir").empty());

    // The campaign is gone: a second cancel finds nothing.
    rig.client(2, frame("cancel").set("campaign", std::uint64_t(1)));
    const std::optional<json::Value> again = rig.received(2, "error");
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(svc::stringField(*again, "code"), "not_found");
    std::error_code ec;
    std::filesystem::remove_all(state_dir, ec);
}

TEST(SvcScheduler, DuplicateReportFromAStealOverlapIsCreditedOnce)
{
    SchedRig rig(rigConfig(2));
    rig.boot();
    const svc::CampaignRequest request = selftestRequest(8, 67);
    rig.submit(1, request); // worker 0: [0, 4), worker 1: [4, 8)
    for (int i = 0; i < 5; ++i)
        rig.step(1); // trials 4-7, then shard_done
    rig.tick();      // worker 1 steals [2, 4) from worker 0
    ASSERT_EQ(rig.sentTo(0, "shrink").size(), 1u);
    EXPECT_EQ(svc::field(rig.sentTo(0, "shrink")[0], "hi"), 2u);
    ASSERT_EQ(rig.sentTo(1, "shard").size(), 1u);
    rig.step(0);
    rig.step(0);      // trials 0 and 1
    rig.report(0, 2); // past its new end: the shrink raced trial 2
    rig.step(1);      // the thief's trial 2 repeats it
    EXPECT_EQ(rig.stats()
                  .get("campaigns")
                  ->items()[0]
                  .get("completed")
                  ->asU64(),
              7u);

    const std::optional<json::Value> result = rig.runUntil(1, "result");
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(svc::stringField(*result, "fingerprint"),
              inProcessFingerprint(request));
    const json::Value *credits = result->get("credits");
    EXPECT_EQ(credits->get("0")->get("run")->asU64(), 3u);
    EXPECT_EQ(credits->get("1")->get("run")->asU64(), 5u);
    EXPECT_EQ(statsMetric(rig.stats(), "svc.daemon.trials_completed"), 8u);
}

TEST(SvcScheduler, RandomInterleavingsCreditEveryTrialExactlyOnce)
{
    // Deaths, silences, lagging shrinks, duplicate reports and a
    // cancel, interleaved from fixed seeds.  Whatever the order, the
    // credits sum to the completed count, every trial is recorded
    // once (so an uncancelled campaign's fingerprint is the in-process
    // one), and no action targets a dead or unconnected worker (the
    // rig checks each one).
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        svc::DaemonConfig config = rigConfig(3);
        config.trialWarnSec = 0.2;
        config.heartbeatTimeoutSec = 0.5;
        config.trialKillLimit = 1000; // a slow trial is never given up
        SchedRig rig(config);
        rig.lagShrinks = &rng;
        rig.boot();
        const svc::CampaignRequest first = selftestRequest(12, 2 * seed);
        const svc::CampaignRequest second =
            selftestRequest(10, 2 * seed + 1);
        rig.submit(1, first, /*stream_every=*/1);
        rig.submit(2, second);

        for (int n = 0; n < 300; ++n) {
            const std::size_t id = rng.below(3);
            SchedRig::Worker &w = rig.workers[id];
            switch (rng.below(20)) {
              case 0:
                if (w.alive)
                    rig.die(id, rng.chance(0.5) ? Ev::WorkerExited
                                                : Ev::WorkerLost);
                break;
              case 1:
              case 2:
                if (w.connected && w.busy && w.next > w.lo)
                    rig.report(id, w.lo + rng.below(w.next - w.lo));
                break;
              case 3:
                w.silent = !w.silent;
                break;
              case 4:
                if (n >= 60 && rng.chance(0.1))
                    rig.client(3, frame("cancel").set("campaign",
                                                      std::uint64_t(2)));
                break;
              case 5:
                rig.tick(0.3);
                break;
              case 6:
                if (w.alive && !w.connected)
                    rig.hello(id);
                break;
              default:
                if (w.connected && !w.silent)
                    rig.step(id);
                rig.tick(0.01);
                break;
            }
            if (n % 10 == 0) {
                const json::Value stats = rig.stats();
                for (const json::Value &c :
                     stats.get("campaigns")->items()) {
                    const auto [run, restored] =
                        creditTotals(*c.get("credits"));
                    EXPECT_EQ(run + restored, c.get("completed")->asU64());
                }
            }
        }
        for (SchedRig::Worker &w : rig.workers)
            w.silent = false;

        const std::optional<json::Value> result = rig.runUntil(1, "result");
        ASSERT_TRUE(result.has_value());
        EXPECT_EQ(svc::stringField(*result, "fingerprint"),
                  inProcessFingerprint(first));
        auto [run, restored] = creditTotals(*result->get("credits"));
        EXPECT_EQ(run + restored, 12u);
        std::uint64_t recorded = 12;

        std::optional<json::Value> end = rig.received(2, "cancelled");
        if (!end) {
            end = rig.runUntil(2, "result");
            ASSERT_TRUE(end.has_value());
            EXPECT_EQ(svc::stringField(*end, "fingerprint"),
                      inProcessFingerprint(second));
            recorded += 10;
        } else {
            recorded += svc::field(*end, "completed");
        }
        std::tie(run, restored) = creditTotals(*end->get("credits"));
        EXPECT_EQ(run + restored, end->get("result")
                                      ? 10u
                                      : svc::field(*end, "completed"));
        EXPECT_EQ(statsMetric(rig.stats(), "svc.daemon.trials_completed"),
                  recorded);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // The daemon re-execs /proc/self/exe as its worker pool — which,
    // when a daemon runs inside this test process, is this binary.
    // The marker check must therefore come before gtest sees argv.
    int worker_exit = 0;
    if (uscope::svc::maybeRunWorkerMain(argc, argv, &worker_exit))
        return worker_exit;
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
