/**
 * @file
 * Tests for src/obs: the event ring (wrap, overflow accounting, drain
 * ordering, the disabled-path contract), the metric registry
 * (idempotent registration, kind-collision panics, snapshot/merge
 * determinism across campaign worker counts), the Chrome trace-event
 * exporter (well-formed JSON, drop reporting).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "cpu/program.hh"
#include "exp/campaign.hh"
#include "exp/checkpoint.hh"
#include "obs/chrome_trace.hh"
#include "obs/cli.hh"
#include "obs/event_trace.hh"
#include "obs/metrics.hh"
#include "obs/observer.hh"
#include "obs/prof.hh"
#include "os/machine.hh"

using namespace uscope;

// ---------------------------------------------------------------------
// The event ring.
// ---------------------------------------------------------------------

TEST(EventTrace, DisabledPathRecordsNothing)
{
    obs::EventTrace trace(16);
    ASSERT_FALSE(trace.enabled());
    for (int i = 0; i < 100; ++i)
        trace.record(obs::EventKind::Retire);
    EXPECT_EQ(trace.totalRecorded(), 0u);
    EXPECT_TRUE(trace.drain().empty());
}

TEST(EventTrace, CapacityRoundsUpToPowerOfTwo)
{
    obs::EventTrace trace(5);
    EXPECT_EQ(trace.capacity(), 8u);
    trace.reserve(16);
    EXPECT_EQ(trace.capacity(), 16u);
}

TEST(EventTrace, EnableWithoutCapacityPanics)
{
    obs::EventTrace trace;
    EXPECT_THROW(trace.setEnabled(true), SimPanic);
    EXPECT_THROW(trace.reserve(0), SimFatal);
    EXPECT_THROW(trace.reserve((std::size_t{1} << 63) + 1), SimFatal);
}

TEST(EventTrace, WrapOverflowAndDrainOrder)
{
    obs::EventTrace trace(8);
    std::uint64_t cycle = 0;
    trace.bindClock(&cycle);
    trace.setEnabled(true);

    // 20 records into 8 slots: the 12 oldest are overwritten.
    for (cycle = 0; cycle < 20; ++cycle)
        trace.record(obs::EventKind::Retire, 0,
                     static_cast<std::uint16_t>(cycle), cycle * 64);

    const obs::EventLog log = trace.drain();
    EXPECT_EQ(log.total, 20u);
    EXPECT_EQ(log.dropped, 12u);
    ASSERT_EQ(log.events.size(), 8u);
    // Oldest first: cycles 12..19 in order.
    for (std::size_t i = 0; i < log.events.size(); ++i) {
        EXPECT_EQ(log.events[i].cycle, 12 + i);
        EXPECT_EQ(log.events[i].b, 12 + i);
        EXPECT_EQ(log.events[i].addr, (12 + i) * 64);
    }

    trace.clear();
    EXPECT_EQ(trace.totalRecorded(), 0u);
    EXPECT_TRUE(trace.drain().empty());
}

TEST(EventTrace, RecordAtBackdatesSubEvents)
{
    // Page walks complete without advancing the core clock; their
    // sub-events are stamped at start + accumulated latency.
    obs::EventTrace trace(8);
    std::uint64_t cycle = 500;
    trace.bindClock(&cycle);
    trace.setEnabled(true);

    const std::uint64_t start = trace.now();
    EXPECT_EQ(start, 500u);
    trace.recordAt(start, obs::EventKind::WalkStart);
    trace.recordAt(start + 40, obs::EventKind::WalkStep);
    trace.recordAt(start + 90, obs::EventKind::WalkEnd);

    const obs::EventLog log = trace.drain();
    ASSERT_EQ(log.events.size(), 3u);
    EXPECT_EQ(log.events[0].cycle, 500u);
    EXPECT_EQ(log.events[1].cycle, 540u);
    EXPECT_EQ(log.events[2].cycle, 590u);
}

// ---------------------------------------------------------------------
// The metric registry.
// ---------------------------------------------------------------------

TEST(Metrics, RegistrationIsIdempotent)
{
    obs::MetricRegistry registry;
    registry.counter("core.retired").inc(3);
    registry.counter("core.retired").inc(4);
    EXPECT_EQ(registry.counter("core.retired").value(), 7u);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(Metrics, KindCollisionPanics)
{
    obs::MetricRegistry registry;
    registry.counter("vm.walker.steps");
    EXPECT_THROW(registry.gauge("vm.walker.steps"), SimPanic);
    EXPECT_THROW(registry.latency("vm.walker.steps"), SimPanic);

    registry.latency("os.faults.handler_latency");
    EXPECT_THROW(registry.counter("os.faults.handler_latency"),
                 SimPanic);
}

TEST(Metrics, SnapshotIsNameSorted)
{
    obs::MetricRegistry registry;
    registry.counter("z.last").set(1);
    registry.counter("a.first").set(2);
    registry.gauge("m.middle").set(3.0);

    const obs::MetricSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap.values[0].name, "a.first");
    EXPECT_EQ(snap.values[1].name, "m.middle");
    EXPECT_EQ(snap.values[2].name, "z.last");
    ASSERT_NE(snap.find("m.middle"), nullptr);
    EXPECT_EQ(snap.find("m.middle")->gauge, 3.0);
    EXPECT_EQ(snap.find("absent"), nullptr);
}

TEST(Metrics, MergeSumsAndKeepsUniqueNames)
{
    obs::MetricRegistry ra;
    ra.counter("shared.count").set(10);
    ra.gauge("shared.gauge").set(1.5);
    ra.latency("shared.lat").record(100.0);
    ra.counter("only.a").set(7);

    obs::MetricRegistry rb;
    rb.counter("shared.count").set(32);
    rb.gauge("shared.gauge").set(2.5);
    rb.latency("shared.lat").record(300.0);
    rb.counter("only.b").set(9);

    obs::MetricSnapshot merged = ra.snapshot();
    merged.merge(rb.snapshot());

    EXPECT_EQ(merged.find("shared.count")->counter, 42u);
    EXPECT_EQ(merged.find("shared.gauge")->gauge, 4.0);
    EXPECT_EQ(merged.find("shared.lat")->latency.count(), 2u);
    EXPECT_EQ(merged.find("shared.lat")->latency.mean(), 200.0);
    EXPECT_EQ(merged.find("only.a")->counter, 7u);
    EXPECT_EQ(merged.find("only.b")->counter, 9u);
}

TEST(Metrics, MergeKindMismatchPanics)
{
    obs::MetricRegistry ra;
    ra.counter("x");
    obs::MetricRegistry rb;
    rb.gauge("x");
    obs::MetricSnapshot snap = ra.snapshot();
    EXPECT_THROW(snap.merge(rb.snapshot()), SimPanic);
}

TEST(Metrics, InternedNamesShareOneHandleAcrossThreads)
{
    // Four threads intern the same 300 spellings at once, in
    // different orders: each spelling gets one handle everywhere.
    constexpr int kThreads = 4;
    constexpr int kNames = 300;
    const auto spelling = [](int i) {
        return "interned.t" + std::to_string(i % 7) + ".n" +
               std::to_string(i);
    };
    std::vector<std::vector<obs::MetricName>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int k = 0; k < kNames; ++k) {
                const int i = t % 2 ? kNames - 1 - k : k;
                seen[t].push_back(obs::MetricName(spelling(i)));
            }
        });
    for (std::thread &thread : threads)
        thread.join();
    for (int i = 0; i < kNames; ++i) {
        const obs::MetricName name(spelling(i));
        EXPECT_EQ(name.view(), spelling(i));
        EXPECT_EQ(name.json(), "\"" + spelling(i) + "\"");
        for (int t = 0; t < kThreads; ++t) {
            const obs::MetricName other =
                seen[t][t % 2 ? kNames - 1 - i : i];
            EXPECT_EQ(other, name);
            EXPECT_EQ(other.id(), name.id());
        }
    }
    // Distinct spellings, distinct handles; the empty one is the
    // default handle.
    EXPECT_FALSE(obs::MetricName(spelling(1)) == obs::MetricName(spelling(2)));
    EXPECT_EQ(obs::MetricName(""), obs::MetricName());
    EXPECT_EQ(obs::MetricName().id(), 0u);
    EXPECT_EQ(obs::MetricName("needs \"escaping\"\n").json(),
              "\"needs \\\"escaping\\\"\\n\"");
}

TEST(Metrics, SnapshotOrderIsTheSpellingsNotTheInterningOrder)
{
    // "order.z" is interned first, so it has the lower id; the
    // snapshot still sorts by spelling.  The same thread then exports
    // other name sets, in other orders: each snapshot sorts its own.
    const obs::MetricName z("order.z");
    const obs::MetricName a("order.a");
    EXPECT_LT(z.id(), a.id());
    EXPECT_TRUE(a < z);
    EXPECT_FALSE(z < a);
    EXPECT_FALSE(a < a);
    const std::vector<std::vector<std::string>> exports = {
        {"order.z", "order.a"},
        {"order.z", "order.a"},
        {"order.z", "order.m", "order.a"},
        {"order.a", "order.z"},
        {"order.z", "order.a"},
    };
    for (const std::vector<std::string> &names : exports) {
        obs::MetricRegistry registry;
        for (const std::string &name : names)
            registry.counter(name).set(name.size());
        std::vector<std::string> sorted = names;
        std::sort(sorted.begin(), sorted.end());
        const obs::MetricSnapshot snap = registry.snapshot();
        ASSERT_EQ(snap.size(), sorted.size());
        for (std::size_t i = 0; i < sorted.size(); ++i)
            EXPECT_EQ(snap.values[i].name, sorted[i]);
    }
}

TEST(Metrics, InternedNamesKeepTheSnapshotBytes)
{
    // merge, prefixed and the checkpoint record read and write the
    // same names, in the same order, as the spelled-out strings did.
    obs::MetricRegistry ra;
    ra.counter("b.shared").set(1);
    ra.counter("d.only_a").set(2);
    obs::MetricRegistry rb;
    rb.counter("b.shared").set(3);
    rb.gauge("a.only_b").set(0.5);
    rb.latency("c.only_b").record(7.0);
    obs::MetricSnapshot merged = ra.snapshot();
    merged.merge(rb.snapshot());
    EXPECT_EQ(merged.toJson().dump(),
              "{\"a.only_b\":0.5,\"b.shared\":4,\"c.only_b\":{\"count\":1,"
              "\"mean\":7,\"stddev\":0,\"min\":7,\"max\":7},"
              "\"d.only_a\":2}");
    std::string compact;
    merged.appendJson(compact);
    EXPECT_EQ(compact, merged.toJson().dump());

    const obs::MetricSnapshot tagged = merged.prefixed("svc.worker3.");
    ASSERT_EQ(tagged.size(), merged.size());
    for (std::size_t i = 0; i < tagged.size(); ++i)
        EXPECT_EQ(tagged.values[i].name,
                  "svc.worker3." + merged.values[i].name.str());

    exp::TrialResult trial;
    trial.output.metrics = merged;
    const std::string record =
        exp::CampaignCheckpoint::serializeTrial(trial);
    const std::optional<exp::TrialResult> parsed =
        exp::CampaignCheckpoint::parseTrial(record);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->output.metrics.size(), merged.size());
    for (std::size_t i = 0; i < merged.size(); ++i)
        EXPECT_EQ(parsed->output.metrics.values[i].name,
                  merged.values[i].name);
    EXPECT_EQ(exp::CampaignCheckpoint::serializeTrial(*parsed), record);
}

namespace
{

/** A campaign whose trials export seed-dependent metrics. */
exp::CampaignSpec
metricSpec(unsigned workers)
{
    exp::CampaignSpec spec;
    spec.name = "obs-metrics";
    spec.trials = 24;
    spec.masterSeed = 7;
    spec.workers = workers;
    spec.body = [](const exp::TrialContext &ctx) {
        Rng rng(ctx.seed);
        obs::MetricRegistry registry;
        registry.counter("t.count").set(rng.below(1000));
        registry.gauge("t.gauge").set(rng.uniform());
        auto &lat = registry.latency("t.latency");
        for (int i = 0; i < 63; ++i)
            lat.record(rng.uniform() * 400.0);

        exp::TrialOutput out;
        out.metrics = registry.snapshot();
        return out;
    };
    return spec;
}

} // namespace

TEST(Metrics, MergeBitIdenticalAcrossWorkerCounts)
{
    const exp::CampaignResult w1 = exp::runCampaign(metricSpec(1));
    const exp::CampaignResult w2 = exp::runCampaign(metricSpec(2));
    const exp::CampaignResult w4 = exp::runCampaign(metricSpec(4));

    // Bit-exact by contract: merged in trial-index order, never in
    // completion order.
    const std::string j1 = w1.aggregate.metrics.toJson().dump();
    EXPECT_EQ(j1, w2.aggregate.metrics.toJson().dump());
    EXPECT_EQ(j1, w4.aggregate.metrics.toJson().dump());

    const obs::MetricValue *lat = w1.aggregate.metrics.find("t.latency");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->latency.count(), 24u * 63u);
}

// ---------------------------------------------------------------------
// The Chrome trace-event exporter.
// ---------------------------------------------------------------------

namespace
{

/** Minimal structural JSON check: balanced outside string literals. */
bool
jsonWellFormed(const std::string &text)
{
    long braces = 0;
    long brackets = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : text) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"': in_string = true; break;
          case '{': ++braces; break;
          case '}': --braces; break;
          case '[': ++brackets; break;
          case ']': --brackets; break;
          default: break;
        }
        if (braces < 0 || brackets < 0)
            return false;
    }
    return !in_string && braces == 0 && brackets == 0;
}

/** One log exercising every event kind, with a walk B/E span. */
obs::EventLog
sampleLog()
{
    obs::EventTrace trace(64);
    std::uint64_t cycle = 100;
    trace.bindClock(&cycle);
    trace.setEnabled(true);

    trace.recordAt(100, obs::EventKind::WalkStart, 4, 0, 0x7000);
    trace.recordAt(130, obs::EventKind::WalkStep, 3, 30, 0x1040);
    trace.recordAt(190, obs::EventKind::WalkEnd, 0, 90, 0x7000);
    trace.record(obs::EventKind::TlbMiss, 0, 0, 0x7000);
    trace.record(obs::EventKind::SpecIssue, 0, 12, 0x400);
    trace.record(obs::EventKind::Retire, 1, 12, 0x408);
    trace.record(obs::EventKind::Squash, 0, 14, 0x410);
    trace.record(obs::EventKind::PortConflict, 1, 9, 0x418);
    trace.record(obs::EventKind::CacheAccess, 2, 40, 0x2000);
    trace.record(obs::EventKind::PageFault, 0, 0, 0x7008);
    trace.record(obs::EventKind::Probe, 3, 300, 0x2040);
    trace.record(obs::EventKind::ReplayBoundary, 1, 3, 2);
    trace.record(obs::EventKind::EpisodeEnd, 0, 3, 2);
    return trace.drain();
}

/** A single log's document: the merged render of one spill (worker
 *  0, trial 0), as the benches' --trace writes it. */
std::string
renderLog(obs::EventLog log, const obs::ChromeTraceOptions &options = {})
{
    obs::TraceSpill spill;
    spill.log = std::move(log);
    return obs::mergeChromeTraces({spill}, options);
}

} // namespace

TEST(ChromeTrace, WellFormedAndCoversEveryKind)
{
    const std::string text = renderLog(sampleLog());
    EXPECT_TRUE(jsonWellFormed(text));
    EXPECT_EQ(text.rfind("{\"traceEvents\":", 0), 0u);
    // Spans for the walk, instants elsewhere, track names as metadata.
    EXPECT_NE(text.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(text.find("thread_name"), std::string::npos);
    EXPECT_NE(text.find("page-walk"), std::string::npos);
    EXPECT_NE(text.find("replay"), std::string::npos);
}

TEST(ChromeTrace, RingDropsAreAnnotatedNeverSilent)
{
    obs::EventTrace trace(4);
    trace.setEnabled(true);
    for (int i = 0; i < 10; ++i)
        trace.record(obs::EventKind::Retire);
    const obs::EventLog log = trace.drain();
    ASSERT_EQ(log.dropped, 6u);

    const std::string text = renderLog(log);
    EXPECT_TRUE(jsonWellFormed(text));
    EXPECT_NE(text.find("dropped"), std::string::npos);
}

TEST(ChromeTrace, WriterCapIsAppliedAndReported)
{
    obs::ChromeTraceOptions options;
    options.maxEvents = 4;
    const std::string text = renderLog(sampleLog(), options);
    EXPECT_TRUE(jsonWellFormed(text));
    EXPECT_NE(text.find("dropped"), std::string::npos);
}

TEST(ChromeTrace, WriteCreatesParentDirectories)
{
    const std::filesystem::path path =
        std::filesystem::path(testing::TempDir()) / "obs-test" / "sub" /
        "trace.json";
    std::filesystem::remove_all(path.parent_path().parent_path());
    ASSERT_TRUE(obs::writeTraceFile(path.string(), renderLog(sampleLog())));
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_GT(std::filesystem::file_size(path), 0u);
}

// ---------------------------------------------------------------------
// A whole Machine under observation.
// ---------------------------------------------------------------------

namespace
{

os::MachineConfig
tracedConfig()
{
    os::MachineConfig config;
    config.obs.traceEvents = true;
    config.obs.traceCapacity = 1u << 12;
    return config;
}

/** Touch a few lines so the TLB, walker, caches and ROB all move. */
void
runSmallProgram(os::Machine &machine)
{
    auto &kernel = machine.kernel();
    const os::Pid pid = kernel.createProcess("obs-victim");
    const VAddr page = kernel.allocVirtual(pid, pageSize);
    cpu::ProgramBuilder b;
    b.movi(1, static_cast<std::int64_t>(page));
    for (unsigned i = 0; i < 8; ++i)
        b.ld(2, 1, static_cast<std::int64_t>(i * lineSize));
    b.halt();
    kernel.startOnContext(
        pid, 0, std::make_shared<const cpu::Program>(b.build()));
    ASSERT_TRUE(machine.runUntilHalted(0, 1'000'000));
}

} // namespace

TEST(Observer, MachineEmitsEventsAndMetrics)
{
    os::Machine machine(tracedConfig());
    runSmallProgram(machine);

    const obs::EventLog log = machine.observer().trace.drain();
    ASSERT_FALSE(log.empty());
    // Ring order is record order, not timestamp order: a walk's
    // sub-events are stamped at start + accumulated latency while the
    // core clock holds still (Perfetto sorts by ts on load).
    bool saw_walk = false;
    bool saw_retire = false;
    bool saw_access = false;
    for (const obs::Event &e : log.events) {
        saw_walk |= e.kind == obs::EventKind::WalkStart;
        saw_retire |= e.kind == obs::EventKind::Retire;
        saw_access |= e.kind == obs::EventKind::CacheAccess;
    }
    EXPECT_TRUE(saw_walk);
    EXPECT_TRUE(saw_retire);
    EXPECT_TRUE(saw_access);

    const obs::MetricSnapshot snap = machine.metricsSnapshot();
    ASSERT_NE(snap.find("core.retired"), nullptr);
    EXPECT_GT(snap.find("core.retired")->counter, 0u);
    ASSERT_NE(snap.find("vm.walker.walks"), nullptr);
    EXPECT_GT(snap.find("vm.walker.walks")->counter, 0u);
    ASSERT_NE(snap.find("mem.l1d.misses"), nullptr);

    // Snapshotting is read-only: two snapshots are identical.
    EXPECT_EQ(snap.toJson().dump(),
              machine.metricsSnapshot().toJson().dump());
}

TEST(Observer, TracingIsOffByDefaultAndCostsNothing)
{
    os::Machine machine{os::MachineConfig{}};
    EXPECT_FALSE(machine.observer().trace.enabled());
    runSmallProgram(machine);
    EXPECT_EQ(machine.observer().trace.totalRecorded(), 0u);
    // Metrics are snapshot-time exports and work regardless.
    EXPECT_GT(machine.metricsSnapshot().size(), 0u);
}

// ---------------------------------------------------------------------
// Bench CLI surface.
// ---------------------------------------------------------------------

TEST(BenchCli, ParsesTraceMetricsAndCapacity)
{
    const char *argv[] = {"bench",
                          "--trace=/tmp/custom.json",
                          "--metrics",
                          "--trace-capacity=4096"};
    const obs::BenchObsOptions opts = obs::parseBenchObsOptions(
        4, const_cast<char **>(argv), "default.json");
    EXPECT_TRUE(opts.trace);
    EXPECT_TRUE(opts.metrics);
    EXPECT_EQ(opts.tracePath, "/tmp/custom.json");
    EXPECT_EQ(opts.traceCapacity, 4096u);

    const char *bare[] = {"bench", "--trace"};
    const obs::BenchObsOptions defaults = obs::parseBenchObsOptions(
        2, const_cast<char **>(bare), "default.json");
    EXPECT_TRUE(defaults.trace);
    EXPECT_FALSE(defaults.metrics);
    EXPECT_EQ(defaults.tracePath, "default.json");

    const char *bad[] = {"bench", "--trace-capacity=zero"};
    EXPECT_THROW(obs::parseBenchObsOptions(
                     2, const_cast<char **>(bad), "d.json"),
                 SimPanic);
}

// ---------------------------------------------------------------------
// Trace spills and cross-process aggregation (DESIGN.md §14).
// ---------------------------------------------------------------------

TEST(TraceSpill, JsonRoundTrip)
{
    obs::TraceSpill spill;
    spill.worker = 3;
    spill.trial = 17;
    spill.forkCycle = 123456;
    spill.log = sampleLog();

    const std::string text = obs::traceSpillToJson(spill);
    EXPECT_TRUE(jsonWellFormed(text));

    const std::optional<obs::TraceSpill> back =
        obs::parseTraceSpill(text);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->worker, 3u);
    EXPECT_EQ(back->trial, 17u);
    EXPECT_EQ(back->forkCycle, 123456u);
    EXPECT_EQ(back->log.dropped, spill.log.dropped);
    ASSERT_EQ(back->log.events.size(), spill.log.events.size());
    for (std::size_t i = 0; i < spill.log.events.size(); ++i) {
        EXPECT_EQ(back->log.events[i].cycle, spill.log.events[i].cycle);
        EXPECT_EQ(back->log.events[i].kind, spill.log.events[i].kind);
        EXPECT_EQ(back->log.events[i].addr, spill.log.events[i].addr);
    }

    EXPECT_FALSE(obs::parseTraceSpill("not json").has_value());
    EXPECT_FALSE(obs::parseTraceSpill("{\"worker\":1}").has_value());
}

TEST(TraceSpill, WriteLoadSortsAndSkipsGarbage)
{
    const std::string dir =
        (std::filesystem::path(testing::TempDir()) / "obs-spills")
            .string();
    std::filesystem::remove_all(dir);

    obs::TraceSpill a;
    a.worker = 1;
    a.trial = 2;
    a.log = sampleLog();
    obs::TraceSpill b;
    b.worker = 0;
    b.trial = 5;
    b.log = sampleLog();
    ASSERT_TRUE(obs::writeTraceSpill(dir, a));
    ASSERT_TRUE(obs::writeTraceSpill(dir, b));

    // Garbage spill files are skipped with a warning, not fatal; other
    // files in the dir are ignored entirely.
    {
        std::ofstream garbage(std::filesystem::path(dir) /
                              "trace-w009-t000009.json");
        garbage << "{truncated";
    }
    {
        std::ofstream other(std::filesystem::path(dir) / "notes.txt");
        other << "not a spill";
    }

    const std::vector<obs::TraceSpill> spills =
        obs::loadTraceSpills(dir);
    ASSERT_EQ(spills.size(), 2u);
    // Sorted by filename: trace-w000-t000005 before trace-w001-t000002.
    EXPECT_EQ(spills[0].worker, 0u);
    EXPECT_EQ(spills[0].trial, 5u);
    EXPECT_EQ(spills[1].worker, 1u);
    EXPECT_EQ(spills[1].trial, 2u);

    std::filesystem::remove_all(dir);
}

TEST(TraceSpill, MergeProducesPerWorkerPidLanesAndDedupes)
{
    obs::TraceSpill w0t0;
    w0t0.worker = 0;
    w0t0.trial = 0;
    w0t0.log = sampleLog();
    // The same trial executed twice (a steal race): byte-identical by
    // the determinism contract, deduplicated keeping the lowest worker.
    obs::TraceSpill w1t0 = w0t0;
    w1t0.worker = 1;
    obs::TraceSpill w1t1;
    w1t1.worker = 1;
    w1t1.trial = 1;
    w1t1.log = sampleLog();

    const std::string merged =
        obs::mergeChromeTraces({w0t0, w1t0, w1t1});
    EXPECT_TRUE(jsonWellFormed(merged));

    const std::optional<json::Value> doc = json::Value::parse(merged);
    ASSERT_TRUE(doc.has_value());
    const json::Value *events = doc->get("traceEvents");
    ASSERT_NE(events, nullptr);

    bool sawWorker0Name = false;
    bool sawWorker1Name = false;
    std::set<std::uint64_t> pids;
    bool trial0OnWorker1 = false;
    for (const json::Value &event : events->items()) {
        const json::Value *ph = event.get("ph");
        const json::Value *pid = event.get("pid");
        const json::Value *tid = event.get("tid");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(pid, nullptr);
        if (ph->asString() == "M") {
            const json::Value *args = event.get("args");
            if (args && args->get("name")) {
                const std::string &name = args->get("name")->asString();
                sawWorker0Name |= name == "worker 0";
                sawWorker1Name |= name == "worker 1";
            }
            continue;
        }
        pids.insert(pid->asU64());
        // Trial tracks live at tid = trial*32 + track; the duplicate
        // trial 0 must render only on worker 0's lane.
        if (pid->asU64() == 1 && tid && tid->asU64() < 32)
            trial0OnWorker1 = true;
    }
    EXPECT_TRUE(sawWorker0Name);
    EXPECT_TRUE(sawWorker1Name);
    EXPECT_EQ(pids.size(), 2u) << "expected two pid lanes";
    EXPECT_TRUE(pids.count(0));
    EXPECT_TRUE(pids.count(1));
    EXPECT_FALSE(trial0OnWorker1)
        << "duplicate trial not deduplicated to the lowest worker";
}

// ---------------------------------------------------------------------
// Phase profiling.
// ---------------------------------------------------------------------

TEST(Prof, ObsLevelNamesRoundTrip)
{
    for (obs::ObsLevel level :
         {obs::ObsLevel::Off, obs::ObsLevel::Metrics,
          obs::ObsLevel::Trace}) {
        const std::optional<obs::ObsLevel> back =
            obs::parseObsLevel(obs::obsLevelName(level));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, level);
    }
    EXPECT_FALSE(obs::parseObsLevel("verbose").has_value());
    EXPECT_FALSE(obs::parseObsLevel("full").has_value());
    EXPECT_FALSE(obs::parseObsLevel("").has_value());
}

TEST(Prof, ScopeIsNoOpOnNullAndRecordsOtherwise)
{
    obs::ProfData data;
    {
        obs::ProfScope off(nullptr, "prof.trial.run");
    }
    EXPECT_TRUE(data.empty());

    {
        obs::ProfScope on(&data, "prof.trial.run");
    }
    {
        obs::ProfScope again(&data, "prof.trial.run");
    }
    ASSERT_FALSE(data.empty());
    const auto it = data.phases().find("prof.trial.run");
    ASSERT_NE(it, data.phases().end());
    EXPECT_EQ(it->second.count(), 2u);
}

TEST(Prof, DataJsonRoundTripAndMerge)
{
    obs::ProfData data;
    data.add("prof.trial.run", 0.5);
    data.add("prof.trial.run", 1.5);
    data.add("prof.svc.merge", 0.25);

    const obs::ProfData back = obs::ProfData::fromJson(data.toJson());
    ASSERT_FALSE(back.empty());
    const auto &run = back.phases().at("prof.trial.run");
    EXPECT_EQ(run.count(), 2u);
    EXPECT_DOUBLE_EQ(run.mean(), 1.0);
    EXPECT_DOUBLE_EQ(run.max(), 1.5);
    const auto &merge = back.phases().at("prof.svc.merge");
    EXPECT_EQ(merge.count(), 1u);

    obs::ProfData other;
    other.add("prof.trial.run", 2.0);
    obs::ProfData combined = back;
    combined.merge(other);
    EXPECT_EQ(combined.phases().at("prof.trial.run").count(), 3u);

    // An empty/absent wire field decodes to an empty profile.
    EXPECT_TRUE(obs::ProfData::fromJson(json::Value()).empty());
}

// ---------------------------------------------------------------------
// The observation-must-not-perturb contract, in process.
// ---------------------------------------------------------------------

TEST(Obs, CampaignFingerprintInvariantAcrossObsLevels)
{
    std::string baseline;
    bool first = true;
    for (obs::ObsLevel level :
         {obs::ObsLevel::Off, obs::ObsLevel::Metrics,
          obs::ObsLevel::Trace}) {
        exp::CampaignSpec spec = metricSpec(2);
        spec.obsLevel = level;
        const exp::CampaignResult result = exp::runCampaign(spec);
        const std::string print = exp::deterministicFingerprint(result);
        if (first) {
            baseline = print;
            first = false;
        } else {
            EXPECT_EQ(print, baseline)
                << "fingerprint diverged at --obs="
                << obs::obsLevelName(level);
        }
        // Profiling is a side channel gated at >= Metrics; it never
        // feeds the fingerprint.
        EXPECT_EQ(result.prof.empty(), level == obs::ObsLevel::Off)
            << obs::obsLevelName(level);
    }
}

TEST(BenchCli, ParsesLogFlags)
{
    const LogConfig saved = logConfig();

    const char *argv[] = {"bench", "--log-level=debug"};
    obs::parseBenchObsOptions(2, const_cast<char **>(argv),
                              "default.json");
    EXPECT_EQ(logConfig().level, LogLevel::Debug);

    const char *bad[] = {"bench", "--log-level=everything"};
    EXPECT_THROW(obs::parseBenchObsOptions(
                     2, const_cast<char **>(bad), "d.json"),
                 SimPanic);

    configureLog(saved);
}
