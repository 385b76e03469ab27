/**
 * @file
 * Differential replay (DESIGN.md §15) bit-identity tests.
 *
 * The contract under test: a campaign that re-enters each replay
 * episode through a COW snapshot at the replay handle
 * (Recipe::differentialReplay + Microscope::restoreEpisode) produces
 * byte-identical results — stats, metrics, traces, fingerprints — to
 * one that re-simulates the prefix before every iteration.  The
 * identity must hold across fault plans (quiet and chaos), worker
 * counts, and stepping (the machine's fast-forwarding loop or the
 * every-cycle reference of every_cycle.hh), because each of those is
 * itself fingerprint-invariant.
 *
 * Three recipe shapes cover the restore surface:
 *  - page-fault replay through the Microscope engine's episode
 *    snapshot protocol (the §4.1.4 loop);
 *  - a TSX victim and a control-flow (mispredict-shaped) victim
 *    driven through the generic Machine snapshot/restore/reseed
 *    pattern at a retired-instruction boundary, exercising mid-
 *    program restores of transactional and branch-predictor state.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "attack/victims.hh"
#include "common/logging.hh"
#include "core/microscope.hh"
#include "cpu/program.hh"
#include "every_cycle.hh"
#include "exp/campaign.hh"
#include "fault_pinned.hh"
#include "fault/plan.hh"
#include "os/machine.hh"

using namespace uscope;
using test::kEveryCycle;
using test::kMachineLoop;
using test::Runner;

namespace
{

constexpr std::uint64_t kIterations = 2;
constexpr Cycles kRunBudget = 5'000'000;

std::shared_ptr<const cpu::Program>
share(cpu::Program program)
{
    return std::make_shared<const cpu::Program>(std::move(program));
}

/** Victim with a handle page and a transmit page (cf. test_microscope). */
struct PfVictim
{
    os::Pid pid;
    VAddr handle;
    VAddr transmit;
    std::shared_ptr<const cpu::Program> program;
};

PfVictim
makePfVictim(os::Kernel &kernel)
{
    PfVictim victim;
    victim.pid = kernel.createProcess("victim");
    victim.handle = kernel.allocVirtual(victim.pid, pageSize);
    victim.transmit = kernel.allocVirtual(victim.pid, pageSize);

    cpu::ProgramBuilder b;
    b.movi(1, static_cast<std::int64_t>(victim.handle))
        .movi(2, static_cast<std::int64_t>(victim.transmit))
        .ld(3, 1, 0)    // replay handle
        .ld(4, 2, 0)    // transmit
        .halt();
    victim.program = share(b.build());
    return victim;
}

/**
 * One trial of the page-fault campaign: an episode with confidence 2
 * (replay 1 is the prefix, replay 2 the measured window), re-entered
 * kIterations times.  With @p diff the re-entry restores the engine's
 * episode snapshot; without it, the pre-arm snapshot is restored and
 * the prefix re-simulated — the two must be bit-identical.  @p runner
 * advances the machine.
 */
exp::TrialOutput
pageFaultTrial(const exp::TrialContext &ctx, bool diff,
               const Runner &runner)
{
    exp::TrialOutput out;
    os::Machine m(ctx.machine);
    auto &kernel = m.kernel();
    const PfVictim victim = makePfVictim(kernel);

    ms::Microscope scope(m);
    std::vector<std::uint64_t> latencies;
    {
        ms::AttackRecipe recipe;
        recipe.victim = victim.pid;
        recipe.replayHandle = victim.handle;
        recipe.monitorAddrs = {victim.transmit, victim.transmit + 64};
        recipe.confidence = 2;
        recipe.maxEpisodes = 1;
        recipe.differentialReplay = diff;
        recipe.onReplay = [&](const ms::ReplayEvent &event) {
            if (event.replayIndex >= 2) {
                for (const os::ProbeResult &probe :
                     scope.probeAllMonitorAddrs())
                    latencies.push_back(probe.latency);
            }
            return true;
        };
        recipe.beforeResume = [&](const ms::ReplayEvent &) {
            scope.primeMonitorAddrs();
        };
        scope.setRecipe(std::move(recipe));
    }

    // Pre-arm snapshot: the non-differential arm re-simulates the
    // prefix from here before every iteration.
    const os::Snapshot pre = m.snapshot();
    const ms::EpisodeState preState{scope.armed(),
                                    scope.replaysThisEpisode(),
                                    scope.stats()};
    const auto runPrefix = [&]() {
        scope.arm();
        kernel.startOnContext(victim.pid, 0, victim.program);
        const bool reached = runner.runUntil(
            m,
            [&]() {
                return diff ? scope.episodeSnapshotPending()
                            : scope.replaysThisEpisode() >= 1;
            },
            kRunBudget);
        if (!reached)
            throw std::runtime_error("prefix never reached the re-arm");
    };
    runPrefix();
    if (diff)
        scope.takeEpisodeSnapshot();

    for (std::uint64_t i = 0; i < kIterations; ++i) {
        const std::uint64_t seed = exp::deriveReplaySeed(ctx.seed, i);
        if (diff) {
            scope.restoreEpisode(seed);
        } else {
            m.restoreFrom(pre);
            scope.adoptEpisodeState(preState);
            runPrefix();
            m.reseed(seed);
        }
        // The window: replay 2 measures and ends the episode; the
        // victim then retires its loads and halts.
        if (!runner.runUntilHalted(m, 0, kRunBudget))
            throw std::runtime_error("window never halted");
    }

    out.scope = scope.stats();
    out.simCycles = m.cycle();
    for (const std::uint64_t latency : latencies)
        out.metric.add(static_cast<double>(latency));

    json::Value lat = json::Value::array();
    for (const std::uint64_t latency : latencies)
        lat.push(latency);
    out.payload = json::Value::object()
                      .set("latencies", std::move(lat))
                      .set("final_cycle", m.cycle())
                      .set("retired", m.core().stats(0).retired);

    obs::MetricRegistry registry;
    m.exportMetrics(registry);
    scope.exportMetrics(registry);
    out.metrics = registry.snapshot();
    if (m.observer().trace.enabled())
        out.trace = m.observer().trace.drain();
    return out;
}

enum class ManualKind { Tsx, ControlFlow };

/**
 * TSX / control-flow trial: the generic differential pattern without
 * the Microscope engine.  The prefix runs the victim to a retired-
 * instruction boundary; each iteration either restores the boundary
 * snapshot (@p diff) or restores the pre-start snapshot and re-runs
 * the prefix, then reseeds and runs the rest of the program, all
 * through @p runner.
 */
exp::TrialOutput
manualTrial(const exp::TrialContext &ctx, bool diff, ManualKind kind,
            const Runner &runner)
{
    exp::TrialOutput out;
    os::Machine m(ctx.machine);
    auto &kernel = m.kernel();
    const bool secret = (ctx.index & 1) != 0;
    const attack::VictimImage victim =
        kind == ManualKind::Tsx
            ? attack::buildTsxVictim(kernel, secret, /*max_retries=*/4)
            : attack::buildControlFlowVictim(kernel, secret);

    const os::Snapshot pre = m.snapshot();
    constexpr std::uint64_t kBoundary = 5;
    const auto runPrefix = [&]() {
        kernel.startOnContext(victim.pid, 0, victim.program);
        const bool reached = runner.runUntil(
            m, [&]() { return m.core().stats(0).retired >= kBoundary; },
            kRunBudget);
        if (!reached)
            throw std::runtime_error("prefix never reached boundary");
    };
    runPrefix();
    os::Snapshot mid;
    if (diff)
        mid = m.snapshot();

    std::vector<std::uint64_t> latencies;
    for (std::uint64_t i = 0; i < kIterations; ++i) {
        const std::uint64_t seed = exp::deriveReplaySeed(ctx.seed, i);
        if (diff) {
            m.restoreFrom(mid);
        } else {
            m.restoreFrom(pre);
            runPrefix();
        }
        m.reseed(seed);
        if (!runner.runUntilHalted(m, 0, kRunBudget))
            throw std::runtime_error("window never halted");
        for (const VAddr va : {victim.transmitA, victim.transmitB}) {
            if (va != 0)
                latencies.push_back(kernel.timedProbe(victim.pid, va)
                                        .latency);
        }
    }

    out.simCycles = m.cycle();
    for (const std::uint64_t latency : latencies)
        out.metric.add(static_cast<double>(latency));

    const auto &stats = m.core().stats(0);
    json::Value lat = json::Value::array();
    for (const std::uint64_t latency : latencies)
        lat.push(latency);
    out.payload = json::Value::object()
                      .set("latencies", std::move(lat))
                      .set("final_cycle", m.cycle())
                      .set("retired", stats.retired)
                      .set("mispredicts", stats.mispredicts)
                      .set("tx_aborts", stats.txAborts);

    obs::MetricRegistry registry;
    m.exportMetrics(registry);
    out.metrics = registry.snapshot();
    if (m.observer().trace.enabled())
        out.trace = m.observer().trace.drain();
    return out;
}

using TrialFn = std::function<exp::TrialOutput(
    const exp::TrialContext &, bool, const Runner &)>;

exp::CampaignResult
runMatrixCampaign(const char *name, const TrialFn &trial, bool diff,
                  bool chaos, const Runner &runner, unsigned workers)
{
    exp::CampaignSpec spec;
    spec.name = name;
    spec.trials = 3;
    spec.masterSeed = 7;
    spec.workers = workers;
    spec.body = [&trial, diff, runner](const exp::TrialContext &ctx) {
        return trial(ctx, diff, runner);
    };
    return exp::runCampaign(test::withFaultPlan(
        std::move(spec),
        chaos ? fault::FaultPlan::chaos() : fault::FaultPlan{}));
}

/**
 * The matrix: one reference campaign (differential replay off), then
 * every (diff, stepping, workers) cell must fingerprint identically.
 */
void
expectMatrixIdentity(const char *name, const TrialFn &trial, bool chaos)
{
    const exp::CampaignResult ref =
        runMatrixCampaign(name, trial, false, chaos, kMachineLoop, 1);
    ASSERT_EQ(ref.aggregate.ok, ref.trialCount)
        << "reference campaign must succeed, or the identity check "
           "is vacuous";
    const std::string want = exp::deterministicFingerprint(ref);

    struct Cell
    {
        bool diff;
        Runner runner;
        unsigned workers;
    };
    const Cell cells[] = {
        {false, kEveryCycle, 4}, {true, kMachineLoop, 1},
        {true, kMachineLoop, 2}, {true, kMachineLoop, 4},
        {true, kEveryCycle, 1},  {true, kEveryCycle, 2},
        {true, kEveryCycle, 4},
    };
    for (const Cell &cell : cells) {
        const exp::CampaignResult got = runMatrixCampaign(
            name, trial, cell.diff, chaos, cell.runner, cell.workers);
        EXPECT_EQ(exp::deterministicFingerprint(got), want)
            << "diff=" << cell.diff
            << " everyCycle=" << cell.runner.everyCycle
            << " workers=" << cell.workers;
    }
}

exp::TrialContext
soloContext(std::uint64_t seed, bool trace)
{
    exp::TrialContext ctx;
    ctx.index = 0;
    ctx.seed = seed;
    ctx.machine = os::MachineConfig{};
    ctx.machine.seed = seed;
    ctx.machine.obs.traceEvents = trace;
    return ctx;
}

} // namespace

// --------------------------------------------------------------------
// The bit-identity matrix.
// --------------------------------------------------------------------

TEST(DiffReplayMatrix, PageFaultQuiet)
{
    expectMatrixIdentity("diff_pf_quiet", pageFaultTrial, false);
}

TEST(DiffReplayMatrix, PageFaultChaos)
{
    expectMatrixIdentity("diff_pf_chaos", pageFaultTrial, true);
}

TEST(DiffReplayMatrix, TsxQuiet)
{
    const TrialFn fn = [](const exp::TrialContext &ctx, bool diff,
                          const Runner &runner) {
        return manualTrial(ctx, diff, ManualKind::Tsx, runner);
    };
    expectMatrixIdentity("diff_tsx_quiet", fn, false);
}

TEST(DiffReplayMatrix, TsxChaos)
{
    const TrialFn fn = [](const exp::TrialContext &ctx, bool diff,
                          const Runner &runner) {
        return manualTrial(ctx, diff, ManualKind::Tsx, runner);
    };
    expectMatrixIdentity("diff_tsx_chaos", fn, true);
}

TEST(DiffReplayMatrix, ControlFlowQuiet)
{
    const TrialFn fn = [](const exp::TrialContext &ctx, bool diff,
                          const Runner &runner) {
        return manualTrial(ctx, diff, ManualKind::ControlFlow, runner);
    };
    expectMatrixIdentity("diff_cf_quiet", fn, false);
}

TEST(DiffReplayMatrix, ControlFlowChaos)
{
    const TrialFn fn = [](const exp::TrialContext &ctx, bool diff,
                          const Runner &runner) {
        return manualTrial(ctx, diff, ManualKind::ControlFlow, runner);
    };
    expectMatrixIdentity("diff_cf_chaos", fn, true);
}

// --------------------------------------------------------------------
// Engine protocol and component-level checks.
// --------------------------------------------------------------------

TEST(DiffReplayEngine, SnapshotProtocol)
{
    os::Machine m;
    auto &kernel = m.kernel();
    const PfVictim victim = makePfVictim(kernel);

    ms::Microscope scope(m);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle;
    recipe.confidence = 3;
    recipe.maxEpisodes = 1;
    recipe.differentialReplay = true;
    scope.setRecipe(std::move(recipe));

    // No snapshot point yet: taking one is a usage error.
    EXPECT_FALSE(scope.episodeSnapshotPending());
    EXPECT_THROW(scope.takeEpisodeSnapshot(), SimFatal);
    EXPECT_FALSE(scope.hasEpisodeSnapshot());

    scope.arm();
    kernel.startOnContext(victim.pid, 0, victim.program);
    ASSERT_TRUE(m.runUntil(
        [&]() { return scope.episodeSnapshotPending(); }, kRunBudget));
    EXPECT_EQ(scope.replaysThisEpisode(), 1u);

    scope.takeEpisodeSnapshot();
    EXPECT_FALSE(scope.episodeSnapshotPending());
    ASSERT_TRUE(scope.hasEpisodeSnapshot());
    EXPECT_EQ(scope.episodeState().replays, 1u);
    EXPECT_TRUE(scope.episodeState().armed);
    EXPECT_EQ(scope.episodeSnapshot().cycle(), m.cycle());

    // Re-entering the episode twice from the same seed is bit-
    // identical: same halt cycle, same stats.
    scope.restoreEpisode(/*seed=*/123);
    ASSERT_TRUE(m.runUntilHalted(0, kRunBudget));
    const Cycles first_halt = m.cycle();
    const std::uint64_t first_replays = scope.stats().totalReplays;

    scope.restoreEpisode(/*seed=*/123);
    ASSERT_TRUE(m.runUntilHalted(0, kRunBudget));
    EXPECT_EQ(m.cycle(), first_halt);
    EXPECT_EQ(scope.stats().totalReplays, first_replays);

    // Re-arming a fresh attack invalidates the held snapshot.
    scope.arm();
    EXPECT_FALSE(scope.hasEpisodeSnapshot());
    EXPECT_FALSE(scope.episodeSnapshotPending());
    scope.disarm();

    // And without the recipe knob, the engine never offers one.
    ms::AttackRecipe plain;
    plain.victim = victim.pid;
    plain.replayHandle = victim.handle;
    plain.confidence = 2;
    plain.maxEpisodes = 1;
    scope.setRecipe(std::move(plain));
    scope.arm();
    kernel.startOnContext(victim.pid, 0, victim.program);
    ASSERT_TRUE(m.runUntilHalted(0, kRunBudget));
    EXPECT_FALSE(scope.episodeSnapshotPending());
}

TEST(DiffReplayEngine, TraceBitIdentity)
{
    // With event tracing on, the differential arm's trace (restored
    // ring + window events) must equal the re-simulated arm's
    // (re-recorded prefix + window events), event for event.
    const exp::TrialOutput on = pageFaultTrial(
        soloContext(99, true), /*diff=*/true, kMachineLoop);
    const exp::TrialOutput off = pageFaultTrial(
        soloContext(99, true), /*diff=*/false, kMachineLoop);
    EXPECT_FALSE(on.trace.empty());
    EXPECT_EQ(on.trace.total, off.trace.total);
    EXPECT_EQ(on.trace.dropped, off.trace.dropped);
    ASSERT_EQ(on.trace.events.size(), off.trace.events.size());
    for (std::size_t i = 0; i < on.trace.events.size(); ++i) {
        const obs::Event &a = on.trace.events[i];
        const obs::Event &b = off.trace.events[i];
        EXPECT_EQ(a.cycle, b.cycle) << "event " << i;
        EXPECT_EQ(a.kind, b.kind) << "event " << i;
        EXPECT_EQ(a.a, b.a) << "event " << i;
        EXPECT_EQ(a.b, b.b) << "event " << i;
        EXPECT_EQ(a.addr, b.addr) << "event " << i;
    }
}

TEST(DiffReplayEngine, CrossInstanceRestoreMatchesInPlace)
{
    // An episode frozen on one Machine re-enters on a *different*
    // Machine instance (same structural config) bit-identically:
    // restoreEpisodeFrom carries the full simulated state, and
    // adoptEpisodeState re-wires the engine, so which host object
    // runs the window is invisible to the results.
    os::Machine a;
    ms::Microscope scopeA(a);
    const PfVictim victim = makePfVictim(a.kernel());

    const auto armOn = [&victim](ms::Microscope &scope) {
        ms::AttackRecipe recipe;
        recipe.victim = victim.pid;
        recipe.replayHandle = victim.handle;
        recipe.confidence = 2;
        recipe.maxEpisodes = 1;
        recipe.differentialReplay = true;
        scope.setRecipe(std::move(recipe));
    };
    armOn(scopeA);
    scopeA.arm();
    a.kernel().startOnContext(victim.pid, 0, victim.program);
    ASSERT_TRUE(a.runUntil(
        [&]() { return scopeA.episodeSnapshotPending(); }, kRunBudget));
    scopeA.takeEpisodeSnapshot();

    // In place: the originating machine runs the window.
    constexpr std::uint64_t kSeed = 77;
    scopeA.restoreEpisodeFrom(scopeA.episodeSnapshot(),
                              scopeA.episodeState(), kSeed);
    ASSERT_TRUE(a.runUntilHalted(0, kRunBudget));
    const Cycles wantHalt = a.cycle();
    const std::uint64_t wantReplays = scopeA.stats().totalReplays;
    const std::uint64_t wantRetired = a.core().stats(0).retired;

    // Cross-instance: a fresh machine that never built the victim
    // adopts the snapshot.  The recipe's pids and addresses are the
    // frozen machine's — the restore brings the matching processes.
    os::Machine b;
    ms::Microscope scopeB(b);
    armOn(scopeB);
    scopeB.restoreEpisodeFrom(scopeA.episodeSnapshot(),
                              scopeA.episodeState(), kSeed);
    ASSERT_TRUE(b.runUntilHalted(0, kRunBudget));
    EXPECT_EQ(b.cycle(), wantHalt);
    EXPECT_EQ(scopeB.stats().totalReplays, wantReplays);
    EXPECT_EQ(b.core().stats(0).retired, wantRetired);
}

TEST(DiffReplayEngine, PhysMemReshareRepointsWrittenPages)
{
    // A restore re-points only the PhysMem slots whose page differs
    // from the snapshot's (DESIGN.md §15): none right after another
    // restore, and exactly the pages the victim's run wrote after one.
    // The count is work done, pinned like a fingerprint: the run
    // stores to the handle page and the transmit page.
    constexpr std::uint64_t kPagesWrittenPerRun = 2;
    os::Machine m;
    auto &kernel = m.kernel();
    const PfVictim victim = makePfVictim(kernel);
    cpu::ProgramBuilder b;
    b.movi(1, static_cast<std::int64_t>(victim.handle))
        .movi(2, static_cast<std::int64_t>(victim.transmit))
        .ld(3, 1, 0)
        .ld(4, 2, 0)
        .st(1, 8, 4)
        .st(2, 8, 3)
        .halt();
    const auto program = share(b.build());

    kernel.startOnContext(victim.pid, 0, program);
    ASSERT_TRUE(m.runUntilHalted(0, kRunBudget));
    const os::Snapshot snap = m.snapshot();

    m.restoreFrom(snap);
    std::vector<Cycles> halts;
    for (int i = 0; i < 3; ++i) {
        const std::uint64_t before = m.mem().pagesRepointed();
        m.restoreFrom(snap);
        EXPECT_EQ(m.mem().pagesRepointed() - before,
                  i == 0 ? 0 : kPagesWrittenPerRun)
            << "restore " << i;
        m.reseed(1000 + static_cast<std::uint64_t>(i % 2));
        kernel.startOnContext(victim.pid, 0, program);
        ASSERT_TRUE(m.runUntilHalted(0, kRunBudget));
        halts.push_back(m.cycle());
    }
    // Seeds 1000/1001/1000: runs 0 and 2 are bit-identical.
    EXPECT_EQ(halts[0], halts[2]);
}
