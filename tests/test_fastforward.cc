/**
 * @file
 * Bit-identity suite for event-driven fast-forward (DESIGN.md §10).
 *
 * Machine::run/runUntil jump the clock over provably inert cycles.
 * The contract is that this is purely a wall-clock optimization:
 * every stat counter, MetricSnapshot, trace event, and campaign JSON
 * fingerprint must match a cycle-by-cycle run bit for bit.  The
 * cycle-by-cycle reference is the test-owned loop in every_cycle.hh.
 *
 *  - Machine-level cases run twin machines, one through the machine's
 *    own loop and one through the reference, and compare them: idle
 *    and fault-handler skips long enough to take Rng::discard's jump
 *    at 1, 2 and 3 SMT contexts, landing on the limit, an unbounded
 *    budget, and a fig10-shaped replay scenario (control-flow victim, divider
 *    monitor, long page walks, dense faults, tracing on).
 *  - Registry recipes (fig10 port contention, fig11 AES replay, quiet
 *    and under dense faults, and the traced runFig11 event log) build
 *    their own machines beyond a test's reach, so they are pinned as
 *    literals captured from the every-cycle arm of the former
 *    fast-forward switch, where both arms agreed.  Each fault plan is
 *    set explicitly so USCOPE_FAULT_PLAN=chaos cannot move a pin.  The
 *    campaigns run at 1/2/4 workers, and the suite runs under TSan in
 *    CI, where the worker sweep doubles as a race check on the skip
 *    path.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "attack/aes_attack.hh"
#include "attack/monitor.hh"
#include "attack/victims.hh"
#include "core/microscope.hh"
#include "cpu/program.hh"
#include "every_cycle.hh"
#include "exp/campaign.hh"
#include "fault_pinned.hh"
#include "fault/plan.hh"
#include "os/machine.hh"
#include "svc/registry.hh"

using namespace uscope;
using test::kEveryCycle;
using test::kMachineLoop;
using test::Runner;

namespace
{

// The fingerprint shape moved into the library (exp::
// deterministicFingerprint) so the service daemon, the benches, and
// these tests all compare the exact same bytes.
using exp::deterministicFingerprint;

/**
 * A registry recipe on an explicit fault plan.  The plan is pinned
 * even when empty, so a USCOPE_FAULT_PLAN=chaos environment cannot
 * make the quiet campaigns noisy.
 */
exp::CampaignSpec
recipeSpec(const char *recipe, const char *name, std::size_t trials,
           unsigned workers, const fault::FaultPlan &plan)
{
    svc::CampaignRequest request;
    request.recipe = recipe;
    request.name = name;
    request.trials = trials;
    exp::CampaignSpec spec =
        test::withFaultPlan(svc::buildSpec(request), plan);
    spec.workers = workers;
    return spec;
}

/** Fig.-10-shaped: SMT port-contention sweep, div vs mul arms. */
exp::CampaignSpec
fig10Spec(unsigned workers, const fault::FaultPlan &plan = {})
{
    return recipeSpec("fig10_port_contention", "ff_fig10", 4, workers,
                      plan);
}

/** Fig.-11-shaped: one AES replay timeline per trial, random keys. */
exp::CampaignSpec
fig11Spec(unsigned workers, const fault::FaultPlan &plan = {})
{
    return recipeSpec("fig11_aes_replay", "ff_fig11", 3, workers, plan);
}

/**
 * A dense FaultPlan for the noisy runs: every fault class fires inside
 * these small workloads, so they cover the scheduled-injection path
 * (nextEventCycle interplay) and all three event-coupled noise
 * streams.
 */
fault::FaultPlan
denseFaults()
{
    fault::FaultPlan plan;
    plan.interruptMeanGap = 800;
    plan.interruptEvictions = 64;
    plan.preemptMeanGap = 5000;
    plan.portJitterRate = 0.1;
    plan.portJitterMax = 3;
    plan.probeJitterMax = 5;
    plan.sampleDropRate = 0.1;
    return plan;
}

/** fig10Spec under the dense fault plan. */
exp::CampaignSpec
noisyFig10Spec(unsigned workers)
{
    exp::CampaignSpec spec = fig10Spec(workers, denseFaults());
    spec.name = "ff_fig10_noisy";
    return spec;
}

/** fig11Spec under the dense fault plan. */
exp::CampaignSpec
noisyFig11Spec(unsigned workers)
{
    exp::CampaignSpec spec = fig11Spec(workers, denseFaults());
    spec.name = "ff_fig11_noisy";
    return spec;
}

/**
 * Run @p make at 1/2/4 workers; each fingerprint must equal @p pin,
 * exp::fnv1aHex of the every-cycle run's fingerprint.
 */
void
expectPinnedAtEveryWorkerCount(exp::CampaignSpec (*make)(unsigned),
                               const char *pin)
{
    for (const unsigned workers : {1u, 2u, 4u}) {
        const exp::CampaignResult result = exp::runCampaign(make(workers));
        EXPECT_EQ(exp::fnv1aHex(deterministicFingerprint(result)), pin)
            << "workers=" << workers;
    }
}

/** An event log as text, one event per line, for digests and diffs. */
std::string
eventLogText(const obs::EventLog &log)
{
    std::string text = std::to_string(log.total) + " " +
                       std::to_string(log.dropped) + "\n";
    for (const obs::Event &e : log.events) {
        text += std::to_string(e.cycle) + " " +
                std::to_string(static_cast<unsigned>(e.kind)) + " " +
                std::to_string(e.a) + " " + std::to_string(e.b) + " " +
                std::to_string(e.addr) + "\n";
    }
    return text;
}

/**
 * The fault-handler wait these tests skip: the ~27.8k cycles a
 * replay handler stalls the victim for.  That is far past
 * Rng::kDiscardJumpMin, so fast-forward jumps the core's stream.
 */
constexpr Cycles kHandlerCycles = 27'800;

/** Idle: nothing in flight, so one skip covers the whole span. */
void
idleSkip(os::Machine &machine, const Runner &runner)
{
    ASSERT_EQ(machine.nextEventCycle(), kNoEventCycle);
    runner.run(machine, 3 * Rng::kDiscardJumpMin + 5);
}

/**
 * Busy: a victim on context 0 computes, faults on a non-present page
 * and computes again while every other context idles, so the
 * handler's stall is one skip between two busy stretches.
 */
void
faultHandlerSkip(os::Machine &machine, const Runner &runner)
{
    auto &kernel = machine.kernel();
    const os::Pid pid = kernel.createProcess("victim");
    const VAddr va = kernel.allocVirtual(pid, pageSize);
    kernel.pageTable(pid).setPresent(va, false);
    cpu::ProgramBuilder b;
    b.movi(1, static_cast<std::int64_t>(va))
        .movi(2, 7)
        .mul(3, 2, 2)
        .ld(4, 1, 0)
        .mul(5, 3, 2)
        .halt();
    kernel.startOnContext(pid, 0,
                          std::make_shared<const cpu::Program>(b.build()));
    ASSERT_TRUE(runner.runUntilHalted(machine, 0, 2 * kHandlerCycles));
    ASSERT_GE(kernel.handlerCycles(), kHandlerCycles);
}

/** Both skips, fault handler first. */
void
faultThenIdleSkip(os::Machine &machine, const Runner &runner)
{
    faultHandlerSkip(machine, runner);
    idleSkip(machine, runner);
}

using Prelude = void (*)(os::Machine &, const Runner &);

/**
 * Run @p prelude on a quiet machine, then a divide loop on both SMT
 * contexts for a fixed span, both through @p runner: the SMT issue
 * rotation settles each divider conflict, so the metrics snapshot
 * after it reads the core's RNG stream.  @p reseed swaps that stream
 * out between the two, for the control that shows it does.
 */
std::pair<std::string, Cycles>
preludeThenContend(Prelude prelude, const Runner &runner,
                   bool reseed = false)
{
    os::MachineConfig config;
    config.costs.faultBase = kHandlerCycles;
    config.fault = fault::FaultPlan{};
    os::Machine machine(config);
    prelude(machine, runner);
    if (reseed)
        machine.core().reseed(0x5EED);
    auto &kernel = machine.kernel();
    for (unsigned ctx = 0; ctx < cpu::kNumContexts; ++ctx) {
        const os::Pid pid =
            kernel.createProcess("div" + std::to_string(ctx));
        // Loop bodies of different lengths: how the divider is split
        // between contexts shows in the total retired.
        cpu::ProgramBuilder b;
        b.movi(1, 1000).movi(2, 3).label("loop").div(3, 1, 2);
        for (unsigned i = 0; i <= ctx; ++i)
            b.addi(1, 1, 1);
        b.jmp("loop");
        kernel.startOnContext(
            pid, ctx, std::make_shared<const cpu::Program>(b.build()));
    }
    runner.run(machine, 4000);
    return {machine.metricsSnapshot().toJson().dump(), machine.cycle()};
}

/** Fast-forward leaves the same snapshot as a cycle-by-cycle run. */
void
expectStreamKept(Prelude prelude)
{
    const auto baseline = preludeThenContend(prelude, kEveryCycle);
    EXPECT_EQ(preludeThenContend(prelude, kMachineLoop), baseline);
    // A different stream must show, or the check above is vacuous.
    EXPECT_NE(preludeThenContend(prelude, kMachineLoop, true), baseline);
}

/** What the replay scenario leaves behind. */
struct ReplayOutcome
{
    obs::MetricSnapshot metrics;
    ms::MicroscopeStats scope;
    std::string events;
    Cycles cycle = 0;
};

/**
 * A fig10-shaped replay, test-owned so it can take the runner: the
 * control-flow victim on context 0 replays its divide window under a
 * Microscope recipe with the longest page walks while the divider
 * monitor samples on context 1, with dense faults and tracing on.
 * It crosses the replay, fault-handler and injector paths a registry
 * pin covers, against the every-cycle loop itself.
 */
ReplayOutcome
replayScenario(const Runner &runner)
{
    os::MachineConfig config;
    config.fault = denseFaults();
    config.obs.traceEvents = true;
    os::Machine machine(config);
    auto &kernel = machine.kernel();
    const attack::VictimImage victim =
        attack::buildControlFlowVictim(kernel, /*secret=*/true);
    const attack::MonitorImage monitor =
        attack::buildDivContentionMonitor(kernel, /*samples=*/40,
                                          /*cont=*/4);

    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle + 0x20;
    recipe.confidence = 4;
    recipe.walkPlan = ms::PageWalkPlan::longest();
    scope.setRecipe(std::move(recipe));

    scope.arm();
    kernel.startOnContext(victim.pid, 0, victim.program);
    kernel.startOnContext(monitor.pid, 1, monitor.program);
    EXPECT_TRUE(runner.runUntil(
        machine, [&machine] { return machine.core().halted(1); },
        10'000'000));
    scope.disarm();
    EXPECT_TRUE(runner.runUntilHalted(machine, 0, 1'000'000));

    obs::MetricRegistry registry;
    machine.exportMetrics(registry);
    scope.exportMetrics(registry);
    return {registry.snapshot(), scope.stats(),
            eventLogText(machine.observer().trace.drain()),
            machine.cycle()};
}

} // namespace

TEST(FastForward, Fig10FingerprintBitIdenticalAcrossModesAndWorkers)
{
    expectPinnedAtEveryWorkerCount(
        [](unsigned workers) { return fig10Spec(workers); },
        "0xb1869c870d803ef9");
}

TEST(FastForward, Fig11FingerprintBitIdenticalAcrossModesAndWorkers)
{
    expectPinnedAtEveryWorkerCount(
        [](unsigned workers) { return fig11Spec(workers); },
        "0x2cfb31f70528602d");
}

TEST(FastForward, NoisyFig10FingerprintBitIdenticalEverywhere)
{
    // The §11 contract: a scheduled injection holds the event horizon,
    // so fast-forward lands on every firing cycle and the whole fault
    // schedule — and everything downstream of it — is bit-identical
    // to a cycle-by-cycle run, at any worker count.
    expectPinnedAtEveryWorkerCount(noisyFig10Spec, "0xf0d722c34193ccbc");
}

TEST(FastForward, NoisyFig11FingerprintBitIdenticalEverywhere)
{
    expectPinnedAtEveryWorkerCount(noisyFig11Spec, "0xe7ed38f3dfa16633");
}

TEST(FastForward, NoisyRunsActuallyInjectFaults)
{
    // Guard against the noisy pins holding vacuously: the dense plan
    // must fire visibly inside these small workloads.
    const exp::CampaignResult result =
        exp::runCampaign(noisyFig10Spec(1));
    const obs::MetricValue *interrupts =
        result.aggregate.metrics.find("fault.interrupts");
    ASSERT_NE(interrupts, nullptr);
    EXPECT_GT(interrupts->counter, 0u);
    const obs::MetricValue *dropped =
        result.aggregate.metrics.find("fault.samples_dropped");
    ASSERT_NE(dropped, nullptr);
    EXPECT_GT(dropped->counter, 0u);
}

TEST(FastForward, TracedFig11EventLogIsBitIdentical)
{
    // Event-trace spans are part of the bit-identity contract: with
    // tracing enabled the skip logic must refuse to elide cycles that
    // would have recorded events (e.g. per-cycle PortConflict retries).
    // The pins are the every-cycle run's log: its counts, the
    // fnv1aHex of eventLogText, and the run's length.
    attack::AesAttackConfig config;
    for (unsigned i = 0; i < 16; ++i) {
        config.key[i] = static_cast<std::uint8_t>(i);
        config.plaintext[i] = static_cast<std::uint8_t>(0x20 + i);
    }
    config.machine.obs.traceEvents = true;
    config.machine.fault = fault::FaultPlan{};
    const attack::Fig11Result result = attack::runFig11(config);

    EXPECT_EQ(result.events.total, 3791u);
    EXPECT_EQ(result.events.dropped, 0u);
    EXPECT_EQ(result.events.events.size(), 3791u);
    EXPECT_EQ(exp::fnv1aHex(eventLogText(result.events)),
              "0x545f3814d865478b");
    EXPECT_EQ(result.totalCycles, 38062u);
}

TEST(FastForward, RunLandsExactlyOnTheLimit)
{
    // An idle machine has no pending events at all; the jump must
    // clamp to the requested cycle count, never overshoot it, and
    // leave what the every-cycle twin leaves.  The premise requires a
    // noiseless machine: pin an empty FaultPlan so a
    // USCOPE_FAULT_PLAN=chaos environment (the CI chaos job) cannot
    // schedule injections that would hold the event horizon finite.
    os::MachineConfig mcfg;
    mcfg.fault = fault::FaultPlan{};
    const auto runTo = [&mcfg](const Runner &runner) {
        os::Machine machine(mcfg);
        EXPECT_EQ(machine.nextEventCycle(), kNoEventCycle);
        runner.run(machine, 12345);
        EXPECT_EQ(machine.cycle(), 12345u);
        runner.run(machine, 1);
        EXPECT_EQ(machine.cycle(), 12346u);
        return machine.metricsSnapshot().toJson().dump();
    };
    EXPECT_EQ(runTo(kMachineLoop), runTo(kEveryCycle));
}

TEST(FastForward, UnboundedBudgetRunsToTheHalt)
{
    // kNoEventCycle as a budget means "no limit".  Added to a nonzero
    // cycle it must saturate, not wrap into the past and run nothing.
    const auto haltCycle = [](const Runner &runner, Cycles budget) {
        os::MachineConfig config;
        config.fault = fault::FaultPlan{};
        os::Machine machine(config);
        runner.run(machine, 10);
        auto &kernel = machine.kernel();
        const os::Pid pid = kernel.createProcess("short");
        cpu::ProgramBuilder b;
        b.movi(1, 1).movi(2, 2).halt();
        kernel.startOnContext(
            pid, 0, std::make_shared<const cpu::Program>(b.build()));
        EXPECT_TRUE(runner.runUntilHalted(machine, 0, budget));
        return machine.cycle();
    };
    const Cycles bounded = haltCycle(kEveryCycle, 1'000'000);
    EXPECT_EQ(bounded, 14u);
    EXPECT_EQ(haltCycle(kMachineLoop, kNoEventCycle), bounded);
    EXPECT_EQ(haltCycle(kEveryCycle, kNoEventCycle), bounded);
}

TEST(FastForward, RngStreamMatchesCycleByCycleRun)
{
    // Skipped cycles still consume the per-cycle SMT arbitration draw,
    // so the core's RNG stream — and with it every downstream decision
    // — stays aligned with the baseline.  Compare full machine state
    // via the metrics snapshot after a mixed idle/busy run.
    const auto snapshot = [](const Runner &runner) {
        os::Machine machine;
        runner.run(machine, 5000);
        return std::pair(machine.metricsSnapshot().toJson().dump(),
                         machine.cycle());
    };
    EXPECT_EQ(snapshot(kMachineLoop), snapshot(kEveryCycle));
}

TEST(FastForward, IdleSkipPastTheJumpThresholdKeepsTheStream)
{
    expectStreamKept(idleSkip);
}

TEST(FastForward, SkippedFaultHandlerKeepsTheStream)
{
    expectStreamKept(faultHandlerSkip);
}

TEST(FastForward, FaultThenIdleSkipKeepsTheStream)
{
    expectStreamKept(faultThenIdleSkip);
}

TEST(FastForward, ReplayScenarioMatchesEveryCycleRun)
{
    const ReplayOutcome fast = replayScenario(kMachineLoop);
    const ReplayOutcome slow = replayScenario(kEveryCycle);
    // Not vacuous: the window replayed, faults fired, events recorded.
    EXPECT_GT(fast.scope.totalReplays, 0u);
    const obs::MetricValue *interrupts =
        fast.metrics.find("fault.interrupts");
    ASSERT_NE(interrupts, nullptr);
    EXPECT_GT(interrupts->counter, 0u);
    EXPECT_GT(fast.events.size(), 100u);

    EXPECT_EQ(fast.metrics.toJson().dump(), slow.metrics.toJson().dump());
    EXPECT_EQ(fast.cycle, slow.cycle);
    const auto fields = [](const ms::MicroscopeStats &s) {
        return std::tuple(s.handleFaults, s.pivotFaults, s.foreignFaults,
                          s.episodes, s.totalReplays,
                          s.replayCounterSaturations);
    };
    EXPECT_EQ(fields(fast.scope), fields(slow.scope));
    EXPECT_EQ(fast.events, slow.events);
}

TEST(WorkGolden, PrefixTrialSteps)
{
    // How the step loop advances one aes_prefix_replay trial (master
    // seed 42, trial 0, no faults): cycles ticked, clock jumps and
    // next-event queries.  Host work, pinned like a fingerprint: the
    // loop asks for the next event only after a tick that did no work
    // (DESIGN.md §10).  Asking before every step, as the loop once
    // did, makes it 674 ticks, 73 jumps and 747 queries.
    svc::CampaignRequest request;
    request.recipe = "aes_prefix_replay";
    request.masterSeed = 42;
    const exp::CampaignSpec spec = svc::buildSpec(request);

    // The executor's fork path, by hand, to reach the trial's machine.
    os::MachineConfig config;
    config.fault = fault::FaultPlan{};
    config.seed = exp::deriveWarmupSeed(request.masterSeed);
    os::Machine warm(config);
    const std::shared_ptr<const void> enclave = spec.warmup(warm);
    const os::Snapshot snap = warm.snapshot();

    exp::TrialContext ctx;
    ctx.seed = exp::deriveTrialSeed(request.masterSeed, 0);
    ctx.machine = config;
    ctx.machine.seed = ctx.seed;
    os::Machine fork(config);
    fork.restoreFrom(snap);
    fork.reseed(ctx.seed);
    ctx.fork = &fork;
    ctx.warmupData = enclave.get();
    ctx.forkCycle = fork.cycle();
    const exp::TrialOutput out = spec.body(ctx);
    EXPECT_EQ(out.metric.mean(), 1.0); // the trial read the right lines

    const os::Machine::StepWork &work = fork.stepWork();
    EXPECT_EQ(work.ticks, 747u);
    EXPECT_EQ(work.jumps, 57u);
    EXPECT_EQ(work.queries, 74u);
}
