/**
 * @file
 * Differential bit-identity suite for event-driven fast-forward
 * (DESIGN.md §10).
 *
 * MachineConfig::fastForward lets Machine::run/runUntil jump the clock
 * over provably inert cycles.  The contract is that this is purely a
 * wall-clock optimization: every stat counter, MetricSnapshot, trace
 * event, and campaign JSON fingerprint must match the cycle-by-cycle
 * baseline bit for bit.  This suite enforces the contract on
 * fig10-shaped (port contention) and fig11-shaped (AES replay)
 * workloads, with fast-forward on and off, at 1/2/4 workers — and is
 * run under TSan in CI, where the worker sweep doubles as a race
 * check on the skip path.  Machine-level cases pin the core's RNG
 * stream across skips long enough to take Rng::discard's jump, at 1,
 * 2 and 3 SMT contexts.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "attack/aes_attack.hh"
#include "cpu/program.hh"
#include "exp/campaign.hh"
#include "os/machine.hh"
#include "svc/registry.hh"

using namespace uscope;

namespace
{

// The fingerprint shape moved into the library (exp::
// deterministicFingerprint) so the service daemon, the benches, and
// these tests all compare the exact same bytes.
using exp::deterministicFingerprint;

/**
 * A registry recipe with an explicit machine: fast-forward and the
 * fault plan both come from the spec's machine factory.  The plan is
 * pinned even when empty, so a USCOPE_FAULT_PLAN=chaos environment
 * cannot make the quiet arms noisy.
 */
exp::CampaignSpec
recipeSpec(const char *recipe, const char *name, std::size_t trials,
           bool fast_forward, unsigned workers,
           const fault::FaultPlan &plan)
{
    svc::CampaignRequest request;
    request.recipe = recipe;
    request.name = name;
    request.trials = trials;
    exp::CampaignSpec spec = svc::buildSpec(request);
    spec.workers = workers;
    spec.machineFactory = [fast_forward,
                           plan](const exp::TrialContext &) {
        os::MachineConfig config;
        config.fastForward = fast_forward;
        config.fault = plan;
        return config;
    };
    return spec;
}

/** Fig.-10-shaped: SMT port-contention sweep, div vs mul arms. */
exp::CampaignSpec
fig10Spec(bool fast_forward, unsigned workers,
          const fault::FaultPlan &plan = {})
{
    return recipeSpec("fig10_port_contention", "ff_fig10", 4,
                      fast_forward, workers, plan);
}

/** Fig.-11-shaped: one AES replay timeline per trial, random keys. */
exp::CampaignSpec
fig11Spec(bool fast_forward, unsigned workers,
          const fault::FaultPlan &plan = {})
{
    return recipeSpec("fig11_aes_replay", "ff_fig11", 3, fast_forward,
                      workers, plan);
}

/**
 * A dense FaultPlan for the noisy differential runs: every fault class
 * fires inside these small workloads, so the fingerprint covers the
 * scheduled-injection path (nextEventCycle interplay) and all three
 * event-coupled noise streams under fast-forward.
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
noisyFig10Spec(bool fast_forward, unsigned workers)
{
    exp::CampaignSpec spec =
        fig10Spec(fast_forward, workers, denseFaults());
    spec.name = "ff_fig10_noisy";
    return spec;
}

/** fig11Spec under the dense fault plan. */
exp::CampaignSpec
noisyFig11Spec(bool fast_forward, unsigned workers)
{
    exp::CampaignSpec spec =
        fig11Spec(fast_forward, workers, denseFaults());
    spec.name = "ff_fig11_noisy";
    return spec;
}

/** Run @p make over ff on/off × 1/2/4 workers; all must agree. */
void
expectBitIdenticalEverywhere(
    exp::CampaignSpec (*make)(bool, unsigned))
{
    const std::string baseline =
        deterministicFingerprint(exp::runCampaign(make(false, 1)));
    ASSERT_FALSE(baseline.empty());
    for (const bool fast_forward : {false, true}) {
        for (const unsigned workers : {1u, 2u, 4u}) {
            const exp::CampaignResult result =
                exp::runCampaign(make(fast_forward, workers));
            EXPECT_EQ(deterministicFingerprint(result), baseline)
                << "fast_forward=" << fast_forward
                << " workers=" << workers;
        }
    }
}

/**
 * The fault-handler wait these tests skip: the ~27.8k cycles a
 * replay handler stalls the victim for.  That is far past
 * Rng::kDiscardJumpMin, so fast-forward jumps the core's stream.
 */
constexpr Cycles kHandlerCycles = 27'800;

/** Idle: nothing in flight, so one skip covers the whole span. */
void
idleSkip(os::Machine &machine)
{
    ASSERT_EQ(machine.nextEventCycle(), kNoEventCycle);
    machine.run(3 * Rng::kDiscardJumpMin + 5);
}

/**
 * Busy: a victim on context 0 computes, faults on a non-present page
 * and computes again while every other context idles, so the
 * handler's stall is one skip between two busy stretches.
 */
void
faultHandlerSkip(os::Machine &machine)
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
    ASSERT_TRUE(machine.runUntilHalted(0, 2 * kHandlerCycles));
    ASSERT_GE(kernel.handlerCycles(), kHandlerCycles);
}

/** Both skips, fault handler first. */
void
faultThenIdleSkip(os::Machine &machine)
{
    faultHandlerSkip(machine);
    idleSkip(machine);
}

/**
 * Run @p prelude on a quiet machine with @p contexts SMT contexts,
 * then a divide loop on every context for a fixed span: the SMT issue
 * rotation settles each divider conflict, so the metrics snapshot
 * after it reads the core's RNG stream.  @p reseed swaps that stream
 * out between the two, for the control that shows it does.
 */
std::pair<std::string, Cycles>
preludeThenContend(unsigned contexts, void (*prelude)(os::Machine &),
                   bool fast_forward, bool reseed = false)
{
    os::MachineConfig config;
    config.core.numContexts = contexts;
    config.costs.faultBase = kHandlerCycles;
    config.fault = fault::FaultPlan{};
    config.fastForward = fast_forward;
    os::Machine machine(config);
    prelude(machine);
    if (reseed)
        machine.core().reseed(0x5EED);
    auto &kernel = machine.kernel();
    for (unsigned ctx = 0; ctx < contexts; ++ctx) {
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
    machine.run(4000);
    return {machine.metricsSnapshot().toJson().dump(), machine.cycle()};
}

/** Fast-forward leaves the same snapshot as a cycle-by-cycle run. */
void
expectStreamKept(unsigned contexts, void (*prelude)(os::Machine &))
{
    const auto baseline = preludeThenContend(contexts, prelude, false);
    EXPECT_EQ(preludeThenContend(contexts, prelude, true), baseline)
        << contexts << " contexts";
    // With one context the rotation has nothing to decide; with more,
    // a different stream must show, or the check above is vacuous.
    if (contexts > 1) {
        EXPECT_NE(preludeThenContend(contexts, prelude, true, true),
                  baseline)
            << contexts << " contexts";
    }
}

} // namespace

TEST(FastForward, Fig10FingerprintBitIdenticalAcrossModesAndWorkers)
{
    expectBitIdenticalEverywhere(
        [](bool ff, unsigned workers) { return fig10Spec(ff, workers); });
}

TEST(FastForward, Fig11FingerprintBitIdenticalAcrossModesAndWorkers)
{
    expectBitIdenticalEverywhere(
        [](bool ff, unsigned workers) { return fig11Spec(ff, workers); });
}

TEST(FastForward, NoisyFig10FingerprintBitIdenticalEverywhere)
{
    // The §11 contract: a scheduled injection holds the event horizon,
    // so fast-forward lands on every firing cycle and the whole fault
    // schedule — and everything downstream of it — is bit-identical
    // with the skip path on or off, at any worker count.
    expectBitIdenticalEverywhere(noisyFig10Spec);
}

TEST(FastForward, NoisyFig11FingerprintBitIdenticalEverywhere)
{
    expectBitIdenticalEverywhere(noisyFig11Spec);
}

TEST(FastForward, NoisyRunsActuallyInjectFaults)
{
    // Guard against the noisy differential tests passing vacuously:
    // the dense plan must fire visibly inside these small workloads.
    const exp::CampaignResult result =
        exp::runCampaign(noisyFig10Spec(true, 1));
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
    const auto run = [](bool fast_forward) {
        attack::AesAttackConfig config;
        for (unsigned i = 0; i < 16; ++i) {
            config.key[i] = static_cast<std::uint8_t>(i);
            config.plaintext[i] = static_cast<std::uint8_t>(0x20 + i);
        }
        config.machine.obs.traceEvents = true;
        config.machine.fastForward = fast_forward;
        return attack::runFig11(config);
    };
    const attack::Fig11Result on = run(true);
    const attack::Fig11Result off = run(false);

    EXPECT_EQ(on.events.total, off.events.total);
    EXPECT_EQ(on.events.dropped, off.events.dropped);
    ASSERT_EQ(on.events.events.size(), off.events.events.size());
    for (std::size_t i = 0; i < on.events.events.size(); ++i) {
        const obs::Event &a = on.events.events[i];
        const obs::Event &b = off.events.events[i];
        EXPECT_EQ(a.cycle, b.cycle) << "event " << i;
        EXPECT_EQ(a.kind, b.kind) << "event " << i;
        EXPECT_EQ(a.a, b.a) << "event " << i;
        EXPECT_EQ(a.b, b.b) << "event " << i;
        EXPECT_EQ(a.addr, b.addr) << "event " << i;
    }
}

TEST(FastForward, RunLandsExactlyOnTheLimit)
{
    // An idle machine has no pending events at all; the jump must
    // clamp to the requested cycle count, never overshoot it.  The
    // premise requires a noiseless machine: pin an empty FaultPlan so
    // a USCOPE_FAULT_PLAN=chaos environment (the CI chaos job) cannot
    // schedule injections that would hold the event horizon finite.
    os::MachineConfig mcfg;
    mcfg.fault = fault::FaultPlan{};
    os::Machine machine(mcfg);
    ASSERT_TRUE(machine.config().fastForward);
    EXPECT_EQ(machine.nextEventCycle(), kNoEventCycle);
    machine.run(12345);
    EXPECT_EQ(machine.cycle(), 12345u);
    machine.run(1);
    EXPECT_EQ(machine.cycle(), 12346u);
}

TEST(FastForward, RngStreamMatchesCycleByCycleRun)
{
    // Skipped cycles still consume the per-cycle SMT arbitration draw,
    // so the core's RNG stream — and with it every downstream decision
    // — stays aligned with the baseline.  Compare full machine state
    // via the metrics snapshot after a mixed idle/busy run.
    const auto snapshot = [](bool fast_forward) {
        os::MachineConfig config;
        config.fastForward = fast_forward;
        os::Machine machine(config);
        machine.run(5000);
        return std::pair(machine.metricsSnapshot().toJson().dump(),
                         machine.cycle());
    };
    EXPECT_EQ(snapshot(true), snapshot(false));
}

TEST(FastForward, IdleSkipPastTheJumpThresholdKeepsTheStream)
{
    expectStreamKept(2, idleSkip);
}

TEST(FastForward, SkippedFaultHandlerKeepsTheStream)
{
    expectStreamKept(2, faultHandlerSkip);
}

TEST(FastForward, OneAndThreeContextsKeepTheStream)
{
    // One context jumps like two; three cannot (below(3) may reject
    // draws), so it replays each draw and must agree all the same.
    for (const unsigned contexts : {1u, 3u})
        expectStreamKept(contexts, faultThenIdleSkip);
}
