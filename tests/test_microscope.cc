/**
 * @file
 * Unit tests for the MicroScope framework itself (src/core): the
 * Table-2 user API, recipe validation, the replay engine's episode
 * and pivot sequencing, walk-plan staging, and measurement helpers.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/microscope.hh"
#include "cpu/program.hh"
#include "os/machine.hh"

using namespace uscope;

namespace
{

std::shared_ptr<const cpu::Program>
share(cpu::Program program)
{
    return std::make_shared<const cpu::Program>(std::move(program));
}

/** Victim with a handle page, a pivot page, and a transmit page. */
struct TestVictim
{
    os::Pid pid;
    VAddr handle;
    VAddr pivot;
    VAddr transmit;
    std::shared_ptr<const cpu::Program> singleShot;  // no loop
    std::shared_ptr<const cpu::Program> loop3;       // 3 iterations
};

TestVictim
makeVictim(os::Kernel &kernel)
{
    TestVictim victim;
    victim.pid = kernel.createProcess("victim");
    victim.handle = kernel.allocVirtual(victim.pid, pageSize);
    victim.pivot = kernel.allocVirtual(victim.pid, pageSize);
    victim.transmit = kernel.allocVirtual(victim.pid, pageSize);

    {
        cpu::ProgramBuilder b;
        b.movi(1, static_cast<std::int64_t>(victim.handle))
            .movi(2, static_cast<std::int64_t>(victim.transmit))
            .ld(3, 1, 0)    // handle
            .ld(4, 2, 0)    // transmit
            .halt();
        victim.singleShot = share(b.build());
    }
    {
        cpu::ProgramBuilder b;
        b.movi(1, static_cast<std::int64_t>(victim.handle))
            .movi(2, static_cast<std::int64_t>(victim.pivot))
            .movi(3, static_cast<std::int64_t>(victim.transmit))
            .movi(5, 0)
            .movi(6, 3)
            .label("loop")
            .ld(7, 1, 0)          // handle
            .shli(8, 5, 6)
            .add(8, 3, 8)
            .ld(9, 8, 0)          // transmit: line i
            .ld(10, 2, 0)         // pivot
            .addi(5, 5, 1)
            .blt(5, 6, "loop")
            .halt();
        victim.loop3 = share(b.build());
    }
    return victim;
}

} // namespace

TEST(MicroscopeApi, Table2ProvideCalls)
{
    os::Machine machine;
    auto &kernel = machine.kernel();
    const TestVictim victim = makeVictim(kernel);

    ms::Microscope scope(machine);
    scope.provideReplayHandle(victim.pid, victim.handle);
    scope.providePivot(victim.pivot);
    scope.provideMonitorAddr(victim.transmit);
    scope.provideMonitorAddr(victim.transmit + 64);

    EXPECT_EQ(scope.recipe().victim, victim.pid);
    EXPECT_EQ(scope.recipe().replayHandle, victim.handle);
    EXPECT_EQ(*scope.recipe().pivot, victim.pivot);
    EXPECT_EQ(scope.recipe().monitorAddrs.size(), 2u);
}

TEST(MicroscopeApi, PivotMustBeOnDifferentPage)
{
    os::Machine machine;
    const TestVictim victim = makeVictim(machine.kernel());
    ms::Microscope scope(machine);
    scope.provideReplayHandle(victim.pid, victim.handle);
    EXPECT_THROW(scope.providePivot(victim.handle + 8), SimFatal);

    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle;
    recipe.pivot = victim.handle + 64;
    EXPECT_THROW(scope.setRecipe(std::move(recipe)), SimFatal);
}

TEST(MicroscopeApi, InitiatePageFaultArms)
{
    os::Machine machine;
    auto &kernel = machine.kernel();
    const TestVictim victim = makeVictim(kernel);
    ms::Microscope scope(machine);
    scope.provideReplayHandle(victim.pid, victim.handle);

    scope.initiatePageFault(victim.handle);
    EXPECT_FALSE(kernel.pageTable(victim.pid).isPresent(victim.handle));
    // The translation path must be cold: a fresh walk of 4 levels.
    const auto result = machine.mmu().translate(
        victim.handle, kernel.pcidOf(victim.pid),
        kernel.pageTable(victim.pid).root());
    EXPECT_TRUE(result.fault);
    EXPECT_EQ(result.walk.ptFetches, 4u);
}

TEST(MicroscopeApi, InitiatePageWalkLengthControl)
{
    os::Machine machine;
    auto &kernel = machine.kernel();
    const TestVictim victim = makeVictim(kernel);
    ms::Microscope scope(machine);
    scope.provideReplayHandle(victim.pid, victim.handle);

    for (unsigned length = 1; length <= 4; ++length) {
        scope.initiatePageWalk(victim.transmit, length,
                               mem::HitLevel::L2);
        const auto result = machine.mmu().translate(
            victim.transmit, kernel.pcidOf(victim.pid),
            kernel.pageTable(victim.pid).root());
        EXPECT_EQ(result.walk.ptFetches, length);
        // Each fetched level was staged at L2.
        const Cycles expected = mem::kL2Latency * length;
        EXPECT_GE(result.walk.latency, expected);
        EXPECT_LT(result.walk.latency, expected + 20 * length);
    }
    EXPECT_THROW(scope.initiatePageWalk(victim.transmit, 0), SimFatal);
    EXPECT_THROW(scope.initiatePageWalk(victim.transmit, 5), SimFatal);
}

TEST(MicroscopeEngine, ConfidenceBoundsReplays)
{
    os::Machine machine;
    auto &kernel = machine.kernel();
    const TestVictim victim = makeVictim(kernel);

    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle;
    recipe.confidence = 7;
    scope.setRecipe(std::move(recipe));
    scope.arm();
    kernel.startOnContext(victim.pid, 0, victim.singleShot);
    ASSERT_TRUE(machine.runUntilHalted(0, 10'000'000));

    EXPECT_EQ(scope.stats().totalReplays, 7u);
    EXPECT_EQ(scope.stats().episodes, 1u);
    EXPECT_FALSE(scope.armed());  // no pivot: disarms after episode 1
    // Victim made forward progress afterwards.
    EXPECT_TRUE(kernel.pageTable(victim.pid).isPresent(victim.handle));
}

TEST(MicroscopeEngine, OnReplayCanEndEpisodeEarly)
{
    os::Machine machine;
    auto &kernel = machine.kernel();
    const TestVictim victim = makeVictim(kernel);

    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle;
    recipe.confidence = 100;
    recipe.onReplay = [](const ms::ReplayEvent &ev) {
        return ev.replayIndex < 3;  // stop after 3
    };
    scope.setRecipe(std::move(recipe));
    scope.arm();
    kernel.startOnContext(victim.pid, 0, victim.singleShot);
    ASSERT_TRUE(machine.runUntilHalted(0, 10'000'000));
    EXPECT_EQ(scope.stats().totalReplays, 3u);
}

TEST(MicroscopeEngine, PivotSingleStepsLoop)
{
    os::Machine machine;
    auto &kernel = machine.kernel();
    const TestVictim victim = makeVictim(kernel);

    std::vector<std::uint64_t> replays_per_episode;
    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle;
    recipe.pivot = victim.pivot;
    recipe.confidence = 2;
    recipe.maxEpisodes = 3;
    recipe.onEpisodeEnd = [&](const ms::ReplayEvent &ev) {
        replays_per_episode.push_back(ev.replayIndex);
    };
    scope.setRecipe(std::move(recipe));
    scope.arm();
    kernel.startOnContext(victim.pid, 0, victim.loop3);
    ASSERT_TRUE(machine.runUntilHalted(0, 50'000'000));

    // 3 episodes (one per loop iteration) of 2 replays each, stepped
    // by 2 pivot faults between them.
    EXPECT_EQ(scope.stats().episodes, 3u);
    EXPECT_EQ(scope.stats().totalReplays, 6u);
    EXPECT_EQ(scope.stats().pivotFaults, 2u);
    EXPECT_EQ(replays_per_episode,
              (std::vector<std::uint64_t>{2, 2, 2}));
    EXPECT_FALSE(scope.armed());
    // Cleanly released: both pages present again.
    EXPECT_TRUE(kernel.pageTable(victim.pid).isPresent(victim.handle));
    EXPECT_TRUE(kernel.pageTable(victim.pid).isPresent(victim.pivot));
}

TEST(MicroscopeEngine, WalkPlanControlsWindowLatency)
{
    // Measure the wall-clock replay period under the longest and
    // shortest plans: the longest plan's faults take >1000 more
    // cycles of walk each.
    auto run_with_plan = [](const ms::PageWalkPlan &plan) {
        os::Machine machine;
        auto &kernel = machine.kernel();
        const TestVictim victim = makeVictim(kernel);
        ms::Microscope scope(machine);
        ms::AttackRecipe recipe;
        recipe.victim = victim.pid;
        recipe.replayHandle = victim.handle;
        recipe.confidence = 20;
        recipe.walkPlan = plan;
        scope.setRecipe(std::move(recipe));
        scope.arm();
        kernel.startOnContext(victim.pid, 0, victim.singleShot);
        machine.runUntilHalted(0, 10'000'000);
        return machine.cycle();
    };
    const Cycles slow = run_with_plan(ms::PageWalkPlan::longest());
    const Cycles fast = run_with_plan(ms::PageWalkPlan::shortest());
    // 20 replays x >1000 cycles of extra walk each.
    EXPECT_GT(slow, fast + 20 * 1000);
}

TEST(MicroscopeEngine, ForeignFaultsFallThrough)
{
    os::Machine machine;
    auto &kernel = machine.kernel();
    const TestVictim victim = makeVictim(kernel);
    // A second page the module does NOT own.
    const VAddr other = kernel.allocVirtual(victim.pid, pageSize);
    kernel.pageTable(victim.pid).setPresent(other, false);

    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle;
    recipe.confidence = 2;
    scope.setRecipe(std::move(recipe));
    scope.arm();

    cpu::ProgramBuilder b;
    b.movi(1, static_cast<std::int64_t>(victim.handle))
        .movi(2, static_cast<std::int64_t>(other))
        .ld(3, 2, 0)   // foreign fault: default handler services it
        .ld(4, 1, 0)   // the armed handle
        .halt();
    kernel.startOnContext(victim.pid, 0, share(b.build()));
    ASSERT_TRUE(machine.runUntilHalted(0, 10'000'000));

    EXPECT_EQ(scope.stats().foreignFaults, 1u);
    EXPECT_EQ(scope.stats().totalReplays, 2u);
    EXPECT_TRUE(kernel.pageTable(victim.pid).isPresent(other));
}

TEST(MicroscopeEngine, DisarmRestoresPresentBits)
{
    os::Machine machine;
    auto &kernel = machine.kernel();
    const TestVictim victim = makeVictim(kernel);

    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle;
    recipe.pivot = victim.pivot;
    scope.setRecipe(std::move(recipe));
    scope.arm();
    EXPECT_FALSE(kernel.pageTable(victim.pid).isPresent(victim.handle));
    scope.disarm();
    EXPECT_TRUE(kernel.pageTable(victim.pid).isPresent(victim.handle));
    EXPECT_TRUE(kernel.pageTable(victim.pid).isPresent(victim.pivot));
}

TEST(MicroscopeEngine, ArmWithoutRecipeIsFatal)
{
    os::Machine machine;
    ms::Microscope scope(machine);
    EXPECT_THROW(scope.arm(), SimFatal);
}

TEST(MicroscopeEngine, MonitorAddrProbesAndPriming)
{
    os::Machine machine;
    auto &kernel = machine.kernel();
    const TestVictim victim = makeVictim(kernel);

    ms::Microscope scope(machine);
    scope.provideReplayHandle(victim.pid, victim.handle);
    scope.provideMonitorAddr(victim.transmit);
    scope.provideMonitorAddr(victim.transmit + 64);

    scope.primeMonitorAddrs();
    auto probes = scope.probeAllMonitorAddrs();
    ASSERT_EQ(probes.size(), 2u);
    EXPECT_EQ(probes[0].level, mem::HitLevel::Dram);
    EXPECT_EQ(probes[1].level, mem::HitLevel::Dram);
    // Probing fetched them: the next probe hits.
    EXPECT_EQ(scope.probeMonitorAddr(0).level, mem::HitLevel::L1);
    EXPECT_THROW(scope.probeMonitorAddr(9), SimPanic);
}

TEST(MicroscopeEngine, ReplayedTransmitLeavesResidueEachReplay)
{
    os::Machine machine;
    auto &kernel = machine.kernel();
    const TestVictim victim = makeVictim(kernel);
    const PAddr transmit_pa =
        *kernel.translate(victim.pid, victim.transmit);

    unsigned residue_seen = 0;
    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle;
    recipe.confidence = 5;
    recipe.onReplay = [&](const ms::ReplayEvent &ev) {
        if (ev.scope.kernel().timedProbePhys(transmit_pa).hit())
            ++residue_seen;
        return true;
    };
    recipe.beforeResume = [&](const ms::ReplayEvent &ev) {
        ev.scope.kernel().flushPhysLine(transmit_pa);
    };
    scope.setRecipe(std::move(recipe));

    kernel.flushPhysLine(transmit_pa);
    scope.arm();
    kernel.startOnContext(victim.pid, 0, victim.singleShot);
    ASSERT_TRUE(machine.runUntilHalted(0, 10'000'000));
    // Every one of the 5 windows re-touched the transmit line even
    // though it was flushed in between: zero-noise denoising.
    EXPECT_EQ(residue_seen, 5u);
}
