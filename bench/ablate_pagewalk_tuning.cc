/**
 * @file
 * Ablation of §4.1.2: "The Replayer can tune the duration of the page
 * walk time to take from a few cycles to over one thousand cycles, by
 * ensuring that the desired page table entries are either present or
 * absent from the cache hierarchy."
 *
 * Two sweeps:
 *  1. Walk latency vs (levels fetched x cache level of the entries),
 *     measured directly at the MMU.
 *  2. Replay-window size (number of distinct victim loads that
 *     executed speculatively per replay) vs the same staging — the
 *     knob's effect on what the attacker can observe per replay.
 *
 * Sweep 2 builds one fresh Machine per grid point, so it runs as an
 * exp::CampaignRunner campaign (16 trials, sharded across workers)
 * and exports to bench-results/ablate_pagewalk_tuning.json.
 */

#include <cstdio>
#include <vector>

#include "core/microscope.hh"
#include "cpu/program.hh"
#include "exp/campaign.hh"
#include "exp/result_sink.hh"
#include "os/machine.hh"

using namespace uscope;

namespace
{

const char *
levelName(mem::HitLevel level)
{
    return mem::hitLevelName(level);
}

/** Victim: handle load, then 56 independent loads to distinct lines. */
struct WindowVictim
{
    os::Pid pid;
    VAddr handle;
    VAddr probe;  ///< 56-line probe region.
    std::shared_ptr<const cpu::Program> program;
};

constexpr unsigned probeLines = 56;

WindowVictim
makeWindowVictim(os::Kernel &kernel)
{
    WindowVictim victim;
    victim.pid = kernel.createProcess("window-victim");
    victim.handle = kernel.allocVirtual(victim.pid, pageSize);
    victim.probe = kernel.allocVirtual(victim.pid, pageSize);

    cpu::ProgramBuilder b;
    b.movi(1, static_cast<std::int64_t>(victim.handle))
        .movi(2, static_cast<std::int64_t>(victim.probe))
        .ld(3, 1, 0);  // replay handle
    for (unsigned line = 0; line < probeLines; ++line)
        b.ld(4, 2, static_cast<std::int64_t>(line * lineSize));
    b.halt();
    victim.program =
        std::make_shared<const cpu::Program>(b.build());
    return victim;
}

/** Lines of the probe region touched in one replay window. */
unsigned
windowSize(unsigned fetch_levels, mem::HitLevel where,
           const os::MachineConfig &mcfg, Cycles *cycles_out = nullptr)
{
    os::Machine machine(mcfg);
    auto &kernel = machine.kernel();
    const WindowVictim victim = makeWindowVictim(kernel);
    const PAddr probe_pa = *kernel.translate(victim.pid, victim.probe);

    unsigned touched = 0;
    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle;
    recipe.confidence = 3;
    recipe.walkPlan = ms::PageWalkPlan::uniform(where, fetch_levels);
    recipe.onReplay = [&](const ms::ReplayEvent &ev) {
        if (ev.replayIndex == 3) {  // warmed window
            for (unsigned line = 0; line < probeLines; ++line) {
                touched +=
                    kernel.timedProbePhys(probe_pa + line * lineSize).hit();
            }
        }
        return true;
    };
    recipe.beforeResume = [&](const ms::ReplayEvent &) {
        kernel.primeRange(probe_pa, probeLines * lineSize);
    };
    scope.setRecipe(std::move(recipe));

    kernel.primeRange(probe_pa, probeLines * lineSize);
    scope.arm();
    kernel.startOnContext(victim.pid, 0, victim.program);
    machine.runUntilHalted(0, 10'000'000);
    if (cycles_out)
        *cycles_out = machine.cycle();
    return touched;
}

} // namespace

int
main()
{
    std::printf("==============================================================\n");
    std::printf("Ablation (§4.1.2): tuning the page-walk duration\n");
    std::printf("==============================================================\n\n");

    std::printf("1) Hardware walk latency (cycles) vs staging:\n");
    std::printf("%-18s", "entries staged at");
    for (unsigned levels = 1; levels <= 4; ++levels)
        std::printf("  %u level(s)", levels);
    std::printf("\n");

    os::Machine machine;
    auto &kernel = machine.kernel();
    const os::Pid pid = kernel.createProcess("walker");
    const VAddr va = kernel.allocVirtual(pid, pageSize);
    ms::Microscope scope(machine);
    scope.provideReplayHandle(pid, va);

    for (mem::HitLevel where :
         {mem::HitLevel::L1, mem::HitLevel::L2, mem::HitLevel::L3,
          mem::HitLevel::Dram}) {
        std::printf("%-18s", levelName(where));
        for (unsigned levels = 1; levels <= 4; ++levels) {
            scope.initiatePageWalk(va, levels, where);
            const auto result = machine.mmu().translate(
                va, kernel.pcidOf(pid), kernel.pageTable(pid).root());
            std::printf("  %9llu",
                        static_cast<unsigned long long>(
                            result.walk.latency));
        }
        std::printf("\n");
    }

    std::printf("\n2) Replay-window size: distinct victim loads executed\n");
    std::printf("   speculatively per replay (of %u possible):\n",
                probeLines);

    // The 4x4 staging grid as a campaign: one Machine per grid point.
    const mem::HitLevel stagings[] = {mem::HitLevel::L1,
                                      mem::HitLevel::L2,
                                      mem::HitLevel::L3,
                                      mem::HitLevel::Dram};
    std::vector<unsigned> windows(16);

    exp::CampaignSpec spec;
    spec.name = "ablate_pagewalk_tuning";
    spec.trials = windows.size();
    spec.masterSeed = 42;
    spec.cycleBudget = 20'000'000;
    spec.body = [&](const exp::TrialContext &ctx) {
        const mem::HitLevel where = stagings[ctx.index / 4];
        const unsigned levels = 1 + ctx.index % 4;
        // Reproduction: pin the paper sweep's seed rather than the
        // derived per-trial seed, so the table matches EXPERIMENTS.md.
        os::MachineConfig mcfg;
        mcfg.seed = 42;
        Cycles cycles = 0;
        const unsigned window = windowSize(levels, where, mcfg, &cycles);
        windows[ctx.index] = window;

        exp::TrialOutput out;
        out.simCycles = cycles;
        out.metric.add(window);
        out.payload = json::Value::object()
                          .set("staged_at", levelName(where))
                          .set("levels_fetched", levels)
                          .set("window_lines", window)
                          .set("probe_lines", probeLines);
        return out;
    };
    const exp::CampaignResult campaign = exp::runCampaign(spec);

    std::printf("%-18s", "entries staged at");
    for (unsigned levels = 1; levels <= 4; ++levels)
        std::printf("  %u level(s)", levels);
    std::printf("\n");
    for (unsigned row = 0; row < 4; ++row) {
        std::printf("%-18s", levelName(stagings[row]));
        for (unsigned col = 0; col < 4; ++col)
            std::printf("  %9u", windows[row * 4 + col]);
        std::printf("\n");
    }

    exp::JsonFileSink sink("bench-results");
    sink.consume(campaign);
    std::printf("\ncampaign: %zu trials on %u workers in %.2fs; "
                "JSON: %s\n",
                campaign.trialCount, campaign.workers,
                campaign.wallSeconds, sink.lastPath().c_str());

    std::printf("\nShape check: latency spans 'a few cycles' (1 level in L1)\n");
    std::printf("to 'over one thousand cycles' (4 levels in DRAM), and the\n");
    std::printf("window grows with it until the ROB bounds it (§4.1.1).\n");
    return 0;
}
