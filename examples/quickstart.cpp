/**
 * @file
 * Quickstart: the smallest complete microarchitectural replay attack,
 * then the same attack as a multi-threaded *campaign* (src/exp).
 *
 * We build a machine, load a "victim" whose sensitive load touches a
 * secret-dependent cache line exactly once, and use MicroScope to
 * replay that one access twenty times behind a page-faulting load —
 * recovering the secret from a single logical run.  The campaign
 * section then sweeps the attack over eight random secrets, one
 * private Machine per trial, sharded across worker threads.
 *
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "common/random.hh"
#include "core/microscope.hh"
#include "cpu/program.hh"
#include "exp/campaign.hh"
#include "os/machine.hh"

using namespace uscope;

namespace
{

struct AttackOutcome
{
    unsigned bestLine = 0;
    unsigned votes = 0;
    std::uint64_t replays = 0;
    std::uint64_t retired = 0;
    Cycles cycles = 0;
};

/** The complete attack, end to end, on a private Machine. */
AttackOutcome
attackOnce(const os::MachineConfig &mcfg, std::uint64_t secret)
{
    // 1. A machine: OoO SMT core + caches + MMU + kernel.
    os::Machine machine(mcfg);
    auto &kernel = machine.kernel();

    // 2. A victim process.  Its secret selects which cache line of a
    //    transmit page a single load touches.
    const os::Pid victim = kernel.createProcess("victim");
    const VAddr handle_page = kernel.allocVirtual(victim, pageSize);
    const VAddr transmit_page = kernel.allocVirtual(victim, pageSize);
    const VAddr secret_page = kernel.allocVirtual(victim, pageSize);

    kernel.writeVirtual(victim, secret_page, &secret, 8);
    // Seal it: from here on, the OS cannot read the secret directly.
    kernel.declareEnclave(victim, secret_page, pageSize);

    cpu::ProgramBuilder program;
    program.movi(1, static_cast<std::int64_t>(handle_page))
        .movi(2, static_cast<std::int64_t>(secret_page))
        .movi(3, static_cast<std::int64_t>(transmit_page))
        .ld(4, 2, 0)      // load the secret (enclave memory)
        .ld(5, 1, 0)      // <-- the replay handle (public page)
        .shli(6, 4, 6)    // secret * 64
        .add(6, 3, 6)
        .ld(7, 6, 0)      // transmit: touches line[secret] ONCE
        .halt();

    // 3. The attack: replay the window behind the handle and probe
    //    the transmit page after every replay (Prime+Probe style).
    const PAddr transmit_pa = *kernel.translate(victim, transmit_page);
    std::array<unsigned, 64> votes{};

    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim;
    recipe.replayHandle = handle_page;
    recipe.confidence = 20;  // replays before releasing the victim
    recipe.onReplay = [&](const ms::ReplayEvent &) {
        for (unsigned line = 0; line < 64; ++line) {
            if (kernel.timedProbePhys(transmit_pa + line * lineSize).hit()) {
                ++votes[line];
            }
        }
        return true;
    };
    recipe.beforeResume = [&](const ms::ReplayEvent &) {
        kernel.primeRange(transmit_pa, pageSize);
    };
    scope.setRecipe(std::move(recipe));

    // 4. Run: arm, start the victim once, let it finish.
    kernel.primeRange(transmit_pa, pageSize);
    scope.arm();
    kernel.startOnContext(victim, 0,
                          std::make_shared<const cpu::Program>(
                              program.build()));
    machine.runUntilHalted(0, 10'000'000);

    // 5. The verdict.
    AttackOutcome outcome;
    for (unsigned line = 0; line < 64; ++line)
        if (votes[line] > votes[outcome.bestLine])
            outcome.bestLine = line;
    outcome.votes = votes[outcome.bestLine];
    outcome.replays = scope.stats().totalReplays;
    outcome.retired = machine.core().stats(0).retired;
    outcome.cycles = machine.cycle();
    return outcome;
}

} // namespace

int
main()
{
    const std::uint64_t secret = 5;
    const AttackOutcome outcome = attackOnce(os::MachineConfig{}, secret);

    std::printf("replays of the window : %llu\n",
                static_cast<unsigned long long>(outcome.replays));
    std::printf("votes for line %u     : %u/20\n", outcome.bestLine,
                outcome.votes);
    std::printf("recovered secret      : %u (truth: %llu)  -> %s\n",
                outcome.bestLine,
                static_cast<unsigned long long>(secret),
                outcome.bestLine == secret ? "SUCCESS" : "failure");
    std::printf("victim ran            : exactly once "
                "(retired %llu instructions)\n",
                static_cast<unsigned long long>(outcome.retired));

    // 6. Run a campaign in 10 lines: the same attack swept over eight
    //    random secrets — one private Machine per trial, sharded over
    //    a thread pool, deterministic for any worker count (src/exp).
    exp::CampaignSpec spec;
    spec.name = "quickstart_campaign";
    spec.trials = 8;
    spec.body = [](const exp::TrialContext &ctx) {
        const std::uint64_t trial_secret = Rng(ctx.seed).below(64);
        exp::TrialOutput out;
        out.metric.add(
            attackOnce(ctx.machine, trial_secret).bestLine ==
            trial_secret);
        return out;
    };
    const exp::CampaignResult sweep = exp::runCampaign(spec);

    std::printf("campaign              : recovered %.0f%% of %zu random "
                "secrets on %u worker(s)\n",
                sweep.aggregate.metric.mean() * 100, sweep.trialCount,
                sweep.workers);

    return outcome.bestLine == secret &&
                   sweep.aggregate.metric.mean() == 1.0
               ? 0
               : 1;
}
