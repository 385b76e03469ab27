#include "attack/single_secret.hh"

#include <map>

#include "attack/monitor.hh"
#include "attack/victims.hh"
#include "core/microscope.hh"

namespace uscope::attack
{

namespace
{

/**
 * Monitor samples above this latency indicate a *subnormal* divide
 * held the port (normal divides stay under it).
 */
constexpr Cycles kSubnormalThreshold = 170;

} // anonymous namespace

SingleSecretResult
runSingleSecretAttack(const SingleSecretConfig &config)
{
    os::Machine machine(config.machine);
    auto &kernel = machine.kernel();

    const VictimImage victim =
        buildSingleSecretVictim(kernel, config.id, config.subnormal);
    const MonitorImage monitor = buildDivContentionMonitor(
        kernel, config.monitorSamples, config.cont);

    SingleSecretResult result;
    result.trueLine =
        static_cast<unsigned>((8ull * config.id) / lineSize);

    // The secrets page is enclave-private, but its physical lines can
    // be probed via Prime+Probe conflicts; precompute their PAs.
    const PAddr secrets_pa = *kernel.translate(victim.pid,
                                               victim.secretBase);

    // Cache-channel bookkeeping: votes per observed hot line.
    std::map<unsigned, unsigned> line_votes;

    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle;
    recipe.confidence = config.replays;
    recipe.walkPlan = ms::PageWalkPlan::longest();
    recipe.onReplay = [&](const ms::ReplayEvent &) {
        // Replayer-as-Monitor configuration: probe the secrets page.
        for (unsigned line = 0; line < pageSize / lineSize; ++line) {
            const os::ProbeResult probe = kernel.timedProbePhys(
                secrets_pa + line * lineSize);
            if (probe.hit())
                ++line_votes[line];
        }
        return true;
    };
    recipe.beforeResume = [&](const ms::ReplayEvent &) {
        kernel.primeRange(secrets_pa, pageSize);
    };
    scope.setRecipe(std::move(recipe));

    kernel.primeRange(secrets_pa, pageSize);
    scope.arm();
    kernel.startOnContext(victim.pid, 0, victim.program);
    kernel.startOnContext(monitor.pid, 1, monitor.program);

    const Cycles budget =
        Cycles{config.monitorSamples} * (config.cont * 100 + 2000) +
        1000000;
    machine.runUntil([&]() { return machine.core().halted(1); }, budget);
    scope.disarm();
    machine.runUntilHalted(0, 1000000);
    result.victimCompleted = machine.core().halted(0);
    result.replaysDone = scope.stats().totalReplays;

    // Subnormal channel: count slow Monitor samples.
    result.samples = readMonitorSamples(kernel, monitor);
    for (Cycles sample : result.samples)
        if (sample > kSubnormalThreshold)
            ++result.slowSamples;
    // A subnormal divide occupies the port for fdivSubnormalLatency
    // cycles per replay, so roughly one Monitor sample per replay
    // crosses the threshold; a normal divide essentially never does.
    result.inferredSubnormal =
        result.replaysDone > 0 &&
        2 * result.slowSamples >= result.replaysDone;

    // Cache channel: majority vote across replays.
    unsigned best_votes = 0;
    for (const auto &[line, votes] : line_votes) {
        if (votes > best_votes) {
            best_votes = votes;
            result.inferredLine = line;
        }
    }
    result.coreDigest = machine.core().stateDigest();
    return result;
}

} // namespace uscope::attack
