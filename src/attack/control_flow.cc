#include "attack/control_flow.hh"

#include "attack/victims.hh"
#include "core/microscope.hh"

namespace uscope::attack
{

ControlFlowResult
runControlFlowAttack(const ControlFlowConfig &config)
{
    os::Machine machine(config.machine);
    auto &kernel = machine.kernel();

    const VictimImage victim =
        buildControlFlowVictim(kernel, config.secret);

    const PAddr mul_pa = *kernel.translate(victim.pid, victim.transmitA);
    const PAddr div_pa = *kernel.translate(victim.pid, victim.transmitB);

    ControlFlowResult result;

    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle + 0x20;
    recipe.confidence = config.replays;
    recipe.walkPlan = ms::PageWalkPlan::longest();
    recipe.onReplay = [&](const ms::ReplayEvent &) {
        const bool mul_hot = kernel.timedProbePhys(mul_pa).hit();
        const bool div_hot = kernel.timedProbePhys(div_pa).hit();
        if (mul_hot)
            ++result.mulHits;
        if (div_hot)
            ++result.divHits;
        return true;
    };
    recipe.beforeResume = [&](const ms::ReplayEvent &) {
        kernel.flushPhysLine(mul_pa);
        kernel.flushPhysLine(div_pa);
    };
    scope.setRecipe(std::move(recipe));

    // Put the predictor into a public state: either the enclave-
    // boundary flush [12] or adversarial priming as in [33].
    if (config.primeTaken) {
        // The attacker knows the victim binary and its pc bias (it
        // loaded both), so it can index the shared predictor.
        const std::uint64_t branch_pc =
            kernel.pcBiasOf(victim.pid) + victim.branchPc;
        machine.core().predictor().prime(branch_pc, *config.primeTaken);
    } else {
        machine.core().predictor().flush();
    }

    kernel.flushPhysLine(mul_pa);
    kernel.flushPhysLine(div_pa);
    scope.arm();
    kernel.startOnContext(victim.pid, 0, victim.program);

    machine.runUntil(
        [&]() { return !scope.armed() || machine.core().halted(0); },
        Cycles{config.replays} * 50000 + 1000000);
    scope.disarm();
    machine.runUntilHalted(0, 1000000);

    result.victimCompleted = machine.core().halted(0);
    result.replaysDone = scope.stats().totalReplays;
    result.victimMispredicts = machine.core().stats(0).mispredicts;

    // Decision rule: the architecturally-correct side executes in
    // every replay; the wrong side only shows up while the predictor
    // still mispredicts.  Majority across replays gives the secret.
    if (result.divHits > result.mulHits)
        result.inferredSecret = true;
    else if (result.mulHits > result.divHits)
        result.inferredSecret = false;
    result.bothPathsObserved = result.mulHits > 0 && result.divHits > 0;
    result.coreDigest = machine.core().stateDigest();
    return result;
}

} // namespace uscope::attack
