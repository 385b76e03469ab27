#include "attack/rdrand_bias.hh"

#include "attack/victims.hh"
#include "core/microscope.hh"

namespace uscope::attack
{

RdrandResult
runRdrandObservation(const RdrandConfig &config)
{
    os::MachineConfig mcfg = config.machine;
    mcfg.core.rdrandSerializing = config.serializingRdrand;
    os::Machine machine(mcfg);
    auto &kernel = machine.kernel();

    const VictimImage victim = buildRdrandVictim(kernel);
    const PAddr line0 = *kernel.translate(victim.pid, victim.transmitA);
    const PAddr line1 = line0 + lineSize;

    RdrandResult result;

    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle;
    recipe.confidence = config.replays;
    recipe.walkPlan = ms::PageWalkPlan::longest();
    recipe.onReplay = [&](const ms::ReplayEvent &) {
        const bool hot0 = kernel.timedProbePhys(line0).hit();
        const bool hot1 = kernel.timedProbePhys(line1).hit();
        int observed = -1;
        if (hot0 != hot1) {
            observed = hot1 ? 1 : 0;
            ++result.observations;
        }
        result.observedBits.push_back(observed);
        return true;
    };
    recipe.beforeResume = [&](const ms::ReplayEvent &) {
        kernel.flushPhysLine(line0);
        kernel.flushPhysLine(line1);
    };
    scope.setRecipe(std::move(recipe));

    kernel.flushPhysLine(line0);
    kernel.flushPhysLine(line1);
    scope.arm();
    kernel.startOnContext(victim.pid, 0, victim.program);
    machine.runUntil(
        [&]() { return !scope.armed() || machine.core().halted(0); },
        Cycles{config.replays} * 50000 + 1000000);
    scope.disarm();
    machine.runUntilHalted(0, 1'000'000);

    result.victimCompleted = machine.core().halted(0);

    std::uint64_t retired = 0;
    if (kernel.readVirtual(victim.pid, victim.transmitA + 1024,
                           &retired, 8)) {
        result.retiredBit = static_cast<int>(retired & 1);
    }
    result.coreDigest = machine.core().stateDigest();
    return result;
}

} // namespace uscope::attack
