#include "defense/dejavu.hh"

#include "attack/victims.hh"
#include "core/microscope.hh"
#include "cpu/program.hh"

namespace uscope::defense
{

namespace
{

/** Victim wrapping the sensitive region in reference-clock reads. */
struct DejavuVictim
{
    os::Pid pid = 0;
    std::shared_ptr<const cpu::Program> program;
    VAddr handle = 0;
    VAddr transmitA = 0;   ///< mul-side line.
    VAddr transmitB = 0;   ///< div-side line.
};

DejavuVictim
buildDejavuVictim(os::Kernel &kernel, bool secret, Cycles threshold)
{
    DejavuVictim victim;
    victim.pid = kernel.createProcess("dejavu-victim");
    victim.handle = kernel.allocVirtual(victim.pid, pageSize);
    victim.transmitA = kernel.allocVirtual(victim.pid, pageSize);
    victim.transmitB = kernel.allocVirtual(victim.pid, pageSize);
    const VAddr secret_page = kernel.allocVirtual(victim.pid, pageSize);

    const std::uint64_t secret_word = secret ? 1 : 0;
    kernel.writeVirtual(victim.pid, secret_page, &secret_word, 8);
    kernel.declareEnclave(victim.pid, secret_page, pageSize);

    // r24 = detection flag; r22 = measured elapsed cycles.
    cpu::ProgramBuilder b;
    b.movi(1, static_cast<std::int64_t>(victim.handle))
        .movi(2, static_cast<std::int64_t>(secret_page))
        .movi(3, static_cast<std::int64_t>(victim.transmitA))
        .movi(4, static_cast<std::int64_t>(victim.transmitB))
        .movi(7, 0)
        .movi(23, static_cast<std::int64_t>(threshold))
        .movi(24, 0)
        .ld(5, 2, 0)
        .rdtsc(20)              // clock: region start
        .ld(6, 1, 0)            // replay handle
        .beq(5, 7, "mul_side")
        .ld(10, 4, 0)           // transmit via div-side line
        .jmp("join")
        .label("mul_side")
        .ld(10, 3, 0)           // transmit via mul-side line
        .label("join")
        .rdtsc(21)              // clock: region end (younger than the
                                // handle: cannot retire while replaying)
        .sub(22, 21, 20)
        .blt(22, 23, "ok")
        .movi(24, 1)            // Déjà Vu: compromise detected
        .label("ok")
        .halt();
    victim.program = std::make_shared<const cpu::Program>(b.build());
    return victim;
}

/** Victim-visible cost of one benign minor fault (calibration). */
Cycles
benignFaultCost(std::uint64_t seed)
{
    Cycles with_fault = 0;
    Cycles without = 0;
    for (bool fault : {true, false}) {
        os::MachineConfig mcfg;
        mcfg.seed = seed;
        os::Machine machine(mcfg);
        auto &kernel = machine.kernel();
        const os::Pid pid = kernel.createProcess("calib");
        const VAddr page = kernel.allocVirtual(pid, pageSize);
        if (fault)
            kernel.pageTable(pid).setPresent(page, false);
        cpu::ProgramBuilder b;
        b.movi(1, static_cast<std::int64_t>(page))
            .rdtsc(20)
            .ld(2, 1, 0)
            .rdtsc(21)
            .sub(22, 21, 20)
            .halt();
        kernel.startOnContext(
            pid, 0, std::make_shared<const cpu::Program>(b.build()));
        machine.runUntilHalted(0, 1'000'000);
        (fault ? with_fault : without) =
            machine.core().readIntReg(0, 22);
    }
    return with_fault > without ? with_fault - without : 0;
}

} // anonymous namespace

DejavuResult
runDejavuExperiment(const DejavuConfig &config)
{
    os::Machine machine(config.machine);
    auto &kernel = machine.kernel();

    const DejavuVictim victim = buildDejavuVictim(
        kernel, config.secret, kDejavuDetectionThreshold);
    const PAddr mul_pa =
        *kernel.translate(victim.pid, victim.transmitA);
    const PAddr div_pa =
        *kernel.translate(victim.pid, victim.transmitB);

    DejavuResult result;
    std::uint64_t mul_votes = 0;
    std::uint64_t div_votes = 0;
    std::uint64_t replays_at_extraction = 0;

    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle;
    recipe.confidence = config.replays;
    recipe.onReplay = [&](const ms::ReplayEvent &ev) {
        const bool mul_hot = kernel.timedProbePhys(mul_pa).hit();
        const bool div_hot = kernel.timedProbePhys(div_pa).hit();
        mul_votes += mul_hot;
        div_votes += div_hot;
        if ((mul_hot != div_hot) && replays_at_extraction == 0)
            replays_at_extraction = ev.replayIndex;
        return true;
    };
    recipe.beforeResume = [&](const ms::ReplayEvent &) {
        kernel.flushPhysLine(mul_pa);
        kernel.flushPhysLine(div_pa);
    };
    scope.setRecipe(std::move(recipe));

    kernel.flushPhysLine(mul_pa);
    kernel.flushPhysLine(div_pa);
    scope.arm();
    kernel.startOnContext(victim.pid, 0, victim.program);
    machine.runUntil(
        [&]() { return !scope.armed() || machine.core().halted(0); },
        Cycles{config.replays} * 50000 + 2'000'000);
    scope.disarm();
    machine.runUntilHalted(0, 1'000'000);

    result.replaysCompleted = scope.stats().totalReplays;
    result.secretExtracted = mul_votes + div_votes > 0;
    result.inferredSecret = div_votes > mul_votes;
    result.measuredElapsed = machine.core().readIntReg(0, 22);
    result.detected = machine.core().readIntReg(0, 24) == 1;
    result.benignFaultCost = benignFaultCost(config.machine.seed);
    return result;
}

} // namespace uscope::defense
