#include "defense/pf_oblivious.hh"

#include <set>

#include "attack/monitor.hh"
#include "attack/port_contention.hh"
#include "core/microscope.hh"
#include "cpu/program.hh"

namespace uscope::defense
{

namespace
{

struct ObliviousVictim
{
    os::Pid pid = 0;
    std::shared_ptr<const cpu::Program> program;
    VAddr handle = 0;
    VAddr mulOps = 0;
    VAddr divOps = 0;
    VAddr secretPage = 0;
};

/**
 * The PF-oblivious transform of the Figure-6 victim: both sides of
 * the branch load from BOTH operand pages (one access redundant), so
 * the page-access pattern is secret-independent.
 */
ObliviousVictim
buildObliviousVictim(os::Kernel &kernel, bool secret)
{
    ObliviousVictim victim;
    victim.pid = kernel.createProcess("pfo-victim");
    victim.handle = kernel.allocVirtual(victim.pid, pageSize);
    victim.mulOps = kernel.allocVirtual(victim.pid, pageSize);
    victim.divOps = kernel.allocVirtual(victim.pid, pageSize);
    victim.secretPage = kernel.allocVirtual(victim.pid, pageSize);

    const std::uint64_t ints[2] = {3, 7};
    kernel.writeVirtual(victim.pid, victim.mulOps, ints, 16);
    const double doubles[2] = {3.5, 7.25};
    kernel.writeVirtual(victim.pid, victim.divOps, doubles, 16);
    const std::uint64_t secret_word = secret ? 1 : 0;
    kernel.writeVirtual(victim.pid, victim.secretPage, &secret_word, 8);
    kernel.declareEnclave(victim.pid, victim.secretPage, pageSize);

    cpu::ProgramBuilder b;
    b.movi(1, static_cast<std::int64_t>(victim.handle))
        .movi(2, static_cast<std::int64_t>(victim.secretPage))
        .movi(3, static_cast<std::int64_t>(victim.mulOps))
        .movi(4, static_cast<std::int64_t>(victim.divOps))
        .movi(7, 0)
        .ld(5, 2, 0)
        // Replay handle.
        .ld(6, 1, 0x20)
        .addi(6, 6, 1)
        .st(1, 0x20, 6)
        .beq(5, 7, "mul_side")
        // Div side: redundant mul-page access, then the divides.
        .ld(8, 3, 0)
        .ldf(0, 4, 0)
        .ldf(1, 4, 8)
        .fmov(2, 1)
        .fdiv(2, 2, 0)
        .fmov(3, 1)
        .fdiv(3, 3, 0)
        .jmp("done")
        .label("mul_side")
        // Mul side: redundant div-page access, then the multiplies.
        .ldf(0, 4, 0)
        .ld(8, 3, 0)
        .ld(9, 3, 8)
        .mov(10, 9)
        .mul(10, 10, 8)
        .mov(11, 9)
        .mul(11, 11, 8)
        .label("done")
        .halt();
    victim.program = std::make_shared<const cpu::Program>(b.build());
    return victim;
}

/** Pages a clean (un-attacked) run of the victim loads from. */
std::set<Vpn>
pagesTouched(bool secret, std::uint64_t seed)
{
    os::MachineConfig mcfg;
    mcfg.seed = seed;
    os::Machine machine(mcfg);
    auto &kernel = machine.kernel();
    const ObliviousVictim victim =
        buildObliviousVictim(kernel, secret);

    std::set<Vpn> pages;
    machine.core().setMemProbe(
        [&](unsigned, VAddr va, PAddr, bool is_store, bool) {
            if (!is_store)
                pages.insert(pageNumber(va));
        });
    machine.core().predictor().flush();
    kernel.startOnContext(victim.pid, 0, victim.program);
    machine.runUntilHalted(0, 1'000'000);
    return pages;
}

} // anonymous namespace

PfObliviousResult
runPfObliviousExperiment(const PfObliviousConfig &config)
{
    PfObliviousResult result;

    // 1. Controlled channel closed: both secrets load the same pages.
    const std::set<Vpn> pages_div = pagesTouched(true, config.machine.seed);
    const std::set<Vpn> pages_mul = pagesTouched(false, config.machine.seed);
    result.pageTraceSecretIndependent = pages_div == pages_mul;
    // Handle candidates = distinct data pages the victim touches;
    // every one can host a page-fault-inducing load.
    result.obliviousHandleCandidates =
        static_cast<unsigned>(pages_div.size());
    // The original (non-oblivious) victim touches one fewer page on
    // each path (no redundant access).
    result.originalHandleCandidates =
        result.obliviousHandleCandidates
            ? result.obliviousHandleCandidates - 1
            : 0;

    // 2. The port-contention channel still leaks through MicroScope.
    os::Machine machine(config.machine);
    auto &kernel = machine.kernel();
    const ObliviousVictim victim =
        buildObliviousVictim(kernel, config.secret);
    const attack::MonitorImage monitor =
        attack::buildDivContentionMonitor(kernel, config.monitorSamples,
                                          config.cont);

    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle + 0x20;
    recipe.confidence = config.replays;
    scope.setRecipe(std::move(recipe));
    machine.core().predictor().flush();

    scope.arm();
    kernel.startOnContext(victim.pid, 0, victim.program);
    kernel.startOnContext(monitor.pid, 1, monitor.program);
    const Cycles budget =
        Cycles{config.monitorSamples} * (config.cont * 100 + 2000) +
        1000000;
    machine.runUntil([&]() { return machine.core().halted(1); },
                     budget);
    scope.disarm();
    machine.runUntilHalted(0, 1'000'000);

    const auto samples = attack::readMonitorSamples(kernel, monitor);
    for (Cycles sample : samples)
        if (sample > config.threshold)
            ++result.aboveThreshold;
    result.inferredDivides = attack::inferDivides(
        result.aboveThreshold, config.monitorSamples);
    result.inferenceCorrect =
        result.inferredDivides == config.secret;
    return result;
}

} // namespace uscope::defense
