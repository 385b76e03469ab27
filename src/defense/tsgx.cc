#include "defense/tsgx.hh"

#include "attack/monitor.hh"
#include "attack/port_contention.hh"
#include "cpu/program.hh"

namespace uscope::defense
{

namespace
{

/** A T-SGX-wrapped control-flow victim (Figure 6 body inside TSX). */
struct TsgxVictim
{
    os::Pid pid = 0;
    std::shared_ptr<const cpu::Program> program;
    VAddr handle = 0;
    VAddr mulOps = 0;
    VAddr divOps = 0;
};

TsgxVictim
buildTsgxVictim(os::Kernel &kernel, bool secret,
                unsigned abort_threshold)
{
    TsgxVictim victim;
    victim.pid = kernel.createProcess("tsgx-victim");
    victim.handle = kernel.allocVirtual(victim.pid, pageSize);
    const VAddr mul_ops = kernel.allocVirtual(victim.pid, pageSize);
    const VAddr div_ops = kernel.allocVirtual(victim.pid, pageSize);
    victim.mulOps = mul_ops;
    victim.divOps = div_ops;
    const VAddr secret_page = kernel.allocVirtual(victim.pid, pageSize);

    const std::uint64_t ints[2] = {3, 7};
    kernel.writeVirtual(victim.pid, mul_ops, ints, 16);
    const double doubles[2] = {3.5, 7.25};
    kernel.writeVirtual(victim.pid, div_ops, doubles, 16);
    const std::uint64_t secret_word = secret ? 1 : 0;
    kernel.writeVirtual(victim.pid, secret_page, &secret_word, 8);
    kernel.declareEnclave(victim.pid, secret_page, pageSize);

    // r15: 1 = committed, 2 = T-SGX terminated the application.
    cpu::ProgramBuilder b;
    b.movi(1, static_cast<std::int64_t>(victim.handle))
        .movi(2, static_cast<std::int64_t>(secret_page))
        .movi(3, static_cast<std::int64_t>(mul_ops))
        .movi(4, static_cast<std::int64_t>(div_ops))
        .movi(7, 0)
        .movi(21, 0)                    // failed-transaction count
        .movi(22, abort_threshold)
        .movi(15, 0)
        .ld(5, 2, 0)                    // secret
        .label("retry")
        .txbegin("abort")
        // The replay handle: count++ on a page the OS keeps absent.
        .ld(6, 1, 0x20)
        .addi(6, 6, 1)
        .st(1, 0x20, 6)
        .beq(5, 7, "mul_side")
        .ldf(0, 4, 0)
        .ldf(1, 4, 8)
        .fmov(2, 1)
        .fdiv(2, 2, 0)
        .fmov(3, 1)
        .fdiv(3, 3, 0)
        .jmp("join")
        .label("mul_side")
        .ld(8, 3, 0)
        .ld(9, 3, 8)
        .mov(10, 9)
        .mul(10, 10, 8)
        .mov(11, 9)
        .mul(11, 11, 8)
        .label("join")
        .txend()
        .movi(15, 1)
        .jmp("done")
        .label("abort")
        // T-SGX user-level handler: count failures, terminate at N.
        .addi(21, 21, 1)
        .blt(21, 22, "retry")
        .movi(15, 2)
        .label("done")
        .halt();
    victim.program = std::make_shared<const cpu::Program>(b.build());
    return victim;
}

} // anonymous namespace

TsgxResult
runTsgxAttack(const TsgxConfig &config)
{
    os::Machine machine(config.machine);
    auto &kernel = machine.kernel();

    const TsgxVictim victim =
        buildTsgxVictim(kernel, config.secret, kTsgxAbortThreshold);
    const attack::MonitorImage monitor =
        attack::buildDivContentionMonitor(kernel, config.monitorSamples,
                                          config.cont);

    const PAddr mul_pa = *kernel.translate(victim.pid, victim.mulOps);
    const PAddr div_pa = *kernel.translate(victim.pid, victim.divOps);

    // Arm by hand: T-SGX never lets the OS fault handler run, so the
    // attacker manipulates translations asynchronously instead.
    kernel.setPresent(victim.pid, victim.handle, false);
    kernel.flushTranslationEntries(victim.pid, victim.handle);
    kernel.invlpg(victim.pid, victim.handle);
    kernel.flushPhysLine(mul_pa);
    kernel.flushPhysLine(div_pa);

    // The adversary schedules freely: warm the Monitor up before
    // admitting the victim, so no retry window goes unobserved.
    kernel.startOnContext(monitor.pid, 1, monitor.program);
    machine.run(20000);
    kernel.startOnContext(victim.pid, 0, victim.program);

    TsgxResult result;
    std::uint64_t aborts_seen = 0;
    const Cycles budget =
        Cycles{config.monitorSamples} * (config.cont * 100 + 2000) +
        1000000;
    while (!machine.core().halted(1) && machine.cycle() < budget) {
        machine.run(50);
        const std::uint64_t aborts = machine.core().stats(0).txAborts;
        if (aborts > aborts_seen) {
            aborts_seen = aborts;
            // Cache channel: probe the two operand lines the retry
            // window touched speculatively, then re-prime.
            if (kernel.timedProbePhys(mul_pa).hit())
                ++result.mulHits;
            if (kernel.timedProbePhys(div_pa).hit())
                ++result.divHits;
            kernel.flushPhysLine(mul_pa);
            kernel.flushPhysLine(div_pa);
            // Re-flush so every retry's walk is long again (§4.1.4
            // step 5, performed without any OS fault involvement).
            kernel.flushTranslationEntries(victim.pid, victim.handle);
            kernel.invlpg(victim.pid, victim.handle);
        }
    }

    result.txAborts = machine.core().stats(0).txAborts;
    result.monitorCompleted = machine.core().halted(1);
    machine.runUntilHalted(0, 1'000'000);
    result.victimTerminated =
        machine.core().readIntReg(0, 15) == 2;

    const auto samples = attack::readMonitorSamples(kernel, monitor);
    for (Cycles sample : samples)
        if (sample > config.threshold)
            ++result.aboveThreshold;
    result.inferredDividesPort = attack::inferDivides(
        result.aboveThreshold, config.monitorSamples);
    result.inferredDividesCache = result.divHits > result.mulHits;
    return result;
}

} // namespace uscope::defense
