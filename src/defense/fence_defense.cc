#include "defense/fence_defense.hh"

#include "cpu/program.hh"
#include "os/machine.hh"

namespace uscope::defense
{

namespace
{

/**
 * Benign workload: touch @p npages freshly-mapped-but-non-present
 * pages (classic demand paging), then sum their first words.
 * Measures how much the fence-on-flush defense costs an application
 * that takes ordinary page faults.
 */
Cycles
benignDemandPagingCycles(bool fenced, unsigned npages = 24)
{
    os::MachineConfig mcfg;
    mcfg.core.fenceOnPipelineFlush = fenced;
    os::Machine machine(mcfg);
    auto &kernel = machine.kernel();
    const os::Pid pid = kernel.createProcess("benign");
    const VAddr region = kernel.allocVirtual(pid, npages * pageSize);
    for (unsigned i = 0; i < npages; ++i)
        kernel.pageTable(pid).setPresent(region + i * pageSize, false);

    cpu::ProgramBuilder b;
    b.movi(1, static_cast<std::int64_t>(region))
        .movi(2, 0)                   // sum
        .movi(3, 0)                   // i
        .movi(4, npages)
        .movi(6, pageSize)
        .label("loop")
        .ld(5, 1, 0)                  // faults once per page
        .add(2, 2, 5)
        .add(1, 1, 6)
        .addi(3, 3, 1)
        .blt(3, 4, "loop")
        .halt();
    kernel.startOnContext(
        pid, 0, std::make_shared<const cpu::Program>(b.build()));
    machine.runUntilHalted(0, 10'000'000);
    return machine.cycle();
}

} // anonymous namespace

FenceAblationResult
runFenceAblation(unsigned samples)
{
    FenceAblationResult result;

    attack::PortContentionConfig cfg;
    cfg.samples = samples;
    cfg.victimDivides = true;
    result.baselineDiv = attack::runPortContentionAttack(cfg);

    cfg.machine.core.fenceOnPipelineFlush = true;
    result.fencedDiv = attack::runPortContentionAttack(cfg);

    cfg.victimDivides = false;
    result.fencedMul = attack::runPortContentionAttack(cfg);

    // Defeated when the fenced div case is indistinguishable from the
    // noise floor (no longer passes the adversary's decision rule).
    result.attackDefeated = !result.fencedDiv.inferredDivides;

    result.benignBaselineCycles = benignDemandPagingCycles(false);
    result.benignFencedCycles = benignDemandPagingCycles(true);
    result.benignOverhead =
        result.benignBaselineCycles
            ? (static_cast<double>(result.benignFencedCycles) /
                   static_cast<double>(result.benignBaselineCycles) -
               1.0)
            : 0.0;
    return result;
}

} // namespace uscope::defense
