#include "attack/mispredict_replay.hh"

#include "common/logging.hh"
#include "cpu/program.hh"

namespace uscope::attack
{

MispredictReplayResult
runMispredictReplay(const MispredictReplayConfig &config)
{
    os::Machine machine(config.machine);
    auto &kernel = machine.kernel();

    const os::Pid pid = kernel.createProcess("victim");
    const VAddr transmit = kernel.allocVirtual(pid, pageSize);

    // A run of always-taken branches (each jumping to the next
    // instruction) followed by the sensitive load.  All branches are
    // in flight together, so each primed misprediction squashes and
    // re-fetches everything younger — including the transmit.
    cpu::ProgramBuilder b;
    b.movi(1, static_cast<std::int64_t>(transmit));
    std::vector<std::uint64_t> branch_pcs;
    for (unsigned i = 0; i < config.branches; ++i) {
        branch_pcs.push_back(b.here());
        b.beq(1, 1, format("next%u", i));   // always taken
        b.label(format("next%u", i));
    }
    b.ld(2, 1, 0)   // the sensitive ("transmit") load
        .halt();

    std::uint64_t transmit_execs = 0;
    machine.core().setMemProbe(
        [&](unsigned, VAddr va, PAddr, bool is_store, bool) {
            if (!is_store && pageBase(va) == transmit)
                ++transmit_execs;
        });

    // The attacker primes the shared predictor; it knows the victim
    // binary and its pc bias (§4.2.3).
    const std::uint64_t bias = kernel.pcBiasOf(pid);
    for (std::uint64_t pc : branch_pcs)
        machine.core().predictor().prime(bias + pc,
                                         !config.primeToMispredict);

    const PAddr transmit_pa = *kernel.translate(pid, transmit);
    kernel.flushPhysLine(transmit_pa);

    cpu::Program program = b.build();
    kernel.startOnContext(
        pid, 0,
        std::make_shared<const cpu::Program>(std::move(program)));

    MispredictReplayResult result;
    result.victimCompleted = machine.runUntilHalted(0, 1'000'000);
    result.transmitExecutions = transmit_execs;
    result.mispredicts = machine.core().stats(0).mispredicts;
    result.residueObserved = kernel.timedProbePhys(transmit_pa).hit();
    result.coreDigest = machine.core().stateDigest();
    return result;
}

} // namespace uscope::attack
