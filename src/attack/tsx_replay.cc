#include "attack/tsx_replay.hh"

#include "attack/victims.hh"

namespace uscope::attack
{

namespace
{

/** Attacker polling period of the secret replay, in cycles. */
constexpr Cycles kReplayPollInterval = 25;

/** Attacker polling period of the RDRAND bias, in cycles. */
constexpr Cycles kBiasPollInterval = 10;

/** Abort budget of the RDRAND bias; past it, a wrong draw commits. */
constexpr unsigned kBiasMaxAborts = 64;

/** Probe one transmit line and restore the primed state. */
bool
probeAndReprime(os::Kernel &kernel, PAddr line)
{
    const bool hot = kernel.timedProbePhys(line).hit();
    kernel.flushPhysLine(line);
    return hot;
}

} // anonymous namespace

TsxReplayResult
runTsxSecretReplay(const TsxReplayConfig &config)
{
    os::Machine machine(config.machine);
    auto &kernel = machine.kernel();

    const VictimImage victim =
        buildTsxVictim(kernel, config.secret, config.maxRetries);
    const PAddr line0 = *kernel.translate(victim.pid, victim.transmitA);
    const PAddr line1 = line0 + lineSize;
    const PAddr txdata = *kernel.translate(victim.pid, victim.handle);

    TsxReplayResult result;
    kernel.flushPhysLine(line0);
    kernel.flushPhysLine(line1);
    kernel.startOnContext(victim.pid, 0, victim.program);

    std::uint64_t aborts_wanted = 0;
    std::uint64_t aborts_seen = 0;
    bool pending_abort = false;
    std::uint64_t votes[2] = {0, 0};
    const Cycles budget = 5'000'000;
    while (!machine.core().halted(0) && machine.cycle() < budget) {
        machine.run(kReplayPollInterval);

        // Persist with a requested abort until the core confirms it:
        // the dirty write-set line only exists once the transactional
        // store has retired, so a single eviction may be too early.
        const std::uint64_t aborts_now =
            machine.core().stats(0).txAborts;
        if (pending_abort) {
            if (aborts_now > aborts_seen) {
                aborts_seen = aborts_now;
                pending_abort = false;
            } else {
                kernel.flushPhysLine(txdata);
                continue;
            }
        }

        const bool hot0 = probeAndReprime(kernel, line0);
        const bool hot1 = probeAndReprime(kernel, line1);
        if (hot0 == hot1)
            continue;
        ++result.observations;
        ++votes[hot1 ? 1 : 0];
        if (aborts_wanted < config.aborts) {
            ++aborts_wanted;
            pending_abort = true;
            kernel.flushPhysLine(txdata);
        } else {
            // Enough replays: let the transaction commit.
            machine.runUntilHalted(0, 1'000'000);
        }
    }

    result.txAborts = machine.core().stats(0).txAborts;
    result.victimCompleted = machine.core().halted(0);
    result.victimSucceeded = machine.core().readIntReg(0, 15) == 1;
    result.inferredSecret = votes[1] > votes[0];
    result.coreDigest = machine.core().stateDigest();
    return result;
}

TsxBiasResult
runTsxRdrandBias(const TsxBiasConfig &config)
{
    os::Machine machine(config.machine);
    auto &kernel = machine.kernel();

    const VictimImage victim =
        buildTsxRdrandVictim(kernel, config.maxRetries);
    const PAddr line0 = *kernel.translate(victim.pid, victim.transmitA);
    const PAddr line1 = line0 + lineSize;
    const PAddr txdata = *kernel.translate(victim.pid, victim.handle);

    TsxBiasResult result;
    kernel.flushPhysLine(line0);
    kernel.flushPhysLine(line1);
    kernel.startOnContext(victim.pid, 0, victim.program);

    bool released = false;
    bool pending_abort = false;
    std::uint64_t aborts_seen = 0;
    const Cycles budget = 50'000'000;
    while (!machine.core().halted(0) && machine.cycle() < budget) {
        machine.run(kBiasPollInterval);
        if (released)
            continue;

        const std::uint64_t aborts_now =
            machine.core().stats(0).txAborts;
        if (pending_abort) {
            if (aborts_now > aborts_seen) {
                aborts_seen = aborts_now;
                pending_abort = false;
            } else {
                kernel.flushPhysLine(txdata);
                continue;
            }
        }

        const bool hot0 = probeAndReprime(kernel, line0);
        const bool hot1 = probeAndReprime(kernel, line1);
        if (hot0 == hot1)
            continue;
        ++result.drawsObserved;
        const int bit = hot1 ? 1 : 0;
        if (bit != config.desiredBit &&
            result.abortsIssued < kBiasMaxAborts) {
            ++result.abortsIssued;
            pending_abort = true;
            kernel.flushPhysLine(txdata);
        } else if (bit == config.desiredBit) {
            released = true;  // Let this draw commit.
        }
    }
    machine.runUntilHalted(0, 1'000'000);

    result.victimCompleted = machine.core().halted(0);
    std::uint64_t committed = 0;
    std::uint64_t flag = 0;
    kernel.readVirtual(victim.pid, victim.transmitA + 1088, &flag, 8);
    if (flag == 1 &&
        kernel.readVirtual(victim.pid, victim.transmitA + 1024,
                           &committed, 8)) {
        result.committedBit = static_cast<int>(committed & 1);
        result.biased = result.committedBit == config.desiredBit;
    }
    result.coreDigest = machine.core().stateDigest();
    return result;
}

} // namespace uscope::attack
