/**
 * @file
 * Reproduces Table 1: the taxonomy of SGX side channels by spatial
 * granularity, temporal resolution, and noise — with *measured*
 * numbers from this simulator instead of citations.
 *
 * Four representative channels run against the same control-flow
 * victim (plus the AES victim for the cache rows):
 *
 *  - Controlled channel [60]: page-fault sequences.  Coarse (4 KiB),
 *    noiseless, one run.
 *  - Prime+Probe, one shot: cache-line granularity but noisy against
 *    warm caches, and unsynchronized (low temporal resolution).
 *  - Port contention without replay (PortSmash [5]): fine grain, but
 *    one window gives almost no signal — the paper's motivation.
 *  - MicroScope: fine grain, instruction-level stepping, no noise,
 *    one logical run.
 */

#include <cstdio>
#include <set>
#include <vector>

#include "attack/aes_attack.hh"
#include "attack/port_contention.hh"
#include "attack/victims.hh"
#include "core/microscope.hh"
#include "crypto/aes.hh"
#include "fault/plan.hh"
#include "os/machine.hh"

using namespace uscope;

namespace
{

/** Controlled channel: recover the branch secret from fault VPNs. */
double
controlledChannelAccuracy(unsigned trials, const fault::FaultPlan &plan)
{
    unsigned correct = 0;
    for (unsigned trial = 0; trial < trials; ++trial) {
        const bool secret = trial % 2;
        os::MachineConfig mcfg;
        mcfg.seed = 100 + trial;
        mcfg.fault = plan;
        os::Machine machine(mcfg);
        auto &kernel = machine.kernel();
        const auto victim =
            attack::buildControlFlowVictim(kernel, secret);
        // Mark both possible transmit pages non-present and watch
        // which one faults (the kernel default handler services it).
        kernel.pageTable(victim.pid).setPresent(victim.transmitA,
                                                false);
        kernel.pageTable(victim.pid).setPresent(victim.transmitB,
                                                false);
        kernel.startOnContext(victim.pid, 0, victim.program);
        machine.runUntilHalted(0, 1'000'000);
        // After the run, exactly the touched page was made present by
        // demand paging: read the present bits back.
        const bool touched_div =
            kernel.pageTable(victim.pid).isPresent(victim.transmitB);
        correct += touched_div == secret;
    }
    return static_cast<double>(correct) / trials;
}

/** One-shot Prime+Probe on Td1 against warm caches: line error rate. */
double
primeProbeOneShotErrorRate(unsigned trials)
{
    unsigned errors = 0;
    unsigned total = 0;
    for (unsigned trial = 0; trial < trials; ++trial) {
        attack::AesAttackConfig config;
        config.machine.seed = 500 + trial;
        for (unsigned i = 0; i < 16; ++i) {
            config.key[i] = static_cast<std::uint8_t>(trial + i);
            config.plaintext[i] = static_cast<std::uint8_t>(i * 3);
        }
        const auto fig11 = attack::runFig11(config);
        // "One shot" = the unprimed Replay-0 probe: classify against
        // ground truth and count line classification errors.
        const auto observed = fig11.replays.at(0).hitLines();
        for (unsigned line = 0; line < 16; ++line) {
            const bool measured = observed.count(line) > 0;
            const bool expected = fig11.expectedLines.count(line) > 0;
            errors += measured != expected;
            ++total;
        }
    }
    return static_cast<double>(errors) / total;
}

/** Port contention: verdict accuracy at a given replay budget. */
double
portContentionAccuracy(std::uint64_t replays, unsigned trials)
{
    unsigned correct = 0;
    for (unsigned trial = 0; trial < trials; ++trial) {
        attack::PortContentionConfig config;
        config.victimDivides = trial % 2;
        config.replays = replays;
        config.samples = static_cast<unsigned>(replays * 60 + 400);
        config.machine.seed = 900 + trial;
        const auto result = attack::runPortContentionAttack(config);
        correct += result.inferredDivides == config.victimDivides;
    }
    return static_cast<double>(correct) / trials;
}

/** MicroScope/AES: line classification error after primed replays. */
double
microscopeAesErrorRate(unsigned trials, const fault::FaultPlan &plan)
{
    unsigned errors = 0;
    unsigned total = 0;
    for (unsigned trial = 0; trial < trials; ++trial) {
        attack::AesAttackConfig config;
        config.machine.seed = 700 + trial;
        config.machine.fault = plan;
        for (unsigned i = 0; i < 16; ++i) {
            config.key[i] = static_cast<std::uint8_t>(trial * 7 + i);
            config.plaintext[i] = static_cast<std::uint8_t>(i * 5);
        }
        const auto fig11 = attack::runFig11(config);
        for (const auto &lines : fig11.measuredLines) {
            for (unsigned line = 0; line < 16; ++line) {
                const bool measured = lines.count(line) > 0;
                const bool expected =
                    fig11.expectedLines.count(line) > 0;
                errors += measured != expected;
                ++total;
            }
        }
    }
    return static_cast<double>(errors) / total;
}

/**
 * Sneaky Page Monitoring [58]: poll-and-clear the Accessed bits of
 * the two candidate transmit pages (flushing the TLB so every access
 * re-walks) and infer the branch direction without a single fault.
 */
double
spmAccuracy(unsigned trials, const fault::FaultPlan &plan)
{
    unsigned correct = 0;
    for (unsigned trial = 0; trial < trials; ++trial) {
        const bool secret = trial % 2;
        os::MachineConfig mcfg;
        mcfg.seed = 300 + trial;
        mcfg.fault = plan;
        os::Machine machine(mcfg);
        auto &kernel = machine.kernel();
        const auto victim =
            attack::buildControlFlowVictim(kernel, secret);
        kernel.pageTable(victim.pid)
            .testAndClearAccessed(victim.transmitA);
        kernel.pageTable(victim.pid)
            .testAndClearAccessed(victim.transmitB);
        machine.mmu().flushTlbAll();
        kernel.startOnContext(victim.pid, 0, victim.program);

        bool saw_mul = false;
        bool saw_div = false;
        while (!machine.core().halted(0) &&
               machine.cycle() < 1'000'000) {
            machine.run(200);
            saw_mul |= kernel.pageTable(victim.pid)
                           .testAndClearAccessed(victim.transmitA);
            saw_div |= kernel.pageTable(victim.pid)
                           .testAndClearAccessed(victim.transmitB);
            machine.mmu().flushTlbAll();
        }
        // Speculative wrong-path walks set A bits too; but with the
        // predictor flushed (predicting the fall-through div side),
        // seeing BOTH pages means the branch mispredicted, i.e. it
        // was taken — the mul side (the §4.2.3 insight applied here).
        bool verdict;
        if (saw_mul && saw_div)
            verdict = false;          // mispredicted => taken => mul
        else if (saw_div)
            verdict = true;
        else
            verdict = false;
        correct += (saw_mul || saw_div) && verdict == secret;
    }
    return static_cast<double>(correct) / trials;
}

} // namespace

int
main()
{
    std::printf("==============================================================\n");
    std::printf("Table 1: side channels on the simulated SGX machine\n");
    std::printf("(measured on this substrate; paper classification in [])\n");
    std::printf("==============================================================\n\n");

    // "Noiseless" is a measurement here, not a citation: every
    // page-granularity and replay-based row is re-run under
    // FaultPlan::chaos() (interrupt residue, TLB/PWC shootdowns,
    // port and timer jitter, dropped samples) and reports how much of
    // its accuracy survives.
    const fault::FaultPlan quiet;
    const fault::FaultPlan noisy = fault::FaultPlan::chaos();

    const double controlled = controlledChannelAccuracy(8, quiet);
    const double controlled_n = controlledChannelAccuracy(8, noisy);
    const double spm = spmAccuracy(8, quiet);
    const double spm_n = spmAccuracy(8, noisy);
    const double pp_error = primeProbeOneShotErrorRate(6);
    const double port_one = portContentionAccuracy(1, 10);
    const double port_many = portContentionAccuracy(60, 10);
    const double us_error = microscopeAesErrorRate(6, quiet);
    const double us_error_n = microscopeAesErrorRate(6, noisy);

    std::printf("%-34s %-10s %-12s %s\n", "channel", "spatial",
                "temporal", "measured noise / accuracy");
    std::printf("%-34s %-10s %-12s accuracy %.0f%% quiet, %.0f%% "
                "under faults\n",
                "controlled channel (page faults)", "4 KiB page",
                "per fault", controlled * 100, controlled_n * 100);
    std::printf("%-34s %-10s %-12s accuracy %.0f%% quiet, %.0f%% "
                "under faults\n",
                "sneaky page monitoring (A bits)", "4 KiB page",
                "per poll", spm * 100, spm_n * 100);
    std::printf("%-34s %-10s %-12s line error %.1f%%  [noisy]\n",
                "Prime+Probe, single shot", "64 B line", "end of run",
                pp_error * 100);
    std::printf("%-34s %-10s %-12s verdict accuracy %.0f%%  [high noise]\n",
                "port contention, no replay", "instr.", "one window",
                port_one * 100);
    std::printf("%-34s %-10s %-12s verdict accuracy %.0f%%\n",
                "port contention + MicroScope", "instr.",
                "per replay", port_many * 100);
    std::printf("%-34s %-10s %-12s line error %.1f%% quiet, %.1f%% "
                "under faults\n",
                "cache probe + MicroScope", "64 B line",
                "single-step", us_error * 100, us_error_n * 100);

    std::printf("\nPaper's claim: only MicroScope reaches fine grain + high\n");
    std::printf("temporal resolution + no noise, in a single victim run.\n");
    return 0;
}
