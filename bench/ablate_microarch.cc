/**
 * @file
 * Ablation: how robust is the Figure-10 attack to the victim
 * machine's microarchitecture?  The paper evaluates one Xeon; here we
 * sweep the parameters the attack's physics depend on:
 *
 *  - ROB size: bounds the speculative window (§4.1.1 "potentially
 *    until the ROB is full");
 *  - divider latency: the magnitude of the contention signal;
 *  - fault-handler cost: the fraction of time the Monitor samples
 *    contention-free (the paper's explanation for the sub-threshold
 *    mass in Figure 10);
 *  - Monitor burst length (cont): the sampling granularity.
 */

#include <cstdio>

#include "attack/port_contention.hh"
#include "common/logging.hh"

using namespace uscope;

namespace
{

void
runRow(const char *label, const attack::PortContentionConfig &base)
{
    attack::PortContentionConfig config = base;
    config.victimDivides = false;
    const auto mul_run = attack::runPortContentionAttack(config);
    config.victimDivides = true;
    const auto div_run = attack::runPortContentionAttack(config);
    std::printf("  %-28s mul=%-4llu div=%-5llu verdicts %s/%s  %s\n",
                label,
                static_cast<unsigned long long>(mul_run.aboveThreshold),
                static_cast<unsigned long long>(div_run.aboveThreshold),
                mul_run.inferredDivides ? "DIV" : "mul",
                div_run.inferredDivides ? "div" : "MUL",
                (!mul_run.inferredDivides && div_run.inferredDivides)
                    ? "attack works"
                    : "ATTACK FAILS");
}

} // namespace

int
main()
{
    attack::PortContentionConfig base;
    base.samples = 4000;
    base.replays = 60;

    std::printf("==============================================================\n");
    std::printf("Ablation: attack robustness vs. machine parameters\n");
    std::printf("(4000 samples, 60 replays; above-threshold counts)\n");
    std::printf("==============================================================\n");

    std::printf("\nROB entries per context (window bound):\n");
    for (unsigned rob : {32u, 64u, 112u, 224u}) {
        attack::PortContentionConfig config = base;
        config.machine.core.robPerContext = rob;
        runRow(format("ROB = %u", rob).c_str(), config);
    }

    std::printf("\ndivider latency (signal magnitude; threshold "
                "recalibrated to\nthe machine, as a real attacker "
                "would):\n");
    for (Cycles lat : {12u, 24u, 48u}) {
        attack::PortContentionConfig config = base;
        config.machine.core.divLatency = lat;
        config.machine.core.fdivLatency = lat;
        // Uncontended burst ~= cont * lat + fixed overhead; one victim
        // divide adds ~lat.  Calibrate between the two.
        config.threshold = config.cont * lat + 24;
        runRow(format("div latency = %llu (thr %llu)",
                      static_cast<unsigned long long>(lat),
                      static_cast<unsigned long long>(config.threshold))
                   .c_str(),
               config);
    }

    std::printf("\nfault-handler base cost (replay period):\n");
    for (Cycles cost : {600u, 1800u, 6000u}) {
        attack::PortContentionConfig config = base;
        config.machine.costs.faultBase = cost;
        runRow(format("handler = %llu cycles",
                      static_cast<unsigned long long>(cost))
                   .c_str(),
               config);
    }

    std::printf("\nMonitor burst length (cont):\n");
    for (unsigned cont : {2u, 4u, 8u}) {
        attack::PortContentionConfig config = base;
        config.cont = cont;
        // Uncontended burst scales with cont; keep the threshold a
        // fixed margin above it, as a real attacker would calibrate.
        config.threshold = cont * 24 + 24;
        runRow(format("cont = %u (thr %llu)", cont,
                      static_cast<unsigned long long>(config.threshold))
                   .c_str(),
               config);
    }

    std::printf("\nThe attack holds across the sweep as long as the window\n");
    std::printf("fits the two divides (every ROB here) and the attacker\n");
    std::printf("calibrates the threshold to the Monitor's burst length.\n");
    return 0;
}
