/**
 * @file
 * Ablation of §8: every candidate countermeasure the paper discusses,
 * evaluated against the attacks it is supposed to stop.
 *
 *  - Fences on pipeline flushes: genuinely stops the replay window
 *    (at a measured, small cost to benign page-faulting code).
 *  - T-SGX: keeps the OS out of the fault path but hands the
 *    attacker N-1 replay windows — enough for the cache channel.
 *  - Déjà Vu: detects long replay campaigns — but only after the
 *    fact, and short campaigns hide inside benign fault budgets.
 *  - PF-obliviousness: closes the controlled channel while *adding*
 *    replay handles and leaving port contention exposed.
 */

#include <cstdio>

#include "defense/dejavu.hh"
#include "defense/fence_defense.hh"
#include "defense/pf_oblivious.hh"
#include "defense/tsgx.hh"

using namespace uscope;

int
main()
{
    std::printf("==============================================================\n");
    std::printf("Defense ablation (§8)\n");
    std::printf("==============================================================\n");

    {
        std::printf("\n[1] Fences on pipeline flushes\n");
        const auto result = defense::runFenceAblation(4000);
        std::printf("    port attack, no defense:   %llu samples above "
                    "threshold -> verdict %s\n",
                    static_cast<unsigned long long>(
                        result.baselineDiv.aboveThreshold),
                    result.baselineDiv.inferredDivides ? "DIVIDES"
                                                       : "no divides");
        std::printf("    port attack, fence on:     %llu above "
                    "(mul noise floor: %llu) -> verdict %s\n",
                    static_cast<unsigned long long>(
                        result.fencedDiv.aboveThreshold),
                    static_cast<unsigned long long>(
                        result.fencedMul.aboveThreshold),
                    result.fencedDiv.inferredDivides ? "DIVIDES"
                                                     : "no divides");
        std::printf("    attack defeated:           %s\n",
                    result.attackDefeated ? "yes" : "NO");
        std::printf("    benign demand paging:      %llu -> %llu cycles "
                    "(%.2f%% overhead)\n",
                    static_cast<unsigned long long>(
                        result.benignBaselineCycles),
                    static_cast<unsigned long long>(
                        result.benignFencedCycles),
                    result.benignOverhead * 100);
    }

    {
        std::printf("\n[2] T-SGX (transaction-wrapped enclave, N = 10)\n");
        for (bool secret : {false, true}) {
            defense::TsgxConfig config;
            config.secret = secret;
            const auto result = defense::runTsgxAttack(config);
            std::printf("    secret=%-5s aborts=%llu terminated=%s  "
                        "cache votes mul/div = %llu/%llu -> %s (%s)\n",
                        secret ? "div" : "mul",
                        static_cast<unsigned long long>(result.txAborts),
                        result.victimTerminated ? "yes" : "no",
                        static_cast<unsigned long long>(result.mulHits),
                        static_cast<unsigned long long>(result.divHits),
                        result.inferredDividesCache ? "DIVIDES"
                                                    : "no divides",
                        result.inferredDividesCache == secret
                            ? "correct"
                            : "WRONG");
        }
        std::printf("    => N-1 replays sufficed despite the defense "
                    "(paper's critique).\n");
    }

    {
        std::printf("\n[3] Deja Vu (reference clock)\n");
        for (std::uint64_t replays : {2ull, 10ull}) {
            defense::DejavuConfig config;
            config.replays = replays;
            const auto result = defense::runDejavuExperiment(config);
            std::printf("    %2llu replays: elapsed=%llu cy "
                        "(benign fault ~%llu cy)  detected=%-3s  "
                        "secret extracted first=%s\n",
                        static_cast<unsigned long long>(replays),
                        static_cast<unsigned long long>(
                            result.measuredElapsed),
                        static_cast<unsigned long long>(
                            result.benignFaultCost),
                        result.detected ? "yes" : "no",
                        result.secretExtracted ? "yes" : "NO");
        }
        std::printf("    => detection is after-the-fact; short campaigns "
                    "mask as benign faults.\n");
    }

    {
        std::printf("\n[4] PF-obliviousness (Shinde et al.)\n");
        for (bool secret : {false, true}) {
            defense::PfObliviousConfig config;
            config.secret = secret;
            const auto result =
                defense::runPfObliviousExperiment(config);
            std::printf("    secret=%-5s page trace secret-independent=%s"
                        "  handles %u->%u  port verdict %s (%s)\n",
                        secret ? "div" : "mul",
                        result.pageTraceSecretIndependent ? "yes" : "NO",
                        result.originalHandleCandidates,
                        result.obliviousHandleCandidates,
                        result.inferredDivides ? "DIVIDES"
                                               : "no divides",
                        result.inferenceCorrect ? "correct" : "WRONG");
        }
        std::printf("    => the transform closes the page channel but "
                    "ADDS replay handles\n       and the port channel "
                    "still leaks (paper's observation).\n");
    }
    return 0;
}
