/**
 * @file
 * Reproduces the Figure-5 single-secret attack: getSecret(id, key)
 * runs once; MicroScope replays on the count++ handle and denoises
 * two channels — the divider-latency channel that reveals whether
 * secrets[id] is subnormal (§4.3's "fine-grain property about an
 * instruction's execution"), and the cache channel that reveals the
 * line of secrets[id].
 */

#include <cstdio>

#include "attack/single_secret.hh"

using namespace uscope;

int
main()
{
    std::printf("==============================================================\n");
    std::printf("Figure 5: single-secret attack on getSecret(id, key)\n");
    std::printf("==============================================================\n\n");

    std::printf("%-12s %-10s %-12s %-14s %-12s %s\n", "secrets[id]",
                "slow/rep", "verdict", "line (true)", "replays", "ok");
    for (unsigned id : {64u, 137u, 321u, 500u}) {
        for (bool subnormal : {false, true}) {
            attack::SingleSecretConfig config;
            config.id = id;
            config.subnormal = subnormal;
            config.machine.seed = 42 + id;
            const auto result = attack::runSingleSecretAttack(config);
            const bool line_ok = result.inferredLine &&
                                 *result.inferredLine ==
                                     result.trueLine;
            std::printf("%-12s %3llu/%-6llu %-12s %4d (%4u)%7llu     %s\n",
                        subnormal ? "subnormal" : "normal",
                        static_cast<unsigned long long>(
                            result.slowSamples),
                        static_cast<unsigned long long>(
                            result.replaysDone),
                        result.inferredSubnormal ? "subnormal"
                                                 : "normal",
                        result.inferredLine
                            ? static_cast<int>(*result.inferredLine)
                            : -1,
                        result.trueLine,
                        static_cast<unsigned long long>(
                            result.replaysDone),
                        (result.inferredSubnormal == subnormal &&
                         line_ok)
                            ? "yes"
                            : "NO");
        }
    }
    std::printf("\nBoth channels denoised from a single logical run of the\n");
    std::printf("function; prior subnormal attacks [7] needed whole-program\n");
    std::printf("timing over many runs.\n");
    return 0;
}
