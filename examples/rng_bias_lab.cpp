/**
 * @file
 * Scenario: attacking randomness (§7.1 + §7.2).
 *
 * An enclave draws a hardware random number and acts on it — think
 * lottery draws, nonce generation, randomized audits.  This example
 * walks the paper's generalization chapter end to end:
 *
 *   1. With a hypothetical non-serializing RDRAND, page-fault replay
 *      observes every speculative draw over a cache channel.
 *   2. With Intel's real (serializing) RDRAND, the same attack
 *      observes nothing — the fence works, as §7.2 concludes.
 *   3. With a TSX transaction as the replay handle (§7.1), the draw
 *      RETIRES inside the transaction before the attacker-induced
 *      abort, so the fence no longer helps — and by aborting until
 *      the observed draw is favourable, the attacker biases the value
 *      the enclave finally commits: an integrity attack.
 */

#include <cstdio>

#include "attack/rdrand_bias.hh"
#include "attack/tsx_replay.hh"

using namespace uscope;

int
main()
{
    std::printf("[1] page-fault replay vs non-serializing RDRAND\n");
    {
        attack::RdrandConfig config;
        config.serializingRdrand = false;
        const auto result = attack::runRdrandObservation(config);
        std::printf("    observed %llu/%zu speculative draws over the "
                    "cache channel\n",
                    static_cast<unsigned long long>(result.observations),
                    result.observedBits.size());
    }

    std::printf("[2] page-fault replay vs real (serializing) RDRAND\n");
    {
        attack::RdrandConfig config;
        config.serializingRdrand = true;
        const auto result = attack::runRdrandObservation(config);
        std::printf("    observed %llu/%zu draws — \"the attack does "
                    "not go through\" (§7.2)\n",
                    static_cast<unsigned long long>(result.observations),
                    result.observedBits.size());
    }

    std::printf("[3] TSX-abort replay vs serializing RDRAND (bias!)\n");
    for (int desired : {0, 1}) {
        unsigned biased = 0;
        unsigned trials = 10;
        std::uint64_t aborts = 0;
        for (unsigned trial = 0; trial < trials; ++trial) {
            attack::TsxBiasConfig config;
            config.desiredBit = desired;
            config.machine.seed = 2000 + 31 * trial + desired;
            const auto result = attack::runTsxRdrandBias(config);
            biased += result.biased;
            aborts += result.abortsIssued;
        }
        std::printf("    want bit %d: committed it in %u/%u runs "
                    "(%llu aborts total)\n",
                    desired, biased, trials,
                    static_cast<unsigned long long>(aborts));
    }

    std::printf("\nLesson (§7): fencing one instruction closes one replay\n");
    std::printf("mechanism; transactions reopen the window *after*\n");
    std::printf("retirement, turning a privacy attack into an integrity\n");
    std::printf("attack on the enclave's randomness.\n");
    return 0;
}
