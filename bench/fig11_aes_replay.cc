/**
 * @file
 * Reproduces Figure 11: the latency the Replayer observes probing each
 * of the 16 cache lines of AES table Td1 after each of three replays
 * of one round iteration — Replay 0 against warm caches (mixed
 * levels), Replays 1 and 2 after priming (accessed lines hit L1 at
 * <60 cycles, everything else misses to memory at >300 cycles).
 *
 * Also runs the full single-stepping extraction of §4.4 and the
 * round-1 key-nibble recovery extension — and, beyond the paper's
 * single key, a randomized-key sweep campaign (exp::runCampaign)
 * that measures recovery robustness across keys/plaintexts, exported
 * to bench-results/fig11_aes_replay.json.
 */

#include <cstdio>
#include <vector>

#include "attack/aes_attack.hh"
#include "common/random.hh"
#include "exp/campaign.hh"
#include "exp/result_sink.hh"
#include "obs/chrome_trace.hh"
#include "obs/cli.hh"

using namespace uscope;

namespace
{

constexpr std::size_t keySweepTrials = 6;

attack::AesAttackConfig
paperConfig()
{
    attack::AesAttackConfig config;
    for (unsigned i = 0; i < 16; ++i) {
        config.key[i] = static_cast<std::uint8_t>(i);
        config.plaintext[i] = static_cast<std::uint8_t>(0x20 + i);
    }
    return config;
}

/** Randomized key/plaintext derived from the trial's seed stream. */
attack::AesAttackConfig
sweepConfig(const exp::TrialContext &ctx)
{
    attack::AesAttackConfig config;
    Rng rng(ctx.seed);
    for (unsigned i = 0; i < 16; ++i) {
        config.key[i] = static_cast<std::uint8_t>(rng.below(256));
        config.plaintext[i] = static_cast<std::uint8_t>(rng.below(256));
    }
    config.machine.seed = ctx.seed;
    return config;
}

/** Nibble-recovery scorecard for one extraction. */
struct Recovery
{
    unsigned recovered = 0;
    unsigned correct = 0;
    bool plaintextCorrect = false;
    std::uint64_t replays = 0;
    std::uint64_t faults = 0;
    unsigned stableEpisodes = 0;
    std::size_t episodes = 0;
};

Recovery
scoreExtraction(const attack::AesAttackConfig &config,
                const attack::AesExtractionResult &extraction)
{
    Recovery r;
    const auto nibbles = attack::recoverRound1Nibbles(extraction);
    const auto truth = attack::groundTruthRound1Nibbles(config);
    for (unsigned i = 0; i < 16; ++i) {
        if (nibbles[i]) {
            ++r.recovered;
            r.correct += *nibbles[i] == truth[i];
        }
    }
    r.plaintextCorrect = extraction.plaintextCorrect;
    r.replays = extraction.totalReplays;
    r.faults = extraction.totalFaults;
    r.episodes = extraction.episodes.size();
    for (const auto &episode : extraction.episodes)
        r.stableEpisodes += episode.stable;
    return r;
}

void
printPaperKeyDetail(const attack::AesAttackConfig &config,
                    const attack::Fig11Result &fig11,
                    const attack::AesExtractionResult &extraction)
{
    std::printf("%-10s", "line:");
    for (unsigned line = 0; line < 16; ++line)
        std::printf("%5u", line);
    std::printf("\n");
    for (std::size_t replay = 0; replay < fig11.replays.size();
         ++replay) {
        std::printf("Replay %zu: ", replay);
        for (unsigned line = 0; line < 16; ++line)
            std::printf("%5llu",
                        static_cast<unsigned long long>(
                            fig11.replays[replay].latency[line]));
        std::printf("  (cycles)\n");
    }

    std::printf("\nground-truth Td1 lines accessed in the window: { ");
    for (unsigned line : fig11.expectedLines)
        std::printf("%u ", line);
    std::printf("}\n");
    for (std::size_t i = 0; i < fig11.measuredLines.size(); ++i) {
        std::printf("lines classified hot after primed replay %zu: { ",
                    i + 1);
        for (unsigned line : fig11.measuredLines[i])
            std::printf("%u ", line);
        std::printf("}\n");
    }
    std::printf("consistent across primed replays: %s\n",
                fig11.consistentAcrossPrimedReplays ? "yes" : "NO");
    std::printf("matches ground truth (noiseless): %s\n",
                fig11.matchesGroundTruth ? "yes" : "NO");

    std::printf("\n--------------------------------------------------------------\n");
    std::printf("Full single-stepped extraction (one logical decryption)\n");
    std::printf("--------------------------------------------------------------\n");
    std::printf("episodes (t-groups stepped):  %zu\n",
                extraction.episodes.size());
    std::printf("total replays:                %llu\n",
                static_cast<unsigned long long>(
                    extraction.totalReplays));
    std::printf("total page faults induced:    %llu\n",
                static_cast<unsigned long long>(extraction.totalFaults));
    std::printf("plaintext still correct:      %s\n",
                extraction.plaintextCorrect ? "yes" : "NO");

    unsigned stable = 0;
    for (const auto &episode : extraction.episodes)
        stable += episode.stable;
    std::printf("episodes with identical measurements across primed "
                "replays: %u/%zu\n",
                stable, extraction.episodes.size());

    for (unsigned round = 1; round <= 9; ++round) {
        const auto lines = extraction.roundLines(round);
        std::printf("  round %u lines  Td0:{", round);
        for (unsigned line : lines[0])
            std::printf("%u ", line);
        std::printf("} Td1:{");
        for (unsigned line : lines[1])
            std::printf("%u ", line);
        std::printf("} Td2:{");
        for (unsigned line : lines[2])
            std::printf("%u ", line);
        std::printf("} Td3:{");
        for (unsigned line : lines[3])
            std::printf("%u ", line);
        std::printf("}\n");
    }

    const auto nibbles = attack::recoverRound1Nibbles(extraction);
    const auto truth = attack::groundTruthRound1Nibbles(config);
    unsigned recovered = 0;
    unsigned correct = 0;
    std::printf("\nround-1 state-nibble recovery (extension):\n  ");
    for (unsigned i = 0; i < 16; ++i) {
        if (nibbles[i]) {
            ++recovered;
            correct += *nibbles[i] == truth[i];
            std::printf("%X", *nibbles[i]);
        } else {
            std::printf("?");
        }
    }
    std::printf("   (truth: ");
    for (unsigned i = 0; i < 16; ++i)
        std::printf("%X", truth[i]);
    std::printf(")\n  recovered %u/16 nibbles, %u correct, %u wrong\n",
                recovered, correct, recovered - correct);
}

} // namespace

int
main(int argc, char **argv)
{
    const obs::BenchObsOptions obsOpts = obs::parseBenchObsOptions(
        argc, argv, "bench-results/fig11_aes_replay.trace.json");

    std::printf("==============================================================\n");
    std::printf("Figure 11: probe latency of Td1's 16 lines across 3 replays\n");
    std::printf("Paper bands: L1 < 60 cy, L2/L3 100-200 cy, memory > 300 cy\n");
    std::printf("==============================================================\n\n");

    // One campaign: trial 0 reproduces Figure 11 on the paper's key,
    // trial 1 runs the full extraction on the same key, trials 2..N
    // sweep random keys/plaintexts to measure recovery robustness.
    attack::Fig11Result fig11Detail;
    attack::AesExtractionResult extractionDetail;
    std::vector<Recovery> recoveries(2 + keySweepTrials);

    exp::CampaignSpec spec;
    spec.name = "fig11_aes_replay";
    spec.trials = 2 + keySweepTrials;
    spec.masterSeed = 42;
    spec.body = [&](const exp::TrialContext &ctx) {
        exp::TrialOutput out;
        if (ctx.index == 0) {
            // Trial 0 carries the event trace: one Figure-11 replay
            // timeline is what --trace is for.
            attack::AesAttackConfig config = paperConfig();
            config.machine.obs.traceEvents = obsOpts.trace;
            config.machine.obs.traceCapacity = obsOpts.traceCapacity;
            const attack::Fig11Result fig11 = attack::runFig11(config);
            out.payload =
                json::Value::object()
                    .set("kind", "fig11")
                    .set("consistent",
                         fig11.consistentAcrossPrimedReplays)
                    .set("matches_ground_truth",
                         fig11.matchesGroundTruth);
            json::Value probes = json::Value::array();
            for (const attack::LineProbe &probe : fig11.replays) {
                json::Value row = json::Value::array();
                for (Cycles latency : probe.latency)
                    row.push(latency);
                probes.push(std::move(row));
            }
            out.payload.set("probe_latencies", std::move(probes));
            out.metric.add(fig11.matchesGroundTruth ? 1.0 : 0.0);
            out.metrics = fig11.metrics;
            fig11Detail = std::move(fig11);
            return out;
        }

        attack::AesAttackConfig config =
            ctx.index == 1 ? paperConfig() : sweepConfig(ctx);
        const attack::AesExtractionResult extraction =
            attack::runAesExtraction(config);
        const Recovery recovery = scoreExtraction(config, extraction);
        out.metric.add(recovery.recovered
                           ? static_cast<double>(recovery.correct) /
                                 recovery.recovered
                           : 0.0);
        out.metrics = extraction.metrics;
        out.scope.episodes = recovery.episodes;
        out.scope.totalReplays = recovery.replays;
        out.scope.handleFaults = recovery.faults;
        out.payload =
            json::Value::object()
                .set("kind",
                     ctx.index == 1 ? "extraction-paper-key"
                                    : "extraction-random-key")
                .set("nibbles_recovered",
                     std::uint64_t{recovery.recovered})
                .set("nibbles_correct", std::uint64_t{recovery.correct})
                .set("plaintext_correct", recovery.plaintextCorrect)
                .set("episodes", std::uint64_t{recovery.episodes})
                .set("stable_episodes",
                     std::uint64_t{recovery.stableEpisodes})
                .set("total_replays", recovery.replays);
        recoveries[ctx.index] = recovery;
        if (ctx.index == 1)
            extractionDetail = extraction;
        return out;
    };

    const exp::CampaignResult campaign = exp::runCampaign(spec);

    printPaperKeyDetail(paperConfig(), fig11Detail, extractionDetail);

    std::printf("\n--------------------------------------------------------------\n");
    std::printf("Randomized-key sweep (%zu extra extractions, campaign "
                "runner)\n",
                keySweepTrials);
    std::printf("--------------------------------------------------------------\n");
    for (std::size_t i = 2; i < recoveries.size(); ++i) {
        const Recovery &r = recoveries[i];
        std::printf("  trial %zu: recovered %2u/16 nibbles (%2u correct, "
                    "%u wrong), plaintext %s, %u/%zu episodes stable\n",
                    i, r.recovered, r.correct, r.recovered - r.correct,
                    r.plaintextCorrect ? "ok" : "CORRUPTED",
                    r.stableEpisodes, r.episodes);
    }
    std::printf("  mean per-trial recovery accuracy: %.3f "
                "(1.0 = every recovered nibble correct)\n",
                campaign.aggregate.metric.mean());
    std::printf("\ncampaign: %zu trials (%zu ok) on %u workers in %.2fs; "
                "%llu replays total\n",
                campaign.trialCount, campaign.aggregate.ok,
                campaign.workers, campaign.wallSeconds,
                static_cast<unsigned long long>(
                    campaign.aggregate.scope.totalReplays));

    if (obsOpts.metrics) {
        std::printf("\nmetrics snapshot (merged across %zu trials):\n",
                    campaign.trialCount);
        obs::printMetrics(campaign.aggregate.metrics);
    }
    if (obsOpts.trace) {
        obs::TraceSpill spill;
        spill.log = fig11Detail.events;
        if (obs::writeTraceFile(obsOpts.tracePath,
                                obs::mergeChromeTraces({spill})))
            std::printf("\nreplay timeline (Chrome trace-event JSON, "
                        "open in ui.perfetto.dev): %s\n",
                        obsOpts.tracePath.c_str());
    }

    exp::JsonFileSink sink("bench-results");
    sink.consume(campaign);
    std::printf("campaign JSON: %s\n", sink.lastPath().c_str());
    return campaign.aggregate.ok == campaign.trialCount ? 0 : 1;
}
