/**
 * @file
 * End-to-end integration tests for every attack in src/attack — the
 * paper's demonstrated results as assertions.
 */

#include <gtest/gtest.h>

#include "attack/aes_attack.hh"
#include "attack/control_flow.hh"
#include "attack/loop_secret.hh"
#include "attack/mispredict_replay.hh"
#include "attack/port_contention.hh"
#include "attack/rdrand_bias.hh"
#include "attack/single_secret.hh"
#include "attack/tsx_replay.hh"

using namespace uscope;
using namespace uscope::attack;

// ---------------------------------------------------------------------
// §4.3 / Figure 10: the headline result.
// ---------------------------------------------------------------------

/** Parameterized over seeds: the verdict must be robust. */
class PortContentionSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PortContentionSweep, DetectsTwoDividesInOneLogicalRun)
{
    PortContentionConfig config;
    config.samples = 3000;
    config.replays = 60;
    config.machine.seed = GetParam();

    config.victimDivides = true;
    const auto div_run = runPortContentionAttack(config);
    config.victimDivides = false;
    const auto mul_run = runPortContentionAttack(config);

    EXPECT_TRUE(div_run.victimCompleted);
    EXPECT_TRUE(mul_run.victimCompleted);
    // The separation the paper reports as 4 vs 64 out of 10,000:
    // div exceedances must dwarf mul exceedances.
    EXPECT_GE(div_run.aboveThreshold, 10u)
        << "div victim produced too little contention";
    EXPECT_LE(mul_run.aboveThreshold, 5u)
        << "mul victim produced too much noise";
    EXPECT_GT(div_run.aboveThreshold, 4 * mul_run.aboveThreshold);
    EXPECT_TRUE(div_run.inferredDivides);
    EXPECT_FALSE(mul_run.inferredDivides);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PortContentionSweep,
                         ::testing::Values(1u, 7u, 42u, 1234u));

TEST(PortContention, ReplaysAreArchitecturallyInvisible)
{
    // Regardless of how many times the window replays, the victim's
    // architectural result is the single-run result.
    for (std::uint64_t replays : {1ull, 10ull, 50ull}) {
        PortContentionConfig config;
        // Enough Monitor samples that the run outlasts the replays.
        config.samples = static_cast<unsigned>(replays * 60 + 500);
        config.replays = replays;
        const auto result = runPortContentionAttack(config);
        EXPECT_TRUE(result.victimCompleted) << replays;
        EXPECT_GE(result.replaysDone, replays) << replays;
    }
}

TEST(PortContention, MedianStaysBelowThreshold)
{
    PortContentionConfig config;
    config.samples = 2000;
    const auto result = runPortContentionAttack(config);
    // "most Monitor samples are taken while the page fault handling
    // code is running... below the threshold" (§6.1).
    EXPECT_LT(result.medianLatency, config.threshold);
}

// ---------------------------------------------------------------------
// §4.4 / Figure 11: the AES cache attack.
// ---------------------------------------------------------------------

TEST(AesAttack, Fig11ShapeReproduces)
{
    AesAttackConfig config;
    for (unsigned i = 0; i < 16; ++i) {
        config.key[i] = static_cast<std::uint8_t>(i);
        config.plaintext[i] = static_cast<std::uint8_t>(0x20 + i);
    }
    const Fig11Result result = runFig11(config);

    ASSERT_EQ(result.replays.size(), 3u);
    // Replays 1 and 2 (primed) must agree exactly and match ground
    // truth: only the victim-accessed Td1 lines hit, all else DRAM.
    EXPECT_TRUE(result.consistentAcrossPrimedReplays);
    EXPECT_TRUE(result.matchesGroundTruth);

    // The Figure-11 latency bands: hits < 60, misses > 300.
    for (std::size_t r = 1; r < 3; ++r) {
        for (unsigned line = 0; line < 16; ++line) {
            const Cycles latency = result.replays[r].latency[line];
            if (result.expectedLines.count(line))
                EXPECT_LT(latency, 70u) << "replay " << r
                                        << " line " << line;
            else
                EXPECT_GT(latency, 300u) << "replay " << r
                                         << " line " << line;
        }
    }

    // Replay 0 (unprimed, warm caches) shows the paper's mixture:
    // at least one line in each of the L1 / L2-L3 / memory bands.
    unsigned low = 0;
    unsigned mid = 0;
    unsigned high = 0;
    for (unsigned line = 0; line < 16; ++line) {
        const Cycles latency = result.replays[0].latency[line];
        low += latency < 70;
        mid += latency >= 70 && latency < 250;
        high += latency >= 250;
    }
    EXPECT_GT(low, 0u);
    EXPECT_GT(mid, 0u);
    EXPECT_GT(high, 0u);
}

/** §4.3 vote rule: hot means a strict majority, so a tie is not hot. */
TEST(AesAttack, MajorityLinesNeedsAStrictMajority)
{
    using Lines = std::set<unsigned>;
    EXPECT_EQ(majorityLines({{1, 2, 3}, {2, 3}, {3, 4}, {3}}),
              (Lines{3}));
    EXPECT_EQ(majorityLines({{1, 2, 3}, {2, 3}, {3, 4}}),
              (Lines{2, 3}));
    EXPECT_EQ(majorityLines({{0, 15}}), (Lines{0, 15}));
    EXPECT_TRUE(majorityLines({}).empty());
    EXPECT_TRUE(majorityLines({{}, {}}).empty());
}

TEST(AesAttack, FullExtractionSingleSteps)
{
    AesAttackConfig config;
    for (unsigned i = 0; i < 16; ++i) {
        config.key[i] = static_cast<std::uint8_t>(0x10 + 3 * i);
        config.plaintext[i] = static_cast<std::uint8_t>(0xA0 ^ i);
    }
    const AesExtractionResult result = runAesExtraction(config);

    // 9 inner rounds x 4 t-groups, one episode each.
    EXPECT_EQ(result.episodes.size(), 36u);
    // The decryption still produced the right plaintext: the attack
    // is invisible to the victim's architectural execution.
    EXPECT_TRUE(result.plaintextCorrect);
    EXPECT_GE(result.totalReplays, 36u * config.replaysPerEpisode);

    // Completeness: every table line the reference decryption touches
    // in round r appears in the measured lines for round r (Td1..Td3
    // from handle windows; Td0 from pivot windows).
    crypto::AesKey enc(config.key.data(), 128, false);
    crypto::AesKey dec(config.key.data(), 128, true);
    std::uint8_t ct[16];
    crypto::encryptBlock(enc, config.plaintext.data(), ct);
    const auto trace = crypto::traceDecryption(dec, ct);

    for (unsigned round = 1; round <= 9; ++round) {
        const auto measured = result.roundLines(round);
        for (unsigned table = 0; table < 4; ++table) {
            std::set<unsigned> expected;
            for (std::uint8_t index : trace.indices[round - 1][table])
                expected.insert(crypto::tableLineOf(index));
            // Measured ⊇ expected (the window may also catch the next
            // round's independent lookups — real speculative bleed).
            for (unsigned line : expected) {
                EXPECT_TRUE(measured[table].count(line))
                    << "round " << round << " table " << table
                    << " line " << line << " not extracted";
            }
            // And bounded: nothing outside this and the next round.
            std::set<unsigned> allowed = expected;
            if (round < 9) {
                for (std::uint8_t index : trace.indices[round][table])
                    allowed.insert(crypto::tableLineOf(index));
            }
            for (unsigned line : measured[table]) {
                EXPECT_TRUE(allowed.count(line))
                    << "round " << round << " table " << table
                    << " spurious line " << line;
            }
        }
    }

    // Final round: the Td4 lines measured at the last pivot are a
    // subset of (and non-trivially cover) the inverse-sbox accesses.
    std::set<unsigned> td4_expected;
    for (std::uint8_t index : trace.indices[9][4])
        td4_expected.insert(crypto::tableLineOf(index));
    for (unsigned line : result.td4Lines)
        EXPECT_TRUE(td4_expected.count(line)) << line;
    EXPECT_GT(result.td4Lines.size(), 0u);
}

TEST(AesAttack, NibbleRecoveryExtensionIsSound)
{
    // The key-recovery extension: every recovered round-1 nibble must
    // be CORRECT (soundness), and a useful number must be recovered.
    unsigned total_recovered = 0;
    unsigned total_correct = 0;
    for (std::uint64_t seed : {42ull, 77ull}) {
        AesAttackConfig config;
        config.machine.seed = seed;
        for (unsigned i = 0; i < 16; ++i) {
            config.key[i] =
                static_cast<std::uint8_t>(seed * 13 + i * 7);
            config.plaintext[i] =
                static_cast<std::uint8_t>(seed + i);
        }
        const auto result = runAesExtraction(config);
        const auto recovered = recoverRound1Nibbles(result);
        const auto truth = groundTruthRound1Nibbles(config);
        for (unsigned i = 0; i < 16; ++i) {
            if (!recovered[i])
                continue;
            ++total_recovered;
            total_correct += *recovered[i] == truth[i];
        }
    }
    EXPECT_EQ(total_correct, total_recovered)
        << "recovered nibbles must never be wrong";
    EXPECT_GE(total_recovered, 12u) << "too few nibbles recovered";
}

// ---------------------------------------------------------------------
// Figure 5 / §4.2.1: the single-secret attack.
// ---------------------------------------------------------------------

TEST(SingleSecret, SubnormalChannelAndCacheChannel)
{
    for (bool subnormal : {false, true}) {
        SingleSecretConfig config;
        config.subnormal = subnormal;
        config.id = 321;
        const auto result = runSingleSecretAttack(config);
        EXPECT_TRUE(result.victimCompleted);
        EXPECT_EQ(result.inferredSubnormal, subnormal);
        // The cache channel pins secrets[id]'s line either way.
        ASSERT_TRUE(result.inferredLine.has_value());
        EXPECT_EQ(*result.inferredLine, result.trueLine);
    }
}

// ---------------------------------------------------------------------
// Figure 4c / §4.2.3: control-flow secrets.
// ---------------------------------------------------------------------

TEST(ControlFlow, CacheVariantRecoversBranchDirection)
{
    for (bool secret : {false, true}) {
        ControlFlowConfig config;
        config.secret = secret;
        const auto result = runControlFlowAttack(config);
        ASSERT_TRUE(result.inferredSecret.has_value());
        EXPECT_EQ(*result.inferredSecret, secret);
        EXPECT_TRUE(result.victimCompleted);
    }
}

TEST(ControlFlow, MispredictionLeaksSecretEqualsPrediction)
{
    // §4.2.3 "Prediction": with the predictor primed to a known
    // direction, observing wrong-path residue reveals whether the
    // secret matches the prediction.
    for (bool secret : {false, true}) {
        for (bool primed_taken : {false, true}) {
            ControlFlowConfig config;
            config.secret = secret;
            config.primeTaken = primed_taken;
            const auto result = runControlFlowAttack(config);
            // beq taken means secret == 0 (the mul side).
            const bool branch_taken = !secret;
            const bool mispredicts = branch_taken != primed_taken;
            EXPECT_EQ(result.bothPathsObserved, mispredicts)
                << "secret " << secret << " primed " << primed_taken;
            ASSERT_TRUE(result.inferredSecret.has_value());
            EXPECT_EQ(*result.inferredSecret, secret);
        }
    }
}

// ---------------------------------------------------------------------
// Figure 4b / §4.2.2: loop secrets via pivot single-stepping.
// ---------------------------------------------------------------------

TEST(LoopSecret, RecoversPerIterationLinesSoundly)
{
    LoopSecretConfig config;
    config.secretLines = {9, 3, 60, 17, 27, 41, 0, 55};  // distinct
    const auto result = runLoopSecretAttack(config);
    EXPECT_TRUE(result.victimCompleted);
    EXPECT_EQ(result.wrong, 0u);
    // With distinct lines, suffix differencing recovers everything.
    EXPECT_EQ(result.correct, config.secretLines.size());
}

TEST(LoopSecret, CollidingLinesAreAmbiguousNotWrong)
{
    LoopSecretConfig config;
    config.secretLines = {5, 5, 5, 5};  // worst case: all identical
    const auto result = runLoopSecretAttack(config);
    EXPECT_EQ(result.wrong, 0u);
    // The final iteration is always unambiguous.
    ASSERT_TRUE(result.recovered.back().has_value());
    EXPECT_EQ(*result.recovered.back(), 5u);
}

// ---------------------------------------------------------------------
// §7.2: RDRAND.
// ---------------------------------------------------------------------

TEST(Rdrand, FenceBlocksObservationWithoutItLeaksEveryDraw)
{
    RdrandConfig config;
    config.serializingRdrand = false;
    const auto leaky = runRdrandObservation(config);
    EXPECT_EQ(leaky.observations, config.replays);
    EXPECT_TRUE(leaky.victimCompleted);

    config.serializingRdrand = true;  // real Intel behaviour
    const auto fenced = runRdrandObservation(config);
    EXPECT_EQ(fenced.observations, 0u);
    EXPECT_TRUE(fenced.victimCompleted);
    EXPECT_NE(fenced.retiredBit, -1);
}

// ---------------------------------------------------------------------
// §7.1: TSX-abort replay handles.
// ---------------------------------------------------------------------

TEST(TsxReplay, AbortsReplayTheTransactionBody)
{
    for (bool secret : {false, true}) {
        TsxReplayConfig config;
        config.secret = secret;
        config.aborts = 8;
        const auto result = runTsxSecretReplay(config);
        EXPECT_EQ(result.txAborts, 8u);
        EXPECT_GE(result.observations, 8u);
        EXPECT_TRUE(result.victimSucceeded);  // finally committed
        EXPECT_EQ(result.inferredSecret, secret);
    }
}

TEST(TsxReplay, BiasesSerializingRdrand)
{
    // §7.1's point: with TSX handles, RDRAND's fence is ineffective —
    // and because aborts happen after retirement, the *committed*
    // value can be biased.
    for (int desired : {0, 1}) {
        unsigned biased = 0;
        unsigned completed = 0;
        for (unsigned trial = 0; trial < 8; ++trial) {
            TsxBiasConfig config;
            config.desiredBit = desired;
            config.machine.seed = 1000 + trial * 17 + desired;
            const auto result = runTsxRdrandBias(config);
            completed += result.victimCompleted;
            biased += result.biased;
        }
        EXPECT_EQ(completed, 8u) << "desired " << desired;
        EXPECT_GE(biased, 7u) << "desired " << desired;
    }
}

// ---------------------------------------------------------------------
// §7.1 (end): branch mispredictions as bounded replay handles.
// ---------------------------------------------------------------------

TEST(MispredictReplay, PrimedBranchesAmplifyExecutions)
{
    for (unsigned branches : {1u, 4u, 8u}) {
        MispredictReplayConfig primed;
        primed.branches = branches;
        primed.primeToMispredict = true;
        const auto amplified = runMispredictReplay(primed);

        MispredictReplayConfig benign = primed;
        benign.primeToMispredict = false;
        const auto baseline = runMispredictReplay(benign);

        EXPECT_TRUE(amplified.victimCompleted);
        EXPECT_TRUE(baseline.victimCompleted);
        // Correctly-primed predictor: one execution, no mispredicts.
        EXPECT_EQ(baseline.mispredicts, 0u) << branches;
        EXPECT_EQ(baseline.transmitExecutions, 1u) << branches;
        // Adversarially primed: every branch mispredicts exactly once
        // (2-bit counters flip after one wrong outcome).
        EXPECT_EQ(amplified.mispredicts, branches) << branches;
        // Each squash re-fetches the sensitive load; it re-executes in
        // every window long enough for it to issue — at least one
        // extra time, at most once per mispredict.  (With many
        // branches the inter-squash windows shrink below the load's
        // issue delay, so the bound is not always met with equality.)
        EXPECT_GT(amplified.transmitExecutions,
                  baseline.transmitExecutions)
            << branches;
        EXPECT_LE(amplified.transmitExecutions, branches + 1)
            << branches;
        if (branches == 1) {
            EXPECT_EQ(amplified.transmitExecutions, 2u);
        }
        EXPECT_TRUE(amplified.residueObserved);
    }
}
