/**
 * @file
 * Integration tests for the §8 defense models: each must behave the
 * way the paper argues — one defense genuinely stops the attack, the
 * others leave exploitable gaps.
 */

#include <gtest/gtest.h>

#include "defense/dejavu.hh"
#include "defense/fence_defense.hh"
#include "defense/pf_oblivious.hh"
#include "defense/tsgx.hh"

using namespace uscope;
using namespace uscope::defense;

TEST(FenceDefense, DefeatsPortContentionAtLowBenignCost)
{
    const FenceAblationResult result = runFenceAblation(3000);

    // Undefended: the attack separates cleanly.
    EXPECT_TRUE(result.baselineDiv.inferredDivides);
    EXPECT_GT(result.baselineDiv.aboveThreshold, 10u);

    // Fenced: the div victim collapses to the mul noise floor.
    EXPECT_TRUE(result.attackDefeated);
    EXPECT_LE(result.fencedDiv.aboveThreshold,
              result.fencedMul.aboveThreshold + 2);

    // And the benign demand-paging workload barely notices.
    EXPECT_LT(result.benignOverhead, 0.05);
    EXPECT_GE(result.benignFencedCycles, result.benignBaselineCycles);
}

TEST(TsgxDefense, GrantsNMinusOneReplaysWhichSuffice)
{
    for (bool secret : {false, true}) {
        TsgxConfig config;
        config.secret = secret;
        const TsgxResult result = runTsgxAttack(config);

        // T-SGX does what it promises: the OS never handles a fault,
        // and the app terminates after N failed transactions...
        EXPECT_EQ(result.txAborts, kTsgxAbortThreshold);
        EXPECT_TRUE(result.victimTerminated);

        // ...but the N-1 replay windows already leaked the secret
        // through the (noiseless) cache channel.
        EXPECT_EQ(result.inferredDividesCache, secret);
        EXPECT_GE(result.mulHits + result.divHits,
                  kTsgxAbortThreshold / 2);
    }
}

TEST(DejavuDefense, DetectsOnlyAfterExtraction)
{
    DejavuConfig config;
    config.replays = 10;
    const DejavuResult result = runDejavuExperiment(config);

    // The attacker finished extracting before any detection could
    // trigger: the closing clock read is younger than the handle and
    // cannot retire during the replays.
    EXPECT_TRUE(result.secretExtracted);
    EXPECT_EQ(result.replaysCompleted, config.replays);
    EXPECT_TRUE(result.inferredSecret);
    // Detection does fire — after the fact.
    EXPECT_TRUE(result.detected);
    EXPECT_GT(result.measuredElapsed, kDejavuDetectionThreshold);
}

TEST(DejavuDefense, FewReplaysMaskAsOrdinaryFaults)
{
    DejavuConfig config;
    config.replays = 2;
    const DejavuResult result = runDejavuExperiment(config);

    // Two replays cost about two benign minor faults — below any
    // threshold that tolerates normal demand paging.
    EXPECT_TRUE(result.secretExtracted);
    EXPECT_FALSE(result.detected);
    EXPECT_GT(result.benignFaultCost, 1000u);
    EXPECT_LT(result.measuredElapsed,
              4 * result.benignFaultCost + 4000);
}

TEST(PfObliviousDefense, ClosesPageChannelButHelpsMicroScope)
{
    for (bool secret : {false, true}) {
        PfObliviousConfig config;
        config.secret = secret;
        const PfObliviousResult result =
            runPfObliviousExperiment(config);

        // The transformation achieves its goal: page traces match.
        EXPECT_TRUE(result.pageTraceSecretIndependent);
        // But it ADDS replay-handle candidates (§8: "the added memory
        // accesses provide more replay handles")...
        EXPECT_GT(result.obliviousHandleCandidates,
                  result.originalHandleCandidates);
        // ...and the port-contention channel still leaks the secret.
        EXPECT_TRUE(result.inferenceCorrect);
    }
}
