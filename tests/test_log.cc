/**
 * @file
 * Tests for the log sink in common/logging: level parsing, severity
 * filtering, the pretty and NDJSON line shapes, USCOPE_LOG
 * environment config, warn() on the same sink with nothing installed,
 * and the observation-must-not-perturb
 * contract — campaign fingerprints are byte-identical at every log
 * level and output shape, even when trial bodies log on every trial.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "common/random.hh"
#include "exp/campaign.hh"
#include "obs/metrics.hh"

using namespace uscope;

namespace
{

constexpr Logger testLog{"test.log"};

/** Save/restore the process-wide sink config around a test. */
struct ScopedLogConfig
{
    LogConfig saved = logConfig();
    ~ScopedLogConfig() { configureLog(saved); }
};

std::string
captureLine(LogConfig config, void (*emit)())
{
    configureLog(config);
    testing::internal::CaptureStderr();
    emit();
    return testing::internal::GetCapturedStderr();
}

} // namespace

TEST(Log, LevelNamesRoundTrip)
{
    for (LogLevel level :
         {LogLevel::Error, LogLevel::Warn,
          LogLevel::Info, LogLevel::Debug}) {
        const std::optional<LogLevel> back =
            parseLogLevel(logLevelName(level));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, level);
    }
    EXPECT_FALSE(parseLogLevel("loud").has_value());
    EXPECT_FALSE(parseLogLevel("").has_value());
}

TEST(Log, SinkFiltersBySeverity)
{
    ScopedLogConfig scoped;

    const std::string dropped =
        captureLine({LogLevel::Error, false},
                    [] { testLog.warn("should not appear"); });
    EXPECT_TRUE(dropped.empty());
    EXPECT_FALSE(logEnabled(LogLevel::Warn));
    EXPECT_TRUE(logEnabled(LogLevel::Error));

    const std::string kept =
        captureLine({LogLevel::Warn, false},
                    [] { testLog.warn("emitted %d", 42); });
    EXPECT_NE(kept.find("warn"), std::string::npos);
    EXPECT_NE(kept.find("test.log"), std::string::npos);
    EXPECT_NE(kept.find("emitted 42"), std::string::npos);

    const std::string debugDropped =
        captureLine({LogLevel::Info, false},
                    [] { testLog.debug("too fine"); });
    EXPECT_TRUE(debugDropped.empty());
}

TEST(Log, PrettyAndJsonLineShapes)
{
    ScopedLogConfig scoped;

    const std::string pretty =
        captureLine({LogLevel::Debug, false},
                    [] { testLog.info("hello \"world\""); });
    EXPECT_EQ(pretty.front(), '[');
    EXPECT_NE(pretty.find("info"), std::string::npos);
    EXPECT_NE(pretty.find("test.log:"), std::string::npos);

    const std::string json =
        captureLine({LogLevel::Debug, true},
                    [] { testLog.info("hello \"world\""); });
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"level\":\"info\""), std::string::npos);
    EXPECT_NE(json.find("\"component\":\"test.log\""),
              std::string::npos);
    // The quote inside the message must be escaped for NDJSON.
    EXPECT_NE(json.find("hello \\\"world\\\""), std::string::npos);
    EXPECT_EQ(json.find("hello \"world\""), std::string::npos);
}

TEST(Log, CommandLineFlagsParseInOnePlace)
{
    ScopedLogConfig scoped;
    configureLog({LogLevel::Info, false});

    EXPECT_EQ(applyLogFlag("--log-level=debug"), LogFlag::Applied);
    EXPECT_EQ(logConfig().level, LogLevel::Debug);
    EXPECT_EQ(applyLogFlag("--log-json"), LogFlag::Applied);
    EXPECT_TRUE(logConfig().json);

    // A typo or a missing value is reported and changes nothing.
    for (const char *bad : {"--log-level=degub", "--log-level=",
                            "--log-level"}) {
        EXPECT_EQ(applyLogFlag(bad), LogFlag::BadValue) << bad;
        EXPECT_EQ(logConfig().level, LogLevel::Debug) << bad;
    }

    // Anything else is not a log flag and leaves the sink alone.
    for (const char *other : {"--log-levels=warn", "--log-json=1",
                              "--trace", "log-json"}) {
        EXPECT_EQ(applyLogFlag(other), LogFlag::NotLogFlag) << other;
    }
    EXPECT_EQ(logConfig().level, LogLevel::Debug);
    EXPECT_TRUE(logConfig().json);
}

TEST(Log, ConfiguresFromEnvironment)
{
    ScopedLogConfig scoped;

    ::setenv("USCOPE_LOG", "debug,json", 1);
    configureLogFromEnv();
    EXPECT_EQ(logConfig().level, LogLevel::Debug);
    EXPECT_TRUE(logConfig().json);

    // Unrecognized tokens are ignored; recognized ones still apply.
    ::setenv("USCOPE_LOG", "bogus,error", 1);
    testing::internal::CaptureStderr();
    configureLogFromEnv();
    testing::internal::GetCapturedStderr();
    EXPECT_EQ(logConfig().level, LogLevel::Error);

    ::unsetenv("USCOPE_LOG");
}

namespace
{

/** A campaign whose trials log on every trial and export
 *  seed-dependent metrics — the fingerprint invariance probe. */
exp::CampaignSpec
loggingSpec()
{
    exp::CampaignSpec spec;
    spec.name = "log-invariance";
    spec.trials = 16;
    spec.masterSeed = 11;
    spec.workers = 2;
    spec.body = [](const exp::TrialContext &ctx) {
        static constexpr Logger bodyLog{"test.trial"};
        bodyLog.debug("trial %zu starting", ctx.index);
        Rng rng(ctx.seed);
        obs::MetricRegistry registry;
        registry.counter("t.count").set(rng.below(1000));
        registry.gauge("t.gauge").set(rng.uniform());
        warn("trial %zu sim warn", ctx.index);

        exp::TrialOutput out;
        out.metrics = registry.snapshot();
        out.metric.add(rng.uniform());
        return out;
    };
    return spec;
}

std::string
fingerprintUnder(LogConfig config)
{
    configureLog(config);
    testing::internal::CaptureStderr();
    const exp::CampaignResult result =
        exp::runCampaign(loggingSpec());
    testing::internal::GetCapturedStderr();
    return exp::deterministicFingerprint(result);
}

} // namespace

TEST(Log, CampaignFingerprintInvariantAcrossLevelsAndShapes)
{
    ScopedLogConfig scoped;

    const std::string silent =
        fingerprintUnder({LogLevel::Error, false});
    ASSERT_FALSE(silent.empty());
    EXPECT_EQ(fingerprintUnder({LogLevel::Warn, false}), silent);
    EXPECT_EQ(fingerprintUnder({LogLevel::Debug, false}), silent);
    EXPECT_EQ(fingerprintUnder({LogLevel::Debug, true}), silent);
}

TEST(Log, WarnUsesTheOneSink)
{
    // No handler, no bridge: warn() is the "sim" component's warn line
    // on the same sink, under the same level gate and line shapes.
    ScopedLogConfig scoped;

    const std::string dropped = captureLine(
        {LogLevel::Error, false}, [] { warn("sim noise %d", 7); });
    EXPECT_TRUE(dropped.empty());

    const std::string kept = captureLine(
        {LogLevel::Warn, false}, [] { warn("sim noise %d", 7); });
    EXPECT_EQ(kept.front(), '[');
    EXPECT_NE(kept.find("warn  sim: sim noise 7"), std::string::npos);

    const std::string json = captureLine(
        {LogLevel::Warn, true}, [] { warn("sim noise %d", 7); });
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"level\":\"warn\""), std::string::npos);
    EXPECT_NE(json.find("\"component\":\"sim\""), std::string::npos);
    EXPECT_NE(json.find("\"msg\":\"sim noise 7\""), std::string::npos);
}
