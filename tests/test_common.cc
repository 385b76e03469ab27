/**
 * @file
 * Unit tests for src/common: bit utilities, the deterministic RNG,
 * statistics containers, and the logging/error machinery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "common/bitfield.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"

using namespace uscope;

TEST(Bitfield, MaskAndBits)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(12), 0xFFFu);
    EXPECT_EQ(mask(64), ~std::uint64_t{0});

    // The PGD index of a canonical address: bits 47:39.
    const std::uint64_t va = 0x0000'7FFF'FFFF'F000ull;
    EXPECT_EQ(bits(va, 47, 39), 0xFFu);
    EXPECT_EQ(bits(0xABCD'1234ull, 15, 8), 0x12u);
}

TEST(Bitfield, InsertBits)
{
    EXPECT_EQ(insertBits(0, 7, 4, 0xA), 0xA0u);
    EXPECT_EQ(insertBits(0xFFFF, 7, 4, 0), 0xFF0Fu);
    EXPECT_EQ(insertBits(0xFF, 3, 0, 0x5), 0xF5u);
}

TEST(Bitfield, PowersAndRounding)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(4096), 12u);
    EXPECT_EQ(roundUp(1, 64), 64u);
    EXPECT_EQ(roundUp(64, 64), 64u);
    EXPECT_EQ(roundDown(127, 64), 64u);
}

TEST(Types, PageAndLineHelpers)
{
    EXPECT_EQ(pageBase(0x1234), 0x1000u);
    EXPECT_EQ(lineBase(0x1234), 0x1200u);
    EXPECT_EQ(pageNumber(0x3000), 3u);
    EXPECT_EQ(lineNumber(0x1240), 0x49u);
    EXPECT_EQ(pageSize, 4096u);
    EXPECT_EQ(lineSize, 64u);
}

TEST(Rng, Deterministic)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    unsigned same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3u);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowStreamGolden)
{
    // The first 16 draws per bound at seed 42, taken before below()
    // grew its power-of-two fast path, plus the raw draw that follows
    // them: the fast path must leave both the values and the number
    // of draws consumed unchanged.
    struct Case
    {
        std::uint64_t bound;
        std::vector<std::uint64_t> draws;
        std::uint64_t nextAfter;
    };
    const Case cases[] = {
        {2,
         {0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0},
         0x9de4159eda9cef95ull},
        {3,
         {0, 0, 2, 2, 1, 0, 1, 0, 1, 2, 1, 1, 1, 1, 1, 1},
         0x9de4159eda9cef95ull},
        {1000,
         {742, 102, 9, 193, 476, 584, 754, 407, 958, 85, 649, 893, 110,
          42, 293, 370},
         0x9de4159eda9cef95ull},
    };
    for (const Case &c : cases) {
        Rng rng(42);
        std::vector<std::uint64_t> got;
        for (int i = 0; i < 16; ++i)
            got.push_back(rng.below(c.bound));
        EXPECT_EQ(got, c.draws) << "bound " << c.bound;
        const std::uint64_t next = rng.next();
        EXPECT_EQ(next, c.nextAfter)
            << "bound " << c.bound << std::hex << " next 0x" << next;
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.range(3, 6));
    EXPECT_EQ(seen, (std::set<std::uint64_t>{3, 4, 5, 6}));
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double draw = rng.uniform();
        ASSERT_GE(draw, 0.0);
        ASSERT_LT(draw, 1.0);
        sum += draw;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Summary, MeanMinMaxVariance)
{
    Summary summary;
    for (double sample : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        summary.add(sample);
    EXPECT_EQ(summary.count(), 8u);
    EXPECT_DOUBLE_EQ(summary.mean(), 5.0);
    EXPECT_DOUBLE_EQ(summary.min(), 2.0);
    EXPECT_DOUBLE_EQ(summary.max(), 9.0);
    // Sample variance of the classic example set is 32/7.
    EXPECT_NEAR(summary.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Summary, EmptyIsZero)
{
    Summary summary;
    EXPECT_EQ(summary.count(), 0u);
    EXPECT_EQ(summary.mean(), 0.0);
    EXPECT_EQ(summary.variance(), 0.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram hist(0, 100, 10);
    hist.add(-5);           // underflow
    hist.add(0);            // bucket 0
    hist.add(9.99);         // bucket 0
    hist.add(55);           // bucket 5
    hist.add(99.5);         // bucket 9
    hist.add(100);          // overflow
    hist.add(1000);         // overflow

    EXPECT_EQ(hist.count(), 7u);
    EXPECT_EQ(hist.underflow(), 1u);
    EXPECT_EQ(hist.overflow(), 2u);
    EXPECT_EQ(hist.buckets()[0], 2u);
    EXPECT_EQ(hist.buckets()[5], 1u);
    EXPECT_EQ(hist.buckets()[9], 1u);
}

TEST(Histogram, CountAboveAndPercentile)
{
    Histogram hist(0, 200, 20);
    for (int i = 1; i <= 100; ++i)
        hist.add(i);
    EXPECT_EQ(hist.countAbove(90), 10u);
    EXPECT_NEAR(hist.percentile(0.5), 50.5, 0.01);
    EXPECT_NEAR(hist.percentile(0.0), 1.0, 0.01);
    EXPECT_NEAR(hist.percentile(1.0), 100.0, 0.01);
}

TEST(Histogram, PercentileClampsOutOfRangeFractions)
{
    Histogram hist(0, 200, 20);
    for (int i = 1; i <= 100; ++i)
        hist.add(i);
    // A negative fraction used to make the size_t cast of a negative
    // position undefined behaviour; out-of-range inputs now clamp.
    EXPECT_EQ(hist.percentile(-0.5), 1.0);
    EXPECT_EQ(hist.percentile(-1e300), 1.0);
    EXPECT_EQ(hist.percentile(2.0), 100.0);
    EXPECT_EQ(hist.percentile(std::numeric_limits<double>::infinity()),
              100.0);
    // NaN fails every comparison and clamps to the minimum.
    EXPECT_EQ(hist.percentile(std::nan("")), 1.0);
    // In-range behaviour is unchanged.
    EXPECT_NEAR(hist.percentile(0.5), 50.5, 0.01);
}

TEST(Json, NonFiniteDoublesSerializeAsNullAndAreCounted)
{
    json::Value doc = json::Value::object()
                          .set("ok", 1.5)
                          .set("nan", std::nan(""))
                          .set("inf",
                               std::numeric_limits<double>::infinity());
    json::Value arr = json::Value::array();
    arr.push(-std::numeric_limits<double>::infinity());
    arr.push(2.0);
    doc.set("nested", std::move(arr));

    EXPECT_EQ(doc.nonFiniteCount(), 3u);
    const std::string out = doc.dump();
    EXPECT_EQ(out,
              "{\"ok\":1.5,\"nan\":null,\"inf\":null,"
              "\"nested\":[null,2]}");

    EXPECT_EQ(json::Value(0.25).nonFiniteCount(), 0u);
    EXPECT_EQ(json::Value("NaN").nonFiniteCount(), 0u);
}

TEST(Histogram, RenderContainsBars)
{
    Histogram hist(0, 10, 2);
    for (int i = 0; i < 8; ++i)
        hist.add(2);
    hist.add(7);
    const std::string out = hist.render(10);
    EXPECT_NE(out.find("##########"), std::string::npos);
    EXPECT_NE(out.find('|'), std::string::npos);
}

TEST(Histogram, InvalidRangeIsFatal)
{
    EXPECT_THROW(Histogram(10, 10, 4), SimFatal);
    EXPECT_THROW(Histogram(0, 10, 0), SimFatal);
}

TEST(Histogram, RawQueriesPanicWithoutRawSamples)
{
    // countAbove()/percentile() answer from the raw sample vector;
    // on a populated keep_raw=false histogram they would silently
    // return 0/garbage, so they panic instead.
    Histogram binned(0, 10, 5, /*keep_raw=*/false);
    EXPECT_FALSE(binned.keepRaw());
    // Empty is fine: there is nothing the answer could misrepresent.
    EXPECT_EQ(binned.countAbove(3.0), 0u);
    EXPECT_EQ(binned.percentile(0.5), 0.0);

    binned.add(4.0);
    EXPECT_THROW(binned.countAbove(3.0), SimPanic);
    EXPECT_THROW(binned.percentile(0.5), SimPanic);

    // keep_raw=true histograms still answer normally.
    Histogram raw(0, 10, 5);
    raw.add(4.0);
    raw.add(8.0);
    EXPECT_EQ(raw.countAbove(5.0), 1u);
    EXPECT_EQ(raw.percentile(1.0), 8.0);
}

TEST(Logging, PanicAndFatalThrow)
{
    // Each emits exactly one `error` line on the sink, even at the
    // strictest level, and still throws.
    const LogConfig saved = logConfig();
    configureLog({LogLevel::Error, false});
    testing::internal::CaptureStderr();
    EXPECT_THROW(panic("boom %d", 3), SimPanic);
    const std::string panicked = testing::internal::GetCapturedStderr();
    testing::internal::CaptureStderr();
    EXPECT_THROW(fatal("bad config %s", "x"), SimFatal);
    const std::string failed = testing::internal::GetCapturedStderr();
    configureLog(saved);

    EXPECT_EQ(std::count(panicked.begin(), panicked.end(), '\n'), 1);
    EXPECT_NE(panicked.find("error sim: boom 3"), std::string::npos);
    EXPECT_EQ(std::count(failed.begin(), failed.end(), '\n'), 1);
    EXPECT_NE(failed.find("error sim: bad config x"), std::string::npos);
}

TEST(Logging, FormatProducesText)
{
    EXPECT_EQ(format("a=%d b=%s", 5, "hi"), "a=5 b=hi");
    EXPECT_EQ(format("%llx", 0xDEADull), "dead");
}
