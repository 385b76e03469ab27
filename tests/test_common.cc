/**
 * @file
 * Unit tests for src/common: bit utilities, the deterministic RNG,
 * statistics containers, and the logging/error machinery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
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

TEST(Rng, RangeFullSpanIsOneRawDraw)
{
    // hi - lo + 1 wraps to zero for the full 64-bit span; that must be
    // one raw draw, not below(0).  Narrower spans keep below()'s
    // stream.
    Rng rng(9);
    Rng twin(9);
    const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(rng.range(0, top), twin.next());
    EXPECT_EQ(rng.range(1, top), 1 + twin.below(top));
    EXPECT_EQ(rng.range(0, top - 1), twin.below(top));
    EXPECT_EQ(rng.next(), twin.next());
}

namespace
{

/** Four raw draws: enough to tell two generator states apart. */
std::vector<std::uint64_t>
peek(Rng rng)
{
    std::vector<std::uint64_t> draws;
    for (int i = 0; i < 4; ++i)
        draws.push_back(rng.next());
    return draws;
}

} // namespace

TEST(Rng, DiscardMatchesStepByStep)
{
    // The stream BelowStreamGolden pins, left 16 below(3) draws in.
    Rng golden(42);
    for (int i = 0; i < 16; ++i)
        (void)golden.below(3);
    const std::vector<Rng> starts = {golden, Rng(0), Rng(7),
                                     Rng(0xDEADBEEFCAFEF00Dull)};
    const std::uint64_t t = Rng::kDiscardJumpMin;
    const std::uint64_t ks[] = {0,     1,     2,     255,
                                256,   257,   t - 1, t,
                                t + 1, 27800, (std::uint64_t{1} << 20) + 3};
    for (std::size_t s = 0; s < starts.size(); ++s) {
        for (const std::uint64_t k : ks) {
            Rng stepped = starts[s];
            for (std::uint64_t i = 0; i < k; ++i)
                (void)stepped.next();
            Rng discarded = starts[s];
            discarded.discard(k);
            Rng jumped = starts[s];
            jumped.jump(k);
            EXPECT_EQ(peek(discarded), peek(stepped))
                << "start " << s << " k " << k;
            EXPECT_EQ(peek(jumped), peek(stepped))
                << "start " << s << " k " << k;
        }
    }
}

TEST(Rng, CharacteristicPolynomialReproducesPublishedJumps)
{
    // Derive p(x) from the public stream alone.  The scrambler is a
    // bijection of s[1] (odd multiplies and a rotate), so each draw
    // gives back s[1]; its low bit is a linear recurrence whose
    // minimal polynomial is p itself, p being primitive.
    const auto inverse = [](std::uint64_t odd) {
        std::uint64_t inv = odd; // correct to 3 bits; Newton doubles it
        for (int i = 0; i < 5; ++i)
            inv *= 2 - odd * inv;
        return inv;
    };
    const std::uint64_t inv5 = inverse(5);
    const std::uint64_t inv9 = inverse(9);
    Rng rng(2024);
    std::vector<int> bits;
    for (int i = 0; i < 512; ++i)
        bits.push_back(std::rotr(rng.next() * inv9, 7) * inv5 & 1);

    // Berlekamp-Massey over GF(2): the shortest c with
    // bits[n] = sum_{i=1..L} c[i] bits[n - i].
    const std::size_t n = bits.size();
    std::vector<int> c(n + 1), b(n + 1);
    c[0] = b[0] = 1;
    std::size_t len = 0;
    std::size_t shift = 1;
    for (std::size_t at = 0; at < n; ++at) {
        int d = bits[at];
        for (std::size_t i = 1; i <= len; ++i)
            d ^= c[i] & bits[at - i];
        if (!d) {
            ++shift;
            continue;
        }
        const std::vector<int> prev = c;
        for (std::size_t i = 0; i + shift <= n; ++i)
            c[i + shift] ^= b[i];
        if (2 * len <= at) {
            len = at + 1 - len;
            b = prev;
            shift = 1;
        } else {
            ++shift;
        }
    }
    ASSERT_EQ(len, 256u);
    // p(x) = x^256 + sum c[i] x^(256 - i): c reversed.
    xoshiro::Poly derived{};
    for (unsigned i = 1; i <= 256; ++i)
        derived[(256 - i) / 64] |= std::uint64_t(c[i]) << ((256 - i) % 64);
    EXPECT_EQ(derived, xoshiro::kCharPoly);

    // Vigna's published jump polynomials: x^(2^128) mod p (JUMP) and
    // x^(2^192) mod p (LONG_JUMP), coefficient i at bit i % 64 of word
    // i / 64 exactly as xoshiro256's jump() consumes them.
    xoshiro::Poly power = {2, 0, 0, 0}; // x
    for (int i = 0; i < 128; ++i)
        power = xoshiro::squareMod(power);
    EXPECT_EQ(power, (xoshiro::Poly{0x180ec6d33cfd0abaull,
                                     0xd5a61266f0c9392cull,
                                     0xa9582618e03fc9aaull,
                                     0x39abdc4529b1661cull}));
    for (int i = 0; i < 64; ++i)
        power = xoshiro::squareMod(power);
    EXPECT_EQ(power, (xoshiro::Poly{0x76e15d3efefdcbbfull,
                                     0xc5004e441c522fb3ull,
                                     0x77710069854ee241ull,
                                     0x39109bb02acbe635ull}));

    // And square-and-multiply agrees with repeated squaring.
    xoshiro::Poly squared = {2, 0, 0, 0};
    for (int i = 0; i < 63; ++i)
        squared = xoshiro::squareMod(squared);
    EXPECT_EQ(xoshiro::xPowMod(std::uint64_t{1} << 63), squared);
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

TEST(Json, NumbersMatchPrintf)
{
    // The token writer must spell every number exactly as the printf
    // formats it replaced, or every fingerprint and frame would move.
    const double doubles[] = {
        0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 1.0 / 3.0, 2.5e-300,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(), DBL_MIN / 3.0,
        DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, 1e21, -1e21, 1e22, 1e-7,
        1e-5, 100.0, 1e16, 1e17, 12345.678, 123456789012345678.0,
        9007199254740991.0, 9007199254740992.0, 9007199254740994.0,
        0.30000000000000004, 3.141592653589793, std::nextafter(1.0, 2.0)};
    for (const double d : doubles)
        EXPECT_EQ(json::Value(d).dump(), format("%.17g", d)) << d;

    const std::int64_t ints[] = {
        0, 1, -1, 9, 10, -10, (std::int64_t{1} << 53) - 1,
        std::int64_t{1} << 53, (std::int64_t{1} << 53) + 1,
        -(std::int64_t{1} << 53) - 1,
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()};
    for (const std::int64_t v : ints)
        EXPECT_EQ(json::Value(v).dump(),
                  format("%lld", static_cast<long long>(v)));

    const std::uint64_t uints[] = {
        0, 1, 10, (std::uint64_t{1} << 53) - 1, std::uint64_t{1} << 53,
        (std::uint64_t{1} << 53) + 1, std::uint64_t{1} << 63,
        std::numeric_limits<std::uint64_t>::max()};
    for (const std::uint64_t v : uints)
        EXPECT_EQ(json::Value(v).dump(),
                  format("%llu", static_cast<unsigned long long>(v)));

    // What the writer spells parses back to the same value (an
    // integral double reads back as an integer, so -0 loses its sign).
    for (const double d : doubles)
        EXPECT_EQ(json::Value::parse(json::Value(d).dump())->asDouble(), d);
    for (const std::int64_t v : ints)
        EXPECT_EQ(json::Value::parse(json::Value(v).dump())->asI64(), v);
    for (const std::uint64_t v : uints)
        EXPECT_EQ(json::Value::parse(json::Value(v).dump())->asU64(), v);

    // Integers beyond 64 bits parse as doubles, and exponents beyond a
    // double's range as strtod reads them.
    EXPECT_EQ(json::Value::parse("18446744073709551616")->type(),
              json::Value::Type::Double);
    EXPECT_EQ(json::Value::parse("-9223372036854775809")->asDouble(),
              -9223372036854775808.0);
    EXPECT_TRUE(std::isinf(json::Value::parse("1e999")->asDouble()));
    EXPECT_EQ(json::Value::parse("-1e-999")->asDouble(), 0.0);
    for (const char *bad : {"-", "+1", "1e", "--1", "0x10", ".", "1.5.2"})
        EXPECT_FALSE(json::Value::parse(bad).has_value()) << bad;
}

TEST(Json, ParseStringRuns)
{
    const auto str = [](const std::string &text) {
        const auto v = json::Value::parse(text);
        return v && v->isString() ? v->asString() : std::string("<bad>");
    };
    EXPECT_EQ(str(R"("")"), "");
    EXPECT_EQ(str(R"("plain run")"), "plain run");
    EXPECT_EQ(str(R"("\nstart")"), "\nstart");
    EXPECT_EQ(str(R"("mid\tdle")"), "mid\tdle");
    EXPECT_EQ(str(R"("end\\")"), "end\\");
    EXPECT_EQ(str(R"("\"\\\/\b\f\n\r\t")"), "\"\\/\b\f\n\r\t");
    EXPECT_EQ(str(R"("a\u0041b\u00e9c")"), "aAb\xc3\xa9" "c");
    // A surrogate pair is one 4-byte code point (U+1F600).
    EXPECT_EQ(str(R"("x\ud83d\ude00y")"), "x\xf0\x9f\x98\x80y");
    EXPECT_EQ(str(R"("\ud83d")"), "<bad>");       // lone high half
    EXPECT_EQ(str(R"("\ude00")"), "<bad>");       // lone low half
    EXPECT_EQ(str(R"("\ud83d\u0041")"), "<bad>"); // high + non-low
    EXPECT_EQ(str(R"("\u12")"), "<bad>");         // short escape
    EXPECT_EQ(str(R"("\q")"), "<bad>");           // unknown escape
    EXPECT_EQ(str("\"bare\x01" "control\""), "<bad>");
    EXPECT_EQ(str("\"bare\nnewline\""), "<bad>");
    EXPECT_EQ(str(R"("unterminated)"), "<bad>");
    EXPECT_EQ(str(R"("ends in escape\)"), "<bad>");

    // Every byte the writer escapes parses back to itself, as a key and
    // as a value, and the parse dumps back to the same text.
    std::string all;
    for (int c = 1; c < 256; ++c)
        all += static_cast<char>(c);
    const std::string doc =
        json::Value::object().set(all, all).set("k", "v").dump();
    const auto parsed = json::Value::parse(doc);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_NE(parsed->get(all), nullptr);
    EXPECT_EQ(parsed->get(all)->asString(), all);
    EXPECT_EQ(parsed->dump(), doc);
    EXPECT_EQ(json::Value::escape("a\x01\"b\x1f"), "a\\u0001\\\"b\\u001f");
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
