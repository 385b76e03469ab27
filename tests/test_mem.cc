/**
 * @file
 * Unit and property tests for src/mem: physical memory, the
 * set-associative cache, and the three-level hierarchy.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/phys_mem.hh"

using namespace uscope;
using mem::Cache;
using mem::Hierarchy;
using mem::HitLevel;
using mem::MemConfig;
using mem::PhysMem;

// ---------------------------------------------------------------------
// PhysMem
// ---------------------------------------------------------------------

TEST(PhysMem, ReadWriteWidths)
{
    PhysMem mem;
    mem.write64(0x1000, 0x1122334455667788ull);
    EXPECT_EQ(mem.read64(0x1000), 0x1122334455667788ull);
    EXPECT_EQ(mem.read32(0x1000), 0x55667788u);
    EXPECT_EQ(mem.read8(0x1000), 0x88u);
    EXPECT_EQ(mem.read8(0x1007), 0x11u);

    mem.write8(0x1003, 0xAB);
    EXPECT_EQ(mem.read64(0x1000), 0x11223344AB667788ull);
}

TEST(PhysMem, UntouchedMemoryReadsZero)
{
    PhysMem mem;
    EXPECT_EQ(mem.read64(0x9999000), 0u);
    EXPECT_EQ(mem.pagesAllocated(), 0u);
}

TEST(PhysMem, CrossPageBulkCopy)
{
    PhysMem mem;
    std::vector<std::uint8_t> data(3 * pageSize);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);

    const PAddr base = 5 * pageSize - 100;  // straddles boundaries
    mem.writeBytes(base, data.data(), data.size());

    std::vector<std::uint8_t> back(data.size());
    mem.readBytes(base, back.data(), back.size());
    EXPECT_EQ(data, back);
}

TEST(PhysMem, CrossPageScalar)
{
    PhysMem mem;
    mem.write64(pageSize - 4, 0xAABBCCDDEEFF0011ull);
    EXPECT_EQ(mem.read64(pageSize - 4), 0xAABBCCDDEEFF0011ull);
    EXPECT_EQ(mem.read32(pageSize), 0xAABBCCDDu);
}

TEST(PhysMem, OutOfBoundsPanics)
{
    PhysMem mem(1 << 20);
    EXPECT_THROW(mem.read64((1 << 20) - 4), SimPanic);
    EXPECT_THROW(mem.write64(1 << 20, 1), SimPanic);
    EXPECT_NO_THROW(mem.write64((1 << 20) - 8, 1));
}

TEST(PhysMem, ZeroPageClears)
{
    PhysMem mem;
    mem.write64(0x2000, 0xFFFF);
    mem.zeroPage(2);
    EXPECT_EQ(mem.read64(0x2000), 0u);
}

// ---------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------

TEST(CacheTest, MissThenHit)
{
    Cache cache("c", 4096, 4);
    EXPECT_FALSE(cache.access(0x1000));
    cache.insert(0x1000);
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x103F));   // same line
    EXPECT_FALSE(cache.access(0x1040));  // next line
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CacheTest, LruEviction)
{
    // 4 sets x 2 ways; lines stride numSets*64 = 256 to share a set.
    Cache cache("c", 4 * 2 * 64, 2);
    ASSERT_EQ(cache.numSets(), 4u);
    const PAddr a = 0x0;
    const PAddr b = 0x400;
    const PAddr c = 0x800;
    ASSERT_EQ(cache.setIndex(a), cache.setIndex(b));
    ASSERT_EQ(cache.setIndex(a), cache.setIndex(c));

    cache.insert(a);
    cache.insert(b);
    cache.access(a);               // a is now MRU
    const auto evicted = cache.insert(c);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, b);        // b was LRU
    EXPECT_TRUE(cache.contains(a));
    EXPECT_TRUE(cache.contains(c));
    EXPECT_FALSE(cache.contains(b));
}

TEST(CacheTest, InsertExistingIsTouch)
{
    Cache cache("c", 4 * 2 * 64, 2);
    cache.insert(0x0);
    cache.insert(0x400);
    cache.insert(0x0);             // touch, not duplicate
    const auto evicted = cache.insert(0x800);
    EXPECT_EQ(*evicted, 0x400u);
    EXPECT_EQ(cache.occupancy(), 2u);
}

namespace
{

/** FNV-1a over a fresh cache's state, spelled out: every way zero
 *  (valid, tag, LRU stamp), then the clock and four stat counters. */
std::uint64_t
freshCacheDigest(const Cache &cache)
{
    std::uint64_t h = 14695981039346656037ull;
    const std::size_t words =
        static_cast<std::size_t>(cache.numSets()) * cache.assoc() * 3 + 5;
    for (std::size_t byte = 0; byte < words * 8; ++byte)
        h *= 1099511628211ull;   // h ^= 0 is a no-op
    return h;
}

} // namespace

TEST(CacheTest, InvalidateAndOccupancy)
{
    Cache cache("c", 4096, 4);
    // A fresh cache is empty, and a bulk wipe leaves it so.
    for (int wipe = 0; wipe < 2; ++wipe) {
        for (unsigned set = 0; set < cache.numSets(); ++set)
            for (unsigned way = 0; way < cache.assoc(); ++way)
                EXPECT_FALSE(cache.residentLine(set, way).has_value());
        EXPECT_EQ(cache.occupancy(), 0u);
        EXPECT_EQ(cache.stateDigest(), freshCacheDigest(cache));
        cache.invalidateAll();
    }
    EXPECT_EQ(cache.stats().invalidations, 0u);

    cache.insert(0x1000);
    cache.insert(0x2000);
    EXPECT_EQ(cache.occupancy(), 2u);
    EXPECT_TRUE(cache.invalidate(0x1000));
    EXPECT_FALSE(cache.invalidate(0x1000));
    EXPECT_EQ(cache.occupancy(), 1u);
    cache.invalidateAll();
    EXPECT_EQ(cache.occupancy(), 0u);
}

TEST(CacheTest, BadGeometryIsFatal)
{
    EXPECT_THROW(Cache("c", 1000, 4), SimFatal);
    EXPECT_THROW(Cache("c", 4096, 0), SimFatal);
    EXPECT_THROW(Cache("c", 3 * 64 * 4, 4), SimFatal);  // 3 sets
}

/**
 * Property: the Cache agrees with a reference LRU model over random
 * access/insert/invalidate traces, across geometries.
 */
class CacheModelTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheModelTest, AgreesWithReferenceLru)
{
    const auto [sets, assoc] = GetParam();
    Cache cache("c", std::uint64_t{sets} * assoc * 64, assoc);
    // Reference: per-set list of lines, front = MRU.
    std::map<unsigned, std::list<std::uint64_t>> model;

    Rng rng(1000 + sets * 10 + assoc);
    for (int step = 0; step < 5000; ++step) {
        const PAddr addr = rng.below(sets * 8) * lineSize;
        const unsigned set = cache.setIndex(addr);
        auto &mset = model[set];
        const PAddr line = lineBase(addr);
        const auto it = std::find(mset.begin(), mset.end(), line);

        const unsigned op = static_cast<unsigned>(rng.below(4));
        if (op == 0) {  // access
            const bool model_hit = it != mset.end();
            EXPECT_EQ(cache.access(addr), model_hit);
            if (model_hit)
                mset.splice(mset.begin(), mset, it);
        } else if (op <= 2) {  // insert
            cache.insert(addr);
            if (it != mset.end()) {
                mset.splice(mset.begin(), mset, it);
            } else {
                mset.push_front(line);
                if (mset.size() > assoc)
                    mset.pop_back();
            }
        } else {  // invalidate
            const bool model_present = it != mset.end();
            EXPECT_EQ(cache.invalidate(addr), model_present);
            if (model_present)
                mset.erase(it);
        }
        EXPECT_EQ(cache.contains(addr),
                  std::find(mset.begin(), mset.end(), line) !=
                      mset.end());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelTest,
    ::testing::Values(std::make_tuple(1u, 1u), std::make_tuple(1u, 8u),
                      std::make_tuple(4u, 2u), std::make_tuple(16u, 4u),
                      std::make_tuple(64u, 8u)));

// ---------------------------------------------------------------------
// Hierarchy
// ---------------------------------------------------------------------

TEST(HierarchyTest, MissGoesToDramThenHitsL1)
{
    Hierarchy hier;
    const auto first = hier.access(0x10000);
    EXPECT_EQ(first.level, HitLevel::Dram);
    const auto second = hier.access(0x10000);
    EXPECT_EQ(second.level, HitLevel::L1);
    EXPECT_EQ(second.latency, mem::kL1Latency);
}

TEST(HierarchyTest, LatenciesStrictlyOrdered)
{
    Hierarchy hier;
    EXPECT_LT(hier.latencyFor(HitLevel::L1),
              hier.latencyFor(HitLevel::L2));
    EXPECT_LT(hier.latencyFor(HitLevel::L2),
              hier.latencyFor(HitLevel::L3));
    EXPECT_LT(hier.latencyFor(HitLevel::L3),
              hier.latencyFor(HitLevel::Dram));
}

TEST(HierarchyTest, DramJitterBounded)
{
    // The defaults, and a jitter as large as the latency: [0, 20].
    MemConfig widest;
    widest.dramLatency = 10;
    widest.dramJitter = 10;
    for (const MemConfig &config : {MemConfig{}, widest}) {
        Hierarchy hier(config);
        const Cycles base = config.dramLatency;
        const Cycles jitter = config.dramJitter;
        for (int i = 0; i < 200; ++i) {
            const auto access = hier.access(
                0x100000 + static_cast<std::uint64_t>(i) * lineSize);
            ASSERT_EQ(access.level, HitLevel::Dram);
            EXPECT_GE(access.latency, base - jitter);
            EXPECT_LE(access.latency, base + jitter);
        }
    }
}

TEST(HierarchyTest, DramJitterAboveLatencyIsFatal)
{
    // Latency minus jitter is unsigned: a jitter above the latency
    // would wrap a short draw to a ~2^64-cycle access.
    MemConfig config;
    config.dramLatency = 10;
    config.dramJitter = 11;
    EXPECT_THROW(Hierarchy{config}, SimFatal);
}

TEST(HierarchyTest, InstallAtEachLevel)
{
    Hierarchy hier;
    for (HitLevel level : {HitLevel::L1, HitLevel::L2, HitLevel::L3,
                           HitLevel::Dram}) {
        const PAddr addr = 0x40000;
        hier.installAt(addr, level);
        EXPECT_EQ(hier.peekLevel(addr), level);
        const auto access = hier.access(addr);
        EXPECT_EQ(access.level, level);
    }
}

TEST(HierarchyTest, FlushRemovesEverywhere)
{
    Hierarchy hier;
    hier.access(0x5000);
    ASSERT_EQ(hier.peekLevel(0x5000), HitLevel::L1);
    hier.flushLine(0x5000);
    EXPECT_EQ(hier.peekLevel(0x5000), HitLevel::Dram);
}

TEST(HierarchyTest, FlushRangeCoversPartialLines)
{
    Hierarchy hier;
    for (unsigned i = 0; i < 4; ++i)
        hier.access(0x6000 + i * lineSize);
    hier.flushRange(0x6010, 3 * lineSize);  // touches lines 0..3
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(hier.peekLevel(0x6000 + i * lineSize),
                  HitLevel::Dram);
}

TEST(HierarchyTest, InclusiveL3BackInvalidates)
{
    // Tiny L3 so we can force its eviction: 1 set x 2 ways.
    MemConfig config;
    config.l1Size = 2 * 64;
    config.l1Assoc = 2;
    config.l2Size = 2 * 64;
    config.l2Assoc = 2;
    config.l3Size = 2 * 64;
    config.l3Assoc = 2;
    Hierarchy hier(config);

    hier.access(0x0);
    hier.access(0x1000);
    ASSERT_EQ(hier.peekLevel(0x0), HitLevel::L1);
    // Third distinct line evicts 0x0 from L3 -> must leave L1/L2 too.
    hier.access(0x2000);
    EXPECT_EQ(hier.peekLevel(0x0), HitLevel::Dram);
}

/** Property: inclusion (L1, L2 subsets of L3) holds on random traces. */
class HierarchyInclusionTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HierarchyInclusionTest, InclusionInvariant)
{
    MemConfig config;
    config.l1Size = 4 * 2 * 64;
    config.l1Assoc = 2;
    config.l2Size = 8 * 2 * 64;
    config.l2Assoc = 2;
    config.l3Size = 8 * 4 * 64;
    config.l3Assoc = 4;
    Hierarchy hier(config, GetParam());

    Rng rng(GetParam() * 77 + 1);
    std::vector<PAddr> lines;
    for (unsigned i = 0; i < 128; ++i)
        lines.push_back(std::uint64_t{i} * lineSize);

    for (int step = 0; step < 4000; ++step) {
        const PAddr addr = lines[rng.below(lines.size())];
        if (rng.chance(0.8))
            hier.access(addr);
        else
            hier.flushLine(addr);

        if (step % 97 == 0) {
            for (PAddr line : lines) {
                if (hier.l1().contains(line) ||
                    hier.l2().contains(line)) {
                    ASSERT_TRUE(hier.l3().contains(line))
                        << "inclusion violated for line " << line;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyInclusionTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------
// Versioned set copy (Cache::copyStateFrom, DESIGN.md §17)
// ---------------------------------------------------------------------

namespace
{

/** Random demand accesses, installs, and flushes over 4096 lines
 *  from @p base. */
void
churn(Hierarchy &hier, std::uint64_t seed, int steps, PAddr base = 0)
{
    Rng rng(seed);
    for (int step = 0; step < steps; ++step) {
        const PAddr addr = base + rng.below(4096) * lineSize;
        switch (rng.below(4)) {
          case 0:
            hier.flushLine(addr);
            break;
          case 1:
            hier.installAt(addr, static_cast<HitLevel>(rng.below(4)));
            break;
          default:
            hier.access(addr);
            break;
        }
    }
}

/**
 * Fewer than 40 random mutations of @p cache over 256 lines: hits, fills,
 * invalidations, and now and then a bulk wipe.  Short
 * bursts leave most of a 16-set cache's sets untouched, so the
 * copies below mix skipped and copied sets.
 */
void
mutate(Cache &cache, Rng &rng)
{
    const std::uint64_t steps = rng.below(40);
    for (std::uint64_t i = 0; i < steps; ++i) {
        const PAddr addr = rng.below(256) * lineSize;
        switch (rng.below(64)) {
          case 0:
            cache.invalidateAll();
            break;
          case 2:
          case 3:
          case 4:
          case 5:
            cache.invalidate(addr);
            break;
          default:
            if (!cache.access(addr))
                cache.insert(addr);
            break;
        }
    }
}

} // namespace

TEST(CacheCopy, ChainedCopiesEqualTheirSource)
{
    Cache a("c", 16 * 4 * 64, 4);
    Cache b("c", 16 * 4 * 64, 4);
    Cache c("c", 16 * 4 * 64, 4);
    Rng rng(3);
    for (int round = 0; round < 200; ++round) {
        // A -> B -> C -> A, each source mutated before it is copied.
        mutate(a, rng);
        b.copyStateFrom(a);
        ASSERT_EQ(b.stateDigest(), a.stateDigest()) << "round " << round;
        mutate(b, rng);
        c.copyStateFrom(b);
        ASSERT_EQ(c.stateDigest(), b.stateDigest()) << "round " << round;
        mutate(c, rng);
        a.copyStateFrom(c);
        ASSERT_EQ(a.stateDigest(), c.stateDigest()) << "round " << round;
        // A destination that diverged since its last copy.
        mutate(b, rng);
        mutate(a, rng);
        b.copyStateFrom(a);
        ASSERT_EQ(b.stateDigest(), a.stateDigest()) << "round " << round;
        // A never-filled source empties a used destination; the next
        // round copies its empty sets on down the chain.
        if (round % 8 == 7) {
            const Cache fresh("c", 16 * 4 * 64, 4);
            a.copyStateFrom(fresh);
            ASSERT_EQ(a.stateDigest(), freshCacheDigest(fresh));
            ASSERT_EQ(a.occupancy(), 0u);
        }
    }
}

TEST(CacheCopy, RandomStreamsOverLeavesEqualTheirSource)
{
    // 256 sets of 2 ways: four leaves of 64 sets (DESIGN.md §17).
    // Short bursts of hits, direct inserts (a touch when the line is
    // resident, else a fill), invalidations and wipes leave most
    // leaves alone, so copies in every direction mix skipped leaves
    // with scanned ones.
    constexpr std::uint64_t kSize = 256 * 2 * lineSize;
    Cache a("c", kSize, 2);
    Cache b("c", kSize, 2);
    Cache c("c", kSize, 2);
    Cache *caches[] = {&a, &b, &c};
    Rng rng(11);
    for (int round = 0; round < 3000; ++round) {
        Cache &cache = *caches[rng.below(3)];
        const std::uint64_t steps = rng.below(6);
        for (std::uint64_t i = 0; i < steps; ++i) {
            const PAddr addr = rng.below(1024) * lineSize;
            const std::uint64_t op = rng.below(32);
            if (op == 0)
                cache.invalidateAll();
            else if (op < 4)
                cache.invalidate(addr);
            else if (op < 12)
                cache.insert(addr);
            else
                cache.access(addr);
        }
        const std::uint64_t dst = rng.below(3);
        const std::uint64_t src = (dst + 1 + rng.below(2)) % 3;
        caches[dst]->copyStateFrom(*caches[src]);
        ASSERT_EQ(caches[dst]->stateDigest(), caches[src]->stateDigest())
            << "round " << round;
        // A second copy finds nothing left to move.
        const std::uint64_t copied = caches[dst]->setsCopied();
        caches[dst]->copyStateFrom(*caches[src]);
        ASSERT_EQ(caches[dst]->setsCopied(), copied) << "round " << round;
    }
}

TEST(HierarchyCopy, ChainedCopiesEqualTheirSource)
{
    Hierarchy a(MemConfig{}, 9);
    Hierarchy b(MemConfig{}, 1);
    Hierarchy c(MemConfig{}, 2);
    churn(a, 1, 2000);
    for (std::uint64_t round = 0; round < 4; ++round) {
        b.copyStateFrom(a);
        EXPECT_EQ(b.stateDigest(), a.stateDigest());
        churn(b, 100 + round, 500);
        if (round == 1)
            b.l2().invalidateAll();
        if (round == 2)
            b.l1().invalidateAll();
        c.copyStateFrom(b);
        EXPECT_EQ(c.stateDigest(), b.stateDigest());
        churn(c, 200 + round, 500);
        // A copies back into a destination that diverged from it.
        churn(a, 300 + round, 500);
        a.copyStateFrom(c);
        EXPECT_EQ(a.stateDigest(), c.stateDigest());
        // The DRAM-jitter stream came across too: the same cold misses
        // draw the same latencies.
        for (std::uint64_t i = 0; i < 64; ++i) {
            const PAddr addr = (8192 + 64 * round + i) * lineSize;
            EXPECT_EQ(a.access(addr).latency, c.access(addr).latency);
        }
        // A never-filled hierarchy empties a used one, which the next
        // round fills again from b.
        if (round == 2) {
            const Hierarchy fresh(MemConfig{}, 5);
            c.copyStateFrom(fresh);
            EXPECT_EQ(c.stateDigest(), fresh.stateDigest());
            for (const Cache *level : {&c.l1(), &c.l2(), &c.l3()})
                EXPECT_EQ(level->occupancy(), 0u) << level->name();
        }
    }
}

TEST(HierarchyCopy, CrossThreadCopyEqualsSource)
{
    // Two threads run the same churn on fresh hierarchies, one of
    // them 1 GiB higher: every level maps both line sequences to the
    // same sets, so both threads mutate the same sets in the same
    // order while their tags differ.  Ids handed out per thread
    // rather than per process would then coincide set by set, and
    // the copy below would skip sets that differ.
    Hierarchy a(MemConfig{}, 1);
    Hierarchy b(MemConfig{}, 1);
    std::thread ta([&a]() { churn(a, 10, 3000); });
    std::thread tb([&b]() { churn(b, 10, 3000, PAddr{1} << 30); });
    ta.join();
    tb.join();
    ASSERT_NE(a.stateDigest(), b.stateDigest());
    b.copyStateFrom(a);
    EXPECT_EQ(b.stateDigest(), a.stateDigest());
}

TEST(HierarchyCopy, GeometryMismatchPanics)
{
    MemConfig fewer_sets;
    fewer_sets.l2Size = 128 * 1024;
    MemConfig fewer_ways;
    fewer_ways.l1Size = 16 * 1024;
    fewer_ways.l1Assoc = 4;   // L1 keeps its 64 sets
    for (const MemConfig &other : {fewer_sets, fewer_ways}) {
        Hierarchy a(MemConfig{}, 1);
        Hierarchy b(other, 1);
        EXPECT_THROW(a.copyStateFrom(b), SimPanic);
        EXPECT_THROW(b.copyStateFrom(a), SimPanic);
    }
}
