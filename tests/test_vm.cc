/**
 * @file
 * Unit and property tests for src/vm: page tables, TLBs, the
 * page-walk cache, the hardware walker, and the MMU — including the
 * walk-duration tunability the MicroScope attack depends on.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/logging.hh"
#include "common/random.hh"
#include "mem/hierarchy.hh"
#include "mem/phys_mem.hh"
#include "os/machine.hh"
#include "vm/frame_alloc.hh"
#include "vm/mmu.hh"
#include "vm/page_table.hh"
#include "vm/paging.hh"
#include "vm/pwc.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"

using namespace uscope;
using namespace uscope::vm;

namespace
{

/** Common fixture: memory + allocator + one page table. */
struct VmRig
{
    mem::PhysMem mem;
    FrameAllocator frames{1, 100000};
    PageTable table{mem, frames};
    mem::Hierarchy hierarchy;
    Pwc pwc;
    Walker walker{mem, hierarchy, pwc};
};

} // namespace

// ---------------------------------------------------------------------
// FrameAllocator
// ---------------------------------------------------------------------

TEST(FrameAlloc, SequentialThenReuse)
{
    FrameAllocator frames(10, 5);
    const Ppn a = frames.alloc();
    const Ppn b = frames.alloc();
    EXPECT_EQ(a, 10u);
    EXPECT_EQ(b, 11u);
    frames.free(a);
    EXPECT_EQ(frames.alloc(), a);  // LIFO reuse
    EXPECT_EQ(frames.framesInUse(), 2u);
}

TEST(FrameAlloc, ExhaustionIsFatal)
{
    FrameAllocator frames(0, 2);
    frames.alloc();
    frames.alloc();
    EXPECT_THROW(frames.alloc(), SimFatal);
}

TEST(FrameAlloc, DoubleFreePanics)
{
    FrameAllocator frames(0, 2);
    const Ppn a = frames.alloc();
    frames.free(a);
    EXPECT_THROW(frames.free(a), SimPanic);
}

// ---------------------------------------------------------------------
// Paging helpers
// ---------------------------------------------------------------------

TEST(Paging, LevelIndices)
{
    // VA with distinct indices per level.
    const VAddr va = (std::uint64_t{1} << 39) |   // PGD index 1
                     (std::uint64_t{2} << 30) |   // PUD index 2
                     (std::uint64_t{3} << 21) |   // PMD index 3
                     (std::uint64_t{4} << 12);    // PTE index 4
    EXPECT_EQ(levelIndex(va, Level::Pgd), 1u);
    EXPECT_EQ(levelIndex(va, Level::Pud), 2u);
    EXPECT_EQ(levelIndex(va, Level::Pmd), 3u);
    EXPECT_EQ(levelIndex(va, Level::Pte), 4u);
}

TEST(Paging, EntryRoundTrip)
{
    const std::uint64_t entry =
        makeEntry(0x12345, pte::present | pte::writable);
    EXPECT_EQ(entryPpn(entry), 0x12345u);
    EXPECT_TRUE(entry & pte::present);
    EXPECT_TRUE(entry & pte::writable);
    EXPECT_FALSE(entry & pte::user);
}

TEST(Paging, LevelNames)
{
    EXPECT_STREQ(levelName(Level::Pgd), "PGD");
    EXPECT_STREQ(levelName(Level::Pte), "PTE");
}

// ---------------------------------------------------------------------
// PageTable
// ---------------------------------------------------------------------

TEST(PageTableTest, MapAndLookup)
{
    VmRig rig;
    rig.table.map(0x10, 0x999, pte::present | pte::writable);
    const auto ppn = rig.table.lookupPpn(0x10ull << pageShift);
    ASSERT_TRUE(ppn.has_value());
    EXPECT_EQ(*ppn, 0x999u);
    EXPECT_FALSE(rig.table.lookupPpn(0x11ull << pageShift).has_value());
}

TEST(PageTableTest, SoftwareWalkReportsFourLevels)
{
    VmRig rig;
    const VAddr va = 0x12345000;
    rig.table.map(pageNumber(va), 7, pte::present);
    const SoftWalkResult walk = rig.table.softwareWalk(va);
    EXPECT_TRUE(walk.mapped);
    EXPECT_EQ(walk.levelsValid, 4u);
    // The four entry addresses must be distinct physical locations.
    for (unsigned i = 0; i < 4; ++i)
        for (unsigned j = i + 1; j < 4; ++j)
            EXPECT_NE(walk.entryAddrs[i], walk.entryAddrs[j]);
    EXPECT_EQ(entryPpn(walk.leafEntry), 7u);
}

TEST(PageTableTest, PresentBitToggle)
{
    VmRig rig;
    const VAddr va = 0x5000;
    rig.table.map(pageNumber(va), 3, pte::present);
    EXPECT_TRUE(rig.table.isPresent(va));
    rig.table.setPresent(va, false);
    EXPECT_FALSE(rig.table.isPresent(va));
    // The mapping (frame number) survives — key MicroScope property.
    EXPECT_EQ(*rig.table.lookupPpn(va), 3u);
    rig.table.setPresent(va, true);
    EXPECT_TRUE(rig.table.isPresent(va));
}

TEST(PageTableTest, AccessedBitSpmStyle)
{
    VmRig rig;
    const VAddr va = 0x7000;
    rig.table.map(pageNumber(va), 3, pte::present);
    EXPECT_FALSE(rig.table.testAndClearAccessed(va));
    rig.table.setAccessed(va, true);
    EXPECT_TRUE(rig.table.testAndClearAccessed(va));
    EXPECT_FALSE(rig.table.testAndClearAccessed(va));
}

TEST(PageTableTest, UnmapClearsLeaf)
{
    VmRig rig;
    const VAddr va = 0x8000;
    rig.table.map(pageNumber(va), 3, pte::present);
    rig.table.unmap(pageNumber(va));
    EXPECT_FALSE(rig.table.lookupPpn(va).has_value());
}

TEST(PageTableTest, SharedUpperLevels)
{
    // Adjacent pages share PGD/PUD/PMD entries; only the PTE differs.
    VmRig rig;
    rig.table.map(0x100, 1, pte::present);
    rig.table.map(0x101, 2, pte::present);
    const auto walk_a = rig.table.softwareWalk(0x100ull << pageShift);
    const auto walk_b = rig.table.softwareWalk(0x101ull << pageShift);
    for (unsigned lvl = 0; lvl < 3; ++lvl)
        EXPECT_EQ(walk_a.entryAddrs[lvl], walk_b.entryAddrs[lvl]);
    EXPECT_NE(walk_a.entryAddrs[3], walk_b.entryAddrs[3]);
}

/** Property: random map/unmap sequences match a reference map. */
TEST(PageTableTest, RandomAgainstReferenceModel)
{
    VmRig rig;
    std::map<Vpn, Ppn> model;
    Rng rng(99);
    for (int step = 0; step < 2000; ++step) {
        const Vpn vpn = rng.below(64) + (rng.below(4) << 18);
        if (rng.chance(0.7)) {
            const Ppn ppn = 1000 + rng.below(1000);
            rig.table.map(vpn, ppn, pte::present);
            model[vpn] = ppn;
        } else {
            rig.table.unmap(vpn);
            model.erase(vpn);
        }
        const Vpn check = rng.below(64) + (rng.below(4) << 18);
        const auto got = rig.table.lookupPpn(check << pageShift);
        const auto it = model.find(check);
        if (it == model.end()) {
            EXPECT_FALSE(got.has_value());
        } else {
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(*got, it->second);
        }
    }
}

// ---------------------------------------------------------------------
// TLB
// ---------------------------------------------------------------------

TEST(TlbTest, InsertLookupInvalidate)
{
    Tlb tlb("t", 16, 4);
    EXPECT_FALSE(tlb.lookup(5, 1).has_value());
    tlb.insert(5, 1, {0x42, pte::present});
    const auto entry = tlb.lookup(5, 1);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->ppn, 0x42u);
    EXPECT_TRUE(tlb.invalidate(5, 1));
    EXPECT_FALSE(tlb.lookup(5, 1).has_value());
}

TEST(TlbTest, PcidIsolation)
{
    Tlb tlb("t", 16, 4);
    tlb.insert(5, 1, {0x42, 0});
    tlb.insert(5, 2, {0x43, 0});
    EXPECT_EQ(tlb.lookup(5, 1)->ppn, 0x42u);
    EXPECT_EQ(tlb.lookup(5, 2)->ppn, 0x43u);
    tlb.invalidatePcid(1);
    EXPECT_FALSE(tlb.lookup(5, 1).has_value());
    EXPECT_TRUE(tlb.lookup(5, 2).has_value());
}

TEST(TlbTest, SetLruEviction)
{
    Tlb tlb("t", 8, 2);  // 4 sets x 2 ways; vpns stride 4 share a set
    tlb.insert(0, 1, {1, 0});
    tlb.insert(4, 1, {2, 0});
    tlb.lookup(0, 1);            // 0 is MRU
    tlb.insert(8, 1, {3, 0});    // evicts vpn 4
    EXPECT_TRUE(tlb.peek(0, 1).has_value());
    EXPECT_FALSE(tlb.peek(4, 1).has_value());
    EXPECT_TRUE(tlb.peek(8, 1).has_value());
}

TEST(TlbTest, PeekDoesNotDisturbLru)
{
    Tlb tlb("t", 8, 2);
    tlb.insert(0, 1, {1, 0});
    tlb.insert(4, 1, {2, 0});
    tlb.peek(0, 1);              // must NOT refresh vpn 0
    tlb.insert(8, 1, {3, 0});    // evicts vpn 0 (still LRU)
    EXPECT_FALSE(tlb.peek(0, 1).has_value());
    EXPECT_TRUE(tlb.peek(4, 1).has_value());
}

TEST(TlbTest, StatsCount)
{
    Tlb tlb("t", 16, 4);
    tlb.lookup(1, 1);
    tlb.insert(1, 1, {9, 0});
    tlb.lookup(1, 1);
    tlb.invalidate(1, 1);
    EXPECT_EQ(tlb.stats().misses, 1u);
    EXPECT_EQ(tlb.stats().hits, 1u);
    EXPECT_EQ(tlb.stats().invalidations, 1u);
}

// ---------------------------------------------------------------------
// PWC
// ---------------------------------------------------------------------

TEST(PwcTest, DeepestLevelPreferred)
{
    Pwc pwc(8);
    const VAddr va = 0x12345678000;
    pwc.insert(va, 1, Level::Pgd, 0x1000);
    pwc.insert(va, 1, Level::Pmd, 0x3000);
    pwc.insert(va, 1, Level::Pud, 0x2000);
    const auto hit = pwc.lookup(va, 1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->level, Level::Pmd);
    EXPECT_EQ(hit->tablePa, 0x3000u);
}

TEST(PwcTest, PrefixSharingAcrossNeighbours)
{
    // Two pages in the same 2 MiB region share the PMD entry.
    Pwc pwc(8);
    const VAddr va_a = 0x40000000;
    const VAddr va_b = va_a + pageSize;
    pwc.insert(va_a, 1, Level::Pmd, 0x7000);
    const auto hit = pwc.lookup(va_b, 1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->tablePa, 0x7000u);
}

TEST(PwcTest, InvalidateByVa)
{
    Pwc pwc(8);
    const VAddr va = 0x40000000;
    pwc.insert(va, 1, Level::Pgd, 0x1000);
    pwc.insert(va, 1, Level::Pmd, 0x3000);
    pwc.invalidate(va, 1);
    EXPECT_FALSE(pwc.lookup(va, 1).has_value());
}

TEST(PwcTest, CapacityLruBound)
{
    Pwc pwc(2);
    pwc.insert(0x0ull, 1, Level::Pmd, 0x1000);
    pwc.insert(0x40000000ull, 1, Level::Pmd, 0x2000);
    pwc.insert(0x80000000ull, 1, Level::Pmd, 0x3000);
    EXPECT_EQ(pwc.occupancy(), 2u);
    EXPECT_FALSE(pwc.lookup(0x0ull, 1).has_value());  // oldest dropped
}

TEST(PwcTest, PcidSeparation)
{
    Pwc pwc(8);
    pwc.insert(0x1000, 1, Level::Pmd, 0xA000);
    EXPECT_FALSE(pwc.lookup(0x1000, 2).has_value());
}

// ---------------------------------------------------------------------
// TLB and PWC copies: only the sets whose version ids differ move
// (DESIGN.md §17), and every copy equals its source.
// ---------------------------------------------------------------------

TEST(TlbCopy, RandomStreamsOverLeavesEqualTheirSource)
{
    // 256 sets of 2 ways: four leaves of 64 sets.  Short bursts of
    // lookups, fills, INVLPGs, PCID flushes and full flushes over
    // three PCIDs leave most leaves alone, so copies in every
    // direction mix skipped leaves with scanned ones.  Now and then a
    // never-filled TLB empties the destination.
    Tlb a("t", 512, 2);
    Tlb b("t", 512, 2);
    Tlb c("t", 512, 2);
    const Tlb fresh("t", 512, 2);
    Tlb *tlbs[] = {&a, &b, &c};
    Rng rng(13);
    for (int round = 0; round < 3000; ++round) {
        Tlb &tlb = *tlbs[rng.below(3)];
        const std::uint64_t steps = rng.below(6);
        for (std::uint64_t i = 0; i < steps; ++i) {
            const Vpn vpn = rng.below(1024);
            const Pcid pcid = static_cast<Pcid>(1 + rng.below(3));
            const std::uint64_t op = rng.below(64);
            if (op == 0)
                tlb.invalidateAll();
            else if (op == 1)
                tlb.invalidatePcid(pcid);
            else if (op < 8)
                tlb.invalidate(vpn, pcid);
            else if (op < 24)
                tlb.insert(vpn, pcid, {rng.below(1 << 20), rng.below(64)});
            else
                tlb.lookup(vpn, pcid);
        }
        const std::uint64_t dst = rng.below(3);
        const std::uint64_t src = (dst + 1 + rng.below(2)) % 3;
        const Tlb &from = rng.below(50) == 0 ? fresh : *tlbs[src];
        tlbs[dst]->copyStateFrom(from);
        ASSERT_EQ(tlbs[dst]->stateDigest(), from.stateDigest())
            << "round " << round;
        ASSERT_EQ(tlbs[dst]->occupancy(), from.occupancy());
        // A second copy finds nothing left to move.
        const std::uint64_t copied = tlbs[dst]->setsCopied();
        tlbs[dst]->copyStateFrom(from);
        ASSERT_EQ(tlbs[dst]->setsCopied(), copied) << "round " << round;
    }
    EXPECT_THROW(a.copyStateFrom(Tlb("t", 512, 4)), SimPanic);
}

TEST(PwcCopy, RandomStreamsEqualTheirSource)
{
    // Neighbouring pages share their upper-level prefixes, so fills,
    // hits at every level, evictions and per-page flushes all occur.
    Pwc a(8);
    Pwc b(8);
    Pwc c(8);
    const Pwc fresh(8);
    Pwc *pwcs[] = {&a, &b, &c};
    Rng rng(17);
    for (int round = 0; round < 3000; ++round) {
        Pwc &pwc = *pwcs[rng.below(3)];
        const std::uint64_t steps = rng.below(6);
        for (std::uint64_t i = 0; i < steps; ++i) {
            const VAddr va = rng.below(64) << 30 | rng.below(4) << 21;
            const Pcid pcid = static_cast<Pcid>(1 + rng.below(2));
            const std::uint64_t op = rng.below(32);
            if (op == 0)
                pwc.invalidateAll();
            else if (op < 6)
                pwc.invalidate(va, pcid);
            else if (op < 16)
                pwc.insert(va, pcid, static_cast<Level>(rng.below(3)),
                           rng.below(1 << 20) << pageShift);
            else
                pwc.lookup(va, pcid);
        }
        const std::uint64_t dst = rng.below(3);
        const std::uint64_t src = (dst + 1 + rng.below(2)) % 3;
        const Pwc &from = rng.below(50) == 0 ? fresh : *pwcs[src];
        pwcs[dst]->copyStateFrom(from);
        ASSERT_EQ(pwcs[dst]->stateDigest(), from.stateDigest())
            << "round " << round;
        ASSERT_EQ(pwcs[dst]->occupancy(), from.occupancy());
        const std::uint64_t copied = pwcs[dst]->setsCopied();
        pwcs[dst]->copyStateFrom(from);
        ASSERT_EQ(pwcs[dst]->setsCopied(), copied) << "round " << round;
    }
}

// ---------------------------------------------------------------------
// Walker
// ---------------------------------------------------------------------

TEST(WalkerTest, SuccessfulWalkMatchesSoftwareWalk)
{
    VmRig rig;
    const VAddr va = 0x1234000;
    rig.table.map(pageNumber(va), 0x77, pte::present | pte::user);
    const WalkResult walk = rig.walker.walk(va, 1, rig.table.root());
    EXPECT_FALSE(walk.fault);
    EXPECT_EQ(walk.entry.ppn, 0x77u);
    EXPECT_EQ(walk.ptFetches, 4u);
    EXPECT_TRUE(walk.entry.flags & pte::user);
}

TEST(WalkerTest, NonPresentLeafFaults)
{
    VmRig rig;
    const VAddr va = 0x1234000;
    rig.table.map(pageNumber(va), 0x77, 0 /* not present */);
    const WalkResult walk = rig.walker.walk(va, 1, rig.table.root());
    EXPECT_TRUE(walk.fault);
    EXPECT_EQ(walk.ptFetches, 4u);
}

TEST(WalkerTest, UnmappedFaultsEarly)
{
    VmRig rig;
    const WalkResult walk =
        rig.walker.walk(0x5000, 1, rig.table.root());
    EXPECT_TRUE(walk.fault);
    EXPECT_EQ(walk.ptFetches, 1u);  // PGD hole
}

TEST(WalkerTest, PwcSkipsUpperLevels)
{
    VmRig rig;
    const VAddr va = 0x1234000;
    rig.table.map(pageNumber(va), 0x77, pte::present);
    rig.walker.walk(va, 1, rig.table.root());  // fills PWC
    const WalkResult second = rig.walker.walk(va, 1, rig.table.root());
    EXPECT_EQ(second.ptFetches, 1u);
    EXPECT_EQ(second.startLevel, Level::Pte);
}

TEST(WalkerTest, LatencyFollowsEntryPlacement)
{
    // The §4.1.2 tunability claim at walker granularity: a walk whose
    // entries all sit in DRAM takes > 1000 cycles; all-L1 takes a few
    // tens.
    VmRig rig;
    const VAddr va = 0x1234000;
    rig.table.map(pageNumber(va), 0x77, pte::present);
    const SoftWalkResult soft = rig.table.softwareWalk(va);

    rig.pwc.invalidateAll();
    for (unsigned lvl = 0; lvl < 4; ++lvl)
        rig.hierarchy.flushLine(soft.entryAddrs[lvl]);
    const WalkResult slow = rig.walker.walk(va, 1, rig.table.root());
    EXPECT_GT(slow.latency, 1000u);

    rig.pwc.invalidateAll();
    for (unsigned lvl = 0; lvl < 4; ++lvl)
        rig.hierarchy.installAt(soft.entryAddrs[lvl],
                                mem::HitLevel::L1);
    const WalkResult fast = rig.walker.walk(va, 1, rig.table.root());
    EXPECT_LT(fast.latency, 50u);
    EXPECT_FALSE(fast.fault);
    EXPECT_EQ(fast.entry.ppn, slow.entry.ppn);
}

TEST(WalkerTest, FaultingWalkStillFillsPwc)
{
    // Real MMUs cache upper levels even when the leaf faults; this is
    // why MicroScope re-flushes the PWC before every replay.
    VmRig rig;
    const VAddr va = 0x1234000;
    rig.table.map(pageNumber(va), 0x77, 0);
    rig.walker.walk(va, 1, rig.table.root());
    EXPECT_TRUE(rig.pwc.lookup(va, 1).has_value());
}

// ---------------------------------------------------------------------
// MMU
// ---------------------------------------------------------------------

namespace
{

struct MmuRig
{
    mem::PhysMem mem;
    FrameAllocator frames{1, 100000};
    PageTable table{mem, frames};
    mem::Hierarchy hierarchy;
    Mmu mmu{mem, hierarchy};
};

} // namespace

// A default machine's PWC holds kPwcCapacity = 32 entries in one LRU
// set: 32 live PMD entries all hit, and a 33rd evicts the least
// recently used one, not the oldest inserted.
TEST(MmuTest, DefaultMachinePwcHoldsThirtyTwoEntries)
{
    os::Machine machine;
    Pwc &pwc = machine.mmu().pwc();
    ASSERT_EQ(pwc.occupancy(), 0u);
    constexpr Pcid pcid = 1;
    // One PMD entry per 2 MiB region.
    auto va_of = [](unsigned i) { return VAddr{i} << 21; };
    auto table_of = [](unsigned i) { return PAddr{i + 1} << pageShift; };
    for (unsigned i = 0; i < 32; ++i)
        pwc.insert(va_of(i), pcid, Level::Pmd, table_of(i));
    EXPECT_EQ(pwc.occupancy(), 32u);
    // Youngest first, so entry 31 ends least recently used.
    for (unsigned i = 32; i-- > 0;) {
        const auto hit = pwc.lookup(va_of(i), pcid);
        ASSERT_TRUE(hit.has_value()) << "entry " << i;
        EXPECT_EQ(hit->level, Level::Pmd);
        EXPECT_EQ(hit->tablePa, table_of(i));
    }

    pwc.insert(va_of(32), pcid, Level::Pmd, table_of(32));
    EXPECT_EQ(pwc.occupancy(), 32u);
    EXPECT_FALSE(pwc.lookup(va_of(31), pcid).has_value());
    for (unsigned i = 0; i <= 32; ++i) {
        if (i != 31) {
            EXPECT_TRUE(pwc.lookup(va_of(i), pcid).has_value())
                << "entry " << i;
        }
    }
}

TEST(MmuTest, TranslationPathsAndLatencies)
{
    MmuRig rig;
    const VAddr va = 0xABC000;
    rig.table.map(pageNumber(va), 0x55, pte::present);

    // First: full walk.
    const auto first = rig.mmu.translate(va + 0x123, 1,
                                         rig.table.root());
    EXPECT_FALSE(first.fault);
    EXPECT_TRUE(first.walked);
    EXPECT_EQ(first.paddr, (0x55ull << pageShift) | 0x123);

    // Second: L1 TLB hit, zero extra latency.
    const auto second = rig.mmu.translate(va, 1, rig.table.root());
    EXPECT_FALSE(second.walked);
    EXPECT_EQ(second.latency, 0u);

    // After an L1-only eviction... emulate via invlpg + reinsert into
    // L2 by translating, invalidating L1 only is internal; instead
    // verify invlpg forces a re-walk.
    rig.mmu.invlpg(va, 1);
    const auto third = rig.mmu.translate(va, 1, rig.table.root());
    EXPECT_TRUE(third.walked);
}

TEST(MmuTest, FaultDoesNotFillTlb)
{
    MmuRig rig;
    const VAddr va = 0xABC000;
    rig.table.map(pageNumber(va), 0x55, 0);
    const auto result = rig.mmu.translate(va, 1, rig.table.root());
    EXPECT_TRUE(result.fault);
    EXPECT_FALSE(rig.mmu.l1Tlb().peek(pageNumber(va), 1).has_value());
    EXPECT_FALSE(rig.mmu.l2Tlb().peek(pageNumber(va), 1).has_value());

    // Making it present and retrying succeeds and fills the TLBs.
    rig.table.setPresent(va, true);
    const auto retry = rig.mmu.translate(va, 1, rig.table.root());
    EXPECT_FALSE(retry.fault);
    EXPECT_TRUE(rig.mmu.l1Tlb().peek(pageNumber(va), 1).has_value());
}

TEST(MmuTest, FlushPwcForcesFullWalk)
{
    MmuRig rig;
    const VAddr va = 0xABC000;
    rig.table.map(pageNumber(va), 0x55, pte::present);
    rig.mmu.translate(va, 1, rig.table.root());
    rig.mmu.invlpg(va, 1);

    // PWC still primed: short re-walk.
    auto rewalk = rig.mmu.translate(va, 1, rig.table.root());
    EXPECT_EQ(rewalk.walk.ptFetches, 1u);

    rig.mmu.invlpg(va, 1);
    rig.mmu.flushPwc(va, 1);
    rewalk = rig.mmu.translate(va, 1, rig.table.root());
    EXPECT_EQ(rewalk.walk.ptFetches, 4u);
}

TEST(MmuTest, DistinctPcidsDoNotAlias)
{
    MmuRig rig;
    PageTable other(rig.mem, rig.frames);
    const VAddr va = 0xABC000;
    rig.table.map(pageNumber(va), 0x55, pte::present);
    other.map(pageNumber(va), 0x66, pte::present);

    const auto a = rig.mmu.translate(va, 1, rig.table.root());
    const auto b = rig.mmu.translate(va, 2, other.root());
    EXPECT_EQ(pageNumber(a.paddr), 0x55u);
    EXPECT_EQ(pageNumber(b.paddr), 0x66u);
    // And again from the TLB: still distinct.
    const auto a2 = rig.mmu.translate(va, 1, rig.table.root());
    EXPECT_EQ(pageNumber(a2.paddr), 0x55u);
    EXPECT_FALSE(a2.walked);
}

TEST(WalkerTest, SetsAccessedBitOnLeaf)
{
    VmRig rig;
    const VAddr va = 0x9000;
    rig.table.map(pageNumber(va), 3, pte::present);
    EXPECT_FALSE(rig.table.testAndClearAccessed(va));
    rig.walker.walk(va, 1, rig.table.root());
    // The walk set A; test-and-clear sees it exactly once (the SPM
    // monitoring primitive).
    EXPECT_TRUE(rig.table.testAndClearAccessed(va));
    EXPECT_FALSE(rig.table.testAndClearAccessed(va));
    rig.walker.walk(va, 1, rig.table.root());
    EXPECT_TRUE(rig.table.testAndClearAccessed(va));
}
