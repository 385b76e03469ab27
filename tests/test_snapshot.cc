/**
 * @file
 * Bit-identity suite for prefix-snapshot forking, Machine pooling, and
 * COW paging (DESIGN.md §12).
 *
 * The contracts enforced here:
 *
 *  - **COW isolation.** PhysMem instances sharing an arena via
 *    shareStateFrom() never observe each other's writes, and sharing
 *    allocates nothing until a write actually diverges a page.  A
 *    re-share from any source re-points exactly the directory entries
 *    whose page differs (DESIGN.md §17).
 *  - **Fork-vs-cold.** A trial forked from a post-warmup Snapshot and
 *    reseeded equals, bit for bit, a cold trial that runs the same
 *    warmup and reseeds at the same point — whether the machine's
 *    fast-forwarding loop or the every-cycle reference of
 *    every_cycle.hh steps it, across fault plans (including
 *    USCOPE_FAULT_PLAN=chaos, which the CI chaos job exports), worker
 *    counts 1/2/4, and every prefixCache × machinePool combination of
 *    the campaign runner.
 *  - **Restore-then-continue.** Without a reseed, a copy restored from
 *    a snapshot continues exactly as its source: the owed SMT draws
 *    and the RDRAND stream travel with the state.
 *  - **Versioned restore.** Repeated restoreFrom calls from one
 *    snapshot, which copy only the cache sets whose version ids
 *    differ (DESIGN.md §17), each equal a newly constructed machine
 *    restored from the snapshot — also when a new snapshot lands at a
 *    dropped one's address, when the snapshot's machine never ran,
 *    and when the two machines drew their set versions on different
 *    threads.
 *
 * Runs under TSan in CI, where the worker sweep doubles as a race
 * check on the per-worker snapshot caches and machine pools.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/random.hh"
#include "core/microscope.hh"
#include "crypto/aes.hh"
#include "crypto/aes_codegen.hh"
#include "every_cycle.hh"
#include "exp/campaign.hh"
#include "mem/phys_mem.hh"
#include "os/machine.hh"

using namespace uscope;
using test::kEveryCycle;
using test::kMachineLoop;
using test::Runner;

namespace
{

// ---------------------------------------------------------------------
// PhysMem: COW sharing and slab reuse.
// ---------------------------------------------------------------------

TEST(PhysMemCow, SharedPagesReadBackAndWritesStayPrivate)
{
    mem::PhysMem a(1 << 20);
    a.write64(0x1000, 0x1111111111111111ull);
    a.write64(0x2000, 0x2222222222222222ull);

    mem::PhysMem b(1 << 20);
    b.shareStateFrom(a);
    EXPECT_EQ(b.read64(0x1000), 0x1111111111111111ull);
    EXPECT_EQ(b.read64(0x2000), 0x2222222222222222ull);
    EXPECT_EQ(b.pagesAllocated(), a.pagesAllocated());

    // Diverge one page in the fork; the source must not see it, and
    // the untouched page stays shared.
    b.write64(0x1000, 0xbbbbbbbbbbbbbbbbull);
    EXPECT_EQ(a.read64(0x1000), 0x1111111111111111ull);
    EXPECT_EQ(b.read64(0x1000), 0xbbbbbbbbbbbbbbbbull);
    EXPECT_EQ(b.read64(0x2000), 0x2222222222222222ull);

    // Sharing is symmetric: a write on the *source* side of a still-
    // shared page diverges the source, not the fork.
    a.write64(0x2008, 0xaaaaaaaaaaaaaaaaull);
    EXPECT_EQ(b.read64(0x2008), 0u);
    EXPECT_EQ(b.read64(0x2000), 0x2222222222222222ull);
}

TEST(PhysMemCow, ZeroPageOnSharedPageStaysPrivate)
{
    mem::PhysMem a(1 << 20);
    a.write64(0x3000, 0x3333333333333333ull);
    mem::PhysMem b(1 << 20);
    b.shareStateFrom(a);

    b.zeroPage(0x3000 / pageSize);
    EXPECT_EQ(b.read64(0x3000), 0u);
    EXPECT_EQ(a.read64(0x3000), 0x3333333333333333ull);
}

// ---------------------------------------------------------------------
// PhysMem re-share: the directory's copy re-points only the entries
// whose page ref differs from the source's (DESIGN.md §17), from any
// source.
// ---------------------------------------------------------------------

constexpr std::uint64_t kReshareBytes = std::uint64_t{1} << 24;

PAddr
pageAddr(Ppn ppn)
{
    return ppn << pageShift;
}

/** Write a @p tag-derived word into each page in [first, first + n). */
void
writePages(mem::PhysMem &m, Ppn first, Ppn n, std::uint64_t tag)
{
    for (Ppn ppn = first; ppn < first + n; ++ppn)
        m.write64(pageAddr(ppn) + 8, tag * 1000 + ppn);
}

/**
 * After @p dst re-shared from @p src: dst reads src's bytes on every
 * page in [0, @p span), holds as many pages, and the re-share
 * re-pointed @p repointed entries since @p repointedBefore.  Then a
 * write to dst stays private to dst.
 */
void
expectReshared(mem::PhysMem &dst, const mem::PhysMem &src, Ppn span,
               std::uint64_t repointedBefore, std::uint64_t repointed)
{
    EXPECT_EQ(dst.pagesRepointed() - repointedBefore, repointed);
    EXPECT_EQ(dst.pagesAllocated(), src.pagesAllocated());
    for (Ppn ppn = 0; ppn < span; ++ppn)
        ASSERT_EQ(dst.read64(pageAddr(ppn) + 8),
                  src.read64(pageAddr(ppn) + 8))
            << "page " << ppn;

    const std::uint64_t theirs = src.read64(pageAddr(0) + 8);
    dst.write64(pageAddr(0) + 8, ~theirs);
    EXPECT_EQ(dst.read64(pageAddr(0) + 8), ~theirs);
    EXPECT_EQ(src.read64(pageAddr(0) + 8), theirs);
}

TEST(PhysMemCow, ReshareFromSiblingInSameArena)
{
    mem::PhysMem a(kReshareBytes);
    writePages(a, 0, 10, 1);
    mem::PhysMem b(kReshareBytes);
    mem::PhysMem c(kReshareBytes);
    b.shareStateFrom(a);
    c.shareStateFrom(a);

    // b diverges page 3 and materialises page 20; c diverges page 5.
    writePages(b, 3, 1, 2);
    writePages(b, 20, 1, 2);
    writePages(c, 5, 1, 3);

    const std::uint64_t before = b.pagesRepointed();
    b.shareStateFrom(c);
    expectReshared(b, c, 32, before, 3);
}

TEST(PhysMemCow, ReshareAfterTargetMaterialisedPages)
{
    mem::PhysMem a(kReshareBytes);
    writePages(a, 0, 10, 1);
    mem::PhysMem b(kReshareBytes);
    b.shareStateFrom(a);
    writePages(b, 100, 4, 2);

    const std::uint64_t before = b.pagesRepointed();
    b.shareStateFrom(a);
    expectReshared(b, a, 128, before, 4);
}

TEST(PhysMemCow, ReshareAfterTargetGrewItsIndex)
{
    mem::PhysMem a(kReshareBytes);
    writePages(a, 0, 10, 1);
    mem::PhysMem b(kReshareBytes);
    b.shareStateFrom(a);
    // b's 200 fresh pages grow its directory past a's.  They are the
    // entries that differ: the re-share releases each of them and
    // leaves a's ten shared pages alone.
    writePages(b, 100, 200, 2);

    const std::uint64_t before = b.pagesRepointed();
    b.shareStateFrom(a);
    expectReshared(b, a, 320, before, 200);
}

TEST(PhysMemCow, ReshareAfterSourceWroteASharedPage)
{
    mem::PhysMem a(kReshareBytes);
    writePages(a, 0, 10, 1);
    mem::PhysMem b(kReshareBytes);
    b.shareStateFrom(a);
    writePages(a, 2, 1, 2);

    const std::uint64_t before = b.pagesRepointed();
    b.shareStateFrom(a);
    EXPECT_EQ(b.read64(pageAddr(2) + 8), 2 * 1000 + 2u);
    expectReshared(b, a, 16, before, 1);
}

TEST(PhysMemCow, ReshareFromAnotherArena)
{
    mem::PhysMem a(kReshareBytes);
    writePages(a, 0, 10, 1);
    mem::PhysMem b(kReshareBytes);
    writePages(b, 5, 8, 2);

    const std::uint64_t before = b.pagesRepointed();
    b.shareStateFrom(a);
    expectReshared(b, a, 16, before, 10);
}

TEST(PhysMemCow, DeadSharersReleaseTheirPages)
{
    // A sharer that dies, as a dropped snapshot's frozen memory does,
    // gives its page refs back, so the live memory's next write to a
    // page it shared is in place and the arena holds only live pages.
    mem::PhysMem live(kReshareBytes);
    writePages(live, 0, 8, 1);
    for (std::uint64_t k = 0; k < 100; ++k) {
        {
            mem::PhysMem sharer(kReshareBytes);
            sharer.shareStateFrom(live);
        }
        live.write64(pageAddr(0) + 8, k);
    }
    EXPECT_EQ(live.arenaPagesInUse(), live.pagesAllocated());

    // A living sharer still forces the copy.
    mem::PhysMem sharer(kReshareBytes);
    sharer.shareStateFrom(live);
    live.write64(pageAddr(0) + 8, 100);
    EXPECT_EQ(live.arenaPagesInUse(), live.pagesAllocated() + 1);
    EXPECT_EQ(sharer.read64(pageAddr(0) + 8), 99u);
}

TEST(PhysMemCow, RandomStreamsOverLeavesMatchAModel)
{
    // Four directory leaves of 64 pages, the last one cut short by
    // size(); the candidate pages sit at leaf edges and include the
    // last page below size().  Three instances in one arena write,
    // zero and re-share in every direction, and now and then re-share
    // from a blank instance, which empties them.  After every step
    // each one reads exactly its own model: no write leaks into
    // another.
    constexpr Ppn kPages = 3 * 64 + 10;
    const Ppn candidates[] = {0, 1, 63, 64, 127, 128, 191, kPages - 1};
    const PAddr offsets[] = {0, pageSize - 8};
    using Model = std::map<Ppn, std::array<std::uint64_t, 2>>;
    mem::PhysMem a(kPages << pageShift);
    mem::PhysMem b(kPages << pageShift);
    mem::PhysMem c(kPages << pageShift);
    const mem::PhysMem blank(kPages << pageShift);
    mem::PhysMem *mems[] = {&a, &b, &c};
    Model models[3];
    a.shareStateFrom(blank);
    b.shareStateFrom(blank);
    c.shareStateFrom(blank);
    Rng rng(5);
    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t who = rng.below(3);
        const Ppn ppn = candidates[rng.below(std::size(candidates))];
        const std::uint64_t op = rng.below(10);
        if (op == 0) {
            mems[who]->zeroPage(ppn);
            if (auto it = models[who].find(ppn); it != models[who].end())
                it->second = {};
        } else if (op == 1) {
            mems[who]->shareStateFrom(blank);
            models[who].clear();
        } else if (op < 4) {
            const std::uint64_t src = (who + 1 + rng.below(2)) % 3;
            mems[who]->shareStateFrom(*mems[src]);
            models[who] = models[src];
        } else {
            const std::uint64_t word = rng.below(2);
            const std::uint64_t value = rng.next();
            mems[who]->write64(pageAddr(ppn) + offsets[word], value);
            models[who][ppn][word] = value;
        }
        for (unsigned m = 0; m < 3; ++m) {
            ASSERT_EQ(mems[m]->pagesAllocated(), models[m].size())
                << "step " << step << " instance " << m;
            for (const Ppn page : candidates) {
                const auto it = models[m].find(page);
                for (unsigned word = 0; word < 2; ++word)
                    ASSERT_EQ(mems[m]->read64(pageAddr(page) +
                                              offsets[word]),
                              it == models[m].end() ? 0
                                                    : it->second[word])
                        << "step " << step << " instance " << m
                        << " page " << page;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Machine-level fork and pooling, on an AES-victim workload.
// ---------------------------------------------------------------------

constexpr std::uint8_t victimKey[16] = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

struct Victim
{
    os::Pid pid = 0;
    crypto::AesVictimLayout layout;
    std::shared_ptr<const cpu::Program> program;
};

/** The warmup prefix: enclave build + one warm decryption, run
 *  through @p runner. */
Victim
buildVictim(os::Machine &machine, const Runner &runner = kMachineLoop)
{
    Victim v;
    const crypto::AesKey dec(victimKey, 128, true);
    const crypto::AesKey enc(victimKey, 128, false);
    os::Kernel &kernel = machine.kernel();
    v.pid = kernel.createProcess("aes-victim");
    v.layout = crypto::setupAesVictim(kernel, v.pid, dec);
    v.program = std::make_shared<const cpu::Program>(
        crypto::buildAesDecryptProgram(v.layout));

    const std::uint8_t warm_plain[16] = {};
    std::uint8_t ct[16];
    crypto::encryptBlock(enc, warm_plain, ct);
    crypto::loadCiphertext(kernel, v.pid, v.layout, ct);
    kernel.startOnContext(v.pid, 0, v.program);
    runner.runUntilHalted(machine, 0, 50'000'000);
    return v;
}

/** The per-trial body: decrypt a seed-derived ciphertext. */
void
runBody(os::Machine &machine, const Victim &v, std::uint64_t seed)
{
    const crypto::AesKey enc(victimKey, 128, false);
    Rng rng(seed);
    std::uint8_t plaintext[16], ct[16];
    for (unsigned i = 0; i < 16; ++i)
        plaintext[i] = static_cast<std::uint8_t>(rng.below(256));
    crypto::encryptBlock(enc, plaintext, ct);
    crypto::loadCiphertext(machine.kernel(), v.pid, v.layout, ct);
    machine.kernel().startOnContext(v.pid, 0, v.program);
    machine.runUntilHalted(0, 50'000'000);
}

/** Every simulated metric the machine exports, plus the clock.
 *  mem.physmem.* counts pages re-pointed by host-side COW re-shares
 *  — how a state was reached, which is exactly what forked-vs-cold
 *  arms differ in — so it is dropped, as
 *  exp::deterministicFingerprint drops it. */
std::string
stateFingerprint(const os::Machine &machine)
{
    obs::MetricSnapshot snap = machine.metricsSnapshot();
    snap.values.erase(
        std::remove_if(snap.values.begin(), snap.values.end(),
                       [](const obs::MetricValue &v) {
                           return v.name.starts_with("mem.physmem.");
                       }),
        snap.values.end());
    return snap.toJson().dump() + "@" + std::to_string(machine.cycle());
}

TEST(MachineFork, ForkedTrialIsBitIdenticalToColdTrial)
{
    constexpr std::uint64_t warmupSeed = 7001;
    constexpr std::uint64_t trialSeed = 9002;

    // Cold: construct with the warmup seed, run the warmup, reseed at
    // the fork point, run the body.
    os::MachineConfig config;
    config.seed = warmupSeed;
    os::Machine cold(config);
    const Victim coldVictim = buildVictim(cold);
    cold.reseed(trialSeed);
    runBody(cold, coldVictim, trialSeed);

    // Fork: run the same warmup once, snapshot, restore a newly
    // constructed machine from the snapshot, reseed with the same
    // trial seed, run the body.
    os::Machine warm(config);
    const Victim victim = buildVictim(warm);
    const os::Snapshot snap = warm.snapshot();
    os::Machine fork(snap.config());
    fork.restoreFrom(snap);
    fork.reseed(trialSeed);
    runBody(fork, victim, trialSeed);

    EXPECT_EQ(stateFingerprint(fork), stateFingerprint(cold));
}

TEST(MachineFork, SiblingForksDoNotInterfere)
{
    os::MachineConfig config;
    config.seed = 7001;
    os::Machine warm(config);
    const Victim victim = buildVictim(warm);
    const os::Snapshot snap = warm.snapshot();

    // Reference: a lone fork running trial seed 1.
    os::Machine lone(snap.config());
    lone.restoreFrom(snap);
    lone.reseed(1);
    runBody(lone, victim, 1);
    const std::string reference = stateFingerprint(lone);

    // Two siblings off the same snapshot, run interleaved with
    // different seeds: COW isolation means sibling 1's result is
    // unaffected by sibling 2's writes to shared pages.
    os::Machine fork1(snap.config());
    fork1.restoreFrom(snap);
    os::Machine fork2(snap.config());
    fork2.restoreFrom(snap);
    fork1.reseed(1);
    fork2.reseed(2);
    runBody(fork2, victim, 2);
    runBody(fork1, victim, 1);
    EXPECT_EQ(stateFingerprint(fork1), reference);

    // The snapshot itself stayed frozen: a third fork still works.
    os::Machine fork3(snap.config());
    fork3.restoreFrom(snap);
    fork3.reseed(1);
    runBody(fork3, victim, 1);
    EXPECT_EQ(stateFingerprint(fork3), reference);
}

/**
 * Restore, then continue, equals continue: a copy restored from a
 * snapshot without a reseed carries on exactly as its source does.
 * The snapshot lands while the core owes SMT-arbitration draws
 * (context 0 has run alone since context 1 halted) and after RDRANDs
 * advanced the machine's entropy stream; both machines then run two
 * contexts contending for the divider, so a copy that dropped the
 * owed draws issues in another order, and one that dropped the
 * entropy stream reads other RDRAND values.
 */
TEST(MachineFork, RestoreThenContinueEqualsContinue)
{
    constexpr cpu::Reg counter = 1, limit = 2, random = 3, mixed = 4,
                       lhs = 5, rhs = 6, quotient = 7, product = 8;
    // RDRANDs folded into `mixed`, then a loop of two divides for the
    // unpipelined divider.
    auto div_loop = [](unsigned rdrands, std::int64_t iterations) {
        cpu::ProgramBuilder b;
        for (unsigned i = 0; i < rdrands; ++i)
            b.rdrand(random).xor_(mixed, mixed, random);
        b.movi(counter, 0)
            .movi(limit, iterations)
            .movi(lhs, 1'000'003)
            .movi(rhs, 7)
            .label("loop")
            .div(quotient, lhs, rhs)
            .div(quotient, lhs, rhs)
            .mul(product, quotient, rhs)
            .addi(counter, counter, 1)
            .blt(counter, limit, "loop")
            .halt();
        return std::make_shared<const cpu::Program>(b.build());
    };
    const auto long_program = div_loop(2, 1'000'000);
    const auto short_program = div_loop(1, 200);

    os::MachineConfig config;
    config.seed = 4242;
    os::Machine source(config);
    os::Kernel &kernel = source.kernel();
    const os::Pid long_pid = kernel.createProcess("long");
    const os::Pid short_pid = kernel.createProcess("short");
    kernel.startOnContext(long_pid, 0, long_program);
    source.run(3'000);
    kernel.startOnContext(short_pid, 1, short_program);
    ASSERT_TRUE(source.runUntilHalted(1, 1'000'000));
    source.run(2'000);
    ASSERT_FALSE(source.core().halted(0));
    ASSERT_NE(source.core().readIntReg(0, mixed), 0u);

    const os::Snapshot snap = source.snapshot();
    os::Machine copy(snap.config());
    copy.restoreFrom(snap);

    for (os::Machine *machine : {&source, &copy}) {
        machine->kernel().startOnContext(short_pid, 1, short_program);
        machine->run(5'000);
    }
    // Context 1 is still running: which context won each divider slot
    // shows in its retired count.
    ASSERT_FALSE(source.core().halted(1));
    EXPECT_EQ(copy.core().stateDigest(), source.core().stateDigest());
    for (unsigned ctx = 0; ctx < 2; ++ctx)
        for (cpu::Reg reg = 0; reg < cpu::numIntRegs; ++reg)
            EXPECT_EQ(copy.core().readIntReg(ctx, reg),
                      source.core().readIntReg(ctx, reg))
                << "context " << ctx << " r" << unsigned{reg};
    EXPECT_EQ(stateFingerprint(copy), stateFingerprint(source));
}

TEST(MachineFork, StructuralMismatchIsRejected)
{
    os::Machine machine;
    os::MachineConfig other = machine.config();
    other.core.robPerContext = machine.config().core.robPerContext + 1;
    const os::Machine different(other);
    EXPECT_THROW(machine.restoreFrom(different.snapshot()),
                 std::exception);
}

// ---------------------------------------------------------------------
// Versioned restore (DESIGN.md §17): a restoreFrom copies only the
// cache sets whose version ids differ from the snapshot's.
// ---------------------------------------------------------------------

/** stateFingerprint plus the cache, TLB and PWC contents, which the
 *  exported hit/miss counters do not pin down. */
std::string
fullState(os::Machine &machine)
{
    const vm::Mmu &mmu = machine.mmu();
    std::string state = stateFingerprint(machine);
    for (std::uint64_t digest :
         {machine.hierarchy().stateDigest(), mmu.l1Tlb().stateDigest(),
          mmu.l2Tlb().stateDigest(), mmu.pwc().stateDigest()})
        state += "#" + std::to_string(digest);
    return state;
}

TEST(VersionedRestore, RepeatedRestoresEqualFreshMachines)
{
    os::MachineConfig config;
    config.seed = 7001;
    os::Machine warm(config);
    const Victim victim = buildVictim(warm);
    const os::Snapshot snap = warm.snapshot();

    os::Machine pooled(config);
    for (std::uint64_t k = 0; k < 5; ++k) {
        // A bulk wipe gives every L2 set the bodies filled a fresh
        // version (never-filled sets stay empty): this restore copies
        // each of those sets back.
        if (k == 3)
            pooled.hierarchy().l2().invalidateAll();
        pooled.restoreFrom(snap);
        // The full-copy reference: a new machine restored from snap
        // copies every page and cache set (its arena and set ids
        // share nothing with the snapshot's).
        os::Machine fresh(snap.config());
        fresh.restoreFrom(snap);
        EXPECT_EQ(fullState(pooled), fullState(fresh)) << "restore " << k;

        pooled.reseed(100 + k);
        fresh.reseed(100 + k);
        runBody(pooled, victim, 100 + k);
        runBody(fresh, victim, 100 + k);
        EXPECT_EQ(fullState(pooled), fullState(fresh)) << "restore " << k;
    }

    // A snapshot of a machine that never ran empties every cache set
    // the bodies filled.
    const os::Machine idle(config);
    const os::Snapshot idle_snap = idle.snapshot();
    pooled.restoreFrom(idle_snap);
    os::Machine fresh(idle_snap.config());
    fresh.restoreFrom(idle_snap);
    EXPECT_EQ(fullState(pooled), fullState(fresh));
    for (const mem::Cache *level :
         {&pooled.hierarchy().l1(), &pooled.hierarchy().l2(),
          &pooled.hierarchy().l3()})
        EXPECT_EQ(level->occupancy(), 0u) << level->name();
}

TEST(VersionedRestore, ReusedSnapshotSlotIsNotTheOldSnapshot)
{
    // The ABA case: snapshot B's frozen machine may land at the
    // address of a dropped snapshot A's.  A restore from B must not
    // keep A's caches, which is what a guard keyed on the snapshot's
    // address would do.
    os::MachineConfig config;
    config.seed = 7001;
    os::Machine warm(config);
    const Victim victim = buildVictim(warm);

    os::Machine pooled(config);
    {
        const os::Snapshot a = warm.snapshot();
        pooled.restoreFrom(a);
        pooled.reseed(1);
        runBody(pooled, victim, 1);
    }
    // Move the source on, so B's caches differ from A's.
    warm.reseed(2);
    runBody(warm, victim, 2);
    const os::Snapshot b = warm.snapshot();

    pooled.restoreFrom(b);
    os::Machine fresh(b.config());
    fresh.restoreFrom(b);
    EXPECT_EQ(fullState(pooled), fullState(fresh));
}

TEST(VersionedRestore, CrossThreadCopyEqualsFreshMachine)
{
    // Two machines build the victim and run different bodies on their
    // own threads, drawing set versions concurrently.  (They share no
    // snapshot: page refcounts are confined to one thread.)  After
    // the join, a restore of one from the other's snapshot must equal
    // a machine built from that snapshot.
    os::MachineConfig config;
    config.seed = 7001;
    os::Machine a(config);
    os::Machine b(config);
    auto simulate = [](os::Machine &machine, std::uint64_t seed) {
        const Victim victim = buildVictim(machine);
        machine.reseed(seed);
        runBody(machine, victim, seed);
    };
    std::thread ta(simulate, std::ref(a), 1);
    std::thread tb(simulate, std::ref(b), 2);
    ta.join();
    tb.join();

    const os::Snapshot snap = a.snapshot();
    b.restoreFrom(snap);
    os::Machine fresh(snap.config());
    fresh.restoreFrom(snap);
    EXPECT_EQ(fullState(b), fullState(fresh));
}

/** Copy work a machine's restores did so far: the sets each cache
 *  level found differing, the pages its memory re-pointed, then the
 *  sets of the L1 TLB, the L2 TLB and the PWC. */
std::array<std::uint64_t, 7>
copyWork(os::Machine &machine)
{
    const mem::Hierarchy &h = machine.hierarchy();
    const vm::Mmu &mmu = machine.mmu();
    return {h.l1().setsCopied(),      h.l2().setsCopied(),
            h.l3().setsCopied(),      machine.mem().pagesRepointed(),
            mmu.l1Tlb().setsCopied(), mmu.l2Tlb().setsCopied(),
            mmu.pwc().setsCopied()};
}

/** What a restore of @p machine from @p snap copied. */
std::array<std::uint64_t, 7>
restoreWork(os::Machine &machine, const os::Snapshot &snap)
{
    std::array<std::uint64_t, 7> work = copyWork(machine);
    machine.restoreFrom(snap);
    const std::array<std::uint64_t, 7> after = copyWork(machine);
    for (std::size_t i = 0; i < work.size(); ++i)
        work[i] = after[i] - work[i];
    return work;
}

TEST(VersionedRestore, CopyWorkIsPinned)
{
    // The sets and pages a restore moves are work done, a function
    // of the seed and the code: pinned like a fingerprint.  A restore
    // right after a restore moves nothing; after one seeded AES
    // decryption it moves exactly what that window touched.
    constexpr std::array<std::uint64_t, 7> kNothing = {0, 0, 0, 0,
                                                       0, 0, 0};
    constexpr std::array<std::uint64_t, 7> kAfterBody = {16, 9, 9, 2,
                                                         8, 0, 0};
    os::MachineConfig config;
    config.seed = 7001;
    os::Machine warm(config);
    const Victim victim = buildVictim(warm);
    const os::Snapshot snap = warm.snapshot();

    os::Machine pooled(config);
    pooled.restoreFrom(snap);
    for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(restoreWork(pooled, snap), kNothing) << "restore " << k;
        pooled.reseed(100);
        runBody(pooled, victim, 100);
        EXPECT_EQ(restoreWork(pooled, snap), kAfterBody) << "restore " << k;
    }
}

// ---------------------------------------------------------------------
// Campaign-level: prefixCache x machinePool x workers, under faults.
// ---------------------------------------------------------------------

/** The bench's comparison: per-trial payloads, metrics, and statuses
 *  with host-mechanics meta-counters (obs.trace.*, mem.physmem.*)
 *  stripped — those record how a state was reached (pooled vs cold
 *  machines, COW re-shares), which is exactly what the arms below
 *  vary. */
std::string
campaignFingerprint(const exp::CampaignResult &result)
{
    return exp::deterministicFingerprint(result);
}

/**
 * A warmup-heavy replay campaign: the prefix builds the enclave and
 * runs a warm decryption; each trial replays one MicroScope episode
 * against its own ciphertext.  The machine keeps its config defaults,
 * so the CI chaos job's USCOPE_FAULT_PLAN=chaos flows into every arm.
 * @p runner steps both the warmup and the body.
 */
exp::CampaignSpec
prefixCampaign(bool prefix_cache, bool pool, unsigned workers,
               const Runner &runner = kMachineLoop)
{
    exp::CampaignSpec spec;
    spec.name = "snapshot_prefix";
    spec.trials = 4;
    spec.masterSeed = 42;
    spec.workers = workers;
    spec.prefixCache = prefix_cache;
    spec.machinePool = pool;
    spec.warmup = [runner](os::Machine &m) -> std::shared_ptr<const void> {
        return std::make_shared<Victim>(buildVictim(m, runner));
    };
    spec.body = [runner](const exp::TrialContext &ctx) {
        os::Machine &m = *ctx.fork;
        const auto *v = static_cast<const Victim *>(ctx.warmupData);

        const crypto::AesKey enc(victimKey, 128, false);
        Rng rng(ctx.seed);
        std::uint8_t plaintext[16], ct[16];
        for (unsigned i = 0; i < 16; ++i)
            plaintext[i] = static_cast<std::uint8_t>(rng.below(256));
        crypto::encryptBlock(enc, plaintext, ct);
        crypto::loadCiphertext(m.kernel(), v->pid, v->layout, ct);

        std::uint64_t replayProbes = 0;
        ms::Microscope scope(m);
        ms::AttackRecipe recipe;
        recipe.victim = v->pid;
        recipe.replayHandle = v->layout.td0;
        recipe.pivot = v->layout.rk;
        recipe.confidence = 2;
        recipe.maxEpisodes = 1;
        recipe.walkPlan = ms::PageWalkPlan::longest();
        recipe.onReplay = [&](const ms::ReplayEvent &) {
            ++replayProbes;
            return true;
        };
        scope.setRecipe(std::move(recipe));

        scope.arm();
        m.kernel().startOnContext(v->pid, 0, v->program);
        runner.runUntilHalted(m, 0, 50'000'000);
        scope.disarm();

        exp::TrialOutput out;
        out.metric.add(static_cast<double>(replayProbes));
        out.simCycles = m.cycle() - ctx.forkCycle;
        out.scope.episodes = 1;
        out.scope.totalReplays = scope.stats().totalReplays;
        out.metrics = m.metricsSnapshot();
        out.payload = json::Value::object()
                          .set("replay_probes", replayProbes)
                          .set("fork_cycle", ctx.forkCycle);
        return out;
    };
    return spec;
}

TEST(PrefixCampaign, FingerprintInvariantAcrossCachePoolAndWorkers)
{
    const std::string reference = campaignFingerprint(
        exp::runCampaign(prefixCampaign(false, false, 1)));
    ASSERT_FALSE(reference.empty());

    for (const bool cache : {false, true}) {
        for (const bool pool : {false, true}) {
            for (const unsigned workers : {1u, 2u, 4u}) {
                const std::string fp =
                    campaignFingerprint(exp::runCampaign(
                        prefixCampaign(cache, pool, workers)));
                EXPECT_EQ(fp, reference)
                    << "prefixCache=" << cache << " pool=" << pool
                    << " workers=" << workers;
            }
        }
    }
}

TEST(PrefixCampaign, FingerprintInvariantWithFastForwardOff)
{
    // The every-cycle reference steps both arms here, and they must
    // equal the machine's own loop.
    const std::string slow = campaignFingerprint(
        exp::runCampaign(prefixCampaign(false, false, 1, kEveryCycle)));
    const std::string forked = campaignFingerprint(
        exp::runCampaign(prefixCampaign(true, true, 2, kEveryCycle)));
    EXPECT_EQ(forked, slow);
    EXPECT_EQ(campaignFingerprint(
                  exp::runCampaign(prefixCampaign(false, false, 1))),
              slow);
}

TEST(PrefixCampaign, RetriedTrialsReForkDeterministically)
{
    // A body that throws on its first attempt for odd trials: the
    // retry re-forks from the same snapshot with the retry seed, so
    // the campaign stays deterministic across cache/pool settings.
    const auto flaky = [](bool cache, bool pool) {
        exp::CampaignSpec spec = prefixCampaign(cache, pool, 1);
        auto inner = spec.body;
        spec.maxRetries = 1;
        spec.body = [inner](const exp::TrialContext &ctx) {
            if (ctx.index % 2 == 1 &&
                ctx.seed ==
                    exp::deriveTrialSeed(42, ctx.index))
                throw std::runtime_error("first attempt fails");
            return inner(ctx);
        };
        return spec;
    };
    const exp::CampaignResult cold =
        exp::runCampaign(flaky(false, false));
    const exp::CampaignResult forked =
        exp::runCampaign(flaky(true, true));
    EXPECT_EQ(cold.aggregate.retried, 2u);
    EXPECT_EQ(campaignFingerprint(forked), campaignFingerprint(cold));
}

// ---------------------------------------------------------------------
// perTrialMetrics: skip the work, keep the aggregate.
// ---------------------------------------------------------------------

TEST(PerTrialMetrics, DroppedSnapshotsLeaveAggregateIntact)
{
    exp::CampaignSpec with = prefixCampaign(true, true, 1);
    exp::CampaignSpec without = prefixCampaign(true, true, 1);
    without.perTrialMetrics = false;

    const exp::CampaignResult kept = exp::runCampaign(std::move(with));
    const exp::CampaignResult dropped =
        exp::runCampaign(std::move(without));

    // The aggregate (including merged metrics) is unaffected...
    EXPECT_EQ(dropped.aggregate.toJson().dump(),
              kept.aggregate.toJson().dump());
    ASSERT_EQ(dropped.trials.size(), kept.trials.size());
    for (std::size_t i = 0; i < dropped.trials.size(); ++i) {
        // ...while the per-trial snapshots are gone, and their JSON
        // omits the "metrics" block instead of serializing it.
        EXPECT_TRUE(dropped.trials[i].output.metrics.empty());
        EXPECT_FALSE(kept.trials[i].output.metrics.empty());
        const std::string trialJson =
            dropped.trials[i].toJson().dump();
        EXPECT_EQ(trialJson.find("\"metrics\""), std::string::npos);
    }
}

TEST(PerTrialMetrics, IncompatibleWithCheckpointDir)
{
    exp::CampaignSpec spec = prefixCampaign(true, true, 1);
    spec.perTrialMetrics = false;
    spec.checkpointDir = "/tmp/uscope-test-never-created";
    EXPECT_THROW(exp::runCampaign(std::move(spec)),
                 std::invalid_argument);
}

} // namespace
