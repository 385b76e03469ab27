/**
 * @file
 * Bit-identity suite for prefix-snapshot forking, Machine pooling, and
 * COW paging (DESIGN.md §12).
 *
 * The contracts enforced here:
 *
 *  - **COW isolation.** PhysMem instances sharing an arena via
 *    shareStateFrom() never observe each other's writes, and sharing
 *    allocates nothing until a write actually diverges a page.
 *  - **Fork-vs-cold.** A trial forked from a post-warmup Snapshot and
 *    reseeded equals, bit for bit, a cold trial that runs the same
 *    warmup and reseeds at the same point — across fast-forward
 *    on/off, fault plans (including USCOPE_FAULT_PLAN=chaos, which
 *    the CI chaos job exports), worker counts 1/2/4, and every
 *    prefixCache × machinePool combination of the campaign runner.
 *  - **Versioned restore.** Repeated restoreFrom calls from one
 *    snapshot, which copy only the cache sets whose version ids
 *    differ (DESIGN.md §17), each equal a machine freshly constructed
 *    from the snapshot — also when a new snapshot lands at a
 *    dropped one's address, when the snapshot's machine never ran,
 *    and when the two machines drew their set versions on different
 *    threads.
 *
 * Runs under TSan in CI, where the worker sweep doubles as a race
 * check on the per-worker snapshot caches and machine pools.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
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
#include "exp/campaign.hh"
#include "mem/phys_mem.hh"
#include "os/machine.hh"

using namespace uscope;

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

/** The warmup prefix: enclave build + one warm decryption. */
Victim
buildVictim(os::Machine &machine)
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
    machine.runUntilHalted(0, 50'000'000);
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
 *  mem.physmem.* counts host-side COW re-shares — how a state was
 *  reached, which is exactly what forked-vs-cold arms differ in —
 *  so it is dropped, as exp::deterministicFingerprint drops it. */
std::string
stateFingerprint(const os::Machine &machine)
{
    obs::MetricSnapshot snap = machine.metricsSnapshot();
    snap.values.erase(
        std::remove_if(snap.values.begin(), snap.values.end(),
                       [](const obs::MetricValue &v) {
                           return v.name.rfind("mem.physmem.", 0) == 0;
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

    // Fork: run the same warmup once, snapshot, construct from the
    // snapshot, reseed with the same trial seed, run the body.
    os::Machine warm(config);
    const Victim victim = buildVictim(warm);
    const os::Snapshot snap = warm.snapshot();
    os::Machine fork(snap);
    fork.reseed(trialSeed);
    runBody(fork, victim, trialSeed);

    EXPECT_EQ(stateFingerprint(fork), stateFingerprint(cold));

    // restoreFrom (the pooled-fork path) lands on the same state.
    os::Machine pooled(config);
    pooled.restoreFrom(snap);
    pooled.reseed(trialSeed);
    runBody(pooled, victim, trialSeed);
    EXPECT_EQ(stateFingerprint(pooled), stateFingerprint(cold));
}

TEST(MachineFork, SiblingForksDoNotInterfere)
{
    os::MachineConfig config;
    config.seed = 7001;
    os::Machine warm(config);
    const Victim victim = buildVictim(warm);
    const os::Snapshot snap = warm.snapshot();

    // Reference: a lone fork running trial seed 1.
    os::Machine lone(snap);
    lone.reseed(1);
    runBody(lone, victim, 1);
    const std::string reference = stateFingerprint(lone);

    // Two siblings off the same snapshot, run interleaved with
    // different seeds: COW isolation means sibling 1's result is
    // unaffected by sibling 2's writes to shared pages.
    os::Machine fork1(snap);
    os::Machine fork2(snap);
    fork1.reseed(1);
    fork2.reseed(2);
    runBody(fork2, victim, 2);
    runBody(fork1, victim, 1);
    EXPECT_EQ(stateFingerprint(fork1), reference);

    // The snapshot itself stayed frozen: a third fork still works.
    os::Machine fork3(snap);
    fork3.reseed(1);
    runBody(fork3, victim, 1);
    EXPECT_EQ(stateFingerprint(fork3), reference);
}

TEST(MachineFork, StructuralMismatchIsRejected)
{
    os::Machine machine;
    os::MachineConfig other = machine.config();
    other.core.numContexts = machine.config().core.numContexts + 1;
    const os::Machine different(other);
    EXPECT_THROW(machine.restoreFrom(different.snapshot()),
                 std::exception);
}

// ---------------------------------------------------------------------
// Versioned restore (DESIGN.md §17): a restoreFrom copies only the
// cache sets whose version ids differ from the snapshot's.
// ---------------------------------------------------------------------

/** stateFingerprint plus the cache contents, which the exported
 *  hit/miss counters do not pin down. */
std::string
fullState(os::Machine &machine)
{
    return stateFingerprint(machine) + "#" +
           std::to_string(machine.hierarchy().stateDigest());
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
        // The full-copy reference: a machine constructed from snap.
        os::Machine fresh(snap);
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
    os::Machine fresh(idle_snap);
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
    os::Machine fresh(b);
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
    os::Machine fresh(snap);
    EXPECT_EQ(fullState(b), fullState(fresh));
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
 */
exp::CampaignSpec
prefixCampaign(bool prefix_cache, bool pool, unsigned workers,
               bool fast_forward = true)
{
    exp::CampaignSpec spec;
    spec.name = "snapshot_prefix";
    spec.trials = 4;
    spec.masterSeed = 42;
    spec.workers = workers;
    spec.prefixCache = prefix_cache;
    spec.machinePool = pool;
    spec.machineFactory =
        [fast_forward](const exp::TrialContext &) {
            os::MachineConfig config;
            config.fastForward = fast_forward;
            return config;
        };
    spec.warmup = [](os::Machine &m) -> std::shared_ptr<const void> {
        return std::make_shared<Victim>(buildVictim(m));
    };
    spec.body = [](const exp::TrialContext &ctx) {
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
        m.runUntilHalted(0, 50'000'000);
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
    const std::string slow = campaignFingerprint(exp::runCampaign(
        prefixCampaign(false, false, 1, /*fast_forward=*/false)));
    const std::string forked = campaignFingerprint(exp::runCampaign(
        prefixCampaign(true, true, 2, /*fast_forward=*/false)));
    EXPECT_EQ(forked, slow);
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
    EXPECT_THROW(exp::CampaignRunner{std::move(spec)},
                 std::invalid_argument);
}

} // namespace
