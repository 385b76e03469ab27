/**
 * @file
 * System-level property tests:
 *
 *  - Replay invariance: attacking a random program with MicroScope
 *    (random handle position, random replay count) must leave its
 *    architectural results bit-identical to an unattacked run — the
 *    paper's core premise that replays are architecturally invisible.
 *  - Determinism: identical seeds give identical experiment outputs,
 *    and config.machine.seed is the seed an experiment runs under.
 *  - Clean disarm: page tables return to their pre-attack state.
 *  - AES attack generality: the single-stepping extraction works for
 *    192- and 256-bit keys (12/14 rounds) too.
 */

#include <gtest/gtest.h>

#include <vector>

#include "attack/aes_attack.hh"
#include "attack/port_contention.hh"
#include "common/random.hh"
#include "core/microscope.hh"
#include "cpu/program.hh"
#include "os/machine.hh"

using namespace uscope;

namespace
{

/** A randomly generated victim with a replay handle inside it. */
struct RandomVictim
{
    cpu::Program program;
    VAddr handle = 0;
    VAddr data = 0;
    unsigned dataPages = 2;
};

/**
 * Random program: ALU soup + loads/stores to a private data region +
 * a bounded loop, with one access to a dedicated handle page inserted
 * at a random position.
 */
RandomVictim
makeRandomVictim(os::Kernel &kernel, os::Pid pid, Rng &rng)
{
    RandomVictim victim;
    victim.handle = kernel.allocVirtual(pid, pageSize);
    victim.data = kernel.allocVirtual(pid, victim.dataPages * pageSize);

    cpu::ProgramBuilder b;
    b.movi(30, static_cast<std::int64_t>(victim.handle));
    b.movi(31, static_cast<std::int64_t>(victim.data));
    b.movi(29, 3 + static_cast<std::int64_t>(rng.below(5)));  // loop n
    b.movi(28, 0);

    const unsigned body_len = 20 + static_cast<unsigned>(rng.below(30));
    const unsigned handle_at = static_cast<unsigned>(
        rng.below(body_len));
    b.label("loop");
    for (unsigned i = 0; i < body_len; ++i) {
        if (i == handle_at) {
            b.ld(27, 30, 0);  // the replay handle access
            continue;
        }
        const cpu::Reg rd = static_cast<cpu::Reg>(1 + rng.below(26));
        const cpu::Reg rs1 = static_cast<cpu::Reg>(1 + rng.below(26));
        const cpu::Reg rs2 = static_cast<cpu::Reg>(1 + rng.below(26));
        switch (rng.below(8)) {
          case 0:
            b.addi(rd, rs1, static_cast<std::int64_t>(rng.below(99)));
            break;
          case 1:
            b.mul(rd, rs1, rs2);
            break;
          case 2:
            b.xor_(rd, rs1, rs2);
            break;
          case 3:
            b.shri(rd, rs1, static_cast<unsigned>(rng.below(8)));
            break;
          case 4:
            b.div(rd, rs1, rs2);
            break;
          case 5:
            b.ld(rd, 31,
                 static_cast<std::int64_t>(rng.below(
                     victim.dataPages * pageSize / 8) * 8));
            break;
          case 6:
            b.st(31,
                 static_cast<std::int64_t>(rng.below(
                     victim.dataPages * pageSize / 8) * 8),
                 rs2);
            break;
          default:
            b.add(rd, rs1, rs2);
            break;
        }
    }
    b.addi(28, 28, 1);
    b.blt(28, 29, "loop");
    b.halt();

    victim.program = b.build();
    return victim;
}

struct ArchState
{
    std::vector<std::uint64_t> intRegs;
    std::vector<std::uint8_t> data;

    bool
    operator==(const ArchState &other) const
    {
        return intRegs == other.intRegs && data == other.data;
    }
};

ArchState
captureState(os::Machine &machine, os::Pid pid,
             const RandomVictim &victim)
{
    ArchState state;
    for (unsigned reg = 0; reg < cpu::numIntRegs; ++reg)
        state.intRegs.push_back(machine.core().readIntReg(
            0, static_cast<cpu::Reg>(reg)));
    state.data.resize(victim.dataPages * pageSize);
    EXPECT_TRUE(machine.kernel().readVirtual(
        pid, victim.data, state.data.data(), state.data.size()));
    return state;
}

} // namespace

class ReplayInvariance : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ReplayInvariance, AttackedRunMatchesCleanRun)
{
    const unsigned seed = GetParam();
    Rng rng(seed * 7919 + 3);
    const std::uint64_t replays = 1 + rng.below(12);

    ArchState clean;
    ArchState attacked;
    std::uint64_t faults = 0;

    for (bool attack : {false, true}) {
        os::MachineConfig mcfg;
        mcfg.seed = 99;
        os::Machine machine(mcfg);  // identical machines
        auto &kernel = machine.kernel();
        const os::Pid pid = kernel.createProcess("victim");
        Rng victim_rng(seed * 7919 + 3);  // identical victim
        const RandomVictim victim =
            makeRandomVictim(kernel, pid, victim_rng);

        ms::Microscope scope(machine);
        if (attack) {
            ms::AttackRecipe recipe;
            recipe.victim = pid;
            recipe.replayHandle = victim.handle;
            recipe.confidence = replays;
            recipe.walkPlan = (seed % 2)
                ? ms::PageWalkPlan::longest()
                : ms::PageWalkPlan::shortest();
            scope.setRecipe(std::move(recipe));
            scope.arm();
        }

        kernel.startOnContext(pid, 0,
                              std::make_shared<const cpu::Program>(
                                  victim.program));
        ASSERT_TRUE(machine.runUntilHalted(0, 50'000'000))
            << "seed " << seed << " attack " << attack;
        if (attack) {
            scope.disarm();
            faults = kernel.faultCount(pid);
        }
        (attack ? attacked : clean) =
            captureState(machine, pid, victim);
    }

    // The attack replayed, but architecture is bit-identical.
    EXPECT_GT(faults, 0u);
    EXPECT_TRUE(clean == attacked) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayInvariance,
                         ::testing::Range(0u, 10u));

TEST(Determinism, IdenticalSeedsIdenticalSamples)
{
    attack::PortContentionConfig config;
    config.samples = 800;
    config.replays = 20;
    config.machine.seed = 777;
    const auto a = attack::runPortContentionAttack(config);
    const auto b = attack::runPortContentionAttack(config);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.aboveThreshold, b.aboveThreshold);
    EXPECT_EQ(a.replaysDone, b.replaysDone);

    config.machine.seed = 778;
    const auto c = attack::runPortContentionAttack(config);
    EXPECT_NE(a.samples, c.samples);  // different seed, different run
}

// An experiment has one seed, config.machine.seed: two runs that
// differ only there differ, and equal seeds repeat exactly.  The AES
// run also derives its table warm-up from that seed.
TEST(Determinism, MachineSeedIsTheExperimentSeed)
{
    attack::AesAttackConfig config;
    for (unsigned i = 0; i < 16; ++i) {
        config.key[i] = static_cast<std::uint8_t>(i * 17 + 3);
        config.plaintext[i] = static_cast<std::uint8_t>(i * 5);
    }
    const auto latencies = [&config](std::uint64_t seed) {
        config.machine.seed = seed;
        std::vector<Cycles> out;
        for (const attack::LineProbe &probe :
             attack::runFig11(config).replays)
            out.insert(out.end(), probe.latency.begin(),
                       probe.latency.end());
        return out;
    };
    const std::vector<Cycles> a = latencies(777);
    EXPECT_EQ(a, latencies(777));
    EXPECT_NE(a, latencies(778));
}

TEST(CleanDisarm, PageTablesRestoredAfterAbortedAttack)
{
    os::Machine machine;
    auto &kernel = machine.kernel();
    const os::Pid pid = kernel.createProcess("victim");
    const VAddr handle = kernel.allocVirtual(pid, pageSize);
    const VAddr pivot = kernel.allocVirtual(pid, pageSize);

    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = pid;
    recipe.replayHandle = handle;
    recipe.pivot = pivot;
    scope.setRecipe(std::move(recipe));

    // Arm and immediately abandon, repeatedly; the tables must come
    // back presentable every time.
    for (int i = 0; i < 5; ++i) {
        scope.arm();
        EXPECT_FALSE(kernel.pageTable(pid).isPresent(handle));
        scope.disarm();
        EXPECT_TRUE(kernel.pageTable(pid).isPresent(handle));
        EXPECT_TRUE(kernel.pageTable(pid).isPresent(pivot));
    }
}

class AesKeySizes : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AesKeySizes, ExtractionGeneralizesToAllKeySizes)
{
    const unsigned key_bits = GetParam();
    attack::AesAttackConfig config;
    config.keyBits = key_bits;
    for (unsigned i = 0; i < 32; ++i)
        config.key[i] = static_cast<std::uint8_t>(0x42 + i * 11);
    for (unsigned i = 0; i < 16; ++i)
        config.plaintext[i] = static_cast<std::uint8_t>(0x99 - i);

    const auto result = attack::runAesExtraction(config);
    const unsigned rounds = key_bits / 32 + 6;  // 10/12/14 (§4.4)
    EXPECT_EQ(result.episodes.size(), (rounds - 1) * 4);
    EXPECT_TRUE(result.plaintextCorrect);

    // Nibble recovery stays sound regardless of key size.
    const auto nibbles = attack::recoverRound1Nibbles(result);
    const auto truth = attack::groundTruthRound1Nibbles(config);
    unsigned recovered = 0;
    for (unsigned i = 0; i < 16; ++i) {
        if (nibbles[i]) {
            ++recovered;
            EXPECT_EQ(*nibbles[i], truth[i]) << "nibble " << i;
        }
    }
    // How many nibbles survive suffix-differencing depends on line
    // collisions for the specific key/ciphertext; soundness (checked
    // above) is the hard requirement.
    EXPECT_GE(recovered, 5u);
}

INSTANTIATE_TEST_SUITE_P(KeyBits, AesKeySizes,
                         ::testing::Values(128u, 192u, 256u));
