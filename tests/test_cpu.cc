/**
 * @file
 * Unit and property tests for src/cpu: ISA classification, the
 * program builder, the branch predictor, the port model, and the
 * out-of-order SMT core — including a golden-model property test that
 * runs random straight-line programs against a simple architectural
 * interpreter.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <ios>

#include "attack/control_flow.hh"
#include "attack/loop_secret.hh"
#include "attack/mispredict_replay.hh"
#include "attack/port_contention.hh"
#include "attack/rdrand_bias.hh"
#include "attack/single_secret.hh"
#include "attack/tsx_replay.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "cpu/core.hh"
#include "cpu/isa.hh"
#include "cpu/ports.hh"
#include "cpu/predictor.hh"
#include "cpu/program.hh"
#include "mem/hierarchy.hh"
#include "mem/phys_mem.hh"
#include "os/machine.hh"
#include "vm/frame_alloc.hh"
#include "vm/mmu.hh"
#include "vm/page_table.hh"

using namespace uscope;
using namespace uscope::cpu;

namespace
{

/** A bare core rig with one identity-mapped page table. */
struct CoreRig
{
    mem::PhysMem mem;
    mem::Hierarchy hierarchy;
    vm::Mmu mmu{mem, hierarchy};
    vm::FrameAllocator frames{1, 100000};
    vm::PageTable table{mem, frames};
    Core core;

    explicit CoreRig(const CoreConfig &config = CoreConfig{})
        : core(mem, hierarchy, mmu, config)
    {
        core.setFaultHandler([](const FaultInfo &info) {
            panic("unexpected fault at pc %llu",
                  static_cast<unsigned long long>(info.pc));
        });
    }

    /** Map [va, va+len) to fresh frames. */
    void
    mapRange(VAddr va, std::uint64_t len)
    {
        for (Vpn vpn = pageNumber(va);
             vpn <= pageNumber(va + len - 1); ++vpn) {
            table.map(vpn, frames.alloc(),
                      vm::pte::present | vm::pte::writable);
        }
    }

    void
    start(Program program, unsigned ctx = 0)
    {
        core.startContext(
            ctx, std::make_shared<const Program>(std::move(program)),
            0, 1, table.root(), 0);
    }

    /** Tick until @p pred() holds or @p max cycles pass; false on
     *  timeout. */
    bool
    runUntil(const std::function<bool()> &pred, Cycles max)
    {
        const Cycles limit = core.cycle() + max;
        while (core.cycle() < limit) {
            if (pred())
                return true;
            core.tick();
        }
        return pred();
    }

    bool
    runToHalt(unsigned ctx = 0, Cycles max = 1'000'000)
    {
        return runUntil([&]() { return core.halted(ctx); }, max);
    }
};

} // namespace

// ---------------------------------------------------------------------
// ISA metadata
// ---------------------------------------------------------------------

TEST(Isa, Classification)
{
    EXPECT_TRUE(isLoad(Op::Ld));
    EXPECT_TRUE(isLoad(Op::Ldf));
    EXPECT_FALSE(isLoad(Op::St));
    EXPECT_TRUE(isStore(Op::Stf));
    EXPECT_TRUE(isMem(Op::Ld32));
    EXPECT_FALSE(isMem(Op::Mul));
    EXPECT_TRUE(isBranch(Op::Jmp));
    EXPECT_TRUE(isCondBranch(Op::Beq));
    EXPECT_FALSE(isCondBranch(Op::Jmp));
}

TEST(Isa, RegisterFileRouting)
{
    EXPECT_TRUE(writesInt(Op::Mul));
    EXPECT_TRUE(writesFp(Op::Fdiv));
    EXPECT_FALSE(writesInt(Op::Fdiv));
    EXPECT_TRUE(writesInt(Op::Rdtsc));
    EXPECT_FALSE(writesInt(Op::St));
    EXPECT_TRUE(readsFp2(Op::Stf));   // store data is FP
    EXPECT_FALSE(readsFp1(Op::Stf));  // base address is integer
    EXPECT_TRUE(readsFp1(Op::Fdiv));
    EXPECT_FALSE(readsSrc1(Op::Movi));
    EXPECT_TRUE(readsSrc2(Op::Beq));
}

TEST(Isa, NamesAndToString)
{
    EXPECT_STREQ(opName(Op::Fdiv), "fdiv");
    EXPECT_STREQ(opName(Op::Txbegin), "txbegin");
    Instruction inst{Op::Addi, 3, 2, 0, -7, 0};
    EXPECT_NE(inst.toString().find("addi"), std::string::npos);
    EXPECT_NE(inst.toString().find("-7"), std::string::npos);
}

// ---------------------------------------------------------------------
// Decoded-stream sharing (one fetch/decode evaluation per Program)
// ---------------------------------------------------------------------

TEST(DecodedStream, MemoizesFlagsAndClampsBeyondEnd)
{
    ProgramBuilder b;
    b.movi(1, 0x1000).ld(2, 1, 0).st(1, 2, 8).fence().halt();
    const Program program = b.build();
    const DecodedStream &decoded = program.decoded();

    EXPECT_FALSE(decoded.at(0).isMem());
    EXPECT_TRUE(decoded.at(1).isLoad());
    EXPECT_TRUE(decoded.at(2).isStore());
    EXPECT_TRUE(decoded.at(3).isBarrier(false));
    EXPECT_TRUE(decoded.at(4).isHalt());
    // Beyond-the-end clamps to a decoded Halt, mirroring Program::at.
    EXPECT_TRUE(decoded.at(10'000).isHalt());
}

TEST(DecodedStream, OneStreamDrivesEveryContext)
{
    // Contexts running the same Program read the same decode table —
    // pointer-identical, not merely equal.
    CoreRig rig;
    ProgramBuilder b;
    b.movi(1, 7).halt();
    const auto program = std::make_shared<const Program>(b.build());
    for (unsigned ctx = 0; ctx < 2; ++ctx) {
        rig.core.startContext(ctx, program, 0, 1, rig.table.root(), 0);
        EXPECT_EQ(&rig.core.contextProgram(ctx)->decoded(),
                  &program->decoded());
    }
}

// ---------------------------------------------------------------------
// Program builder
// ---------------------------------------------------------------------

TEST(ProgramTest, ForwardAndBackwardLabels)
{
    ProgramBuilder b;
    b.jmp("end")            // forward reference
        .label("mid")
        .addi(1, 1, 1)
        .label("end")
        .beq(1, 2, "mid")   // backward reference
        .halt();
    Program program = b.build();
    EXPECT_EQ(program.at(0).target, 2u);
    EXPECT_EQ(program.at(2).target, 1u);
    EXPECT_EQ(program.label("mid"), 1u);
}

TEST(ProgramTest, UndefinedLabelFatal)
{
    ProgramBuilder b;
    b.jmp("nowhere");
    EXPECT_THROW(b.build(), SimFatal);
}

TEST(ProgramTest, DuplicateLabelFatal)
{
    ProgramBuilder b;
    b.label("x");
    EXPECT_THROW(b.label("x"), SimFatal);
}

TEST(ProgramTest, OutOfRangePcIsHalt)
{
    Program program = ProgramBuilder{}.nop().build();
    EXPECT_EQ(program.at(500).op, Op::Halt);
}

TEST(ProgramTest, DisassembleListsEverything)
{
    ProgramBuilder b;
    b.label("entry").movi(1, 42).halt();
    const std::string listing = b.build().disassemble();
    EXPECT_NE(listing.find("entry:"), std::string::npos);
    EXPECT_NE(listing.find("movi"), std::string::npos);
    EXPECT_NE(listing.find("halt"), std::string::npos);
}

// ---------------------------------------------------------------------
// Branch predictor
// ---------------------------------------------------------------------

TEST(Predictor, TwoBitHysteresis)
{
    BranchPredictor bp(64);
    const std::uint64_t pc = 0x1234;
    EXPECT_FALSE(bp.predict(pc));  // weakly not-taken reset state
    bp.update(pc, true);
    EXPECT_TRUE(bp.predict(pc));   // 1 -> 2: now predicts taken
    bp.update(pc, true);           // saturate at 3
    bp.update(pc, false);          // 3 -> 2: still taken
    EXPECT_TRUE(bp.predict(pc));
    bp.update(pc, false);          // 2 -> 1
    EXPECT_FALSE(bp.predict(pc));
}

TEST(Predictor, FlushYieldsPublicState)
{
    BranchPredictor bp(64);
    for (std::uint64_t pc = 0; pc < 64; ++pc)
        bp.prime(pc, true);
    bp.flush();
    for (std::uint64_t pc = 0; pc < 64; ++pc)
        EXPECT_FALSE(bp.predict(pc));
    EXPECT_EQ(bp.stats().flushes, 1u);
}

TEST(Predictor, PrimeSaturates)
{
    BranchPredictor bp(64);
    bp.prime(7, true);
    EXPECT_EQ(bp.counter(7), 3u);
    bp.update(7, false);
    EXPECT_TRUE(bp.predict(7));  // one wrong outcome doesn't flip it
}

// ---------------------------------------------------------------------
// Port model
// ---------------------------------------------------------------------

TEST(Ports, RoutingTable)
{
    EXPECT_EQ(portsFor(Op::Fdiv).first, portDiv);
    EXPECT_EQ(portsFor(Op::Mul).first, portMul);
    EXPECT_EQ(portsFor(Op::Ld).first, portLoad0);
    EXPECT_EQ(portsFor(Op::Ld).second, portLoad1);
    EXPECT_EQ(portsFor(Op::St).first, portStore);
    EXPECT_EQ(portsFor(Op::Beq).first, portAlu1);
    EXPECT_TRUE(unpipelined(Op::Div));
    EXPECT_TRUE(unpipelined(Op::Fdiv));
    EXPECT_FALSE(unpipelined(Op::Fmul));
}

TEST(Ports, UnpipelinedOccupancy)
{
    PortState ports;
    ports.newCycle();
    EXPECT_TRUE(ports.canIssue(portDiv, 0));
    ports.occupy(portDiv, 0, 24, true);
    EXPECT_FALSE(ports.canIssue(portDiv, 0));
    // Still busy for the full latency even across cycles.
    ports.newCycle();
    EXPECT_FALSE(ports.canIssue(portDiv, 10));
    EXPECT_TRUE(ports.canIssue(portDiv, 24));
    EXPECT_EQ(ports.busyUntil(portDiv), 24u);
}

TEST(Ports, PipelinedOnePerCycle)
{
    PortState ports;
    ports.newCycle();
    ports.occupy(portMul, 0, 3, false);
    EXPECT_FALSE(ports.canIssue(portMul, 0));  // this cycle used
    ports.newCycle();
    EXPECT_TRUE(ports.canIssue(portMul, 1));   // next cycle free
    EXPECT_EQ(ports.issues(portMul), 1u);
}

// ---------------------------------------------------------------------
// Core semantics
// ---------------------------------------------------------------------

TEST(CoreTest, IntAluOps)
{
    CoreRig rig;
    ProgramBuilder b;
    b.movi(1, 100)
        .movi(2, 7)
        .add(3, 1, 2)      // 107
        .sub(4, 1, 2)      // 93
        .and_(5, 1, 2)     // 100 & 7 = 4
        .or_(6, 1, 2)      // 103
        .xor_(7, 1, 2)     // 99
        .andi(8, 1, 0xF)   // 4
        .shli(9, 2, 4)     // 112
        .shri(10, 1, 2)    // 25
        .mul(11, 1, 2)     // 700
        .div(12, 1, 2)     // 14
        .halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 3), 107u);
    EXPECT_EQ(rig.core.readIntReg(0, 4), 93u);
    EXPECT_EQ(rig.core.readIntReg(0, 5), 4u);
    EXPECT_EQ(rig.core.readIntReg(0, 6), 103u);
    EXPECT_EQ(rig.core.readIntReg(0, 7), 99u);
    EXPECT_EQ(rig.core.readIntReg(0, 8), 4u);
    EXPECT_EQ(rig.core.readIntReg(0, 9), 112u);
    EXPECT_EQ(rig.core.readIntReg(0, 10), 25u);
    EXPECT_EQ(rig.core.readIntReg(0, 11), 700u);
    EXPECT_EQ(rig.core.readIntReg(0, 12), 14u);
}

TEST(CoreTest, DivByZeroSaturates)
{
    CoreRig rig;
    ProgramBuilder b;
    b.movi(1, 5).movi(2, 0).div(3, 1, 2).halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 3), ~std::uint64_t{0});
}

TEST(CoreTest, FpOps)
{
    CoreRig rig;
    ProgramBuilder b;
    b.fmovi(1, 6.0)
        .fmovi(2, 1.5)
        .fadd(3, 1, 2)   // 7.5
        .fmul(4, 1, 2)   // 9.0
        .fdiv(5, 1, 2)   // 4.0
        .fmov(6, 5)
        .halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_DOUBLE_EQ(rig.core.readFpReg(0, 3), 7.5);
    EXPECT_DOUBLE_EQ(rig.core.readFpReg(0, 4), 9.0);
    EXPECT_DOUBLE_EQ(rig.core.readFpReg(0, 5), 4.0);
    EXPECT_DOUBLE_EQ(rig.core.readFpReg(0, 6), 4.0);
}

TEST(CoreTest, SubnormalFdivIsSlower)
{
    // The Andrysco-style timing difference §4.3 exploits: time two
    // one-divide programs with RDTSC.
    auto time_div = [](double operand) {
        CoreRig rig;
        ProgramBuilder b;
        b.fmovi(1, operand)
            .fmovi(2, 2.0)
            .rdtsc(10)
            .fence()
            .fdiv(3, 1, 2)
            .fence()
            .rdtsc(11)
            .sub(12, 11, 10)
            .halt();
        rig.start(b.build());
        EXPECT_TRUE(rig.runToHalt());
        return rig.core.readIntReg(0, 12);
    };
    const Cycles normal = time_div(1.5);
    const Cycles subnormal = time_div(4.9406564584124654e-324);
    EXPECT_GT(subnormal, normal + 50);
}

TEST(CoreTest, StoreBufferForwarding)
{
    CoreRig rig;
    rig.mapRange(0x10000, pageSize);
    ProgramBuilder b;
    b.movi(1, 0x10000)
        .movi(2, 77)
        .st(1, 8, 2)
        .ld(3, 1, 8)    // must forward 77 from the in-flight store
        .halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 3), 77u);
    EXPECT_EQ(rig.mem.read64(*rig.table.lookupPpn(0x10000)
                                 << pageShift |
                             8),
              77u);
}

TEST(CoreTest, Ld32ZeroExtendsAndSt32Truncates)
{
    CoreRig rig;
    rig.mapRange(0x10000, pageSize);
    ProgramBuilder b;
    b.movi(1, 0x10000)
        .movi(2, static_cast<std::int64_t>(0xAABBCCDD11223344ull))
        .st(1, 0, 2)
        .ld32(3, 1, 0)          // low 32 bits only
        .st32(1, 16, 2)         // writes 0x11223344
        .ld(4, 1, 16)
        .halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 3), 0x11223344u);
    EXPECT_EQ(rig.core.readIntReg(0, 4), 0x11223344u);
}

TEST(CoreTest, BranchKindsResolveCorrectly)
{
    CoreRig rig;
    ProgramBuilder b;
    // r10 collects a bitmask of taken paths.
    b.movi(1, 5)
        .movi(2, 5)
        .movi(3, -1)
        .movi(9, 1)
        .movi(10, 0)
        .beq(1, 2, "t1")
        .jmp("f1")
        .label("t1")
        .or_(10, 10, 9)  // bit: beq taken
        .label("f1")
        .blt(3, 1, "t2")
        .jmp("f2")
        .label("t2")
        .addi(10, 10, 2)  // blt taken (signed!)
        .label("f2")
        .bge(1, 2, "t3")
        .jmp("end")
        .label("t3")
        .addi(10, 10, 4)
        .label("end")
        .halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 10), 1u + 2u + 4u);
}

TEST(CoreTest, MispredictRecoversArchitecturally)
{
    CoreRig rig;
    // Alternating-direction loop: the 2-bit predictor must mispredict
    // several times yet the architectural sum must stay exact.
    ProgramBuilder b;
    b.movi(1, 0)     // i
        .movi(2, 20) // limit
        .movi(3, 0)  // sum
        .movi(4, 0)
        .label("loop")
        .andi(5, 1, 1)
        .beq(5, 4, "even")
        .addi(3, 3, 100)   // odd
        .jmp("next")
        .label("even")
        .addi(3, 3, 1)
        .label("next")
        .addi(1, 1, 1)
        .blt(1, 2, "loop")
        .halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 3), 10u * 100 + 10u * 1);
    EXPECT_GT(rig.core.stats(0).mispredicts, 0u);
    EXPECT_GT(rig.core.stats(0).squashed, 0u);
}

TEST(CoreTest, RdtscMonotonicAndFenced)
{
    CoreRig rig;
    ProgramBuilder b;
    b.rdtsc(1)
        .fence()
        .movi(5, 1000)
        .movi(6, 3)
        .div(7, 5, 6)
        .fence()
        .rdtsc(2)
        .sub(3, 2, 1)
        .halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    // The fenced interval must cover at least the divide latency.
    EXPECT_GE(rig.core.readIntReg(0, 3),
              rig.core.config().divLatency);
}

// startContext resets the ROB and the writer tables but keeps the
// context's register file, so a second program started on a context
// begins from the first one's registers (Core::startContext).
TEST(CoreTest, StartContextKeepsRegisters)
{
    CoreRig rig;
    ProgramBuilder first;
    first.movi(1, 41).movi(2, 7).fmovi(3, 2.5).halt();
    rig.start(first.build());
    ASSERT_TRUE(rig.runToHalt());

    ProgramBuilder second;
    second.addi(4, 1, 1).fmov(5, 3).halt();
    rig.start(second.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 4), 42u);
    EXPECT_EQ(rig.core.readIntReg(0, 2), 7u);
    EXPECT_EQ(rig.core.readFpReg(0, 5), 2.5);
    EXPECT_EQ(rig.core.readFpReg(0, 3), 2.5);
}

TEST(CoreTest, SmtContextsAreIsolated)
{
    CoreRig rig;
    ProgramBuilder a;
    a.movi(1, 11).addi(1, 1, 1).halt();
    ProgramBuilder b;
    b.movi(1, 500).addi(1, 1, 2).halt();
    rig.start(a.build(), 0);
    rig.start(b.build(), 1);
    ASSERT_TRUE(rig.runToHalt(0));
    ASSERT_TRUE(rig.runToHalt(1));
    EXPECT_EQ(rig.core.readIntReg(0, 1), 12u);
    EXPECT_EQ(rig.core.readIntReg(1, 1), 502u);
}

TEST(CoreTest, SmtDividerContentionIsMeasurable)
{
    // A context timing a divide burst sees higher latency when its
    // sibling also divides than when it multiplies — the §4.3 channel
    // at core granularity.
    auto measure = [](bool sibling_divides) {
        CoreRig rig;
        ProgramBuilder meas;
        meas.fmovi(1, 3.0)
            .fmovi(2, 7.0)
            .fence()
            .rdtsc(10);
        for (int i = 0; i < 4; ++i)
            meas.fdiv(3, 2, 1);
        meas.fence().rdtsc(11).sub(12, 11, 10).halt();

        ProgramBuilder noise;
        noise.fmovi(1, 3.0).fmovi(2, 7.0).movi(5, 200).movi(6, 0)
            .label("loop");
        if (sibling_divides)
            noise.fdiv(3, 2, 1);
        else
            noise.fmul(3, 2, 1);
        noise.addi(5, 5, -1).bne(5, 6, "loop").halt();

        rig.start(noise.build(), 1);
        rig.runUntil([]() { return false; }, 100);  // warm up
        rig.start(meas.build(), 0);
        EXPECT_TRUE(rig.runToHalt(0, 100000));
        return rig.core.readIntReg(0, 12);
    };
    const Cycles with_divs = measure(true);
    const Cycles with_muls = measure(false);
    EXPECT_GT(with_divs, with_muls + 20);
}

TEST(CoreTest, RobFillsBehindLongLoad)
{
    CoreRig rig;
    rig.mapRange(0x10000, pageSize);
    // A DRAM-latency load followed by many independent adds: the ROB
    // must fill while the load is outstanding.
    ProgramBuilder b;
    b.movi(1, 0x10000).ld(2, 1, 0);
    for (int i = 0; i < 200; ++i)
        b.addi(3, 3, 1);
    b.halt();
    rig.start(b.build());

    bool saw_full = false;
    for (int i = 0; i < 2000 && !rig.core.halted(0); ++i) {
        rig.core.tick();
        saw_full |= rig.core.robOccupancy(0) >=
                    rig.core.config().robPerContext;
    }
    EXPECT_TRUE(saw_full);
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 3), 200u);
}

TEST(CoreTest, TxCommitPublishesStores)
{
    CoreRig rig;
    rig.mapRange(0x10000, pageSize);
    const PAddr pa = *rig.table.lookupPpn(0x10000) << pageShift;
    ProgramBuilder b;
    b.movi(1, 0x10000)
        .movi(2, 42)
        .txbegin("abort")
        .st(1, 0, 2)
        .ld(3, 1, 0)     // reads own transactional store
        .txend()
        .jmp("end")
        .label("abort")
        .movi(9, 1)
        .label("end")
        .halt();
    rig.start(b.build());

    // Mid-transaction the store must NOT be in memory yet; poll.
    bool observed_isolation = false;
    for (int i = 0; i < 100000 && !rig.core.halted(0); ++i) {
        rig.core.tick();
        if (rig.core.inTransaction(0) && rig.mem.read64(pa) == 0)
            observed_isolation = true;
    }
    EXPECT_TRUE(observed_isolation);
    EXPECT_EQ(rig.mem.read64(pa), 42u);          // committed
    EXPECT_EQ(rig.core.readIntReg(0, 3), 42u);   // forwarded in-tx
    EXPECT_EQ(rig.core.readIntReg(0, 9), 0u);    // no abort
}

TEST(CoreTest, TxAbortRollsBackRegistersAndStores)
{
    CoreRig rig;
    rig.mapRange(0x10000, pageSize);
    const PAddr pa = *rig.table.lookupPpn(0x10000) << pageShift;
    ProgramBuilder b;
    b.movi(1, 0x10000)
        .movi(2, 42)
        .movi(9, 0)
        .txbegin("abort")
        .st(1, 0, 2)
        .movi(2, 99)     // must roll back to 42
        .jmp("spin")
        .label("spin")
        .addi(3, 3, 1)
        .jmp("spin")
        .label("abort")
        .movi(9, 1)
        .halt();
    rig.start(b.build());

    // Let the transaction get going, then abort it from "outside".
    rig.runUntil([&]() { return rig.core.inTransaction(0); },
                      100000);
    ASSERT_TRUE(rig.core.inTransaction(0));
    rig.runUntil([]() { return false; }, 200);
    ASSERT_TRUE(rig.core.abortTransaction(0));
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 9), 1u);    // abort path ran
    EXPECT_EQ(rig.core.readIntReg(0, 2), 42u);   // register restored
    EXPECT_EQ(rig.mem.read64(pa), 0u);           // store discarded
    EXPECT_EQ(rig.core.stats(0).txAborts, 1u);
}

TEST(CoreTest, TxAbortsOnWriteSetEviction)
{
    CoreRig rig;
    rig.mapRange(0x10000, pageSize);
    const PAddr pa = *rig.table.lookupPpn(0x10000) << pageShift;
    ProgramBuilder b;
    b.movi(1, 0x10000)
        .movi(2, 42)
        .movi(9, 0)
        .txbegin("abort")
        .st(1, 0, 2)
        .label("spin")
        .addi(3, 3, 1)
        .jmp("spin")
        .label("abort")
        .movi(9, 1)
        .halt();
    rig.start(b.build());
    rig.runUntil([&]() { return rig.core.inTransaction(0); },
                      100000);
    // Wait until the store has retired into the write set.
    rig.runUntil([]() { return false; }, 3000);
    rig.core.notifyLineEvicted(pa);
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 9), 1u);
}

TEST(CoreTest, FenceOnFlushStarvesSpeculation)
{
    // With the §8 defense on, a faulting load's shadow must not leave
    // residue from younger loads.
    for (bool fenced : {false, true}) {
        CoreConfig config;
        config.fenceOnPipelineFlush = fenced;
        CoreRig rig(config);
        rig.mapRange(0x10000, pageSize);
        rig.mapRange(0x30000, pageSize);
        rig.table.setPresent(0x10000, false);
        const PAddr probe_pa =
            (*rig.table.lookupPpn(0x30000) << pageShift);

        unsigned faults = 0;
        rig.core.setFaultHandler([&](const FaultInfo &) {
            ++faults;
            if (faults >= 3)
                rig.table.setPresent(0x10000, true);
            rig.mmu.invlpg(0x10000, 1);
        });

        ProgramBuilder b;
        b.movi(1, 0x10000)
            .movi(4, 0x30000)
            .ld(2, 1, 0)   // replay handle
            .ld(5, 4, 0)   // sensitive load
            .halt();
        rig.start(b.build());
        ASSERT_TRUE(rig.runToHalt(0, 1'000'000));

        // Flush-state check happens when 2 faults have occurred but
        // before release; re-derive via hierarchy state now: with the
        // fence the line was only fetched after the final release (1
        // demand fetch); without it, the speculative window touched
        // it repeatedly.  Either way it is cached now, so instead
        // verify fault count and use a second run below.
        EXPECT_EQ(faults, 3u);
        (void)probe_pa;
    }
}

TEST(CoreTest, FenceOnFlushBlocksWindowResidue)
{
    CoreConfig config;
    config.fenceOnPipelineFlush = true;
    CoreRig rig(config);
    rig.mapRange(0x10000, pageSize);
    rig.mapRange(0x30000, pageSize);
    rig.table.setPresent(0x10000, false);
    const PAddr probe_pa = *rig.table.lookupPpn(0x30000) << pageShift;

    bool residue_during_replay = false;
    unsigned faults = 0;
    rig.core.setFaultHandler([&](const FaultInfo &) {
        ++faults;
        if (faults > 1) {
            // Probe before deciding: did the previous window touch it?
            residue_during_replay |=
                rig.hierarchy.peekLevel(probe_pa) != mem::HitLevel::Dram;
        }
        rig.hierarchy.flushLine(probe_pa);
        if (faults >= 5)
            rig.table.setPresent(0x10000, true);
        rig.mmu.invlpg(0x10000, 1);
    });

    ProgramBuilder b;
    b.movi(1, 0x10000)
        .movi(4, 0x30000)
        .ld(2, 1, 0)
        .ld(5, 4, 0)
        .halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt(0, 1'000'000));
    EXPECT_FALSE(residue_during_replay);
}

TEST(CoreTest, MemProbeSeesSpeculativeAccesses)
{
    CoreRig rig;
    rig.mapRange(0x10000, pageSize);
    rig.mapRange(0x30000, pageSize);
    rig.table.setPresent(0x10000, false);

    unsigned spec_loads = 0;
    rig.core.setMemProbe([&](unsigned, VAddr va, PAddr, bool is_store,
                             bool) {
        if (!is_store && pageBase(va) == 0x30000)
            ++spec_loads;
    });
    unsigned faults = 0;
    rig.core.setFaultHandler([&](const FaultInfo &) {
        if (++faults >= 4)
            rig.table.setPresent(0x10000, true);
        rig.mmu.invlpg(0x10000, 1);
    });

    ProgramBuilder b;
    b.movi(1, 0x10000).movi(4, 0x30000).ld(2, 1, 0).ld(5, 4, 0).halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt(0, 1'000'000));
    // One execution per replay window (4 faults) plus the final,
    // architectural one after release.
    EXPECT_EQ(spec_loads, 5u);
}

TEST(CoreTest, StallContextBlocksProgress)
{
    CoreRig rig;
    ProgramBuilder b;
    b.movi(1, 1).halt();
    rig.start(b.build());
    rig.core.stallContext(0, 500);
    rig.runUntil([]() { return false; }, 100);
    EXPECT_EQ(rig.core.contextState(0), CtxState::Stalled);
    EXPECT_FALSE(rig.core.halted(0));
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_GE(rig.core.stats(0).stallCycles, 500u);
}

TEST(CoreTest, RedirectRestartsHaltedContext)
{
    CoreRig rig;
    ProgramBuilder b;
    b.addi(1, 1, 1).halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 1), 1u);
    rig.core.redirectContext(0, 0);
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 1), 2u);
}

// ---------------------------------------------------------------------
// Golden-model property test
// ---------------------------------------------------------------------

namespace
{

/** Architectural interpreter for straight-line (branch-free) code. */
struct GoldenModel
{
    std::array<std::uint64_t, numIntRegs> intRegs{};
    std::array<double, numFpRegs> fpRegs{};
    std::map<std::uint64_t, std::uint64_t> memory;  // 8-byte granules

    std::uint64_t
    load(std::uint64_t addr, unsigned len)
    {
        std::uint64_t value = 0;
        for (unsigned i = 0; i < len; ++i) {
            const std::uint64_t word = memory[(addr + i) & ~7ull];
            const unsigned shift = ((addr + i) & 7) * 8;
            value |= ((word >> shift) & 0xFF) << (8 * i);
        }
        return value;
    }

    void
    store(std::uint64_t addr, std::uint64_t value, unsigned len)
    {
        for (unsigned i = 0; i < len; ++i) {
            std::uint64_t &word = memory[(addr + i) & ~7ull];
            const unsigned shift = ((addr + i) & 7) * 8;
            word = (word & ~(0xFFull << shift)) |
                   (((value >> (8 * i)) & 0xFF) << shift);
        }
    }

    void
    exec(const Instruction &inst)
    {
        auto &r = intRegs;
        auto &f = fpRegs;
        switch (inst.op) {
          case Op::Movi: r[inst.rd] = inst.imm; break;
          case Op::Mov: r[inst.rd] = r[inst.rs1]; break;
          case Op::Add: r[inst.rd] = r[inst.rs1] + r[inst.rs2]; break;
          case Op::Addi: r[inst.rd] = r[inst.rs1] + inst.imm; break;
          case Op::Sub: r[inst.rd] = r[inst.rs1] - r[inst.rs2]; break;
          case Op::And: r[inst.rd] = r[inst.rs1] & r[inst.rs2]; break;
          case Op::Andi: r[inst.rd] = r[inst.rs1] & inst.imm; break;
          case Op::Or: r[inst.rd] = r[inst.rs1] | r[inst.rs2]; break;
          case Op::Xor: r[inst.rd] = r[inst.rs1] ^ r[inst.rs2]; break;
          case Op::Shli:
            r[inst.rd] = r[inst.rs1] << (inst.imm & 63);
            break;
          case Op::Shri:
            r[inst.rd] = r[inst.rs1] >> (inst.imm & 63);
            break;
          case Op::Mul:
            r[inst.rd] = r[inst.rs1] * r[inst.rs2];
            break;
          case Op::Div:
            r[inst.rd] = r[inst.rs2] ? r[inst.rs1] / r[inst.rs2]
                                     : ~std::uint64_t{0};
            break;
          case Op::Fmovi:
            f[inst.rd] = std::bit_cast<double>(
                static_cast<std::uint64_t>(inst.imm));
            break;
          case Op::Fmov: f[inst.rd] = f[inst.rs1]; break;
          case Op::Fadd:
            f[inst.rd] = f[inst.rs1] + f[inst.rs2];
            break;
          case Op::Fmul:
            f[inst.rd] = f[inst.rs1] * f[inst.rs2];
            break;
          case Op::Fdiv:
            f[inst.rd] = f[inst.rs1] / f[inst.rs2];
            break;
          case Op::Ld:
            r[inst.rd] = load(r[inst.rs1] + inst.imm, 8);
            break;
          case Op::Ld32:
            r[inst.rd] = load(r[inst.rs1] + inst.imm, 4);
            break;
          case Op::Ldf:
            f[inst.rd] = std::bit_cast<double>(
                load(r[inst.rs1] + inst.imm, 8));
            break;
          case Op::St:
            store(r[inst.rs1] + inst.imm, r[inst.rs2], 8);
            break;
          case Op::St32:
            store(r[inst.rs1] + inst.imm, r[inst.rs2] & 0xFFFFFFFF, 4);
            break;
          case Op::Stf:
            store(r[inst.rs1] + inst.imm,
                  std::bit_cast<std::uint64_t>(f[inst.rs2]), 8);
            break;
          default:
            break;
        }
    }
};

/** Append the straight-line instruction @p inst to @p b. */
void
emit(ProgramBuilder &b, const Instruction &inst)
{
    switch (inst.op) {
      case Op::Movi: b.movi(inst.rd, inst.imm); break;
      case Op::Mov: b.mov(inst.rd, inst.rs1); break;
      case Op::Add: b.add(inst.rd, inst.rs1, inst.rs2); break;
      case Op::Addi: b.addi(inst.rd, inst.rs1, inst.imm); break;
      case Op::Sub: b.sub(inst.rd, inst.rs1, inst.rs2); break;
      case Op::And: b.and_(inst.rd, inst.rs1, inst.rs2); break;
      case Op::Andi: b.andi(inst.rd, inst.rs1, inst.imm); break;
      case Op::Or: b.or_(inst.rd, inst.rs1, inst.rs2); break;
      case Op::Xor: b.xor_(inst.rd, inst.rs1, inst.rs2); break;
      case Op::Shli:
        b.shli(inst.rd, inst.rs1, static_cast<unsigned>(inst.imm));
        break;
      case Op::Shri:
        b.shri(inst.rd, inst.rs1, static_cast<unsigned>(inst.imm));
        break;
      case Op::Mul: b.mul(inst.rd, inst.rs1, inst.rs2); break;
      case Op::Div: b.div(inst.rd, inst.rs1, inst.rs2); break;
      case Op::Fmovi:
        b.fmovi(inst.rd,
                std::bit_cast<double>(
                    static_cast<std::uint64_t>(inst.imm)));
        break;
      case Op::Fmov: b.fmov(inst.rd, inst.rs1); break;
      case Op::Fadd: b.fadd(inst.rd, inst.rs1, inst.rs2); break;
      case Op::Fmul: b.fmul(inst.rd, inst.rs1, inst.rs2); break;
      case Op::Ld: b.ld(inst.rd, inst.rs1, inst.imm); break;
      case Op::Ld32: b.ld32(inst.rd, inst.rs1, inst.imm); break;
      case Op::Ldf: b.ldf(inst.rd, inst.rs1, inst.imm); break;
      case Op::St: b.st(inst.rs1, inst.imm, inst.rs2); break;
      case Op::St32: b.st32(inst.rs1, inst.imm, inst.rs2); break;
      case Op::Stf: b.stf(inst.rs1, inst.imm, inst.rs2); break;
      default: break;
    }
}

} // namespace

class GoldenModelTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(GoldenModelTest, RandomStraightLineProgramsMatch)
{
    Rng rng(GetParam() * 31337 + 17);
    CoreRig rig;
    const VAddr data = 0x40000;
    rig.mapRange(data, 2 * pageSize);

    GoldenModel golden;
    ProgramBuilder b;
    // Seed a base register so loads/stores stay in the mapped window.
    b.movi(31, static_cast<std::int64_t>(data));
    golden.intRegs[31] = data;

    const Op alu_ops[] = {Op::Movi, Op::Mov, Op::Add, Op::Addi,
                          Op::Sub, Op::And, Op::Andi, Op::Or,
                          Op::Xor, Op::Shli, Op::Shri, Op::Mul,
                          Op::Div, Op::Fmovi, Op::Fmov, Op::Fadd,
                          Op::Fmul, Op::Ld, Op::St, Op::Ld32,
                          Op::St32, Op::Ldf, Op::Stf};
    std::vector<Instruction> insts;
    for (int i = 0; i < 300; ++i) {
        Instruction inst;
        inst.op = alu_ops[rng.below(std::size(alu_ops))];
        inst.rd = static_cast<Reg>(rng.below(30));
        inst.rs1 = static_cast<Reg>(rng.below(30));
        inst.rs2 = static_cast<Reg>(rng.below(30));
        inst.imm = static_cast<std::int64_t>(rng.below(1000));
        if (isMem(inst.op)) {
            inst.rs1 = 31;  // base register
            inst.imm = static_cast<std::int64_t>(
                rng.below(pageSize) & ~7ull);
        }
        if (inst.op == Op::Fmovi)
            inst.imm = static_cast<std::int64_t>(
                std::bit_cast<std::uint64_t>(
                    1.0 + static_cast<double>(rng.below(100))));
        if (inst.op == Op::Shli || inst.op == Op::Shri)
            inst.imm = static_cast<std::int64_t>(rng.below(64));
        insts.push_back(inst);
        golden.exec(inst);
    }

    for (const Instruction &inst : insts)
        emit(b, inst);
    b.halt();

    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt(0, 5'000'000));

    for (unsigned reg = 0; reg < 30; ++reg) {
        EXPECT_EQ(rig.core.readIntReg(0, static_cast<Reg>(reg)),
                  golden.intRegs[reg])
            << "int reg " << reg << " seed " << GetParam();
        const double expect = golden.fpRegs[reg];
        const double got = rig.core.readFpReg(0, static_cast<Reg>(reg));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(expect))
            << "fp reg " << reg << " seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenModelTest,
                         ::testing::Range(0u, 12u));

// The store-queue slice of the oracle: every load and store lands at a
// 2-byte-granular offset inside one 64-byte window, so partial-width
// overlap between in-flight stores and loads is the common case.  Half
// the stores take their data from the latest mul or div, so both
// store-data paths run: known when the store executes, and read from
// the register file when it retires.

class StoreForwardGoldenTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(StoreForwardGoldenTest, OverlappingAccessesMatch)
{
    Rng rng(GetParam() * 7919 + 3);
    CoreRig rig;
    const VAddr window = 0x40000;
    rig.mapRange(window, pageSize);

    GoldenModel golden;
    ProgramBuilder b;
    b.movi(31, static_cast<std::int64_t>(window));
    golden.intRegs[31] = window;

    const Op ops[] = {Op::Movi, Op::Movi, Op::Addi, Op::Xor, Op::Mul,
                      Op::Div, Op::Ld, Op::Ld, Op::Ld32, Op::Ld32,
                      Op::St, Op::St, Op::St32, Op::St32};
    Reg slow = 0;  // destination of the latest mul or div
    for (int i = 0; i < 200; ++i) {
        Instruction inst;
        inst.op = ops[rng.below(std::size(ops))];
        // Eight registers keep dependences dense.
        inst.rd = static_cast<Reg>(rng.below(8));
        inst.rs1 = static_cast<Reg>(rng.below(8));
        inst.rs2 = static_cast<Reg>(rng.below(8));
        inst.imm = static_cast<std::int64_t>(rng.next());
        if (isMem(inst.op)) {
            const unsigned len =
                (inst.op == Op::Ld32 || inst.op == Op::St32) ? 4 : 8;
            inst.rs1 = 31;
            // Half the accesses share four aligned slots, so exact
            // matches are common too.
            inst.imm = static_cast<std::int64_t>(
                rng.below(2) ? 8 * rng.below(4)
                             : 2 * rng.below((64 - len) / 2 + 1));
            if (isStore(inst.op) && rng.below(2))
                inst.rs2 = slow;
        }
        if (inst.op == Op::Mul || inst.op == Op::Div)
            slow = inst.rd;
        emit(b, inst);
        golden.exec(inst);
        if (isLoad(inst.op)) {
            // Fold every loaded value into r8, so a wrong one shows
            // even after its register is overwritten.
            const Instruction fold{Op::Xor, 8, 8, inst.rd, 0, 0};
            emit(b, fold);
            golden.exec(fold);
        }
    }
    b.halt();

    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt(0, 5'000'000));

    for (unsigned reg = 0; reg <= 8; ++reg)
        EXPECT_EQ(rig.core.readIntReg(0, static_cast<Reg>(reg)),
                  golden.intRegs[reg])
            << "int reg " << reg << " seed " << GetParam();
    const PAddr pa = *rig.table.lookupPpn(window) << pageShift;
    for (unsigned offset = 0; offset < 64; offset += 8)
        EXPECT_EQ(rig.mem.read64(pa + offset),
                  golden.memory[window + offset])
            << "offset " << offset << " seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreForwardGoldenTest,
                         ::testing::Range(0u, 24u));

// ---------------------------------------------------------------------
// Scheduler edge cases: squash, wakeup, sequence-number reuse, ring
// wrap-around and TSX aborts with work in flight.  Each digest is
// Core::stateDigest() taken before the scheduler was rewritten onto a
// seq-indexed ring, a completion queue and operand wakeup.
// ---------------------------------------------------------------------

/** Fail with the actual value in hex, ready to paste as a literal. */
#define EXPECT_PINNED(actual, pinned)                                 \
    EXPECT_EQ((actual), (pinned)) << std::hex << "actual 0x" << (actual)

TEST(CoreSched, MispredictSquashesYoungerDueSameCycle)
{
    // The branch waits on a 3-cycle mul while the wrong path runs a
    // 1-cycle addi chain, so the branch resolves in the same cycle as
    // a younger addi: the squash must remove it before it completes.
    CoreRig rig;
    ProgramBuilder b;
    b.movi(1, 3).movi(2, 3).mul(3, 1, 2).movi(9, 9)
        .beq(3, 9, "taken");  // taken; a flushed predictor says not
    for (int i = 0; i < 8; ++i)
        b.addi(5, 5, 1);
    b.movi(6, 77)
        .label("taken")
        .add(7, 5, 3)
        .halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 5), 0u);
    EXPECT_EQ(rig.core.readIntReg(0, 6), 0u);
    EXPECT_EQ(rig.core.readIntReg(0, 7), 9u);
    EXPECT_EQ(rig.core.stats(0).mispredicts, 1u);
    EXPECT_PINNED(rig.core.stateDigest(), 0x13d02bcd3a087e98ull);
}

TEST(CoreSched, FaultedLoadConsumersNeverIssue)
{
    // §4.1.1: nothing that depends on the replay handle executes in
    // the window; independent work does, once per replay.
    CoreRig rig;
    rig.mapRange(0x10000, pageSize);
    rig.mapRange(0x30000, pageSize);
    rig.table.setPresent(0x10000, false);
    unsigned dependent = 0;
    unsigned independent = 0;
    rig.core.setMemProbe([&](unsigned, VAddr va, PAddr, bool is_store,
                             bool) {
        if (is_store)
            return;
        dependent += va == 0x30000;
        independent += va == 0x30040;
    });
    unsigned faults = 0;
    rig.core.setFaultHandler([&](const FaultInfo &) {
        if (++faults >= 3)
            rig.table.setPresent(0x10000, true);
        rig.mmu.invlpg(0x10000, 1);
    });
    ProgramBuilder b;
    b.movi(1, 0x10000)
        .movi(4, 0x30000)
        .ld(2, 1, 0)     // replay handle
        .add(3, 2, 4)    // consumer of the faulted load
        .ld(5, 3, 0)     // its consumer: a load from 0x30000
        .mul(8, 3, 3)
        .ld(6, 4, 64)    // independent
        .halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(faults, 3u);
    EXPECT_EQ(dependent, 1u);    // only after the release
    EXPECT_EQ(independent, 4u);  // three windows plus the final run
    EXPECT_EQ(rig.core.readIntReg(0, 3), 0x30000u);
    EXPECT_PINNED(rig.core.stateDigest(), 0x3014b716b4d7c1cdull);
}

TEST(CoreSched, SquashReusesSequenceNumbersWithRetiredProducer)
{
    // The mispredicted branch waits on a DRAM load; r1's producer has
    // retired long before.  The correct path re-dispatches into the
    // squashed wrong path's slots and must read r1 from the regfile.
    CoreRig rig;
    rig.mapRange(0x10000, pageSize);
    ProgramBuilder b;
    b.movi(1, 5)
        .movi(7, 0x10000)
        .movi(10, 0)
        .movi(11, 4)
        .label("loop")
        .ld(6, 7, 0)
        .beq(6, 0, "right")  // always taken
        .addi(2, 1, 100)     // wrong path
        .addi(2, 2, 100)
        .mul(8, 1, 1)
        .label("right")
        .add(3, 1, 1)
        .addi(4, 3, 1)
        .add(12, 12, 4)
        .addi(7, 7, 64)      // a fresh line: the next load misses
        .addi(10, 10, 1)
        .blt(10, 11, "loop")
        .halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 2), 0u);
    EXPECT_EQ(rig.core.readIntReg(0, 8), 0u);
    EXPECT_EQ(rig.core.readIntReg(0, 3), 10u);
    EXPECT_EQ(rig.core.readIntReg(0, 12), 44u);
    EXPECT_GT(rig.core.stats(0).mispredicts, 0u);
    EXPECT_GT(rig.core.stats(0).squashed, 0u);
    EXPECT_PINNED(rig.core.stateDigest(), 0xb25bd83d3e645f68ull);
}

TEST(CoreSched, RobFullWrapsAroundManyLaps)
{
    // A 24-cycle divide chain holds retirement while independent adds
    // fill the ROB; 1000 iterations push ~11k entries through it.
    CoreRig rig;
    ProgramBuilder b;
    b.movi(1, 0).movi(2, 1000).movi(4, 1000000).movi(5, 7)
        .label("loop")
        .div(4, 4, 5);
    for (int i = 0; i < 8; ++i)
        b.addi(3, 3, 1);
    b.addi(1, 1, 1)
        .blt(1, 2, "loop")
        .halt();
    rig.start(b.build());
    bool saw_full = false;
    for (int i = 0; i < 100000 && !rig.core.halted(0); ++i) {
        rig.core.tick();
        saw_full |= rig.core.robOccupancy(0) ==
                    rig.core.config().robPerContext;
    }
    ASSERT_TRUE(rig.core.halted(0));
    EXPECT_TRUE(saw_full);
    EXPECT_EQ(rig.core.readIntReg(0, 1), 1000u);
    EXPECT_EQ(rig.core.readIntReg(0, 3), 8000u);
    EXPECT_EQ(rig.core.readIntReg(0, 4), 0u);
    EXPECT_EQ(rig.core.stats(0).retired, 4u + 1000u * 11u + 1u);
    EXPECT_PINNED(rig.core.stateDigest(), 0xd4dba3572d26e4cdull);
}

TEST(CoreSched, TxAbortWithCompletionsInFlight)
{
    // The abort lands while divides and multiplies are executing; the
    // abort path re-dispatches into their sequence numbers and its own
    // divide must complete with its own value.
    CoreRig rig;
    rig.mapRange(0x10000, pageSize);
    const PAddr pa = *rig.table.lookupPpn(0x10000) << pageShift;
    ProgramBuilder b;
    b.movi(1, 0x10000)
        .movi(2, 42)
        .movi(5, 3)
        .movi(6, 1000)
        .txbegin("abort")
        .st(1, 0, 2)
        .movi(2, 99)
        .label("spin")
        .div(6, 6, 5)
        .mul(7, 7, 5)
        .addi(3, 3, 1)
        .jmp("spin")
        .label("abort")
        .movi(9, 1)
        .div(6, 5, 5)
        .mul(7, 6, 5)
        .halt();
    rig.start(b.build());
    rig.runUntil([&]() { return rig.core.inTransaction(0); },
                      100000);
    ASSERT_TRUE(rig.core.inTransaction(0));
    rig.runUntil([]() { return false; }, 203);
    ASSERT_TRUE(rig.core.abortTransaction(0));
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 9), 1u);
    EXPECT_EQ(rig.core.readIntReg(0, 2), 42u);
    EXPECT_EQ(rig.core.readIntReg(0, 6), 1u);
    EXPECT_EQ(rig.core.readIntReg(0, 7), 3u);
    EXPECT_EQ(rig.mem.read64(pa), 0u);
    EXPECT_EQ(rig.core.stats(0).txAborts, 1u);
    EXPECT_PINNED(rig.core.stateDigest(), 0xcf0b8a94556c47a6ull);
}

TEST(CoreSched, WaiterChainWakesAndSquashes)
{
    // Eight subscriptions to one divide, two of them from one
    // consumer, form one waiter chain.  A mispredict squashes the four
    // youngest consumers, and the right path re-dispatches three more
    // into their sequence numbers before the divide completes and
    // wakes every survivor exactly once.
    CoreRig rig;
    ProgramBuilder b;
    b.movi(1, 1000).movi(3, 3).movi(5, 7)
        .div(4, 1, 5)
        .add(10, 4, 4)       // subscribes twice
        .mul(6, 3, 3)
        .movi(9, 9)
        .beq(6, 9, "right")  // taken; a flushed predictor says not
        .addi(11, 4, 100)    // wrong path
        .addi(12, 4, 101)
        .addi(13, 4, 102)
        .addi(14, 4, 103)
        .label("right")
        .addi(15, 4, 3)
        .addi(16, 4, 4)
        .addi(17, 4, 5)
        .add(18, 15, 17)
        .halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.stats(0).mispredicts, 1u);
    EXPECT_EQ(rig.core.readIntReg(0, 10), 284u);
    for (Reg reg = 11; reg <= 14; ++reg)
        EXPECT_EQ(rig.core.readIntReg(0, reg), 0u) << "r" << int{reg};
    EXPECT_EQ(rig.core.readIntReg(0, 16), 146u);
    EXPECT_EQ(rig.core.readIntReg(0, 18), 292u);
    EXPECT_PINNED(rig.core.stateDigest(), 0xa44d1b04153e26f8ull);
}

namespace
{

os::MachineConfig
quietMachine()
{
    os::MachineConfig config;
    config.fault = fault::FaultPlan{};
    return config;
}

} // namespace

// ---------------------------------------------------------------------
// Store queue: each context's in-flight stores in seq order, which load
// ordering and store-to-load forwarding walk instead of the ROB.  The
// digests below were taken from the store-queue core and equal the
// ROB-scanning core's wherever the forwarding fix does not apply.
// ---------------------------------------------------------------------

TEST(CoreSched, YoungerPartialStoreBlocksExactForward)
{
    // Both stores' data is known when they execute (the movis run
    // ahead of the divide that holds retirement), so the load sees
    // both in flight.  The younger 4-byte store overwrites the low
    // half of the older 8-byte one: the load must merge, not forward
    // the older store whole.
    CoreRig rig;
    rig.mapRange(0x10000, pageSize);
    ProgramBuilder b;
    b.movi(1, 0x10000)
        .movi(2, 0x1122334455667788)
        .movi(3, 0xAABBCCDD)
        .movi(11, 7)
        .div(10, 11, 11)
        .st(1, 0, 2)
        .st32(1, 0, 3)
        .ld(4, 1, 0)
        .halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 4), 0x11223344AABBCCDDull);
    EXPECT_EQ(rig.mem.read64(*rig.table.lookupPpn(0x10000) << pageShift),
              0x11223344AABBCCDDull);
    EXPECT_PINNED(rig.core.stateDigest(), 0x706470ce06ac4d5eull);
}

TEST(CoreSched, MispredictSquashesQueuedStores)
{
    // The wrong path queues two stores (and executes them: their base
    // is ready) before the branch resolves; the right path
    // re-dispatches into their sequence numbers with stores of its
    // own.  Loads must see none of the squashed stores.
    CoreRig rig;
    rig.mapRange(0x10000, pageSize);
    const PAddr pa = *rig.table.lookupPpn(0x10000) << pageShift;
    ProgramBuilder b;
    b.movi(1, 0x10000).movi(2, 111).movi(3, 3).movi(9, 9)
        .mul(4, 3, 3)
        .beq(4, 9, "right")  // taken; a flushed predictor says not
        .st(1, 0, 2)         // wrong path
        .st32(1, 20, 2)
        .movi(2, 5)
        .label("right")
        .movi(5, 222)
        .st(1, 16, 5)
        .ld(6, 1, 0)
        .ld(7, 1, 16)
        .ld32(8, 1, 16)
        .halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.stats(0).mispredicts, 1u);
    EXPECT_EQ(rig.core.readIntReg(0, 2), 111u);
    EXPECT_EQ(rig.core.readIntReg(0, 6), 0u);
    EXPECT_EQ(rig.core.readIntReg(0, 7), 222u);
    EXPECT_EQ(rig.core.readIntReg(0, 8), 222u);
    EXPECT_EQ(rig.mem.read64(pa), 0u);
    EXPECT_EQ(rig.mem.read64(pa + 16), 222u);
    EXPECT_PINNED(rig.core.stateDigest(), 0x3ff4fa21183bc44cull);
}

TEST(CoreSched, StoreFaultAtRobHead)
{
    // The store to a non-present page faults when it reaches the ROB
    // head while a younger store and loads sit queued behind it; the
    // handler maps the page on the second fault and the replay
    // commits both stores in order.
    CoreRig rig;
    rig.mapRange(0x10000, pageSize);
    rig.mapRange(0x30000, pageSize);
    rig.table.setPresent(0x10000, false);
    unsigned faults = 0;
    bool store_fault = true;
    rig.core.setFaultHandler([&](const FaultInfo &info) {
        store_fault &= info.isStore && info.va == 0x10008;
        if (++faults >= 2)
            rig.table.setPresent(0x10000, true);
        rig.mmu.invlpg(0x10000, 1);
    });
    ProgramBuilder b;
    b.movi(1, 0x10000).movi(2, 42).movi(3, 43).movi(4, 0x30000)
        .st(1, 8, 2)    // faults at the head
        .st(4, 0, 3)
        .ld(5, 4, 0)    // forwards from the younger store
        .ld(6, 1, 8)    // same page as the faulting store
        .add(7, 5, 6)
        .halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(faults, 2u);
    EXPECT_TRUE(store_fault);
    EXPECT_EQ(rig.core.readIntReg(0, 5), 43u);
    EXPECT_EQ(rig.core.readIntReg(0, 6), 42u);
    EXPECT_EQ(rig.core.readIntReg(0, 7), 85u);
    EXPECT_EQ(rig.mem.read64(*rig.table.lookupPpn(0x10000) << pageShift |
                             8),
              42u);
    EXPECT_EQ(rig.mem.read64(*rig.table.lookupPpn(0x30000) << pageShift),
              43u);
    EXPECT_PINNED(rig.core.stateDigest(), 0x9f0b9d06e01daaa0ull);
}

TEST(CoreSched, StoreQueueWrapsAroundManyLaps)
{
    // A divide chain holds retirement while every iteration queues two
    // stores and a load that forwards from the first: 1000 iterations
    // push 2000 stores through a 128-slot queue ring.
    CoreRig rig;
    rig.mapRange(0x10000, pageSize);
    const PAddr pa = *rig.table.lookupPpn(0x10000) << pageShift;
    ProgramBuilder b;
    b.movi(1, 0).movi(2, 1000).movi(4, 1000000).movi(5, 7)
        .movi(6, 0x10000)
        .label("loop")
        .div(4, 4, 5)
        .addi(3, 3, 1)
        .st(6, 0, 3)
        .addi(3, 3, 1)
        .st32(6, 8, 3)
        .ld(7, 6, 0)
        .add(8, 8, 7)
        .addi(1, 1, 1)
        .blt(1, 2, "loop")
        .halt();
    rig.start(b.build());
    bool saw_full = false;
    for (int i = 0; i < 200000 && !rig.core.halted(0); ++i) {
        rig.core.tick();
        saw_full |= rig.core.robOccupancy(0) ==
                    rig.core.config().robPerContext;
    }
    ASSERT_TRUE(rig.core.halted(0));
    EXPECT_TRUE(saw_full);
    EXPECT_EQ(rig.core.readIntReg(0, 3), 2000u);
    EXPECT_EQ(rig.core.readIntReg(0, 8), 1000000u);  // sum of 2i + 1
    EXPECT_EQ(rig.mem.read64(pa), 1999u);
    EXPECT_EQ(rig.mem.read64(pa + 8), 2000u);
    EXPECT_EQ(rig.core.stats(0).retired, 5u + 1000u * 9u + 1u);
    EXPECT_PINNED(rig.core.stateDigest(), 0xf4463e9944ed67d4ull);
}

TEST(CoreSched, CopyStateWithStoresQueued)
{
    // Snapshot a whole machine (Core::copyStateFrom) while a divide
    // holds retirement behind a window of queued stores and forwarding
    // loads; the source and the copy must then run to Halt alike.
    os::Machine source(quietMachine());
    auto &kernel = source.kernel();
    const os::Pid pid = kernel.createProcess("p");
    const VAddr data = kernel.allocVirtual(pid, pageSize);
    ProgramBuilder b;
    b.movi(1, static_cast<std::int64_t>(data))
        .movi(2, 0x1122334455667788)
        .movi(3, 0xAABBCCDD)
        .movi(11, 1000)
        .movi(12, 7)
        .div(10, 11, 12)
        .st(1, 0, 2)
        .st32(1, 4, 3)
        .st(1, 8, 10)    // data resolves at retirement
        .ld(4, 1, 0)     // byte-merges both
        .ld32(5, 1, 4)   // forwards the 4-byte store
        .ld(6, 1, 8)     // waits for the divide
        .add(7, 4, 6)
        .halt();
    kernel.startOnContext(pid, 0,
                          std::make_shared<const Program>(b.build()));
    source.run(12);
    // Everything from the divide on is in flight.
    ASSERT_EQ(source.core().robOccupancy(0), 9u);

    os::Machine copy(source.config());
    copy.restoreFrom(source.snapshot());
    ASSERT_TRUE(source.runUntilHalted(0, 100000));
    ASSERT_TRUE(copy.runUntilHalted(0, 100000));
    EXPECT_EQ(source.core().readIntReg(0, 4), 0xAABBCCDD55667788ull);
    EXPECT_EQ(source.core().readIntReg(0, 5), 0xAABBCCDDull);
    EXPECT_EQ(source.core().readIntReg(0, 6), 142u);
    EXPECT_EQ(copy.core().stateDigest(), source.core().stateDigest());
    std::uint64_t copied[2] = {};
    std::uint64_t original[2] = {};
    ASSERT_TRUE(
        copy.kernel().readVirtual(pid, data, copied, sizeof copied));
    ASSERT_TRUE(
        kernel.readVirtual(pid, data, original, sizeof original));
    EXPECT_EQ(copied[0], original[0]);
    EXPECT_EQ(copied[1], original[1]);
    EXPECT_PINNED(copy.core().stateDigest(), 0x9ec59e0516792075ull);
}

// ---------------------------------------------------------------------
// Golden pins: Core::stateDigest() (cycle, per-context CtxStats and
// registers, port issue counts) at the end of each src/attack scenario
// the registry goldens do not reach, and of three core-level programs.
// The literals were taken before the scheduler rewrite; every machine
// runs an explicit empty FaultPlan so USCOPE_FAULT_PLAN cannot move
// them.
// ---------------------------------------------------------------------

TEST(CoreGolden, SingleSecret)
{
    attack::SingleSecretConfig config;
    config.replays = 10;
    config.monitorSamples = 1200;
    config.machine = quietMachine();
    const auto result = attack::runSingleSecretAttack(config);
    EXPECT_TRUE(result.victimCompleted);
    EXPECT_PINNED(result.replaysDone, 0x5ull);
    EXPECT_PINNED(result.slowSamples, 0x5ull);
    EXPECT_PINNED(result.coreDigest, 0xc36db3e599495ea5ull);
}

TEST(CoreGolden, LoopSecret)
{
    attack::LoopSecretConfig config;
    config.machine = quietMachine();
    const auto result = attack::runLoopSecretAttack(config);
    EXPECT_TRUE(result.victimCompleted);
    EXPECT_PINNED(result.totalReplays, 0x10ull);
    EXPECT_PINNED(result.coreDigest, 0xfc94304b1763a159ull);
}

TEST(CoreGolden, ControlFlow)
{
    attack::ControlFlowConfig config;
    config.replays = 6;
    config.primeTaken = true;  // the secret branch is not taken
    config.machine = quietMachine();
    const auto result = attack::runControlFlowAttack(config);
    EXPECT_TRUE(result.victimCompleted);
    EXPECT_TRUE(result.bothPathsObserved);
    EXPECT_PINNED(result.victimMispredicts, 0x2ull);
    EXPECT_PINNED(result.coreDigest, 0x43aa1fa43740d79bull);
}

TEST(CoreGolden, MispredictReplay)
{
    attack::MispredictReplayConfig config;
    config.machine = quietMachine();
    const auto result = attack::runMispredictReplay(config);
    EXPECT_TRUE(result.victimCompleted);
    EXPECT_PINNED(result.transmitExecutions, 0x5ull);
    EXPECT_PINNED(result.coreDigest, 0x434c0c79fc6afe8dull);
}

TEST(CoreGolden, TsxReplay)
{
    attack::TsxReplayConfig replay;
    replay.aborts = 4;
    replay.machine = quietMachine();
    const auto result = attack::runTsxSecretReplay(replay);
    EXPECT_TRUE(result.victimCompleted);
    EXPECT_PINNED(result.txAborts, 0x4ull);
    EXPECT_PINNED(result.coreDigest, 0x5f1de2676a2540bcull);

    attack::TsxBiasConfig bias;
    bias.desiredBit = 0;
    bias.machine = quietMachine();
    const auto biased = attack::runTsxRdrandBias(bias);
    EXPECT_TRUE(biased.victimCompleted);
    EXPECT_PINNED(biased.abortsIssued, 0x3ull);
    EXPECT_PINNED(biased.coreDigest, 0xd2057fcc436254c1ull);
}

TEST(CoreGolden, RdrandBias)
{
    const std::uint64_t pins[2] = {0x9dbb47abf6ec56afull,
                                   0x74ea754f4b603a32ull};
    for (bool serializing : {false, true}) {
        attack::RdrandConfig config;
        config.serializingRdrand = serializing;
        config.replays = 8;
        config.machine = quietMachine();
        const auto result = attack::runRdrandObservation(config);
        EXPECT_TRUE(result.victimCompleted);
        EXPECT_EQ(result.observations, serializing ? 0u : 8u);
        EXPECT_PINNED(result.coreDigest, pins[serializing]);
    }
}

TEST(CoreGolden, PortContention)
{
    // The divider's latency shows only in what the SMT monitor times:
    // pin its sample latencies and the run's length, so a change to
    // the divider (CoreConfig::divLatency) cannot pass unseen.
    attack::PortContentionConfig config;
    config.samples = 300;
    config.replays = 8;
    config.machine = quietMachine();
    const auto result = attack::runPortContentionAttack(config);
    EXPECT_TRUE(result.victimCompleted);
    EXPECT_TRUE(result.monitorCompleted);
    EXPECT_EQ(result.samples.size(), 300u);
    std::uint64_t digest = kFnv1aBasis;
    for (const Cycles latency : result.samples)
        digest = fnv1aMix(digest, latency);
    digest = fnv1aMix(digest, result.totalCycles);
    EXPECT_PINNED(digest, 0xa63e4caf96f86917ull);
}

TEST(CoreGolden, IntegerDividerContention)
{
    // The same channel on the integer divider, at the core: context 0
    // times bursts of two divides while context 1 keeps dividing.  The
    // attacks and figures divide in floating point only, so this pin
    // is the one that sees CoreConfig::divLatency.
    CoreRig rig;
    ProgramBuilder monitor;
    monitor.movi(1, 1000)
        .movi(2, 7)
        .movi(5, 20)
        .movi(9, 0)
        .movi(20, 0)
        .label("burst")
        .fence()
        .rdtsc(10)
        .div(3, 1, 2)
        .div(4, 1, 2)
        .fence()
        .rdtsc(11)
        .sub(12, 11, 10)
        .add(20, 20, 12)
        .addi(5, 5, -1)
        .bne(5, 9, "burst")
        .halt();
    ProgramBuilder sibling;
    sibling.movi(1, 999)
        .movi(2, 3)
        .movi(5, 40)
        .movi(9, 0)
        .label("divide")
        .div(3, 1, 2)
        .addi(5, 5, -1)
        .bne(5, 9, "divide")
        .halt();
    rig.start(monitor.build(), 0);
    rig.start(sibling.build(), 1);
    ASSERT_TRUE(rig.runUntil(
        [&]() { return rig.core.halted(0) && rig.core.halted(1); },
        1'000'000));
    EXPECT_PINNED(rig.core.stateDigest(), 0xa80af18b6b8263a7ull);
}

TEST(CoreGolden, FenceOnPipelineFlush)
{
    attack::SingleSecretConfig config;
    config.replays = 10;
    config.monitorSamples = 1200;
    config.machine = quietMachine();
    config.machine.core.fenceOnPipelineFlush = true;
    const auto result = attack::runSingleSecretAttack(config);
    EXPECT_TRUE(result.victimCompleted);
    EXPECT_PINNED(result.coreDigest, 0xc65f2da32243364full);
}

TEST(CoreGolden, PreemptMidWindow)
{
    // A replay window of loads and long-latency arithmetic, preempted
    // 20 cycles after the second fault resumes it.
    CoreRig rig;
    rig.mapRange(0x10000, pageSize);
    rig.mapRange(0x30000, pageSize);
    rig.table.setPresent(0x10000, false);
    unsigned faults = 0;
    rig.core.setFaultHandler([&](const FaultInfo &) {
        if (++faults >= 4)
            rig.table.setPresent(0x10000, true);
        rig.mmu.invlpg(0x10000, 1);
    });
    ProgramBuilder b;
    b.movi(1, 0x10000).movi(4, 0x30000).movi(5, 7).movi(6, 1000)
        .ld(2, 1, 0)
        .div(6, 6, 5)
        .ld(7, 4, 128)
        .mul(8, 6, 5)
        .st(4, 256, 8)
        .ld(9, 4, 256)
        .add(10, 9, 7)
        .halt();
    rig.start(b.build());
    rig.runUntil([&]() { return faults == 2; }, 1'000'000);
    ASSERT_EQ(faults, 2u);
    rig.runUntil([]() { return false; }, 20);
    rig.core.preemptContext(0, 300);
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(faults, 4u);
    EXPECT_EQ(rig.core.readIntReg(0, 10), 142u * 7u);
    EXPECT_PINNED(rig.core.stateDigest(), 0x144ef6a759892936ull);
}

TEST(CoreGolden, PartialOverlapForwarding)
{
    // A divide holds retirement so every load below byte-merges the
    // still-buffered stores ahead of it.
    CoreRig rig;
    rig.mapRange(0x10000, pageSize);
    ProgramBuilder b;
    b.movi(11, 7)
        .div(10, 11, 11)
        .movi(1, 0x10000)
        .movi(2, 0x1122334455667788)
        .st(1, 0, 2)
        .movi(3, 0xAABBCCDD)
        .st32(1, 2, 3)
        .ld(4, 1, 0)
        .ld32(5, 1, 4)
        .st32(1, 8, 3)
        .ld(6, 1, 6)
        .ld32(7, 1, 8)
        .halt();
    rig.start(b.build());
    ASSERT_TRUE(rig.runToHalt());
    EXPECT_EQ(rig.core.readIntReg(0, 4), 0x1122AABBCCDD7788ull);
    EXPECT_EQ(rig.core.readIntReg(0, 5), 0x1122AABBull);
    EXPECT_EQ(rig.core.readIntReg(0, 6), 0x0000AABBCCDD1122ull);
    EXPECT_EQ(rig.core.readIntReg(0, 7), 0xAABBCCDDull);
    EXPECT_PINNED(rig.core.stateDigest(), 0x916c45b0f47a732bull);
}
