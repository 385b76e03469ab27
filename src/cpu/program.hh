/**
 * @file
 * Programs for the mini-ISA and an assembler-style builder.
 *
 * A Program is an immutable instruction vector; the PC is an index
 * into it.  (Instruction bytes are not modelled in memory — the attack
 * surface in the paper is the data side: D-TLB, data caches, execution
 * ports.)  ProgramBuilder provides mnemonic emitters with forward
 * label references, so victim listings read like the paper's assembly.
 */

#ifndef USCOPE_CPU_PROGRAM_HH
#define USCOPE_CPU_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cpu/decode.hh"
#include "cpu/isa.hh"

namespace uscope::cpu
{

/** An immutable instruction sequence with named labels. */
class Program
{
  public:
    Program();
    Program(std::vector<Instruction> insts,
            std::unordered_map<std::string, std::uint32_t> labels);

    bool empty() const { return size() == 0; }
    std::size_t size() const { return decoded_->size(); }

    /** Instruction at @p pc; Halt beyond the end. */
    const Instruction &at(std::uint64_t pc) const
    {
        return decoded_->at(pc).inst;
    }

    /**
     * The memoized decode table (DESIGN.md §17), which also holds the
     * instructions.  Built eagerly in every constructor and shared by
     * copies of the Program, so all
     * contexts, forks, and replay siblings running this program index
     * one immutable stream.  Never null.
     */
    const DecodedStream &decoded() const { return *decoded_; }

    /** Index of a named label; fatal if unknown. */
    std::uint32_t label(const std::string &name) const;

    /** Multi-line listing for debugging. */
    std::string disassemble() const;

  private:
    std::unordered_map<std::string, std::uint32_t> labels_;
    std::shared_ptr<const DecodedStream> decoded_;
};

/** Fluent assembler for Program. */
class ProgramBuilder
{
  public:
    /** Define a label at the current position. */
    ProgramBuilder &label(const std::string &name);

    ProgramBuilder &nop();
    ProgramBuilder &movi(Reg rd, std::int64_t imm);
    ProgramBuilder &mov(Reg rd, Reg rs1);
    ProgramBuilder &add(Reg rd, Reg rs1, Reg rs2);
    ProgramBuilder &addi(Reg rd, Reg rs1, std::int64_t imm);
    ProgramBuilder &sub(Reg rd, Reg rs1, Reg rs2);
    ProgramBuilder &and_(Reg rd, Reg rs1, Reg rs2);
    ProgramBuilder &andi(Reg rd, Reg rs1, std::int64_t imm);
    ProgramBuilder &or_(Reg rd, Reg rs1, Reg rs2);
    ProgramBuilder &xor_(Reg rd, Reg rs1, Reg rs2);
    ProgramBuilder &shli(Reg rd, Reg rs1, unsigned amount);
    ProgramBuilder &shri(Reg rd, Reg rs1, unsigned amount);
    ProgramBuilder &mul(Reg rd, Reg rs1, Reg rs2);
    ProgramBuilder &div(Reg rd, Reg rs1, Reg rs2);

    ProgramBuilder &fmovi(Reg fd, double value);
    ProgramBuilder &fmov(Reg fd, Reg fs1);
    ProgramBuilder &fadd(Reg fd, Reg fs1, Reg fs2);
    ProgramBuilder &fmul(Reg fd, Reg fs1, Reg fs2);
    ProgramBuilder &fdiv(Reg fd, Reg fs1, Reg fs2);

    ProgramBuilder &ld(Reg rd, Reg base, std::int64_t disp = 0);
    ProgramBuilder &ld32(Reg rd, Reg base, std::int64_t disp = 0);
    ProgramBuilder &ldf(Reg fd, Reg base, std::int64_t disp = 0);
    ProgramBuilder &st(Reg base, std::int64_t disp, Reg rs2);
    ProgramBuilder &st32(Reg base, std::int64_t disp, Reg rs2);
    ProgramBuilder &stf(Reg base, std::int64_t disp, Reg fs2);

    ProgramBuilder &jmp(const std::string &target);
    ProgramBuilder &beq(Reg rs1, Reg rs2, const std::string &target);
    ProgramBuilder &bne(Reg rs1, Reg rs2, const std::string &target);
    ProgramBuilder &blt(Reg rs1, Reg rs2, const std::string &target);
    ProgramBuilder &bge(Reg rs1, Reg rs2, const std::string &target);

    ProgramBuilder &rdtsc(Reg rd);
    ProgramBuilder &rdrand(Reg rd);
    ProgramBuilder &fence();
    ProgramBuilder &txbegin(const std::string &abort_target);
    ProgramBuilder &txend();
    ProgramBuilder &halt();

    /** Index the next emitted instruction will occupy. */
    std::uint32_t here() const;

    /** Resolve labels and produce the program; fatal on undefined. */
    Program build();

  private:
    ProgramBuilder &emit(Instruction inst);
    ProgramBuilder &emitBranch(Op op, Reg rs1, Reg rs2,
                               const std::string &target);

    struct Fixup
    {
        std::uint32_t index;
        std::string target;
    };

    std::vector<Instruction> insts_;
    std::unordered_map<std::string, std::uint32_t> labels_;
    std::vector<Fixup> fixups_;
};

} // namespace uscope::cpu

#endif // USCOPE_CPU_PROGRAM_HH
