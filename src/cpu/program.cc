#include "cpu/program.hh"

#include <bit>

#include "common/logging.hh"

namespace uscope::cpu
{

Program::Program()
    : decoded_(std::make_shared<const DecodedStream>(
          std::vector<Instruction>{}))
{
}

Program::Program(std::vector<Instruction> insts,
                 std::unordered_map<std::string, std::uint32_t> labels)
    : labels_(std::move(labels)),
      decoded_(std::make_shared<const DecodedStream>(insts))
{
}

std::uint32_t
Program::label(const std::string &name) const
{
    auto it = labels_.find(name);
    if (it == labels_.end())
        fatal("Program: unknown label '%s'", name.c_str());
    return it->second;
}

std::string
Program::disassemble() const
{
    std::string out;
    for (std::size_t i = 0; i < size(); ++i) {
        for (const auto &[name, idx] : labels_)
            if (idx == i)
                out += format("%s:\n", name.c_str());
        out += format("  %4zu: %s\n", i, at(i).toString().c_str());
    }
    return out;
}

ProgramBuilder &
ProgramBuilder::emit(Instruction inst)
{
    insts_.push_back(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::emitBranch(Op op, Reg rs1, Reg rs2,
                           const std::string &target)
{
    fixups_.push_back(
        {static_cast<std::uint32_t>(insts_.size()), target});
    return emit({op, 0, rs1, rs2, 0, 0});
}

ProgramBuilder &
ProgramBuilder::label(const std::string &name)
{
    if (labels_.count(name))
        fatal("ProgramBuilder: duplicate label '%s'", name.c_str());
    labels_[name] = static_cast<std::uint32_t>(insts_.size());
    return *this;
}

ProgramBuilder &
ProgramBuilder::nop()
{
    return emit({Op::Nop, 0, 0, 0, 0, 0});
}

ProgramBuilder &
ProgramBuilder::movi(Reg rd, std::int64_t imm)
{
    return emit({Op::Movi, rd, 0, 0, imm, 0});
}

ProgramBuilder &
ProgramBuilder::mov(Reg rd, Reg rs1)
{
    return emit({Op::Mov, rd, rs1, 0, 0, 0});
}

ProgramBuilder &
ProgramBuilder::add(Reg rd, Reg rs1, Reg rs2)
{
    return emit({Op::Add, rd, rs1, rs2, 0, 0});
}

ProgramBuilder &
ProgramBuilder::addi(Reg rd, Reg rs1, std::int64_t imm)
{
    return emit({Op::Addi, rd, rs1, 0, imm, 0});
}

ProgramBuilder &
ProgramBuilder::sub(Reg rd, Reg rs1, Reg rs2)
{
    return emit({Op::Sub, rd, rs1, rs2, 0, 0});
}

ProgramBuilder &
ProgramBuilder::and_(Reg rd, Reg rs1, Reg rs2)
{
    return emit({Op::And, rd, rs1, rs2, 0, 0});
}

ProgramBuilder &
ProgramBuilder::andi(Reg rd, Reg rs1, std::int64_t imm)
{
    return emit({Op::Andi, rd, rs1, 0, imm, 0});
}

ProgramBuilder &
ProgramBuilder::or_(Reg rd, Reg rs1, Reg rs2)
{
    return emit({Op::Or, rd, rs1, rs2, 0, 0});
}

ProgramBuilder &
ProgramBuilder::xor_(Reg rd, Reg rs1, Reg rs2)
{
    return emit({Op::Xor, rd, rs1, rs2, 0, 0});
}

ProgramBuilder &
ProgramBuilder::shli(Reg rd, Reg rs1, unsigned amount)
{
    return emit({Op::Shli, rd, rs1, 0,
                 static_cast<std::int64_t>(amount), 0});
}

ProgramBuilder &
ProgramBuilder::shri(Reg rd, Reg rs1, unsigned amount)
{
    return emit({Op::Shri, rd, rs1, 0,
                 static_cast<std::int64_t>(amount), 0});
}

ProgramBuilder &
ProgramBuilder::mul(Reg rd, Reg rs1, Reg rs2)
{
    return emit({Op::Mul, rd, rs1, rs2, 0, 0});
}

ProgramBuilder &
ProgramBuilder::div(Reg rd, Reg rs1, Reg rs2)
{
    return emit({Op::Div, rd, rs1, rs2, 0, 0});
}

ProgramBuilder &
ProgramBuilder::fmovi(Reg fd, double value)
{
    return emit({Op::Fmovi, fd, 0, 0,
                 static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(
                     value)),
                 0});
}

ProgramBuilder &
ProgramBuilder::fmov(Reg fd, Reg fs1)
{
    return emit({Op::Fmov, fd, fs1, 0, 0, 0});
}

ProgramBuilder &
ProgramBuilder::fadd(Reg fd, Reg fs1, Reg fs2)
{
    return emit({Op::Fadd, fd, fs1, fs2, 0, 0});
}

ProgramBuilder &
ProgramBuilder::fmul(Reg fd, Reg fs1, Reg fs2)
{
    return emit({Op::Fmul, fd, fs1, fs2, 0, 0});
}

ProgramBuilder &
ProgramBuilder::fdiv(Reg fd, Reg fs1, Reg fs2)
{
    return emit({Op::Fdiv, fd, fs1, fs2, 0, 0});
}

ProgramBuilder &
ProgramBuilder::ld(Reg rd, Reg base, std::int64_t disp)
{
    return emit({Op::Ld, rd, base, 0, disp, 0});
}

ProgramBuilder &
ProgramBuilder::ld32(Reg rd, Reg base, std::int64_t disp)
{
    return emit({Op::Ld32, rd, base, 0, disp, 0});
}

ProgramBuilder &
ProgramBuilder::ldf(Reg fd, Reg base, std::int64_t disp)
{
    return emit({Op::Ldf, fd, base, 0, disp, 0});
}

ProgramBuilder &
ProgramBuilder::st(Reg base, std::int64_t disp, Reg rs2)
{
    return emit({Op::St, 0, base, rs2, disp, 0});
}

ProgramBuilder &
ProgramBuilder::st32(Reg base, std::int64_t disp, Reg rs2)
{
    return emit({Op::St32, 0, base, rs2, disp, 0});
}

ProgramBuilder &
ProgramBuilder::stf(Reg base, std::int64_t disp, Reg fs2)
{
    return emit({Op::Stf, 0, base, fs2, disp, 0});
}

ProgramBuilder &
ProgramBuilder::jmp(const std::string &target)
{
    return emitBranch(Op::Jmp, 0, 0, target);
}

ProgramBuilder &
ProgramBuilder::beq(Reg rs1, Reg rs2, const std::string &target)
{
    return emitBranch(Op::Beq, rs1, rs2, target);
}

ProgramBuilder &
ProgramBuilder::bne(Reg rs1, Reg rs2, const std::string &target)
{
    return emitBranch(Op::Bne, rs1, rs2, target);
}

ProgramBuilder &
ProgramBuilder::blt(Reg rs1, Reg rs2, const std::string &target)
{
    return emitBranch(Op::Blt, rs1, rs2, target);
}

ProgramBuilder &
ProgramBuilder::bge(Reg rs1, Reg rs2, const std::string &target)
{
    return emitBranch(Op::Bge, rs1, rs2, target);
}

ProgramBuilder &
ProgramBuilder::rdtsc(Reg rd)
{
    return emit({Op::Rdtsc, rd, 0, 0, 0, 0});
}

ProgramBuilder &
ProgramBuilder::rdrand(Reg rd)
{
    return emit({Op::Rdrand, rd, 0, 0, 0, 0});
}

ProgramBuilder &
ProgramBuilder::fence()
{
    return emit({Op::Fence, 0, 0, 0, 0, 0});
}

ProgramBuilder &
ProgramBuilder::txbegin(const std::string &abort_target)
{
    return emitBranch(Op::Txbegin, 0, 0, abort_target);
}

ProgramBuilder &
ProgramBuilder::txend()
{
    return emit({Op::Txend, 0, 0, 0, 0, 0});
}

ProgramBuilder &
ProgramBuilder::halt()
{
    return emit({Op::Halt, 0, 0, 0, 0, 0});
}

std::uint32_t
ProgramBuilder::here() const
{
    return static_cast<std::uint32_t>(insts_.size());
}

Program
ProgramBuilder::build()
{
    for (const Fixup &fixup : fixups_) {
        auto it = labels_.find(fixup.target);
        if (it == labels_.end())
            fatal("ProgramBuilder: undefined label '%s'",
                  fixup.target.c_str());
        insts_[fixup.index].target = it->second;
    }
    return Program(std::move(insts_), std::move(labels_));
}

} // namespace uscope::cpu
