#include "cpu/decode.hh"

#include <atomic>

namespace uscope::cpu
{

DecodedInst
decodeOp(Op op)
{
    DecodedInst d;
    d.inst.op = op;
    std::uint32_t f = 0;
    if (isLoad(op))
        f |= DecodedInst::kLoad;
    if (isStore(op))
        f |= DecodedInst::kStore;
    if (isBranch(op))
        f |= DecodedInst::kBranch;
    if (isCondBranch(op))
        f |= DecodedInst::kCondBranch;
    if (writesInt(op))
        f |= DecodedInst::kWritesInt;
    if (writesFp(op))
        f |= DecodedInst::kWritesFp;
    if (readsSrc1(op))
        f |= DecodedInst::kReadsSrc1;
    if (readsSrc2(op))
        f |= DecodedInst::kReadsSrc2;
    if (readsFp1(op))
        f |= DecodedInst::kReadsFp1;
    if (readsFp2(op))
        f |= DecodedInst::kReadsFp2;
    if (unpipelined(op))
        f |= DecodedInst::kUnpipelined;
    if (op == Op::Mul || op == Op::Div || op == Op::Fmul ||
        op == Op::Fdiv)
        f |= DecodedInst::kJitterable;
    if (op == Op::Fence)
        f |= DecodedInst::kFence;
    if (op == Op::Rdrand)
        f |= DecodedInst::kRdrand;
    if (op == Op::Halt)
        f |= DecodedInst::kHalt;
    if (op == Op::Jmp)
        f |= DecodedInst::kJmp;
    d.flags = f;
    d.ports = portsFor(op);
    return d;
}

namespace
{

std::uint64_t
nextStreamId()
{
    // Relaxed is enough: ids only need uniqueness, not ordering.
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

DecodedStream::DecodedStream(const std::vector<Instruction> &insts)
    : haltDec_(decodeOp(Op::Halt)), id_(nextStreamId())
{
    decoded_.reserve(insts.size());
    for (const Instruction &inst : insts) {
        decoded_.push_back(decodeOp(inst.op));
        decoded_.back().inst = inst;
    }
}

} // namespace uscope::cpu
