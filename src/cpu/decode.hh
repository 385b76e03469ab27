/**
 * @file
 * Memoized decode: the shared, immutable DecodedStream.
 *
 * The per-cycle fetch path used to re-derive every instruction
 * property (operand classes, port choices, barrier-ness) through
 * predicate switches on each dispatch, wakeup, issue, and retire.
 * Decode is pure per (program, pc), so it is evaluated once when a
 * Program is built and memoized as a DecodedInst table the core
 * indexes by pc.  The stream is refcounted through the owning
 * Program's shared_ptr: COW-forked machines, restored replay windows,
 * and every SMT context running the same victim all read one decode
 * table — one fetch/decode evaluation drives N speculative windows
 * (DESIGN.md §17).
 *
 * DecodedStream is deeply immutable after construction; sharing it
 * across Machine forks (same thread or not) is safe because nothing
 * ever writes to it again.
 */

#ifndef USCOPE_CPU_DECODE_HH
#define USCOPE_CPU_DECODE_HH

#include <cstdint>
#include <vector>

#include "cpu/isa.hh"
#include "cpu/ports.hh"

namespace uscope::cpu
{

/** One instruction's memoized decode: the instruction itself, its
 *  flags and port choices, so dispatch reads one table. */
struct DecodedInst
{
    enum Flag : std::uint32_t
    {
        kLoad = 1u << 0,
        kStore = 1u << 1,
        kBranch = 1u << 2,       ///< Conditional branches and Jmp.
        kCondBranch = 1u << 3,
        kWritesInt = 1u << 4,
        kWritesFp = 1u << 5,
        kReadsSrc1 = 1u << 6,
        kReadsSrc2 = 1u << 7,
        kReadsFp1 = 1u << 8,
        kReadsFp2 = 1u << 9,
        kUnpipelined = 1u << 10,
        kJitterable = 1u << 11,  ///< Mul/Div/Fmul/Fdiv (issue jitter).
        kFence = 1u << 12,
        kRdrand = 1u << 13,
        kHalt = 1u << 14,
        kJmp = 1u << 15,
    };

    Instruction inst;
    std::uint32_t flags = 0;
    PortChoices ports;

    bool isLoad() const { return flags & kLoad; }
    bool isStore() const { return flags & kStore; }
    bool isMem() const { return flags & (kLoad | kStore); }
    bool isBranch() const { return flags & kBranch; }
    bool isCondBranch() const { return flags & kCondBranch; }
    bool writesInt() const { return flags & kWritesInt; }
    bool writesFp() const { return flags & kWritesFp; }
    bool readsSrc1() const { return flags & kReadsSrc1; }
    bool readsSrc2() const { return flags & kReadsSrc2; }
    bool readsFp1() const { return flags & kReadsFp1; }
    bool readsFp2() const { return flags & kReadsFp2; }
    bool unpipelined() const { return flags & kUnpipelined; }
    bool jitterable() const { return flags & kJitterable; }
    bool isHalt() const { return flags & kHalt; }
    bool isJmp() const { return flags & kJmp; }

    /** Fence always serializes; Rdrand only on serializing cores. */
    bool isBarrier(bool rdrand_serializing) const
    {
        return (flags & kFence) ||
               (rdrand_serializing && (flags & kRdrand));
    }
};

/** Decode @p op alone (the memoization's single source of truth);
 *  the result's instruction carries only the opcode. */
DecodedInst decodeOp(Op op);

/**
 * The whole program's decode table, pc-indexed, with a decoded Halt
 * sentinel beyond the end.  Program keeps its instructions only here.
 */
class DecodedStream
{
  public:
    explicit DecodedStream(const std::vector<Instruction> &insts);

    /** Decoded instruction at @p pc; decoded Halt beyond the end. */
    const DecodedInst &at(std::uint64_t pc) const
    {
        return pc < decoded_.size() ? decoded_[pc] : haltDec_;
    }

    std::size_t size() const { return decoded_.size(); }

    /** Process-unique stream id (decode memoization key). */
    std::uint64_t id() const { return id_; }

  private:
    std::vector<DecodedInst> decoded_;
    DecodedInst haltDec_;
    std::uint64_t id_ = 0;
};

} // namespace uscope::cpu

#endif // USCOPE_CPU_DECODE_HH
