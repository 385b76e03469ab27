#include "cpu/ports.hh"

namespace uscope::cpu
{

PortChoices
portsFor(Op op)
{
    switch (op) {
      case Op::Div:
      case Op::Fdiv:
        return {portDiv, 0xFF};
      case Op::Mul:
      case Op::Fmul:
        return {portMul, 0xFF};
      case Op::Ld:
      case Op::Ld32:
      case Op::Ldf:
        return {portLoad0, portLoad1};
      case Op::St:
      case Op::St32:
      case Op::Stf:
        return {portStore, 0xFF};
      case Op::Jmp:
      case Op::Beq:
      case Op::Bne:
      case Op::Blt:
      case Op::Bge:
        return {portAlu1, 0xFF};
      case Op::Rdtsc:
      case Op::Rdrand:
      case Op::Fence:
      case Op::Txbegin:
      case Op::Txend:
      case Op::Halt:
      case Op::Nop:
        return {portAlu0, portAlu1};
      default:
        // Integer/FP ALU ops.
        return {portAlu0, portAlu1};
    }
}

bool
unpipelined(Op op)
{
    return op == Op::Div || op == Op::Fdiv;
}

PortState::PortState()
{
    busyUntil_.fill(0);
    usedThisCycle_.fill(false);
    issues_.fill(0);
}

} // namespace uscope::cpu
