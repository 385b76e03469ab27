/**
 * @file
 * Execution-port model.
 *
 * Both SMT contexts issue micro-ops to one shared set of ports each
 * cycle, Intel-style: port 0 hosts the *unpipelined* divider (one
 * div/fdiv occupies it for the op's full latency), port 1 the
 * pipelined multiplier, ports 2/3 load AGUs, port 4 the store unit,
 * and ports 5/6 simple ALU (6 also takes branches).  Contention on
 * port 0 is the PortSmash-style channel the paper's main attack
 * denoises (§4.3): a victim fdiv makes a co-resident Monitor's fdiv
 * wait, which the Monitor sees as extra latency.
 */

#ifndef USCOPE_CPU_PORTS_HH
#define USCOPE_CPU_PORTS_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "cpu/isa.hh"

namespace uscope::cpu
{

constexpr unsigned numPorts = 7;

/** Symbolic port numbers. */
enum PortId : unsigned
{
    portDiv = 0,
    portMul = 1,
    portLoad0 = 2,
    portLoad1 = 3,
    portStore = 4,
    portAlu0 = 5,
    portAlu1 = 6,  ///< Also executes branches.
};

/** Up to two candidate ports for an op ("none" = 0xFF). */
struct PortChoices
{
    std::uint8_t first = 0xFF;
    std::uint8_t second = 0xFF;
};

/** Which port(s) can execute @p op. */
PortChoices portsFor(Op op);

/** True for ops that monopolize their port for the full latency. */
bool unpipelined(Op op);

/** Shared-port occupancy tracker. */
class PortState
{
  public:
    PortState();

    // Inline: the core's hot loop calls these on every cycle and every
    // issue attempt (DESIGN.md §18).

    /** Start a new cycle: clear the per-cycle issue flags. */
    void newCycle() { usedThisCycle_.fill(false); }

    /** Can a micro-op issue to @p port at @p now? */
    bool
    canIssue(unsigned port, Cycles now) const
    {
        return !usedThisCycle_[port] && busyUntil_[port] <= now;
    }

    /**
     * Occupy @p port: pipelined ops block it for this cycle only,
     * unpipelined ops until @p now + @p duration.
     */
    void
    occupy(unsigned port, Cycles now, Cycles duration, bool unpipelined_op)
    {
        usedThisCycle_[port] = true;
        ++issues_[port];
        if (unpipelined_op)
            busyUntil_[port] = now + duration;
    }

    /** Cycle the unpipelined unit on @p port frees up. */
    Cycles busyUntil(unsigned port) const { return busyUntil_[port]; }

    /** Lifetime issue count per port (stats). */
    std::uint64_t issues(unsigned port) const { return issues_[port]; }

  private:
    std::array<Cycles, numPorts> busyUntil_;
    std::array<bool, numPorts> usedThisCycle_;
    std::array<std::uint64_t, numPorts> issues_;
};

} // namespace uscope::cpu

#endif // USCOPE_CPU_PORTS_HH
