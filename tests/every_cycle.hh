/**
 * @file
 * The every-cycle reference for event-driven fast-forward (DESIGN.md
 * §10), shared by the bit-identity suites.
 *
 * os::Machine always fast-forwards: its run loop jumps the clock over
 * cycles nextEventCycle() proves inert.  A test that holds it to its
 * contract runs twin machines through a Runner — kMachineLoop, the
 * machine's own run/runUntil/runUntilHalted, and kEveryCycle, which
 * checks the predicate and calls Machine::tick() once per cycle — and
 * requires the twins to end bit-identical.
 */

#ifndef USCOPE_TESTS_EVERY_CYCLE_HH
#define USCOPE_TESTS_EVERY_CYCLE_HH

#include <functional>

#include "common/types.hh"
#include "os/machine.hh"

namespace uscope::test
{

/**
 * Tick @p m until @p pred() holds or @p max_cycles pass; true if the
 * predicate held.  The limit saturates at kNoEventCycle, as the
 * machine's does.
 */
inline bool
tickUntil(os::Machine &m, const std::function<bool()> &pred,
          Cycles max_cycles)
{
    const Cycles limit = max_cycles > kNoEventCycle - m.cycle()
                             ? kNoEventCycle
                             : m.cycle() + max_cycles;
    while (m.cycle() < limit) {
        if (pred())
            return true;
        m.tick();
    }
    return pred();
}

/** How a test advances a machine: Machine's own loop or tickUntil. */
struct Runner
{
    bool everyCycle = false;

    void
    run(os::Machine &m, Cycles n) const
    {
        if (everyCycle)
            tickUntil(m, [] { return false; }, n);
        else
            m.run(n);
    }

    bool
    runUntil(os::Machine &m, const std::function<bool()> &pred,
             Cycles max_cycles) const
    {
        return everyCycle ? tickUntil(m, pred, max_cycles)
                          : m.runUntil(pred, max_cycles);
    }

    bool
    runUntilHalted(os::Machine &m, unsigned ctx, Cycles max_cycles) const
    {
        if (everyCycle) {
            return tickUntil(
                m, [&m, ctx] { return m.core().halted(ctx); },
                max_cycles);
        }
        return m.runUntilHalted(ctx, max_cycles);
    }
};

/** The production path: Machine::run/runUntil/runUntilHalted. */
inline constexpr Runner kMachineLoop{false};
/** The reference path: one Machine::tick() per cycle. */
inline constexpr Runner kEveryCycle{true};

} // namespace uscope::test

#endif // USCOPE_TESTS_EVERY_CYCLE_HH
