/**
 * @file
 * The Monitor process of Figure 7: a loop that repeatedly executes a
 * floating-point divide on the SMT sibling of the Victim, timing each
 * burst with RDTSC and storing the latencies into a buffer.
 *
 * When the Victim's replayed window contains divides, the shared
 * (unpipelined) divider port delays the Monitor's divides and the
 * sample exceeds the contention threshold; with multiplies it does
 * not.  This is the sensor for the paper's main result (Figure 10).
 */

#ifndef USCOPE_ATTACK_MONITOR_HH
#define USCOPE_ATTACK_MONITOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "cpu/program.hh"
#include "os/kernel.hh"

namespace uscope::attack
{

/** A Monitor process image. */
struct MonitorImage
{
    os::Pid pid = 0;
    std::shared_ptr<const cpu::Program> program;
    VAddr buffer = 0;      ///< Latency samples, 8 bytes each.
    unsigned samples = 0;  ///< Number of measurements (buff).
    unsigned cont = 0;     ///< Divides per measurement (cont).
};

/**
 * Build the Figure-7 port-contention Monitor.
 *
 * @param samples Number of latency measurements (paper: 10,000).
 * @param cont    unit_div_contention() calls per measurement.
 */
MonitorImage buildDivContentionMonitor(os::Kernel &kernel,
                                       unsigned samples, unsigned cont);

/**
 * Simulated cycles to let a Monitor of @p samples measurements of
 * @p cont divides run before giving up on it.  One sample costs on the
 * order of cont * divLatency cycles; the budget is generous beyond
 * that.
 */
constexpr Cycles
monitorRunBudget(unsigned samples, unsigned cont)
{
    return Cycles{samples} * (cont * 100 + 2000) + 1'000'000;
}

/** Read the Monitor's latency buffer after (or during) the run. */
std::vector<Cycles> readMonitorSamples(os::Kernel &kernel,
                                       const MonitorImage &monitor);

} // namespace uscope::attack

#endif // USCOPE_ATTACK_MONITOR_HH
