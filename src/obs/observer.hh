/**
 * @file
 * The per-Machine observability hub.
 *
 * A Machine owns one Observer; components (hierarchy, MMU/walker,
 * core, kernel) hold a raw `Observer *` wired by the Machine at
 * construction (null when the component is used standalone, e.g. in
 * unit tests).  The Observer owns the event ring; metrics are not
 * held here — they are exported on demand into a caller-provided
 * MetricRegistry (Machine::exportMetrics), keeping hot paths free of
 * metric bookkeeping entirely.
 *
 * Ownership rule (thread safety): an Observer is part of its Machine
 * and is touched only by the thread simulating that Machine, so all
 * of its state is lock-free.  Campaign workers each own a private
 * Machine + Observer; aggregation crosses threads only via immutable
 * MetricSnapshot / EventLog values.
 */

#ifndef USCOPE_OBS_OBSERVER_HH
#define USCOPE_OBS_OBSERVER_HH

#include <cstddef>

#include "obs/event_trace.hh"
#include "obs/metrics.hh"

namespace uscope::obs
{

/** Observability knobs carried in MachineConfig. */
struct ObsConfig
{
    /** Record events into the ring (off: record() is one branch). */
    bool traceEvents = false;
    /** Ring slots (rounded up to a power of two). */
    std::size_t traceCapacity = std::size_t{1} << 16;

    /** Structural equality (snapshot/pool compatibility checks). */
    bool operator==(const ObsConfig &) const = default;
};

/** The hub itself. */
class Observer
{
  public:
    Observer() = default;

    explicit Observer(const ObsConfig &config)
    {
        configure(config);
    }

    void
    configure(const ObsConfig &config)
    {
        // An untraced machine never touches the ring: leave it
        // unallocated rather than zero-fill traceCapacity slots.
        if (config.traceEvents && config.traceCapacity)
            trace.reserve(config.traceCapacity);
        trace.setEnabled(config.traceEvents);
    }

    EventTrace trace;
};

/** Hot-path gate: tracing is on and a hub is wired. */
inline bool
tracing(const Observer *obs)
{
    return obs && obs->trace.enabled();
}

} // namespace uscope::obs

#endif // USCOPE_OBS_OBSERVER_HH
