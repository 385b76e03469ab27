/**
 * @file
 * Service-tier chaos injection (DESIGN.md §16) — the daemon-level
 * sibling of PR 4's fault::FaultPlan.  Where FaultPlan perturbs the
 * *simulated* microarchitecture (the noise MicroScope's replay
 * averaging defeats), ChaosPlan perturbs the *service* around it:
 * frames torn mid-write, heartbeats dropped or delayed, client
 * sockets that stall.  The contract under all of it is unchanged —
 * campaign fingerprints stay byte-identical to a calm run, because
 * every chaos site sits strictly on the transport layer, never in a
 * trial body.
 *
 * Injection is seed-deterministic per (site, role): each hook draws
 * from its own xoshiro stream seeded from one fixed seed, the site tag
 * and the process role, so a given plan replays the same misbehavior
 * schedule run over run.
 *
 * Activation mirrors fault::FaultPlan: the environment variable
 * USCOPE_SVC_CHAOS ("chaos" for the preset, else inert) is read once
 * per process; worker re-execs inherit it, so one exported variable
 * shakes the whole tree.  Tests inject plans directly with
 * setChaosPlan().
 */

#ifndef USCOPE_SVC_CHAOS_HH
#define USCOPE_SVC_CHAOS_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace uscope::svc
{

/** Pause between the two halves of a torn write, microseconds. */
constexpr int kChaosTearDelayUs = 1000;

struct ChaosPlan
{
    /** Probability a frame write is torn into two kernel writes with
     *  a pause between them (exercises FrameSplitter reassembly). */
    double tornFrameRate = 0.0;

    /** Probability a worker heartbeat tick is silently skipped. */
    double heartbeatDropRate = 0.0;
    /** Probability a heartbeat is sent 30 ms late. */
    double heartbeatDelayRate = 0.0;

    /** Probability svc::Client stalls 10 ms before reading —
     *  back-pressure against the daemon's outbound buffers. */
    double clientStallRate = 0.0;

    bool enabled() const;

    /** The standing preset behind USCOPE_SVC_CHAOS=chaos: torn
     *  frames, dropped/late heartbeats and client stalls at rates the
     *  full test suite absorbs without timing out.  Nothing in it
     *  kills or stops a process. */
    static ChaosPlan chaos();

    /** Parse an USCOPE_SVC_CHAOS value: "chaos" is the preset; "off"
     *  and "" are inert, and any other value warns and is inert. */
    static ChaosPlan parse(const std::string &value);

    /** parse(getenv("USCOPE_SVC_CHAOS")), cached on first use. */
    static ChaosPlan environmentDefault();
};

/** Process-wide plan override (tests).  Resets every site stream. */
void setChaosPlan(const ChaosPlan &plan);

/** Decorrelate this process's chaos streams from its siblings'
 *  (workers pass their id; the daemon uses its own tag).  Resets
 *  site streams; call before the first draw. */
void seedChaosRole(std::uint64_t role);

// ---------------------------------------------------------------------
// Site hooks.  Each returns the inert value in one branch-predictable
// check when the active plan is disabled.
// ---------------------------------------------------------------------

/** Where to tear a @p frame_bytes-long write, or nullopt to send it
 *  whole.  Tear points land strictly inside the frame. */
std::optional<std::size_t> chaosTearPoint(std::size_t frame_bytes);

/** True when this heartbeat tick should be skipped. */
bool chaosDropHeartbeat();

/** Milliseconds to delay this heartbeat; 0 = send on time. */
int chaosHeartbeatDelayMs();

/** Milliseconds the client should stall before reading; 0 = none. */
int chaosClientStallMs();

} // namespace uscope::svc

#endif // USCOPE_SVC_CHAOS_HH
