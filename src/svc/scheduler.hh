/**
 * @file
 * The campaign service's scheduling policy (DESIGN.md §13, §16): a
 * state machine with no sockets, no processes and no clock of its
 * own.  The daemon (`svc/daemon.*`) drives it: it turns connections,
 * frames and reaped children into Events and carries out the Actions
 * each one returns, so every failure path runs in a unit test on a
 * fake clock (`SvcScheduler.*`).
 *
 * Lifecycle of a submission:
 *
 *   client  --submit{request}-->  daemon
 *   daemon: buildSpec, (stateDir? attach checkpoint dir, preload
 *           completed trials), cut trials into shards
 *   daemon  --shard{lo,hi,request,checkpoint_dir}-->  idle workers
 *   worker  --trial{index,data}-->  daemon   (deduped, in results[])
 *   daemon  --update{partial aggregate}-->  client  (every N trials)
 *   idle worker?  steal: split the fattest live shard; victim gets
 *           --shrink{hi}-->, thief gets the upper half as a new shard
 *   worker death (hangup, exit, or heartbeat timeout while busy):
 *           its shards return to the pending pool and a respawned
 *           worker resumes them — bit-identically, via the checkpoint
 *           when one is attached, by deterministic re-execution
 *           otherwise
 *   all trials done: aggregateTrials in index order, fingerprint via
 *           exp::deterministicFingerprint,
 *           --result{fingerprint,result}-->  client
 *
 * Durability: with a stateDir, a campaign's checkpoint directory is
 * keyed by its request identity (CampaignRequest::identityKey), and a
 * pending manifest under <stateDir>/pending/ records it until it
 * completes, fails or is cancelled.  A restarted daemon hands each
 * manifest back as an event and the campaign resumes ownerless; its
 * client can {"type":"attach"} by identity.  The checkpoint preload
 * at accept is the one file access the scheduler makes itself.
 *
 * Failure handling (cancel, respawn, the warn -> kill -> TimedOut
 * ladder, drain) is DESIGN.md §16, with the test for each path.
 */

#ifndef USCOPE_SVC_SCHEDULER_HH
#define USCOPE_SVC_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hh"
#include "svc/daemon.hh"

namespace uscope::svc
{

/** One thing the driver must do.  `target` is a client's session
 *  key, a worker slot id or a campaign id, as the kind says. */
struct Action
{
    enum class Kind
    {
        ToClient,       ///< send `frame` to client session `target`
        ToWorker,       ///< send `frame` to worker `target`
        Spawn,          ///< start a process for worker slot `target`
        Kill,           ///< SIGKILL worker `target`, drop its link
        WriteManifest,  ///< write `frame` to `path` atomically
        RemoveManifest, ///< delete `path`
        Stop,           ///< leave the loop
    };
    Kind kind = Kind::Stop;
    std::uint64_t target = 0;
    json::Value frame;
    std::string path;
};

/** One thing the driver saw happen, at `now` (seconds on its
 *  monotonic clock).  `source` is a client's session key or a worker
 *  slot id, as the kind says. */
struct Event
{
    enum class Kind
    {
        ClientFrame,     ///< `frame` from client `source`
        ClientGone,      ///< client `source` hung up
        WorkerHello,     ///< worker `source` connected
        WorkerFrame,     ///< `frame` from worker `source`
        WorkerExited,    ///< worker `source`'s process was reaped
        WorkerLost,      ///< worker `source`'s connection dropped; its
                         ///< process may still run
        Tick,            ///< time passed
        Drain,           ///< SIGTERM: the drain {"type":"drain"} starts
        BadFrames,       ///< `source` frames the driver could not parse
        PendingManifest, ///< at startup: the manifest `frame` (null
                         ///< when unreadable) left at `path`
    };
    Kind kind = Kind::Tick;
    double now = 0.0;
    std::uint64_t source = 0;
    const json::Value *frame = nullptr;
    std::string_view path;
};

class Scheduler
{
  public:
    using Actions = std::vector<Action>;

    explicit Scheduler(DaemonConfig config);
    ~Scheduler();

    /** Take one event; the returned list holds its actions, in
     *  order, and stays valid until the next event. */
    const Actions &on(const Event &event);

    /** The driver's answer to a Spawn: the process id, or -1 when the
     *  process could not be started (counted as a death).  No actions
     *  follow, so it may be called while carrying out a list. */
    void spawned(double now, int worker, long pid);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace uscope::svc

#endif // USCOPE_SVC_SCHEDULER_HH
