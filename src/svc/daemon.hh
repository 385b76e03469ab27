/**
 * @file
 * uscope-campaignd: the sharded campaign service daemon
 * (DESIGN.md §13).
 *
 * One single-threaded poll() loop owns everything: the listening
 * AF_UNIX socket, every worker and client connection, the shard
 * schedulers, and the in-index-order result tables.  Workers are
 * *processes* (fork + exec of the daemon's own binary with the
 * --uscope-worker marker), so a crashing trial — or a kill -9 — costs
 * one worker, never the daemon; trials execute only in children.
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
 *   worker death (hangup, SIGCHLD, or heartbeat timeout while busy):
 *           its shards return to the pending pool and a respawned
 *           worker resumes them — bit-identically, via the checkpoint
 *           when one is attached, by deterministic re-execution
 *           otherwise
 *   all trials done: aggregateTrials in index order, fingerprint via
 *           exp::deterministicFingerprint,
 *           --result{fingerprint,result}-->  client
 *
 * Durability: with a stateDir, each campaign's checkpoint directory
 * is keyed by the *request identity* (recipe, params, seeds —
 * CampaignRequest::identityKey), so resubmitting the same
 * request after a daemon restart resumes from persisted trials
 * instead of starting over.  Accepted campaigns additionally persist
 * a pending manifest under <stateDir>/pending/; a restarted daemon
 * scans it and resumes every interrupted campaign on its own, so a
 * SIGKILLed daemon loses no work and a reconnecting client can
 * {"type":"attach"} to the auto-resumed campaign by request identity.
 *
 * Failure handling (DESIGN.md §16): campaigns can be cancelled
 * ({"type":"cancel"}, partial aggregate returned, checkpoint kept);
 * dead workers respawn after a fixed kRespawnDelaySec; a busy worker
 * silent past trialWarnSec warns, past heartbeatTimeoutSec is
 * SIGKILLed, and a trial that keeps killing workers is recorded
 * TimedOut; SIGTERM (or a {"type":"drain"} message) drains in-flight
 * shards to a trial boundary, persists manifests and exits cleanly.
 */

#ifndef USCOPE_SVC_DAEMON_HH
#define USCOPE_SVC_DAEMON_HH

#include <cstddef>
#include <memory>
#include <string>

namespace uscope::svc
{

/** Delay before a dead worker slot respawns.  Fixed, so a slot whose
 *  worker dies at exec forks at most ~4 times a second. */
inline constexpr double kRespawnDelaySec = 0.25;

/** How long a drain waits for in-flight shards to reach a trial
 *  boundary before exiting anyway. */
inline constexpr double kDrainGraceSec = 10.0;

struct DaemonConfig
{
    /** AF_UNIX listening path (required; beware sun_path's ~107-byte
     *  limit). */
    std::string socketPath;
    /** Worker process count. */
    unsigned workers = 2;
    /** Worker executable; empty = /proc/self/exe (the usual case:
     *  workers are re-execs of this very binary). */
    std::string workerExe;
    /** Durable campaign state root; empty = no checkpointing. */
    std::string stateDir;
    /** Worker heartbeat cadence in milliseconds, forwarded to every
     *  spawned worker as --heartbeat-ms=. */
    int heartbeatMs = 200;
    /** A *busy* worker silent this long is presumed wedged and
     *  SIGKILLed; idle workers are never timed out. */
    double heartbeatTimeoutSec = 30.0;
    /** A busy worker silent this long earns one warning: the first
     *  rung of the warn -> kill -> TimedOut ladder. */
    double trialWarnSec = 10.0;
    /** After this many SIGKILLs of workers stuck on the *same* trial,
     *  that trial is recorded TimedOut instead of retried again. */
    unsigned trialKillLimit = 3;
    /** Default update cadence (trials between stream frames) when a
     *  submit does not specify one; 0 = no periodic updates. */
    std::size_t streamEvery = 0;
    /** Test hook: worker 0's *first* incarnation self-SIGKILLs after
     *  emitting this many trials (0 = off).  Respawns are normal. */
    std::size_t worker0DieAfter = 0;
};

class Daemon
{
  public:
    explicit Daemon(DaemonConfig config);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Serve until a client sends shutdown.  Returns the exit code. */
    int run();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace uscope::svc

#endif // USCOPE_SVC_DAEMON_HH
