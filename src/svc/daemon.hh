/**
 * @file
 * uscope-campaignd: the sharded campaign service daemon (DESIGN.md
 * §13).  Every policy decision lives in svc::Scheduler
 * (`svc/scheduler.hh`, which also tells a submission's lifecycle);
 * the daemon is its I/O driver.  One single-threaded poll() loop owns
 * the listening AF_UNIX socket, every connection and every worker
 * *process* (fork + exec of the daemon's own binary with the
 * --uscope-worker marker), so a crashing trial — or a kill -9 — costs
 * one worker, never the daemon.
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
