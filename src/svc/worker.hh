/**
 * @file
 * The campaign service's worker process (DESIGN.md §13).
 *
 * A worker is the same binary as its daemon, re-executed with the
 * `--uscope-worker` argv marker: the daemon forks and execs
 * /proc/self/exe, so *any* binary that links the service — the
 * daemon, the test runner, a bench — can serve as its own worker pool
 * with no separate executable to ship or version-match.  Embedders
 * call maybeRunWorkerMain() first thing in main(); it is a no-op
 * unless the marker is present.
 *
 * The loop: connect to the daemon's socket, say hello, then serve
 * shard messages until told to shut down.  One TrialExecutor lives
 * for the whole process — that is the point of process-per-worker
 * with persistent executors: pooled Machines and post-warmup
 * snapshots stay hot across campaigns (keyed by the specs'
 * structureKey), which is where the service's cross-campaign
 * throughput comes from.  Shards execute through exp::runShardRange
 * with the control socket polled between trials (the currentHi hook),
 * so steal-shrinks and shutdowns take effect at the next trial
 * boundary; heartbeats flow on the same cadence plus on idle-poll
 * timeouts, so the daemon can tell "busy on a long trial" from
 * "dead".
 *
 * `--die-after-trials=N` is the deterministic crash hook the
 * kill/steal/resume suites are built on: the worker raises SIGKILL
 * against itself immediately after emitting its Nth trial — no
 * destructors, no flushes, exactly like a real kill -9.
 */

#ifndef USCOPE_SVC_WORKER_HH
#define USCOPE_SVC_WORKER_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace uscope::exp
{
struct TrialResult;
}

namespace uscope::svc
{

/** The argv[1] marker a worker re-exec is recognized by. */
inline constexpr const char *kWorkerArg = "--uscope-worker";

struct WorkerOptions
{
    std::string socketPath;
    int id = 0;
    /** Self-SIGKILL after emitting this many trials; 0 = never. */
    std::size_t dieAfterTrials = 0;
    /** Heartbeat cadence in milliseconds. */
    int heartbeatMs = 200;
};

/**
 * Append the framed bytes of worker @p worker's `trial` message for
 * @p result to @p out: {"type":"trial","id","campaign","shard",
 * "index","restored","data"}, "data" holding the trial's checkpoint
 * record.  Written in one pass, with no json::Value tree, and byte
 * for byte encodeFrame() of that tree's dump(), which is what the
 * daemon parses (DESIGN.md §13).
 */
void appendTrialFrame(std::string &out, int worker, std::uint64_t campaign,
                      std::uint64_t shard, const exp::TrialResult &result,
                      bool restored);

/** The worker event loop; returns the process exit code. */
int runWorkerMain(const WorkerOptions &options);

/**
 * When @p argv carries kWorkerArg, parse worker flags, run the worker
 * loop, store its exit code in @p exit_code, and return true.
 * Otherwise return false and touch nothing — the embedding main()
 * proceeds as usual.
 */
bool maybeRunWorkerMain(int argc, char **argv, int *exit_code);

} // namespace uscope::svc

#endif // USCOPE_SVC_WORKER_HH
