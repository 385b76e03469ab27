/**
 * @file
 * The replay-campaign runner.
 *
 * Every figure in the paper is a *campaign*: hundreds of independent
 * replay episodes swept over seeds, key bytes, page-walk plans, and
 * defenses.  Each trial builds its own simulated Machine, runs one
 * attack, and reports a handful of numbers — embarrassingly parallel
 * work that the benches used to grind through serially.
 *
 * runCampaign shards a flat trial grid across a fixed-size std::thread
 * pool:
 *
 *  - **Isolation.** Each trial constructs its own os::Machine from its
 *    own MachineConfig; workers share no mutable simulator state.
 *  - **Determinism.** Trial i draws every random value from a stream
 *    seeded with deriveTrialSeed(masterSeed, i), and per-trial results
 *    are aggregated *in trial-index order* after the pool joins, so a
 *    campaign's aggregate is bit-identical regardless of the worker
 *    count or the order trials happened to finish in.
 *  - **Robustness.** A trial that throws is recorded as Failed (with
 *    the exception text) and a trial that exceeds its cycle budget is
 *    recorded as TimedOut — both are *results*, not crashes; the
 *    campaign keeps going.
 *
 * Results export to JSON through exp::JsonFileSink (result_sink.hh).
 */

#ifndef USCOPE_EXP_CAMPAIGN_HH
#define USCOPE_EXP_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/microscope.hh"
#include "obs/event.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "os/machine.hh"

namespace uscope::exp
{

/**
 * Deterministic per-trial seed: a SplitMix64-style mix of the master
 * seed and the flat trial index.  Distinct trials get decorrelated
 * streams; the same (master, index) pair always gets the same stream,
 * independent of thread count and scheduling.
 */
std::uint64_t deriveTrialSeed(std::uint64_t master, std::uint64_t index);

/**
 * Deterministic seed for retry attempt @p attempt of trial @p index.
 * Attempt 0 is the first run and equals deriveTrialSeed(master, index);
 * later attempts mix the attempt number in, so a retry draws a fresh,
 * decorrelated stream instead of deterministically replaying the
 * failure — while remaining reproducible across reruns and resumes.
 */
std::uint64_t deriveRetrySeed(std::uint64_t master, std::uint64_t index,
                              unsigned attempt);

/**
 * Deterministic seed for a campaign's warmup prefix (DESIGN.md §12).
 * Depends only on the master seed — the warmup is shared by every
 * trial, so it must not favour any trial's stream — and is mixed away
 * from deriveTrialSeed/deriveRetrySeed values.
 */
std::uint64_t deriveWarmupSeed(std::uint64_t master);

/**
 * Deterministic seed for differential-replay iteration @p iteration
 * of a trial seeded @p trial_seed (DESIGN.md §15).  Each COW re-entry
 * of an episode reseeds the fork with one of these, so every replay
 * iteration draws an independent noise realization while the whole
 * set stays a pure function of (masterSeed, trial index, iteration).
 */
std::uint64_t deriveReplaySeed(std::uint64_t trial_seed,
                               std::uint64_t iteration);

/** Everything a trial body gets handed about its grid point. */
struct TrialContext
{
    /** Flat index into the campaign's trial grid. */
    std::size_t index = 0;
    /** deriveTrialSeed(masterSeed, index). */
    std::uint64_t seed = 0;
    /**
     * Machine configuration for this trial: the default config with
     * `seed` stamped to the trial seed (and tracing on at
     * ObsLevel::Trace).  The body constructs `os::Machine machine
     * (ctx.machine)` — one private machine per trial.
     */
    os::MachineConfig machine;

    /**
     * Runner-provided machine, non-null when the spec declared a
     * warmup (DESIGN.md §12).  Already reseeded with `seed`: a fork of
     * the per-worker post-warmup snapshot, or a freshly constructed
     * and re-warmed machine when prefixCache is off — bit-identical
     * either way.  Bodies must use it instead of constructing their
     * own machine, and must not destroy it; it may be a pooled
     * instance owned by the runner.
     */
    os::Machine *fork = nullptr;

    /**
     * Artifact returned by the spec's warmup (nullptr without one):
     * the handles a warmup mints — pids, victim layouts, program
     * images — valid in `fork` exactly because forks share the
     * warmed-up state.  Bodies cast it back to the concrete type the
     * warmup returned.
     */
    const void *warmupData = nullptr;

    /**
     * fork->cycle() at hand-off (0 without a runner-provided machine).
     * Bodies report TrialOutput::simCycles relative to this, so the
     * shared warmup's cycles are not charged to any trial's budget.
     */
    Cycles forkCycle = 0;
};

/** What one trial hands back to the runner. */
struct TrialOutput
{
    /** Trial-specific metrics, exported verbatim under "payload". */
    json::Value payload;
    /** Samples of the campaign's primary metric (merged via
     *  Summary::merge into the aggregate). */
    Summary metric;
    /** Simulated cycles this trial consumed (drives throughput
     *  reporting and budget enforcement). */
    Cycles simCycles = 0;
    /** MicroScope module counters (merged into the aggregate). */
    ms::MicroscopeStats scope;
    /** Component metrics (Machine::metricsSnapshot() + extras);
     *  merged into the aggregate in trial-index order. */
    obs::MetricSnapshot metrics;
    /**
     * This trial's drained event trace, populated when the spec's
     * obsLevel >= Trace: by the executor (runner-provided machines
     * are drained automatically after the body) or by the body itself
     * for self-built machines.  Never fingerprinted — traces describe
     * the run, they are not results — and never checkpointed; the
     * durable form is the per-trial spill file (obs::TraceSpill).
     */
    obs::EventLog trace;
};

/**
 * Retried means the trial *succeeded*, but only after one or more
 * failed attempts — kept distinct from Ok so noisy-campaign reports
 * can't silently launder flaky trials into clean ones.
 */
enum class TrialStatus { Ok, Failed, TimedOut, Retried };

const char *trialStatusName(TrialStatus status);

/** One completed (or failed) trial. */
struct TrialResult
{
    std::size_t index = 0;
    /** Seed of the attempt that produced `output`: the trial seed for
     *  attempts == 1, deriveRetrySeed(master, index, attempts - 1)
     *  after retries. */
    std::uint64_t seed = 0;
    TrialStatus status = TrialStatus::Ok;
    /** Exception text when status != Ok; for Retried, the text of the
     *  most recent failed attempt (kept for the record). */
    std::string error;
    /** Body invocations this result took (1 = no retries). */
    unsigned attempts = 1;
    /** Host wall-clock seconds spent in the body (informational;
     *  excluded from determinism comparisons). */
    double wallSeconds = 0.0;
    /** Body output; default-constructed when the body threw. */
    TrialOutput output;

    json::Value toJson() const;
};

/** Declarative description of a campaign. */
struct CampaignSpec
{
    std::string name = "campaign";
    /** Number of grid points. */
    std::size_t trials = 0;
    /** Seed every per-trial stream is derived from. */
    std::uint64_t masterSeed = 42;
    /** Worker threads; 0 = hardware_concurrency (clamped to trials). */
    unsigned workers = 0;
    /**
     * Per-trial simulated-cycle budget; 0 = unbounded.  After the body
     * returns, a trial whose reported simCycles exceeds this is
     * recorded as TimedOut.  The budget is *inclusive*: exactly
     * cycleBudget cycles is Ok.  The machine's fast-forward path
     * clamps clock jumps to run() / runUntil() limits, so a skip can
     * never carry simCycles past a limit the body ran to.
     */
    Cycles cycleBudget = 0;
    /**
     * Extra attempts granted to a trial whose body *throws*.  Attempt
     * k runs with deriveRetrySeed(masterSeed, index, k); a trial that
     * eventually succeeds is recorded as Retried (with the attempt
     * count), one that exhausts its attempts stays Failed.  TimedOut
     * is a measurement — the budget was genuinely consumed — and is
     * never retried.
     */
    unsigned maxRetries = 0;
    /**
     * When non-empty: checkpoint every finished trial into this
     * directory (atomic per-trial files + a manifest; see
     * exp/checkpoint.hh), and on a rerun of the *same* spec restore
     * completed trials instead of re-executing them.  Because trials
     * are bit-deterministic in their seed, a killed-then-resumed
     * campaign aggregates bit-identically to an uninterrupted one.
     * A manifest from a different spec is discarded with a warning.
     */
    std::string checkpointDir;

    /** The trial body (required).  Must not touch shared state. */
    std::function<TrialOutput(const TrialContext &)> body;

    /**
     * Optional warmup prefix (DESIGN.md §12): shared setup every trial
     * of a machine structure needs — process creation, victim code
     * generation, cache priming.  Runs on a machine seeded with
     * deriveWarmupSeed(masterSeed) (never a trial seed: the prefix is
     * shared, so it must not favour any trial's stream).  The returned
     * artifact is handed to every body via TrialContext::warmupData
     * and kept alive by the runner for the body's duration.
     *
     * With prefixCache (default), each worker runs the warmup once per
     * unique machine structure, snapshots the result, and forks the
     * snapshot per trial; with it off the warmup re-runs cold before
     * every trial.  The reseed-at-fork contract makes the two paths
     * bit-identical — prefixCache is a pure wall-clock knob
     * (bench/perf_campaign's prefix section times both paths, and
     * tests/test_snapshot.cc checks them equal).
     */
    std::function<std::shared_ptr<const void>(os::Machine &)> warmup;

    /**
     * Fork trials from the per-worker post-warmup snapshot instead of
     * re-running the warmup per trial.  Meaningless without `warmup`.
     */
    bool prefixCache = true;

    /**
     * Restore every fork into one pooled Machine per worker instead of
     * constructing a fork target per trial.  The pooled instance is
     * replaced when a trial's structure differs (os::sameStructure).
     * Governs only the prefixCache fork target: the cold path always
     * constructs.  Pure wall-clock knob, now worth little: with cache
     * ways built lazily a target costs ~11 µs to construct, and the
     * pool saves only the full copy into it (perf_campaign section 3
     * reads ~1.1x, DESIGN.md §12).  Kept only while the benchmark
     * workloads set it.
     */
    bool machinePool = true;

    /**
     * Identity of this spec's warmup *behavior*, for cross-campaign
     * snapshot reuse (the campaign service's long-lived workers).  A
     * post-warmup snapshot is a function of (warmup closure, machine
     * structure, warmup seed); machine structure and seed are compared
     * directly, but closures cannot be, so a persistent TrialExecutor
     * only reuses a cached warmup across campaigns when both specs
     * carry the same non-empty structureKey.  Empty (the default)
     * means "anonymous": the cache is flushed at every
     * TrialExecutor::beginCampaign, restoring the one-campaign scoping
     * of an in-process runCampaign.  Registry recipes set this to the
     * recipe name (plus any param that changes warmup behavior beyond
     * structure), which is what keeps a service worker's Machine pool
     * hot across same-shaped campaigns.
     */
    std::string structureKey;

    /**
     * Keep per-trial MetricSnapshots in trial results.  When a sink
     * only wants the campaign aggregate, turning this off drops each
     * trial's snapshot right after its index-order merge — the
     * aggregate is unchanged, but toJson() no longer re-serializes
     * hundreds of identical component-metric blocks and the retained
     * trials stay small.  Incompatible with checkpointDir: per-trial
     * checkpoints serialize full results *before* the post-merge drop,
     * which would silently reintroduce exactly the work this flag
     * promises to skip — runCampaign rejects the combination.
     */
    bool perTrialMetrics = true;

    /**
     * Optional progress callback, invoked as (completed, total) each
     * time a trial finishes executing; trials restored from a
     * checkpoint count towards `completed` but are not reported.
     * Called from worker threads under the runner's lock, in
     * completion (not index) order; keep it cheap.
     */
    std::function<void(std::size_t, std::size_t)> progress;

    /**
     * The campaign's observability dial (DESIGN.md §14):
     *
     *   Off      no profiling, no tracing (the default — hot path
     *            untouched);
     *   Metrics  phase-latency profiling (prof.trial.*) on;
     *   Trace    Metrics + per-trial event tracing: the executor
     *            forces ctx.machine.obs.traceEvents on, drains
     *            runner-provided machines into TrialOutput::trace
     *            after the body, and spills traces to traceSpillDir.
     *
     * Pure observation: campaign fingerprints are byte-identical at
     * every level (enforced by tests and bench/perf_campaign §5).
     */
    obs::ObsLevel obsLevel = obs::ObsLevel::Off;

    /**
     * When non-empty and obsLevel >= Trace: persist each executed
     * trial's drained trace as an atomic spill file
     * `trace-w<worker>-t<index>.json` under this directory, tagged
     * (worker, trial, fork cycle) for cross-process merging via
     * obs::mergeChromeTraces.  The service daemon points this at
     * `<checkpointDir>/traces` so a campaign's spills live with its
     * durable state.
     */
    std::string traceSpillDir;
};

/** Campaign-level aggregate, merged in trial-index order. */
struct CampaignAggregate
{
    Summary metric;
    ms::MicroscopeStats scope;
    obs::MetricSnapshot metrics;
    Cycles simCycles = 0;
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t timedOut = 0;
    /** Succeeded-after-retry trials (disjoint from `ok`). */
    std::size_t retried = 0;

    /** Fold one trial in: its status count and the four merges.
     *  Trials must be added in index order. */
    void add(const TrialResult &trial);

    json::Value toJson() const;

    /**
     * Append toJson().dump() to @p out without building the tree,
     * leaving out metrics whose names start with one of
     * @p skipMetricPrefixes (and the "metrics" member when none is
     * left).
     */
    void appendJson(
        std::string &out,
        std::span<const std::string_view> skipMetricPrefixes = {}) const;
};

/** Everything a campaign produced. */
struct CampaignResult
{
    std::string name;
    std::size_t trialCount = 0;
    std::uint64_t masterSeed = 0;
    unsigned workers = 0;
    double wallSeconds = 0.0;
    /** Trials restored from a checkpoint instead of executed. */
    std::size_t resumedTrials = 0;
    /** Worker threads that died mid-campaign (their claimed trials
     *  were finished serially by the grace pass). */
    unsigned workerDeaths = 0;
    CampaignAggregate aggregate;
    /** Per-trial results, in index order. */
    std::vector<TrialResult> trials;
    /**
     * Phase wall-time profile (prof.trial.*), merged across workers;
     * empty below ObsLevel::Metrics.  A pure side channel: wall times
     * are nondeterministic, so this never enters the fingerprint —
     * it rides campaign JSON under "prof" only.
     */
    obs::ProfData prof;

    double trialsPerSecond() const;
    double simCyclesPerSecond() const;

    /** Full report (schema documented in DESIGN.md §src/exp). */
    json::Value toJson(bool include_trials = true) const;

    /** Append toJson(false).dump() to @p out without building the
     *  tree: the campaign service's result frame carries it. */
    void appendJson(std::string &out) const;
};

/**
 * The per-worker trial execution engine (DESIGN.md §12/§13): owns the
 * pooled Machine and the post-warmup snapshot cache, and runs one
 * trial at a time of whatever spec it is handed.  runCampaign
 * creates one per worker thread; the campaign service's worker
 * processes keep ONE alive across campaigns, which is what keeps
 * pre-warmed Machine pools hot between same-structured submissions.
 *
 * Thread confinement: snapshots COW-share pages with their forks
 * through non-atomic refcounts, so a TrialExecutor must never cross
 * threads.
 */
class TrialExecutor
{
  public:
    TrialExecutor();
    ~TrialExecutor();
    TrialExecutor(const TrialExecutor &) = delete;
    TrialExecutor &operator=(const TrialExecutor &) = delete;

    /**
     * Mark the start of a (possibly new) campaign.  A cached warmup
     * snapshot survives only when its spec carried a non-empty
     * structureKey matching @p spec's and it was warmed with
     * deriveWarmupSeed(spec.masterSeed); every other entry is dropped
     * here.  The pooled Machine always survives — structure is
     * re-checked per trial anyway.
     */
    void beginCampaign(const CampaignSpec &spec);

    /** Run trial @p index of @p spec, including the spec's retry
     *  policy.  `worker` is informational: it tags this trial's trace
     *  spill file. */
    TrialResult runTrial(const CampaignSpec &spec, std::size_t index,
                         unsigned worker);

    /** Accumulated phase profile (prof.trial.*) of every trial this
     *  executor ran at ObsLevel >= Metrics; empty otherwise.  The
     *  owner merges it into CampaignResult::prof (or streams it to
     *  the daemon). */
    const obs::ProfData &prof() const;

  private:
    struct State;

    TrialResult runAttempt(const CampaignSpec &spec, std::size_t index,
                           unsigned worker, unsigned attempt);
    /** Fork target with @p config's structure: the pooled machine,
     *  or a new one in @p scratch when the spec turns pooling off. */
    os::Machine &acquireMachine(const CampaignSpec &spec,
                                std::unique_ptr<os::Machine> &scratch,
                                const os::MachineConfig &config);

    std::unique_ptr<State> state_;
};

class CampaignCheckpoint;

/**
 * Fold @p results (which must be in trial-index order) into a
 * CampaignAggregate, one CampaignAggregate::add each.  Shared by
 * runCampaign and the campaign service so a service-dispatched
 * campaign aggregates bit-identically to an in-process run of the
 * same spec.
 */
CampaignAggregate aggregateTrials(const std::vector<TrialResult> &results);

/**
 * The campaign's determinism fingerprint: the aggregate JSON plus
 * every trial's payload, metrics, sim cycles, and status — everything
 * except wall-clock noise (wall seconds, worker counts, retry
 * attempt counts).  Two runs of the same spec must produce identical
 * fingerprints regardless of worker count, prefix caching,
 * checkpoint resume, or in-process vs service dispatch.
 *
 * Host-mechanics meta-counters (`obs.trace.*`, `mem.physmem.*`) are
 * left out.  The text is written straight from the structs, and is
 * byte-identical to the dump of the aggregate's toJson() followed,
 * per trial, by a newline, the payload dump, the metrics dump, the
 * sim cycles and the status name.
 */
std::string deterministicFingerprint(const CampaignResult &result);

/** fnv1a64(@p s) as "0x%016llx" — the compact form fingerprints are
 *  exchanged in (bench JSON, service result frames). */
std::string fnv1aHex(const std::string &s);

/**
 * Run trials [lo, hi) of @p spec serially on the calling thread — the
 * one trial loop, shared by runCampaign's worker threads (one claimed
 * index at a time) and the campaign service's shards.  For each index:
 * when @p checkpoint is non-null and holds a valid persisted trial,
 * that result is restored instead of executed (emit's `restored` is
 * true); otherwise the trial runs on @p exec and, when @p checkpoint
 * is non-null, is persisted before emit sees it — so a consumer that
 * dies after emit can always recover the trial from the checkpoint.
 *
 * When @p currentHi is provided it is re-read before every trial and
 * tightens (never extends) the range — the work-stealing shrink hook:
 * a worker whose shard is being split polls its control socket there.
 * Returns the number of trials emitted.
 *
 * @p worker is informational: it tags trace spill files (results are
 * worker-invariant either way — the established fingerprint
 * contract).
 */
std::size_t runShardRange(
    const CampaignSpec &spec, std::size_t lo, std::size_t hi,
    TrialExecutor &exec, CampaignCheckpoint *checkpoint,
    const std::function<void(TrialResult &&, bool restored)> &emit,
    const std::function<std::size_t()> &currentHi = {},
    unsigned worker = 0);

/**
 * Run every trial of @p spec over a thread pool and aggregate.
 *
 * Robustness contract (in addition to per-trial Failed/TimedOut
 * results): a worker thread that dies mid-campaign — a throwing
 * progress callback, bad_alloc, a checkpoint I/O panic — degrades
 * throughput, never results.  The survivors keep draining, and after
 * the pool joins a serial grace pass finishes any trial the dead
 * worker claimed but never completed; determinism is unaffected
 * because a trial's result depends only on its seed.
 *
 * Throws std::invalid_argument, before running anything, for a
 * missing trial body, a zero trial count, or perTrialMetrics = false
 * with a checkpointDir.
 */
CampaignResult runCampaign(CampaignSpec spec);

/** Serialize a Summary (count/mean/stddev/min/max) to JSON. */
json::Value toJson(const Summary &summary);

} // namespace uscope::exp

#endif // USCOPE_EXP_CAMPAIGN_HH
