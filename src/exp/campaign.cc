#include "exp/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "common/random.hh"
#include "exp/checkpoint.hh"
#include "obs/chrome_trace.hh"

namespace uscope::exp
{

namespace
{

constexpr Logger log_{"exp.campaign"};

double
elapsedSeconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/**
 * Metric name prefixes that describe *how a result was produced*, not
 * the result, and so stay out of fingerprints: `obs.trace.*` only
 * appears when tracing is on (folding it in would make `--obs=off`
 * and `--obs=trace` disagree about identical results);
 * `mem.physmem.*` counts pages re-pointed by COW re-shares, which
 * differ between pooled/forked/cold machines reaching the same state.
 */
constexpr std::string_view kObsMetaPrefixes[] = {"obs.trace.",
                                                 "mem.physmem."};

} // namespace

std::uint64_t
deriveTrialSeed(std::uint64_t master, std::uint64_t index)
{
    // Two mix rounds decorrelate (master, index) and (master, index+1)
    // as thoroughly as two unrelated seeds; a plain master+index would
    // hand adjacent trials overlapping SplitMix64 expansions.
    return mix64(mix64(master) ^ mix64(~index));
}

std::uint64_t
deriveRetrySeed(std::uint64_t master, std::uint64_t index,
                unsigned attempt)
{
    const std::uint64_t base = deriveTrialSeed(master, index);
    if (attempt == 0)
        return base;
    return mix64(mix64(base) ^ mix64(~std::uint64_t{attempt}));
}

std::uint64_t
deriveWarmupSeed(std::uint64_t master)
{
    // A fixed odd constant (the SplitMix64 increment) stands in for
    // the index that trial/retry seeds mix in, keeping the warmup
    // stream decorrelated from every per-trial stream.
    return mix64(mix64(master) ^ 0x9E3779B97F4A7C15ull);
}

std::uint64_t
deriveReplaySeed(std::uint64_t trial_seed, std::uint64_t iteration)
{
    // The ASCII tag "replay" offsets the iteration before mixing, so
    // replay streams stay decorrelated from the (master, index) space
    // deriveTrialSeed draws from even when trial_seed equals a master
    // seed.  perfbench's denoise workload uses the same formula.
    return mix64(trial_seed ^ mix64(0x7265706c6179ull + iteration));
}

void
TrialContext::checkBudget(Cycles used_cycles) const
{
    if (cycleBudget && used_cycles > cycleBudget) {
        throw TrialTimeout(format(
            "trial %zu exceeded its cycle budget (%llu > %llu)", index,
            static_cast<unsigned long long>(used_cycles),
            static_cast<unsigned long long>(cycleBudget)));
    }
}

const char *
trialStatusName(TrialStatus status)
{
    switch (status) {
      case TrialStatus::Ok: return "ok";
      case TrialStatus::Failed: return "failed";
      case TrialStatus::TimedOut: return "timed_out";
      case TrialStatus::Retried: return "retried";
    }
    return "?";
}

json::Value
toJson(const Summary &summary)
{
    return json::Value::object()
        .set("count", summary.count())
        .set("mean", summary.mean())
        .set("stddev", summary.stddev())
        .set("min", summary.min())
        .set("max", summary.max());
}

json::Value
TrialResult::toJson() const
{
    json::Value v = json::Value::object()
                        .set("index", std::uint64_t{index})
                        .set("seed", seed)
                        .set("status", trialStatusName(status))
                        .set("wall_seconds", wallSeconds)
                        .set("sim_cycles", output.simCycles);
    if (attempts != 1)
        v.set("attempts", attempts);
    if (!error.empty())
        v.set("error", error);
    if (output.metric.count())
        v.set("metric", exp::toJson(output.metric));
    if (!output.metrics.empty())
        v.set("metrics", output.metrics.toJson());
    if (!output.payload.isNull())
        v.set("payload", output.payload);
    return v;
}

json::Value
CampaignAggregate::toJson() const
{
    json::Value v = json::Value::object()
        .set("ok", std::uint64_t{ok})
        .set("failed", std::uint64_t{failed})
        .set("timed_out", std::uint64_t{timedOut})
        .set("retried", std::uint64_t{retried})
        .set("sim_cycles", simCycles)
        .set("metric", exp::toJson(metric))
        .set("scope", json::Value::object()
                          .set("handle_faults", scope.handleFaults)
                          .set("pivot_faults", scope.pivotFaults)
                          .set("foreign_faults", scope.foreignFaults)
                          .set("episodes", scope.episodes)
                          .set("total_replays", scope.totalReplays));
    if (!metrics.empty())
        v.set("metrics", metrics.toJson());
    return v;
}

void
CampaignAggregate::appendJson(
    std::string &out,
    std::span<const std::string_view> skipMetricPrefixes) const
{
    out += "{\"ok\":";
    json::appendUint(out, ok);
    out += ",\"failed\":";
    json::appendUint(out, failed);
    out += ",\"timed_out\":";
    json::appendUint(out, timedOut);
    out += ",\"retried\":";
    json::appendUint(out, retried);
    out += ",\"sim_cycles\":";
    json::appendUint(out, simCycles);
    out += ",\"metric\":";
    obs::appendJson(out, metric);
    out += ",\"scope\":{\"handle_faults\":";
    json::appendUint(out, scope.handleFaults);
    out += ",\"pivot_faults\":";
    json::appendUint(out, scope.pivotFaults);
    out += ",\"foreign_faults\":";
    json::appendUint(out, scope.foreignFaults);
    out += ",\"episodes\":";
    json::appendUint(out, scope.episodes);
    out += ",\"total_replays\":";
    json::appendUint(out, scope.totalReplays);
    out += '}';
    const std::size_t before = out.size();
    out += ",\"metrics\":";
    if (metrics.appendJson(out, skipMetricPrefixes) == 0)
        out.resize(before); // toJson() omits an empty "metrics"
    out += '}';
}

double
CampaignResult::trialsPerSecond() const
{
    return wallSeconds > 0.0
               ? static_cast<double>(trialCount) / wallSeconds
               : 0.0;
}

double
CampaignResult::simCyclesPerSecond() const
{
    return wallSeconds > 0.0
               ? static_cast<double>(aggregate.simCycles) / wallSeconds
               : 0.0;
}

json::Value
CampaignResult::toJson(bool include_trials) const
{
    json::Value v =
        json::Value::object()
            .set("campaign", name)
            .set("trials", std::uint64_t{trialCount})
            .set("master_seed", masterSeed)
            .set("workers", std::uint64_t{workers})
            .set("resumed_trials", std::uint64_t{resumedTrials})
            .set("worker_deaths", std::uint64_t{workerDeaths})
            .set("wall_seconds", wallSeconds)
            .set("trials_per_second", trialsPerSecond())
            .set("sim_cycles_per_second", simCyclesPerSecond())
            .set("aggregate", aggregate.toJson());
    if (!prof.empty())
        v.set("prof", prof.toJson());
    if (include_trials && !trials.empty()) {
        json::Value detail = json::Value::array();
        for (const TrialResult &trial : trials)
            detail.push(trial.toJson());
        v.set("trial_results", std::move(detail));
    }
    return v;
}

void
CampaignResult::appendJson(std::string &out) const
{
    out += "{\"campaign\":";
    json::appendString(out, name);
    out += ",\"trials\":";
    json::appendUint(out, trialCount);
    out += ",\"master_seed\":";
    json::appendUint(out, masterSeed);
    out += ",\"workers\":";
    json::appendUint(out, workers);
    out += ",\"resumed_trials\":";
    json::appendUint(out, resumedTrials);
    out += ",\"worker_deaths\":";
    json::appendUint(out, workerDeaths);
    out += ",\"wall_seconds\":";
    json::appendDouble(out, wallSeconds);
    out += ",\"trials_per_second\":";
    json::appendDouble(out, trialsPerSecond());
    out += ",\"sim_cycles_per_second\":";
    json::appendDouble(out, simCyclesPerSecond());
    out += ",\"aggregate\":";
    aggregate.appendJson(out);
    if (!prof.empty()) {
        out += ",\"prof\":";
        prof.toJson().dumpTo(out);
    }
    out += '}';
}

CampaignRunner::CampaignRunner(CampaignSpec spec) : spec_(std::move(spec))
{
    // Spec errors throw std::invalid_argument (not SimFatal): they are
    // caller bugs at the API boundary, catchable without dragging in
    // the simulator's error hierarchy.
    if (!spec_.body)
        throw std::invalid_argument(format(
            "CampaignSpec '%s' has no trial body", spec_.name.c_str()));
    if (spec_.trials == 0)
        throw std::invalid_argument(format(
            "CampaignSpec '%s' has zero trials", spec_.name.c_str()));
    if (!spec_.perTrialMetrics && !spec_.checkpointDir.empty())
        throw std::invalid_argument(format(
            "CampaignSpec '%s': perTrialMetrics = false is incompatible "
            "with a checkpointDir (checkpoints serialize full per-trial "
            "results, reintroducing the skipped work)",
            spec_.name.c_str()));
}

/**
 * Per-executor machine pool and post-warmup snapshot cache.  Owned by
 * exactly one worker thread (or the serial grace pass): the snapshot
 * and its forks COW-share pages through non-atomic refcounts.
 */
struct TrialExecutor::State
{
    /** The pooled fork target (restored per trial); null until first
     *  use or after a structural change replaced it. */
    std::unique_ptr<os::Machine> pooled;

    struct WarmupEntry
    {
        /** Structural key: the warmup-seeded config this entry was
         *  built from (seeds are ignored by the match). */
        os::MachineConfig config;
        /** Cross-campaign identity (CampaignSpec::structureKey);
         *  empty = anonymous, flushed at beginCampaign. */
        std::string key;
        /** deriveWarmupSeed(masterSeed) the warmup ran with — part of
         *  the identity: same structure + key but a different master
         *  seed is a different post-warmup state. */
        std::uint64_t warmupSeed = 0;
        os::Snapshot snap;
        std::shared_ptr<const void> data;
    };
    /** One entry per distinct machine structure this worker has seen;
     *  campaigns sweep a handful of structures at most, so a linear
     *  scan beats hashing a whole MachineConfig. */
    std::vector<WarmupEntry> warmups;

    /** Accumulated prof.trial.* phase profile (ObsLevel >= Metrics). */
    obs::ProfData prof;
};

TrialExecutor::TrialExecutor() : state_(std::make_unique<State>()) {}

TrialExecutor::~TrialExecutor() = default;

const obs::ProfData &
TrialExecutor::prof() const
{
    return state_->prof;
}

void
TrialExecutor::beginCampaign(const CampaignSpec &spec)
{
    // Anonymous warmups never outlive their campaign; keyed warmups
    // survive only if the new spec can reuse them.  Another master
    // seed means another warmup seed, so its entries go too: a
    // long-lived service worker keeps one frozen machine per live
    // structure, not one per seed it has ever seen.
    const std::uint64_t warm_seed = deriveWarmupSeed(spec.masterSeed);
    std::vector<State::WarmupEntry> kept;
    for (State::WarmupEntry &entry : state_->warmups) {
        if (!entry.key.empty() && entry.key == spec.structureKey &&
            entry.warmupSeed == warm_seed)
            kept.push_back(std::move(entry));
    }
    state_->warmups = std::move(kept);
}

os::Machine &
TrialExecutor::acquireMachine(const CampaignSpec &spec,
                              std::unique_ptr<os::Machine> &scratch,
                              const os::MachineConfig &config)
{
    if (spec.machinePool) {
        State &ws = *state_;
        // First trial, or a structural sweep moved on: (re)build.
        if (!ws.pooled || !os::sameStructure(ws.pooled->config(), config))
            ws.pooled = std::make_unique<os::Machine>(config);
        return *ws.pooled;
    }
    scratch = std::make_unique<os::Machine>(config);
    return *scratch;
}

TrialResult
TrialExecutor::runAttempt(const CampaignSpec &spec, std::size_t index,
                          unsigned worker, unsigned attempt)
{
    TrialContext ctx;
    ctx.index = index;
    ctx.seed = deriveRetrySeed(spec.masterSeed, index, attempt);
    ctx.worker = worker;
    ctx.cycleBudget = spec.cycleBudget;
    ctx.machine.seed = ctx.seed;
    if (spec.machineFactory) {
        ctx.machine = spec.machineFactory(ctx);
        // A factory that never thought about seeding still gets a
        // deterministic per-trial stream.  os::Seed records whether
        // the factory assigned one, so a factory that deliberately
        // picks the default value (42) is honoured rather than
        // silently re-seeded.
        if (!ctx.machine.seed.explicitlySet)
            ctx.machine.seed = ctx.seed;
    }
    // The observability dial: tracing rides the trial's MachineConfig,
    // so it reaches self-built machines (bodies construct from
    // ctx.machine), warm forks (warm_config copies ctx.machine), and
    // pooled machines (sameStructure includes ObsConfig, so traced and
    // untraced trials never share a pool slot) alike.
    const bool tracing = spec.obsLevel >= obs::ObsLevel::Trace;
    if (tracing)
        ctx.machine.obs.traceEvents = true;
    obs::ProfData *prof = spec.obsLevel >= obs::ObsLevel::Metrics
                              ? &state_->prof
                              : nullptr;

    TrialResult result;
    result.index = index;
    result.seed = ctx.seed;

    // Machine provisioning state must outlive the body call: `scratch`
    // owns the trial's machine on the cold path or when pooling is
    // off, `hold` keeps a cold-path warmup artifact alive while the
    // body uses it.
    std::unique_ptr<os::Machine> scratch;
    std::shared_ptr<const void> hold;

    const auto start = std::chrono::steady_clock::now();
    try {
        // Provision the trial's machine (inside the shield: a warmup
        // that throws is a Failed trial, not a dead worker).
        if (spec.warmup) {
            State &ws = *state_;
            os::MachineConfig warm_config = ctx.machine;
            warm_config.seed = deriveWarmupSeed(spec.masterSeed);
            const std::uint64_t warm_seed = warm_config.seed;
            if (spec.prefixCache) {
                // Fork path: warm once per structure per worker, then
                // restore + reseed per trial.
                State::WarmupEntry *entry = nullptr;
                for (State::WarmupEntry &e : ws.warmups)
                    if (e.key == spec.structureKey &&
                        e.warmupSeed == warm_seed &&
                        os::sameStructure(e.config, warm_config))
                        entry = &e;
                if (!entry) {
                    obs::ProfScope timer(prof, "prof.trial.warmup");
                    os::Machine warm(warm_config);
                    State::WarmupEntry fresh;
                    fresh.config = warm_config;
                    fresh.key = spec.structureKey;
                    fresh.warmupSeed = warm_seed;
                    fresh.data = spec.warmup(warm);
                    fresh.snap = warm.snapshot();
                    ws.warmups.push_back(std::move(fresh));
                    entry = &ws.warmups.back();
                }
                obs::ProfScope timer(prof, "prof.trial.fork");
                os::Machine &machine =
                    acquireMachine(spec, scratch, warm_config);
                machine.restoreFrom(entry->snap);
                machine.reseed(ctx.seed);
                ctx.fork = &machine;
                ctx.warmupData = entry->data.get();
            } else {
                // Cold path (the A/B baseline): re-run the warmup on a
                // freshly constructed machine, then reseed at the same
                // point.
                obs::ProfScope timer(prof, "prof.trial.warmup");
                scratch = std::make_unique<os::Machine>(warm_config);
                hold = spec.warmup(*scratch);
                scratch->reseed(ctx.seed);
                ctx.fork = scratch.get();
                ctx.warmupData = hold.get();
            }
            ctx.forkCycle = ctx.fork->cycle();
        }

        {
            obs::ProfScope timer(prof, "prof.trial.run");
            result.output = spec.body(ctx);
        }
        // Runner-provided machines are drained by the executor, so
        // recipe bodies need no tracing awareness; a body that drained
        // its own machine (or built one) keeps its log untouched.
        if (tracing && ctx.fork && result.output.trace.events.empty() &&
            result.output.trace.total == 0)
            result.output.trace = ctx.fork->observer().trace.drain();
        result.status = TrialStatus::Ok;
        if (spec.cycleBudget &&
            result.output.simCycles > spec.cycleBudget) {
            result.status = TrialStatus::TimedOut;
            result.error = format(
                "cycle budget exceeded (%llu > %llu)",
                static_cast<unsigned long long>(result.output.simCycles),
                static_cast<unsigned long long>(spec.cycleBudget));
        }
    } catch (const TrialTimeout &e) {
        result.status = TrialStatus::TimedOut;
        result.error = e.what();
    } catch (const std::exception &e) {
        result.status = TrialStatus::Failed;
        result.error = e.what();
    } catch (...) {
        result.status = TrialStatus::Failed;
        result.error = "unknown exception";
    }

    // Spill the drained trace while the fork cycle is still in scope.
    // Failed attempts don't spill (a retry will overwrite the slot
    // anyway); a spill failure is a warning, never a trial failure.
    if (tracing && !spec.traceSpillDir.empty() &&
        result.status != TrialStatus::Failed &&
        !result.output.trace.events.empty()) {
        obs::ProfScope timer(prof, "prof.trial.export");
        obs::TraceSpill spill;
        spill.worker = worker;
        spill.trial = index;
        spill.forkCycle = ctx.forkCycle;
        spill.log = result.output.trace;
        obs::writeTraceSpill(spec.traceSpillDir, spill);
    }

    result.wallSeconds = elapsedSeconds(start);
    return result;
}

TrialResult
TrialExecutor::runTrial(const CampaignSpec &spec, std::size_t index,
                        unsigned worker)
{
    TrialResult result = runAttempt(spec, index, worker, 0);
    // Retry failures only: a TimedOut trial really consumed its budget
    // — that is a measurement — and retrying Ok makes no sense.  The
    // retry count is a pure function of the seeds, so fingerprints
    // stay identical across worker counts.
    unsigned attempts = 1;
    while (result.status == TrialStatus::Failed &&
           attempts <= spec.maxRetries) {
        TrialResult retry = runAttempt(spec, index, worker, attempts);
        retry.wallSeconds += result.wallSeconds;
        if (retry.status == TrialStatus::Ok) {
            retry.status = TrialStatus::Retried;
            retry.error = std::move(result.error);
        }
        result = std::move(retry);
        ++attempts;
    }
    result.attempts = attempts;
    return result;
}

void
CampaignAggregate::add(const TrialResult &trial)
{
    switch (trial.status) {
      case TrialStatus::Ok: ++ok; break;
      case TrialStatus::Failed: ++failed; break;
      case TrialStatus::TimedOut: ++timedOut; break;
      case TrialStatus::Retried: ++retried; break;
    }
    metric.merge(trial.output.metric);
    scope.merge(trial.output.scope);
    metrics.merge(trial.output.metrics);
    simCycles += trial.output.simCycles;
}

CampaignAggregate
aggregateTrials(const std::vector<TrialResult> &results)
{
    CampaignAggregate aggregate;
    for (const TrialResult &trial : results)
        aggregate.add(trial);
    return aggregate;
}

std::string
deterministicFingerprint(const CampaignResult &result)
{
    // The meta-counters are filtered so fingerprints are byte-identical
    // across every ObsLevel (the §14 invariance contract).
    std::string fp;
    result.aggregate.appendJson(fp, kObsMetaPrefixes);
    for (const TrialResult &trial : result.trials) {
        fp += '\n';
        trial.output.payload.dumpTo(fp);
        trial.output.metrics.appendJson(fp, kObsMetaPrefixes);
        json::appendUint(fp, trial.output.simCycles);
        fp += trialStatusName(trial.status);
    }
    return fp;
}

std::string
fnv1aHex(const std::string &s)
{
    return format("0x%016llx",
                  static_cast<unsigned long long>(fnv1a64(s)));
}

std::size_t
runShardRange(const CampaignSpec &spec, std::size_t lo, std::size_t hi,
              TrialExecutor &exec, CampaignCheckpoint *checkpoint,
              const std::function<void(TrialResult &&, bool)> &emit,
              const std::function<std::size_t()> &currentHi,
              unsigned worker)
{
    std::size_t emitted = 0;
    for (std::size_t index = lo; index < hi; ++index) {
        if (currentHi) {
            // The shrink hook only ever tightens: a steal moved this
            // shard's end down, never up (new work arrives as a new
            // shard, not by growing this one).
            const std::size_t limit = currentHi();
            if (limit < hi)
                hi = limit;
            if (index >= hi)
                break;
        }
        if (checkpoint) {
            if (std::optional<TrialResult> restored =
                    checkpoint->loadTrial(index)) {
                emit(std::move(*restored), /*restored=*/true);
                ++emitted;
                continue;
            }
        }
        TrialResult result = exec.runTrial(spec, index, worker);
        if (checkpoint)
            checkpoint->store(result);
        emit(std::move(result), /*restored=*/false);
        ++emitted;
    }
    return emitted;
}

CampaignResult
CampaignRunner::run()
{
    const std::size_t total = spec_.trials;
    unsigned workers = spec_.workers;
    if (workers == 0) {
        workers = std::thread::hardware_concurrency();
        if (workers == 0)
            workers = 1;
    }
    if (workers > total)
        workers = static_cast<unsigned>(total);
    if (workers == 0)
        workers = 1;

    std::vector<TrialResult> results(total);
    // done[i] flips exactly once, by the one worker that claimed i (or
    // by checkpoint restore before the pool starts); the grace pass
    // reads it after join().  It is what distinguishes "claimed but
    // never finished" (dead worker) from "completed".
    std::vector<char> done(total, 0);

    CampaignCheckpoint checkpoint(spec_);
    const std::size_t resumed =
        checkpoint.enabled() ? checkpoint.load(results, done) : 0;

    std::atomic<std::size_t> next{0};
    std::size_t completed = resumed;
    unsigned deadWorkers = 0;
    obs::ProfData profTotal;
    std::mutex lock;

    const auto start = std::chrono::steady_clock::now();
    const auto claimNext = [&]() {
        // Restored trials are done before any worker starts; skipping
        // them here means a resumed campaign only executes the rest.
        for (;;) {
            const std::size_t index =
                next.fetch_add(1, std::memory_order_relaxed);
            if (index >= total || !done[index])
                return index;
        }
    };
    const auto drain = [&](unsigned worker) {
        // Thread-confined: the pooled machine and every cached
        // snapshot (plus its COW forks) live and die on this worker.
        TrialExecutor executor;
        executor.beginCampaign(spec_);
        // Merge this worker's phase profile on every exit path — a
        // dying worker's measured trials still count.
        struct ProfReport
        {
            TrialExecutor &executor;
            obs::ProfData &total;
            std::mutex &lock;
            ~ProfReport()
            {
                if (executor.prof().empty())
                    return;
                std::lock_guard<std::mutex> guard(lock);
                total.merge(executor.prof());
            }
        } prof_report{executor, profTotal, lock};
        try {
            for (;;) {
                const std::size_t index = claimNext();
                if (index >= total)
                    return;
                TrialResult result =
                    executor.runTrial(spec_, index, worker);
                checkpoint.store(result);
                std::lock_guard<std::mutex> guard(lock);
                results[index] = std::move(result);
                done[index] = 1;
                ++completed;
                if (spec_.progress)
                    spec_.progress(completed, total);
            }
        } catch (const std::exception &e) {
            // Anything escaping the per-trial shield (a throwing
            // progress callback, bad_alloc moving results) kills only
            // this worker; the grace pass below finishes its trials.
            std::lock_guard<std::mutex> guard(lock);
            ++deadWorkers;
            log_.warn("campaign '%s': worker %u died (%s); finishing "
                      "its trials serially",
                      spec_.name.c_str(), worker, e.what());
        } catch (...) {
            std::lock_guard<std::mutex> guard(lock);
            ++deadWorkers;
            log_.warn("campaign '%s': worker %u died (unknown "
                      "exception); finishing its trials serially",
                      spec_.name.c_str(), worker);
        }
    };

    if (workers == 1) {
        // Run on the calling thread: identical code path (results are
        // still aggregated below, in index order), simpler stacks in
        // a debugger, and no thread overhead for serial baselines.
        drain(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned worker = 0; worker < workers; ++worker)
            pool.emplace_back(drain, worker);
        for (std::thread &thread : pool)
            thread.join();
    }

    // Grace pass: every trial a dead worker claimed but never stored
    // re-runs here, serially.  Results are unchanged (a trial depends
    // only on its seed); the progress callback is deliberately not
    // re-invoked — it may be exactly what killed the worker.
    // Worker pools/snapshot caches died with their threads; the grace
    // pass warms its own (results are unchanged — a trial depends only
    // on its seed, and forked trials are bit-identical to cold ones).
    TrialExecutor grace;
    grace.beginCampaign(spec_);
    for (std::size_t index = 0; index < total; ++index) {
        if (done[index])
            continue;
        TrialResult result = grace.runTrial(spec_, index, /*worker=*/0);
        checkpoint.store(result);
        results[index] = std::move(result);
        done[index] = 1;
    }
    profTotal.merge(grace.prof());

    CampaignResult campaign;
    campaign.name = spec_.name;
    campaign.trialCount = total;
    campaign.masterSeed = spec_.masterSeed;
    campaign.workers = workers;
    campaign.resumedTrials = resumed;
    campaign.workerDeaths = deadWorkers;
    campaign.prof = std::move(profTotal);

    // Aggregation happens here, single-threaded and in index order —
    // *never* in completion order — so N-worker and 1-worker runs of
    // the same spec produce bit-identical aggregates.  The fold itself
    // is aggregateTrials(), shared with the campaign service daemon.
    campaign.aggregate = aggregateTrials(results);
    // Aggregate-only campaigns drop each snapshot right after the
    // aggregate fold: the retained trials stay light and toJson()
    // skips the per-trial metric blocks entirely, instead of
    // serializing and then ignoring them.
    if (!spec_.perTrialMetrics)
        for (TrialResult &trial : results)
            trial.output.metrics = obs::MetricSnapshot{};
    campaign.trials = std::move(results);
    campaign.wallSeconds = elapsedSeconds(start);
    return campaign;
}

CampaignResult
runCampaign(CampaignSpec spec)
{
    return CampaignRunner(std::move(spec)).run();
}

} // namespace uscope::exp
