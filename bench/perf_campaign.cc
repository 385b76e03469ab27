/**
 * @file
 * A/B throughput benchmarks for the campaign runner.  One runner
 * drives five sections, numbered 1 and 3-6; each is a table of arms
 * that run the same campaign in different configurations:
 *
 *  1. **sharding** (Fig.-10 port contention) — 1 against 4 workers.
 *     Trials are independent CPU-bound simulations, so on >= 4 cores
 *     the 4-worker arm must be >= 2x faster.
 *  3. **prefix** (aes_prefix_replay) — the warmup re-run cold before
 *     every trial against forked from a per-worker post-warmup
 *     snapshot (§12), with and without the machine pool.  Gate:
 *     cold/forked >= 1.0x; the pool's forked_nopool/forked ratio is
 *     reported, not gated.
 *  4. **svc** (Fig. 11) — in-process against a live uscope-campaignd
 *     at 1, 2 and 4 worker processes (§13).  Gate: the 1-worker
 *     service arm takes <= 1.5x the 1-worker in-process arm.
 *  5. **obs** (Fig. 11) — the observability dial at off, metrics and
 *     trace (§14).  Gates: metrics <= 1.10x off; prof present exactly
 *     at >= metrics; a small traced campaign spills one event log per
 *     trial, and the spills merge into one Perfetto document.
 *  6. **diffreplay** (denoise-shaped episodes) — the prefix re-simulated
 *     before every episode re-entry against a restore of the episode
 *     snapshot (§15).  Gate: >= 1.0x.
 *
 * Every section runs one discarded warm-up pass, then `reps`
 * repetitions with the arm order reversed on alternate repetitions,
 * and reports each arm's median and IQR wall time.  A gate reads the
 * median over the repetitions of the wall-time ratio of two arms of
 * equal worker count; sharding's scaling ratio is the one deliberate
 * exception.  A fingerprint that differs
 * across arms or repetitions, a failed trial, or a failed gate makes
 * the bench exit 1.
 *
 * Each section writes bench-results/BENCH_<name>.json and
 * BENCH_<name>_fp_{off,on}.txt, the first and the last arm's
 * fingerprint.  `--section=N` runs section N alone; a number that
 * names no section is an error.  Number 2 stays retired: its
 * fast-forward off/on A/B went with the option (DESIGN.md §10), and
 * its last measurement is BENCH_perf_campaign.json and
 * BENCH_fastforward.json in the repository root.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "attack/aes_attack.hh"
#include "common/fsio.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/microscope.hh"
#include "exp/campaign.hh"
#include "obs/chrome_trace.hh"
#include "obs/cli.hh"
#include "svc/client.hh"
#include "svc/daemon.hh"
#include "svc/registry.hh"
#include "svc/worker.hh"

using namespace uscope;

namespace
{

/** Measured repetitions per section, after one discarded warm-up. */
constexpr unsigned reps = 5;

/** What one run of an arm produced. */
struct ArmRun
{
    double wallSeconds = 0.0;
    std::size_t ok = 0;
    Cycles simCycles = 0;
    /** exp::fnv1aHex of the campaign's deterministic fingerprint. */
    std::string fingerprint;
    /** The campaign carried a prof phase profile. */
    bool prof = false;
};

/** One configuration of a section's campaign. */
struct Arm
{
    std::string name;
    unsigned workers = 1;
    std::function<ArmRun()> run;
};

/**
 * A gate on the wall-time ratio num / den of two arms, read as the
 * median over the repetitions of the ratio within each repetition.
 * The two arms of a repetition run back to back, so host load that
 * drifts between repetitions cancels out of the ratio.
 */
struct Ratio
{
    const char *name;
    std::size_t num;
    std::size_t den;
    double min = 0.0;
    double max = std::numeric_limits<double>::infinity();
    /** Compares worker counts on purpose; every other ratio must be
     *  between arms of equal worker count. */
    bool scaling = false;
};

/** One arm over the measured repetitions. */
struct ArmStats
{
    std::vector<double> wall;
    std::size_t profRuns = 0;
    Cycles simCycles = 0;
    std::string fingerprint;
};

struct Section
{
    unsigned number;
    const char *name;
    std::string title;
    std::size_t trials;
    std::vector<Arm> arms;
    std::vector<Ratio> ratios;
    /** Checks beyond the ratios; may add fields to the record. */
    std::function<bool(const std::vector<ArmStats> &, json::Value &)>
        check;
};

/** Linear-interpolated quantile @p q of @p v. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
iqr(const std::vector<double> &v)
{
    return quantile(v, 0.75) - quantile(v, 0.25);
}

// ---------------------------------------------------------------------
// Arms: an in-process campaign or a uscope-campaignd round trip.
// ---------------------------------------------------------------------

Arm
campaignArm(std::string name, exp::CampaignSpec spec)
{
    const unsigned workers = spec.workers;
    return {std::move(name), workers, [spec] {
                const exp::CampaignResult r = exp::runCampaign(spec);
                return ArmRun{r.wallSeconds, r.aggregate.ok,
                              r.aggregate.simCycles,
                              exp::fnv1aHex(
                                  exp::deterministicFingerprint(r)),
                              !r.prof.empty()};
            }};
}

/**
 * One daemon lifecycle: spawn, submit, measure, shut down.  The clock
 * starts once the workers are up, so the arm measures steady-state
 * dispatch, not the one-time spawn.
 */
ArmRun
serviceRun(const svc::CampaignRequest &request, unsigned workers)
{
    static int counter = 0;
    svc::DaemonConfig config;
    config.socketPath = "/tmp/uscope_perf_svc_" +
                        std::to_string(::getpid()) + "_" +
                        std::to_string(counter++);
    config.workers = workers;
    std::thread daemon_thread([config] {
        svc::Daemon daemon(config);
        daemon.run();
    });

    ArmRun run;
    svc::Client client(config.socketPath);
    if (client.connected() && client.ping()) {
        const auto start = std::chrono::steady_clock::now();
        const svc::SubmitResult result = client.submit(request);
        run.wallSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        const std::optional<json::Value> doc =
            json::Value::parse(result.resultJson);
        const json::Value *agg = doc ? doc->get("aggregate") : nullptr;
        if (result.ok && agg) {
            run.ok = agg->get("ok")->asU64();
            run.simCycles = agg->get("sim_cycles")->asU64();
            run.fingerprint = result.fingerprint;
        }
    }
    client.shutdownDaemon();
    daemon_thread.join();
    return run;
}

/** A registry recipe, in-process at @p workers. */
exp::CampaignSpec
recipeSpec(const char *recipe, std::size_t trials, unsigned workers,
           json::Value params = {},
           obs::ObsLevel level = obs::ObsLevel::Off)
{
    svc::CampaignRequest request;
    request.recipe = recipe;
    request.trials = trials;
    request.params = std::move(params);
    request.obs = level;
    exp::CampaignSpec spec = svc::buildSpec(request);
    spec.workers = workers;
    return spec;
}

// ---------------------------------------------------------------------
// Sections 1-5: registry recipes.  Each trial count is sized so that
// the arms run for >= 1 s per repetition on a 4-core host, except the
// 4-worker arm of section 4 (about 0.6 s), which would otherwise
// stretch the full bench well past four minutes.
// ---------------------------------------------------------------------

constexpr std::size_t shardTrials = 96;
constexpr std::size_t prefixTrials = 1500;
constexpr std::size_t svcTrials = 1600;
constexpr std::size_t obsTrials = 1200;
/** Trials of section 5's spill-and-merge campaign. */
constexpr std::size_t obsSpillTrials = 8;

Section
shardingSection()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const json::Value params = json::Value::object()
                                   .set("samples", std::uint64_t{800})
                                   .set("replays", std::uint64_t{30});
    Section s{1, "sharding",
              "Fig.-10 port-contention sweep at 1 and 4 workers "
              "(hardware_concurrency " + std::to_string(hw) + ")",
              shardTrials, {}, {}, {}};
    s.arms = {campaignArm("serial", recipeSpec("fig10_port_contention",
                                               shardTrials, 1, params)),
              campaignArm("parallel",
                          recipeSpec("fig10_port_contention",
                                     shardTrials, 4, params))};
    // With fewer than 4 cores the speedup is hardware-bound, so it is
    // reported but not gated.
    s.ratios = {{"scaling", 0, 1, hw >= 4 ? 2.0 : 0.0,
                 std::numeric_limits<double>::infinity(), true}};
    return s;
}

exp::CampaignSpec
prefixSpec(bool fork, bool pool)
{
    exp::CampaignSpec spec =
        recipeSpec("aes_prefix_replay", prefixTrials, 1);
    spec.prefixCache = fork;
    spec.machinePool = pool;
    // The fingerprint rides on the aggregate and the payloads; the
    // per-trial metric blocks are pure serialization weight.
    spec.perTrialMetrics = false;
    return spec;
}

Section
prefixSection()
{
    Section s{3, "prefix",
              "warmup-heavy AES arm, warmup re-run cold or forked "
              "with and without the machine pool",
              prefixTrials, {}, {}, {}};
    // forked_nopool sits between the other two so that the first and
    // last arms, whose fingerprints CI compares, stay cold and forked.
    s.arms = {campaignArm("cold", prefixSpec(false, false)),
              campaignArm("forked_nopool", prefixSpec(true, false)),
              campaignArm("forked", prefixSpec(true, true))};
    s.ratios = {{"speedup", 0, 2, 1.0}, {"pool", 1, 2}};
    return s;
}

Section
svcSection()
{
    Section s{4, "svc",
              "Fig.-11 AES replay in-process and through "
              "uscope-campaignd",
              svcTrials, {}, {}, {}};
    svc::CampaignRequest request;
    request.recipe = "fig11_aes_replay";
    request.trials = svcTrials;
    s.arms.push_back(campaignArm(
        "inproc", recipeSpec("fig11_aes_replay", svcTrials, 1)));
    for (unsigned workers : {1u, 2u, 4u})
        s.arms.push_back({"svc", workers, [request, workers] {
                              return serviceRun(request, workers);
                          }});
    s.ratios = {{"overhead", 1, 0, 0.0, 1.5}};
    return s;
}

Section
obsSection()
{
    Section s{5, "obs", "Fig.-11 AES replay at obs off, metrics and trace",
              obsTrials, {}, {}, {}};
    for (const obs::ObsLevel level :
         {obs::ObsLevel::Off, obs::ObsLevel::Metrics,
          obs::ObsLevel::Trace})
        s.arms.push_back(campaignArm(
            obs::obsLevelName(level),
            recipeSpec("fig11_aes_replay", obsTrials, 1, {}, level)));
    s.ratios = {{"overhead", 1, 0, 0.0, 1.10}};
    s.check = [](const std::vector<ArmStats> &arms, json::Value &record) {
        const bool prof = arms[0].profRuns == 0 &&
                          arms[1].profRuns == reps &&
                          arms[2].profRuns == reps;
        if (!prof)
            std::printf("prof presence does not match the obs dial\n");

        // Spill a small traced campaign and merge the spills: the
        // cross-process aggregation path, exercised in-process (one
        // pid lane).  It runs apart from the timed arms so that no
        // arm pays for the other's disk writes.
        const std::string dir = "bench-results/perf_campaign_obs_spills";
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        exp::CampaignSpec spec =
            recipeSpec("fig11_aes_replay", obsSpillTrials, 1, {},
                       obs::ObsLevel::Trace);
        spec.traceSpillDir = dir;
        exp::runCampaign(spec);
        std::vector<obs::TraceSpill> spills = obs::loadTraceSpills(dir);
        const std::size_t count = spills.size();
        const std::string merged =
            "bench-results/perf_campaign_obs.trace.json";
        if (!spills.empty())
            writeFileAtomic(merged,
                            obs::mergeChromeTraces(std::move(spills)));
        std::printf("spilled %zu/%zu traced trials; merged trace: %s\n",
                    count, obsSpillTrials, merged.c_str());
        record.set("prof_gated", prof)
            .set("trace_spills", std::uint64_t{count});
        return prof && count == obsSpillTrials;
    };
    return s;
}

// ---------------------------------------------------------------------
// Section 6: differential replay (DESIGN.md §15).
// ---------------------------------------------------------------------

constexpr std::size_t diffTrials = 430;
/** Episode re-entries per trial — the §4.3 denoise vote width. */
constexpr std::uint64_t diffIterations = 5;
constexpr Cycles diffRunBudget = 50'000'000;

/**
 * Denoise-shaped trial: one confidence-2 episode (replay 1 is the
 * calibration prefix, replay 2 the measured window), re-entered
 * diffIterations times with a fresh noise seed each, line hits decided
 * by majority vote.  With @p differential each re-entry restores the
 * engine's episode snapshot; without it, the pre-arm snapshot is
 * restored and the prefix — per-trial warm decryption, priming, the
 * arming run up to the replay-1 re-arm — re-simulated from scratch.
 * Both must produce bit-identical results.
 */
exp::CampaignSpec
diffReplaySpec(bool differential)
{
    exp::CampaignSpec spec;
    spec.name = "perf_campaign_diffreplay";
    spec.trials = diffTrials;
    spec.masterSeed = 42;
    spec.workers = 1;
    spec.perTrialMetrics = false;
    spec.warmup = attack::aesPrefixWarmup;

    spec.body = [differential](const exp::TrialContext &ctx) {
        os::Machine &m = *ctx.fork;
        os::Kernel &kernel = m.kernel();
        const auto &enclave =
            *static_cast<const attack::AesEnclave *>(ctx.warmupData);

        // Per-trial secret input, drawn from the trial stream; loaded
        // once, before the pre-arm snapshot, so both arms see it.
        Rng rng(ctx.seed);
        std::uint8_t plaintext[16];
        for (unsigned i = 0; i < 16; ++i)
            plaintext[i] = static_cast<std::uint8_t>(rng.below(256));
        const std::array<std::uint8_t, 16> ct =
            enclave.loadPlaintext(kernel, plaintext);

        std::vector<attack::LineProbe> windows;
        ms::Microscope scope(m);
        ms::AttackRecipe recipe;
        recipe.victim = enclave.pid;
        recipe.replayHandle = enclave.layout.td0;
        recipe.confidence = 2;
        recipe.maxEpisodes = 1;
        recipe.walkPlan = ms::PageWalkPlan::longest();
        recipe.differentialReplay = differential;
        recipe.onReplay = [&](const ms::ReplayEvent &event) {
            if (event.replayIndex == 1) {
                // Heavy calibration pass, prefix-only: survey every
                // table, then re-prime — the work the fast arm's
                // snapshot captures instead of re-executing.
                for (unsigned t = 0; t < 4; ++t)
                    enclave.probeTable(kernel, t);
            } else {
                windows.push_back(enclave.probeTable(kernel, 1));
            }
            return true;
        };
        recipe.beforeResume = [&](const ms::ReplayEvent &) {
            enclave.primeTables(kernel);
        };
        scope.setRecipe(std::move(recipe));

        // Pre-arm snapshot: the resimulating arm rewinds here before
        // every iteration.  The differential arm never reads it, and
        // a snapshot has no semantic effect (PhysMem share counters
        // are stripped from fingerprints), so it skips the cost.
        os::Snapshot pre;
        ms::EpisodeState preState;
        if (!differential) {
            pre = m.snapshot();
            preState = ms::EpisodeState{scope.armed(),
                                        scope.replaysThisEpisode(),
                                        scope.stats()};
        }
        const auto runPrefix = [&]() {
            // Per-trial warm decryption of this trial's ciphertext —
            // the calibration run a denoise campaign performs before
            // opening the episode, and the bulk of the prefix cost.
            kernel.startOnContext(enclave.pid, 0, enclave.program);
            if (!m.runUntilHalted(0, diffRunBudget))
                throw std::runtime_error("warm run never halted");
            enclave.primeTables(kernel);
            scope.arm();
            kernel.startOnContext(enclave.pid, 0, enclave.program);
            const bool reached = m.runUntil(
                [&]() {
                    return differential
                               ? scope.episodeSnapshotPending()
                               : scope.replaysThisEpisode() >= 1;
                },
                diffRunBudget);
            if (!reached)
                throw std::runtime_error(
                    "prefix never reached the re-arm");
        };
        runPrefix();
        if (differential)
            scope.takeEpisodeSnapshot();

        for (std::uint64_t i = 0; i < diffIterations; ++i) {
            const std::uint64_t seed = exp::deriveReplaySeed(ctx.seed, i);
            if (differential) {
                scope.restoreEpisode(seed);
            } else {
                m.restoreFrom(pre);
                scope.adoptEpisodeState(preState);
                runPrefix();
                m.reseed(seed);
            }
            // The window: replay 2 measures and closes the episode (no
            // pivot, maxEpisodes 1 => the engine disarms inline).
            if (!m.runUntil([&]() { return !scope.armed(); },
                            diffRunBudget))
                throw std::runtime_error("window never closed");
        }

        std::vector<std::set<unsigned>> measured;
        for (const attack::LineProbe &probe : windows)
            measured.push_back(probe.hitLines());
        const bool matches =
            !measured.empty() && attack::majorityLines(measured) ==
                                     enclave.round1Td1Lines(ct.data());

        exp::TrialOutput out;
        out.metric.add(matches ? 1.0 : 0.0);
        out.simCycles = m.cycle() - ctx.forkCycle;
        out.scope = scope.stats();
        obs::MetricRegistry registry;
        m.exportMetrics(registry);
        scope.exportMetrics(registry);
        out.metrics = registry.snapshot();

        json::Value probes = json::Value::array();
        for (const attack::LineProbe &probe : windows) {
            json::Value row = json::Value::array();
            for (Cycles latency : probe.latency)
                row.push(latency);
            probes.push(std::move(row));
        }
        out.payload = json::Value::object()
                          .set("matches_ground_truth", matches)
                          .set("final_cycle", m.cycle())
                          .set("probe_latencies", std::move(probes));
        return out;
    };
    return spec;
}

Section
diffReplaySection()
{
    Section s{6, "diffreplay",
              "denoise-shaped episodes x " +
                  std::to_string(diffIterations) +
                  " re-entries, prefix re-simulated or restored",
              diffTrials, {}, {}, {}};
    s.arms = {campaignArm("resim", diffReplaySpec(false)),
              campaignArm("cowfork", diffReplaySpec(true))};
    s.ratios = {{"speedup", 0, 1, 1.0}};
    return s;
}

// ---------------------------------------------------------------------
// The runner.
// ---------------------------------------------------------------------

/** Run one section; returns false on a hard failure. */
bool
runSection(const Section &s)
{
    std::printf("\n== %u %s: %s, %zu trials, %u reps after a warm-up ==\n",
                s.number, s.name, s.title.c_str(), s.trials, reps);
    const std::size_t n = s.arms.size();
    std::vector<ArmStats> stats(n);
    std::string reference;
    bool identical = true;
    std::size_t failed = 0;
    // Pass 0 is the warm-up; odd passes run the arms in reverse.
    for (unsigned pass = 0; pass <= reps; ++pass) {
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t a = pass % 2 ? n - 1 - k : k;
            const Arm &arm = s.arms[a];
            const ArmRun run = arm.run();
            if (pass == 0 && k == 0)
                reference = run.fingerprint;
            if (run.fingerprint != reference) {
                std::printf("%s %uw: fingerprint '%s' != '%s'\n",
                            arm.name.c_str(), arm.workers,
                            run.fingerprint.c_str(), reference.c_str());
                identical = false;
            }
            if (run.ok != s.trials) {
                std::printf("%s %uw: %zu/%zu trials ok\n",
                            arm.name.c_str(), arm.workers, run.ok,
                            s.trials);
                failed += s.trials - std::min(run.ok, s.trials);
            }
            if (pass == 0)
                continue;
            ArmStats &st = stats[a];
            st.wall.push_back(run.wallSeconds);
            st.profRuns += run.prof;
            st.simCycles = run.simCycles;
            st.fingerprint = run.fingerprint;
        }
    }

    std::printf("%-13s %7s %9s %8s %9s %11s\n", "arm", "workers",
                "median s", "IQR s", "trials/s", "Msim-cyc/s");
    json::Value arms = json::Value::array();
    for (std::size_t a = 0; a < n; ++a) {
        const ArmStats &st = stats[a];
        const double med = median(st.wall);
        json::Value wall = json::Value::array();
        for (double seconds : st.wall)
            wall.push(seconds);
        const double tps = med > 0.0 ? s.trials / med : 0.0;
        const double mcps =
            med > 0.0 ? static_cast<double>(st.simCycles) / med / 1e6
                      : 0.0;
        std::printf("%-13s %7u %9.3f %8.3f %9.1f %11.1f\n",
                    s.arms[a].name.c_str(), s.arms[a].workers, med,
                    iqr(st.wall), tps, mcps);
        arms.push(json::Value::object()
                      .set("arm", s.arms[a].name)
                      .set("workers", s.arms[a].workers)
                      .set("median_s", med)
                      .set("iqr_s", iqr(st.wall))
                      .set("wall_s", std::move(wall))
                      .set("trials_per_sec", tps)
                      .set("sim_mcycles_per_sec", mcps)
                      .set("fingerprint", st.fingerprint));
    }

    bool gates = true;
    json::Value ratios = json::Value::object();
    for (const Ratio &r : s.ratios) {
        const Arm &num = s.arms[r.num];
        const Arm &den = s.arms[r.den];
        if (!r.scaling && num.workers != den.workers)
            panic("ratio %s compares %u with %u workers", r.name,
                  num.workers, den.workers);
        std::vector<double> perRep;
        for (unsigned i = 0; i < reps; ++i)
            perRep.push_back(stats[r.den].wall[i] > 0.0
                                 ? stats[r.num].wall[i] /
                                       stats[r.den].wall[i]
                                 : 0.0);
        const double value = median(perRep);
        const bool pass = value > 0.0 && value >= r.min && value <= r.max;
        gates = gates && pass;
        std::printf("%s %s/%s (%uw/%uw): median %.3fx, IQR %.3f", r.name,
                    num.name.c_str(), den.name.c_str(), num.workers,
                    den.workers, value, iqr(perRep));
        json::Value entry = json::Value::object()
                                .set("num", num.name)
                                .set("den", den.name)
                                .set("workers_num", num.workers)
                                .set("workers_den", den.workers)
                                .set("value", value)
                                .set("iqr", iqr(perRep));
        if (r.min > 0.0) {
            std::printf(", gate >= %.2f", r.min);
            entry.set("min", r.min);
        }
        if (r.max < std::numeric_limits<double>::infinity()) {
            std::printf(", gate <= %.2f", r.max);
            entry.set("max", r.max);
        }
        std::printf(" -> %s\n", pass ? "PASS" : "FAIL");
        ratios.set(r.name, std::move(entry.set("pass", pass)));
    }
    std::printf("fingerprints identical across arms and reps: %s; "
                "failed trials: %zu\n",
                identical ? "yes" : "NO", failed);

    json::Value record = json::Value::object()
                             .set("bench", "perf_campaign")
                             .set("section", s.number)
                             .set("name", s.name)
                             .set("trials", std::uint64_t{s.trials})
                             .set("reps", reps)
                             .set("master_seed", std::uint64_t{42})
                             .set("fingerprint", reference)
                             .set("fingerprints_identical", identical)
                             .set("failed_trials", std::uint64_t{failed})
                             .set("arms", std::move(arms))
                             .set("ratios", std::move(ratios));
    if (s.check)
        gates = s.check(stats, record) && gates;
    const bool ok = identical && failed == 0 && gates;
    record.set("pass", ok);

    const std::string base = std::string("bench-results/BENCH_") + s.name;
    writeFileAtomic(base + ".json", record.dump(2));
    writeFileAtomic(base + "_fp_off.txt", stats.front().fingerprint);
    writeFileAtomic(base + "_fp_on.txt", stats.back().fingerprint);
    std::printf("record: %s.json\n", base.c_str());
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    // Section 4's daemon re-execs this very binary as its worker
    // pool; the marker check must precede all flag parsing.
    int worker_exit = 0;
    if (svc::maybeRunWorkerMain(argc, argv, &worker_exit))
        return worker_exit;

    // --section=N is this bench's own flag; the shared parser applies
    // --log-level and --log-json.
    std::optional<unsigned> only;
    std::vector<char *> rest = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind("--section=", 0) == 0) {
            only = static_cast<unsigned>(
                obs::requireUnsignedFlag("--section", argv[i] + 10, 6));
        } else {
            rest.push_back(argv[i]);
        }
    }
    obs::parseBenchObsOptions(static_cast<int>(rest.size()), rest.data(),
                              "");

    const std::vector<Section> sections = {
        shardingSection(), prefixSection(), svcSection(), obsSection(),
        diffReplaySection()};
    const auto selected = [&only](const Section &s) {
        return !only || s.number == *only;
    };
    if (std::none_of(sections.begin(), sections.end(), selected)) {
        std::fprintf(stderr, "--section=%u names no section\n", *only);
        return 2;
    }
    std::filesystem::create_directories("bench-results");
    bool ok = true;
    for (const Section &s : sections)
        if (selected(s))
            ok = runSection(s) && ok;
    return ok ? 0 : 1;
}
