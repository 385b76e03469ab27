/**
 * @file
 * Throughput benchmarks for the campaign runner:
 *
 *  1. **Sharding** (Fig.-10-style port-contention sweep) — the
 *     identical CampaignSpec (16 trials, each a full attack on its own
 *     Machine) at 1 worker and at 4 workers.  The aggregate (and every
 *     per-trial payload) must be bit-identical across worker counts —
 *     a hard failure if violated.  Trials are independent CPU-bound
 *     simulations, so speedup tracks the physical core count: on >= 4
 *     cores we demand >= 2x and fail otherwise; on fewer cores we
 *     report the measured value and the hardware bound.
 *  2. **Fast-forward A/B** (Fig.-11-shaped AES replay trials) — the
 *     same campaign with MachineConfig::fastForward off (cycle-by-
 *     cycle baseline) and on (event-driven clock jumps, DESIGN.md
 *     §10), plus the on-mode at 4 workers.  The determinism
 *     fingerprint must be bit-identical across all three runs — the
 *     elision contract — while the wall-clock speedup is measured and
 *     reported.  `--fast-forward={on,off}` pins both sections to one
 *     mode (and skips the A/B comparison).
 *  3. **Prefix-snapshot A/B** (warmup-heavy Fig.-11-shaped arm,
 *     DESIGN.md §12) — each trial needs the same expensive prefix
 *     (enclave build, victim codegen, warm decryptions) before its
 *     private replay episode.  The baseline re-runs the prefix cold
 *     per trial; the fast arm runs it once per worker, snapshots, and
 *     forks the snapshot per trial with per-trial reseeding
 *     (CampaignSpec::warmup + prefixCache + machinePool).  The
 *     determinism fingerprints must be byte-identical across arms — a
 *     hard failure otherwise — and the measured speedup lands in
 *     bench-results/BENCH_prefix.json (CI fails the A/B if the fast
 *     arm is not at least as fast; the paper-repro target is >= 2x).
 *     `--prefix-cache={on,off}` / `--pool={on,off}` pin one arm.
 *  4. **Service A/B** (DESIGN.md §13) — the same fig11_aes_replay
 *     request executed in-process (exp::runCampaign, 1 worker thread)
 *     and through a live uscope-campaignd at 1, 2, and 4 worker
 *     *processes*.  Every service fingerprint must equal the
 *     in-process one — a hard failure otherwise — and the protocol/
 *     process-distribution overhead at 1 worker is gated (<= 1.5x the
 *     1-worker in-process wall time).
 *     Results land in bench-results/BENCH_svc.json.  `--svc=off`
 *     skips the section (e.g. sandboxes without AF_UNIX sockets).
 *  5. **Observability A/B** (DESIGN.md §14) — the same
 *     fig11_aes_replay request at --obs=off/metrics/trace.
 *     Observation must never perturb results: all three deterministic
 *     fingerprints must be byte-identical (hard failure), and the
 *     wall-clock overhead of --obs=metrics over --obs=off is gated at
 *     <= 1.10x.  The trace arm spills per-trial event logs and the
 *     section merges them (obs::mergeChromeTraces) as a smoke test of
 *     the cross-process aggregation path.  Results land in
 *     bench-results/BENCH_obs.json; `--obs=LEVEL` pins one arm.
 *  6. **Differential-replay A/B** (DESIGN.md §15) — a denoise-shaped
 *     arm: each trial re-enters one confidence-2 episode several
 *     times (fresh noise seed per iteration, majority vote across
 *     them, §4.3 of the paper).  The baseline restores the pre-arm
 *     snapshot and re-simulates the whole prefix (per-trial warm
 *     decryption + arming run + the replay-1 calibration work) before
 *     every iteration; the fast arm COW-forks the machine at the
 *     replay handle once (Recipe::differentialReplay +
 *     Microscope::restoreEpisode) and restores that per iteration.
 *     The determinism fingerprints must be byte-identical across arms
 *     — a hard failure otherwise — and the measured speedup lands in
 *     bench-results/BENCH_diffreplay.json (CI fails if the fast arm
 *     is not at least break-even; the paper-repro target is >= 1.5x).
 *     `--diffreplay={on,off}` pins one arm.
 *
 * `--section=N` runs exactly one numbered section (1 sharding, 2
 * fast-forward, 3 prefix, 4 service, 5 obs, 6 diffreplay) — what the
 * CI smoke jobs use to parallelize and to scope failures.
 */

#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
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
#include "crypto/aes.hh"
#include "crypto/aes_codegen.hh"
#include "exp/campaign.hh"
#include "exp/result_sink.hh"
#include "obs/chrome_trace.hh"
#include "obs/cli.hh"
#include "svc/client.hh"
#include "svc/daemon.hh"
#include "svc/registry.hh"
#include "svc/worker.hh"

using namespace uscope;

namespace
{

constexpr std::size_t trials = 16;
constexpr std::size_t fig11Trials = 8;

/**
 * A registry recipe run in-process at @p workers, with fast-forward
 * pinned through the spec's machine factory.  The recipes build their
 * own machines from the trial's config, so the factory reaches them.
 */
exp::CampaignSpec
recipeSpec(const svc::CampaignRequest &request, unsigned workers,
           bool fast_forward)
{
    exp::CampaignSpec spec = svc::buildSpec(request);
    spec.workers = workers;
    spec.machineFactory = [fast_forward](const exp::TrialContext &) {
        os::MachineConfig config;
        config.fastForward = fast_forward;
        return config;
    };
    return spec;
}

/** Fig.-10-style port-contention sweep (the fig10_port_contention
 *  recipe at 800 monitor samples and 30 replays per trial). */
exp::CampaignSpec
fig10StyleCampaign(unsigned workers, bool fast_forward)
{
    svc::CampaignRequest request;
    request.recipe = "fig10_port_contention";
    request.name = workers == 1 ? "perf_campaign_serial"
                                : "perf_campaign_parallel";
    request.trials = trials;
    request.params = json::Value::object()
                         .set("samples", std::uint64_t{800})
                         .set("replays", std::uint64_t{30});
    return recipeSpec(request, workers, fast_forward);
}

/**
 * Fig.-11-shaped: one AES replay timeline per trial (random key and
 * plaintext), dominated by tuned page walks and long stalls — the
 * workload event-driven fast-forward exists for.
 */
exp::CampaignSpec
fig11StyleCampaign(const char *name, unsigned workers, bool fast_forward)
{
    svc::CampaignRequest request;
    request.recipe = "fig11_aes_replay";
    request.name = name;
    request.trials = fig11Trials;
    return recipeSpec(request, workers, fast_forward);
}

// Fingerprint + hash shapes live in the library now (shared with the
// campaign service daemon and tests/test_fastforward).
using exp::deterministicFingerprint;
using exp::fnv1aHex;

void
report(const char *label, const exp::CampaignResult &result)
{
    std::printf("%-8s %u worker(s): %6.2fs wall, %5.1f trials/s, "
                "%6.1f Msim-cycles/s, %zu/%zu ok\n",
                label, result.workers, result.wallSeconds,
                result.trialsPerSecond(),
                result.simCyclesPerSecond() / 1e6, result.aggregate.ok,
                result.trialCount);
}

// ---------------------------------------------------------------------
// Section 3: prefix-snapshot A/B (DESIGN.md §12).
// ---------------------------------------------------------------------

constexpr std::size_t prefixTrials = 12;
/** Warm decryptions inside the prefix — what makes it warmup-heavy. */
constexpr unsigned prefixWarmRuns = 4;
constexpr Cycles prefixHitThreshold = 100;

/** One fixed campaign-wide AES key (the warmup is shared by every
 *  trial, so it cannot depend on a trial seed). */
constexpr std::array<std::uint8_t, 16> prefixKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

/**
 * The warmup artifact: every handle the prefix mints, valid in each
 * fork exactly because forks share the warmed-up machine state.  The
 * enclave pages are deliberately left unsealed — each trial loads its
 * own ciphertext into the (COW-copied) input page.
 */
struct PrefixRig
{
    os::Pid pid = 0;
    crypto::AesKey decKey;
    crypto::AesKey encKey;
    crypto::AesVictimLayout layout;
    std::array<PAddr, 5> tablePa{};
    std::shared_ptr<const cpu::Program> program;

    PrefixRig()
        : decKey(prefixKey.data(), 128, true),
          encKey(prefixKey.data(), 128, false)
    {
    }
};

/** The §12 warmup of the differential-replay section: build the AES
 *  enclave rig and warm-decrypt. */
std::shared_ptr<const void>
aesRigWarmup(os::Machine &m)
{
    auto rig = std::make_shared<PrefixRig>();
    os::Kernel &kernel = m.kernel();
    rig->pid = kernel.createProcess("aes-enclave");
    rig->layout = crypto::setupAesVictim(kernel, rig->pid, rig->decKey);
    for (unsigned t = 0; t < 5; ++t)
        rig->tablePa[t] =
            *kernel.translate(rig->pid, rig->layout.tableVa(t));
    rig->program = std::make_shared<const cpu::Program>(
        crypto::buildAesDecryptProgram(rig->layout));

    // The expensive part: full warm decryptions of a fixed block,
    // leaving the TLB/PWC/predictor/caches trained the way a
    // long-running victim's machine would be.
    std::uint8_t ct[16];
    const std::uint8_t warm_plain[16] = {};
    crypto::encryptBlock(rig->encKey, warm_plain, ct);
    crypto::loadCiphertext(kernel, rig->pid, rig->layout, ct);
    for (unsigned run = 0; run < prefixWarmRuns; ++run) {
        kernel.startOnContext(rig->pid, 0, rig->program);
        m.runUntilHalted(0, 50'000'000);
    }
    return rig;
}

/** The aes_prefix_replay recipe with one A/B arm's knobs. */
exp::CampaignSpec
prefixCampaign(const char *name, bool prefix_cache, bool pool)
{
    svc::CampaignRequest request;
    request.recipe = "aes_prefix_replay";
    request.name = name;
    request.trials = prefixTrials;
    exp::CampaignSpec spec = svc::buildSpec(request);
    spec.workers = 1;
    spec.prefixCache = prefix_cache;
    spec.machinePool = pool;
    // The fingerprint rides on the aggregate (plus payloads); the
    // per-trial component-metric blocks are pure serialization weight.
    spec.perTrialMetrics = false;
    return spec;
}

/** Run section 3; returns false on a hard failure. */
bool
prefixSection(std::optional<bool> prefix_cache, std::optional<bool> pool,
              exp::JsonFileSink &sink)
{
    std::printf("\n==============================================================\n");
    std::printf("Prefix-snapshot A/B: warmup-heavy Fig.-11-shaped arm, "
                "%zu trials, %u warm runs\n",
                prefixTrials, prefixWarmRuns);
    std::printf("==============================================================\n\n");

    if (prefix_cache || pool) {
        // Pinned mode: measure one configuration, no A/B.
        const bool cache = prefix_cache.value_or(true);
        const bool pooled = pool.value_or(true);
        exp::CampaignResult pinned =
            exp::runCampaign(prefixCampaign(
                "perf_campaign_prefix_pinned", cache, pooled));
        std::printf("prefix-cache=%s pool=%s:\n", cache ? "on" : "off",
                    pooled ? "on" : "off");
        report("pinned", pinned);
        sink.consume(pinned);
        writeFileAtomic(cache ? "bench-results/BENCH_prefix_fp_on.txt"
                            : "bench-results/BENCH_prefix_fp_off.txt",
                      deterministicFingerprint(pinned));
        return pinned.aggregate.ok == prefixTrials;
    }

    exp::CampaignResult off = exp::runCampaign(
        prefixCampaign("perf_campaign_prefix_off", false, false));
    report("cold", off);
    exp::CampaignResult on = exp::runCampaign(
        prefixCampaign("perf_campaign_prefix_on", true, true));
    report("forked", on);

    const double speedup =
        on.wallSeconds > 0.0 ? off.wallSeconds / on.wallSeconds : 0.0;
    std::printf("\nprefix-cache speedup (1 worker): %.2fx "
                "(paper-repro target: >= 2x)\n", speedup);

    // The fork contract: a forked trial is byte-identical to a cold
    // trial that reseeds at the same point.  Hard failure if violated.
    const std::string fpOff = deterministicFingerprint(off);
    const std::string fpOn = deterministicFingerprint(on);
    const bool identical = fpOff == fpOn;
    std::printf("fingerprints byte-identical across arms: %s\n",
                identical ? "yes" : "NO");

    sink.consume(off);
    sink.consume(on);
    writeFileAtomic("bench-results/BENCH_prefix_fp_off.txt", fpOff);
    writeFileAtomic("bench-results/BENCH_prefix_fp_on.txt", fpOn);

    const json::Value bench =
        json::Value::object()
            .set("bench", "perf_campaign_prefix")
            .set("config",
                 json::Value::object()
                     .set("trials", std::uint64_t{prefixTrials})
                     .set("warm_runs", std::uint64_t{prefixWarmRuns})
                     .set("workers", std::uint64_t{1})
                     .set("master_seed", std::uint64_t{42}))
            .set("trials_per_sec", on.trialsPerSecond())
            .set("trials_per_sec_off", off.trialsPerSecond())
            .set("speedup_vs_off", speedup)
            .set("fingerprints_identical", identical)
            .set("fingerprint", fnv1aHex(fpOn));
    writeFileAtomic("bench-results/BENCH_prefix.json", bench.dump());
    std::printf("bench JSON: bench-results/BENCH_prefix.json "
                "(+ fingerprint files)\n");

    // CI gate: determinism is absolute; the speedup must never regress
    // below break-even (the >= 2x target is tracked via the JSON).
    return identical && speedup >= 1.0 &&
           off.aggregate.ok == prefixTrials &&
           on.aggregate.ok == prefixTrials;
}

// ---------------------------------------------------------------------
// Section 4: in-process vs service A/B (DESIGN.md §13).
// ---------------------------------------------------------------------

constexpr std::size_t svcTrials = 16;
/** Protocol + process-distribution overhead budget at 1 worker. */
constexpr double svcOverheadGate = 1.5;

struct SvcArm
{
    unsigned workers = 0;
    double wallSeconds = 0.0;
    std::string fingerprint;
    bool ok = false;
};

/** One daemon lifecycle: spawn, submit, measure, shut down. */
SvcArm
runServiceArm(const svc::CampaignRequest &request, unsigned workers)
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

    SvcArm arm;
    arm.workers = workers;
    svc::Client client(config.socketPath);
    if (client.connected() && client.ping()) {
        // The clock starts after the workers are up: the arm measures
        // steady-state dispatch overhead, not one-time spawn cost.
        const auto start = std::chrono::steady_clock::now();
        const svc::SubmitResult result = client.submit(request);
        arm.wallSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        arm.ok = result.ok;
        arm.fingerprint = result.fingerprint;
    }
    client.shutdownDaemon();
    daemon_thread.join();
    return arm;
}

/** Run section 4; returns false on a hard failure. */
bool
svcSection(std::optional<bool> svc_flag)
{
    std::printf("\n==============================================================\n");
    std::printf("Service A/B: fig11_aes_replay through uscope-campaignd, "
                "%zu trials\n", svcTrials);
    std::printf("==============================================================\n\n");

    if (svc_flag && !*svc_flag) {
        std::printf("skipped (--svc=off)\n");
        return true;
    }

    svc::CampaignRequest request;
    request.recipe = "fig11_aes_replay";
    request.trials = svcTrials;
    request.masterSeed = 42;

    // The reference arm: the identical request through the identical
    // registry, executed by the in-process runner at 1 worker, so the
    // overhead gate compares it with the service's 1-worker arm like
    // for like.  Fingerprints do not depend on the worker count.
    exp::CampaignSpec reference_spec = svc::buildSpec(request);
    reference_spec.workers = 1;
    exp::CampaignResult inproc = exp::runCampaign(std::move(reference_spec));
    report("inproc", inproc);
    const std::string reference =
        fnv1aHex(deterministicFingerprint(inproc));

    bool ok = inproc.aggregate.ok == svcTrials;
    double overhead = 0.0;
    double bestTrialsPerSec = 0.0;
    json::Value arms = json::Value::array();
    for (unsigned workers : {1u, 2u, 4u}) {
        const SvcArm arm = runServiceArm(request, workers);
        const bool match = arm.ok && arm.fingerprint == reference;
        const double tps =
            arm.wallSeconds > 0.0 ? svcTrials / arm.wallSeconds : 0.0;
        std::printf("service  %u worker(s): %6.2fs wall, %5.1f "
                    "trials/s, fingerprint %s (%s)\n",
                    workers, arm.wallSeconds, tps,
                    arm.fingerprint.c_str(),
                    match ? "match" : "MISMATCH");
        if (workers == 1 && inproc.wallSeconds > 0.0)
            overhead = arm.wallSeconds / inproc.wallSeconds;
        bestTrialsPerSec = std::max(bestTrialsPerSec, tps);
        arms.push(json::Value::object()
                      .set("workers", workers)
                      .set("wall_seconds", arm.wallSeconds)
                      .set("trials_per_sec", tps)
                      .set("fingerprint_match", match));
        ok = ok && match;
    }

    std::printf("\nservice overhead vs in-process (1 worker): %.2fx "
                "(gate: <= %.1fx)\n", overhead, svcOverheadGate);

    const json::Value bench =
        json::Value::object()
            .set("bench", "perf_campaign_svc")
            .set("config",
                 json::Value::object()
                     .set("recipe", "fig11_aes_replay")
                     .set("trials", std::uint64_t{svcTrials})
                     .set("master_seed", std::uint64_t{42}))
            .set("trials_per_sec", bestTrialsPerSec)
            .set("overhead_vs_inprocess", overhead)
            .set("fingerprints_identical", ok)
            .set("fingerprint", reference)
            .set("arms", std::move(arms));
    writeFileAtomic("bench-results/BENCH_svc.json", bench.dump());
    std::printf("bench JSON: bench-results/BENCH_svc.json\n");

    // Determinism is absolute; the overhead gate keeps the wire +
    // checkpoint machinery honest (trials dominate by construction).
    return ok && overhead > 0.0 && overhead <= svcOverheadGate;
}

// ---------------------------------------------------------------------
// Section 5: observability A/B (DESIGN.md §14).
// ---------------------------------------------------------------------

constexpr std::size_t obsTrials = 8;
/** Phase profiling + metric export must stay effectively free. */
constexpr double obsOverheadGate = 1.10;

struct ObsArm
{
    const char *name = "";
    double wallSeconds = 0.0;
    double trialsPerSec = 0.0;
    std::string fingerprint;
    bool hasProf = false;
    bool ok = false;
};

/** The fig11_aes_replay recipe at one obs level, in-process. */
ObsArm
runObsArm(obs::ObsLevel level, const std::string &spill_dir)
{
    svc::CampaignRequest request;
    request.recipe = "fig11_aes_replay";
    request.name = std::string("perf_campaign_obs_") +
                   obs::obsLevelName(level);
    request.trials = obsTrials;
    request.masterSeed = 42;
    request.obs = level;
    exp::CampaignSpec spec = svc::buildSpec(request);
    spec.workers = 1;
    spec.traceSpillDir = spill_dir; // runner ignores it below Trace
    const exp::CampaignResult result = exp::runCampaign(spec);

    ObsArm arm;
    arm.name = obs::obsLevelName(level);
    arm.wallSeconds = result.wallSeconds;
    arm.trialsPerSec = result.trialsPerSecond();
    arm.fingerprint = deterministicFingerprint(result);
    arm.hasProf = !result.prof.empty();
    arm.ok = result.aggregate.ok == obsTrials;
    return arm;
}

/** Run section 5; returns false on a hard failure. */
bool
obsSection(std::optional<obs::ObsLevel> pinned)
{
    std::printf("\n==============================================================\n");
    std::printf("Observability A/B: fig11_aes_replay at "
                "--obs=off/metrics/trace, %zu trials\n",
                obsTrials);
    std::printf("==============================================================\n\n");

    const std::string spillBase =
        "bench-results/perf_campaign_obs_spills";

    if (pinned) {
        std::error_code ec;
        std::filesystem::remove_all(spillBase, ec);
        const ObsArm arm = runObsArm(
            *pinned, *pinned >= obs::ObsLevel::Trace ? spillBase
                                                     : std::string());
        std::printf("obs=%-8s %6.2fs wall, %5.1f trials/s, "
                    "fingerprint %s\n",
                    arm.name, arm.wallSeconds, arm.trialsPerSec,
                    fnv1aHex(arm.fingerprint).c_str());
        return arm.ok;
    }

    std::vector<ObsArm> arms;
    for (const obs::ObsLevel level :
         {obs::ObsLevel::Off, obs::ObsLevel::Metrics,
          obs::ObsLevel::Trace}) {
        std::string dir;
        if (level >= obs::ObsLevel::Trace) {
            dir = spillBase + "_" +
                  std::string(obs::obsLevelName(level));
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
        arms.push_back(runObsArm(level, dir));
        const ObsArm &arm = arms.back();
        std::printf("obs=%-8s %6.2fs wall, %5.1f trials/s, prof %s, "
                    "fingerprint %s\n",
                    arm.name, arm.wallSeconds, arm.trialsPerSec,
                    arm.hasProf ? "yes" : "no",
                    fnv1aHex(arm.fingerprint).c_str());
    }

    // The invariance contract: the dial NEVER changes results.
    bool identical = true, ok = true;
    for (const ObsArm &arm : arms) {
        identical = identical && arm.fingerprint == arms[0].fingerprint;
        ok = ok && arm.ok;
    }
    std::printf("\nfingerprints byte-identical across obs levels: "
                "%s\n", identical ? "yes" : "NO");

    // Prof must be present exactly when the dial says so.
    const bool profGated =
        !arms[0].hasProf && arms[1].hasProf && arms[2].hasProf;
    if (!profGated)
        std::printf("prof presence does not match the obs dial\n");

    const double overhead = arms[0].wallSeconds > 0.0
                                ? arms[1].wallSeconds /
                                      arms[0].wallSeconds
                                : 0.0;
    std::printf("metrics overhead vs off: %.3fx (gate: <= %.2fx)\n",
                overhead, obsOverheadGate);

    // Merge the trace arm's spills — the cross-process aggregation
    // path exercised in-process (worker 0 only, one pid lane).
    std::vector<obs::TraceSpill> spills =
        obs::loadTraceSpills(spillBase + "_trace");
    const std::size_t spillCount = spills.size();
    const std::string mergedPath =
        "bench-results/perf_campaign_obs.trace.json";
    if (!spills.empty())
        writeFileAtomic(mergedPath,
                      obs::mergeChromeTraces(std::move(spills)));
    std::printf("trace arm spilled %zu/%zu trials; merged trace: "
                "%s\n",
                spillCount, obsTrials,
                spillCount ? mergedPath.c_str() : "(none)");

    json::Value armsJson = json::Value::array();
    for (const ObsArm &arm : arms)
        armsJson.push(json::Value::object()
                          .set("obs", arm.name)
                          .set("wall_seconds", arm.wallSeconds)
                          .set("trials_per_sec", arm.trialsPerSec)
                          .set("has_prof", arm.hasProf)
                          .set("fingerprint_match",
                               arm.fingerprint == arms[0].fingerprint));
    const json::Value bench =
        json::Value::object()
            .set("bench", "perf_campaign_obs")
            .set("config",
                 json::Value::object()
                     .set("recipe", "fig11_aes_replay")
                     .set("trials", std::uint64_t{obsTrials})
                     .set("master_seed", std::uint64_t{42}))
            .set("overhead_metrics_vs_off", overhead)
            .set("overhead_gate", obsOverheadGate)
            .set("fingerprints_identical", identical)
            .set("fingerprint", fnv1aHex(arms[0].fingerprint))
            .set("trace_spills", std::uint64_t{spillCount})
            .set("arms", std::move(armsJson));
    writeFileAtomic("bench-results/BENCH_obs.json", bench.dump());
    std::printf("bench JSON: bench-results/BENCH_obs.json\n");

    return ok && identical && profGated && spillCount == obsTrials &&
           overhead > 0.0 && overhead <= obsOverheadGate;
}

// ---------------------------------------------------------------------
// Section 6: differential-replay A/B (DESIGN.md §15).
// ---------------------------------------------------------------------

constexpr std::size_t diffTrials = 8;
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
diffReplaySpec(const char *name, bool differential)
{
    exp::CampaignSpec spec;
    spec.name = name;
    spec.trials = diffTrials;
    spec.masterSeed = 42;
    spec.workers = 1;
    spec.prefixCache = true;
    spec.machinePool = true;
    spec.perTrialMetrics = false;
    spec.warmup = aesRigWarmup;

    spec.body = [differential](const exp::TrialContext &ctx) {
        os::Machine &m = *ctx.fork;
        const auto *rig =
            static_cast<const PrefixRig *>(ctx.warmupData);

        // Per-trial secret input, drawn from the trial stream; loaded
        // once, before the pre-arm snapshot, so both arms see it.
        Rng rng(ctx.seed);
        std::uint8_t plaintext[16], ct[16];
        for (unsigned i = 0; i < 16; ++i)
            plaintext[i] = static_cast<std::uint8_t>(rng.below(256));
        crypto::encryptBlock(rig->encKey, plaintext, ct);
        crypto::loadCiphertext(m.kernel(), rig->pid, rig->layout, ct);

        const auto probeTable = [&](unsigned table) {
            attack::LineProbe probe;
            for (unsigned line = 0; line < 16; ++line) {
                const os::ProbeResult r = m.kernel().timedProbePhys(
                    rig->tablePa[table] + line * lineSize);
                probe.latency[line] = r.latency;
                probe.level[line] = r.level;
            }
            return probe;
        };
        const auto primeTables = [&] {
            for (unsigned t = 0; t < 4; ++t)
                m.kernel().primeRange(rig->tablePa[t], 1024);
        };

        std::vector<attack::LineProbe> windows;
        ms::Microscope scope(m);
        ms::AttackRecipe recipe;
        recipe.victim = rig->pid;
        recipe.replayHandle = rig->layout.td0;
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
                    probeTable(t);
            } else {
                windows.push_back(probeTable(1));
            }
            return true;
        };
        recipe.beforeResume = [&](const ms::ReplayEvent &) {
            primeTables();
        };
        scope.setRecipe(std::move(recipe));

        // Pre-arm snapshot: the resimulating arm rewinds here before
        // every iteration.  The differential arms never read it, and
        // a snapshot has no semantic effect (PhysMem share counters
        // are stripped from fingerprints), so they skip its cost.
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
            m.kernel().startOnContext(rig->pid, 0, rig->program);
            if (!m.runUntilHalted(0, diffRunBudget))
                throw std::runtime_error("warm run never halted");
            primeTables();
            scope.arm();
            m.kernel().startOnContext(rig->pid, 0, rig->program);
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

        // Majority vote over the measured windows vs ground truth.
        std::set<unsigned> expected;
        const crypto::DecAccessTrace trace =
            crypto::traceDecryption(rig->decKey, ct);
        for (std::uint8_t index : trace.indices[0][1])
            expected.insert(crypto::tableLineOf(index));
        std::array<unsigned, 16> votes{};
        for (const attack::LineProbe &probe : windows)
            for (unsigned line : probe.hitLines(prefixHitThreshold))
                ++votes[line];
        std::set<unsigned> majority;
        for (unsigned line = 0; line < 16; ++line)
            if (votes[line] * 2 > windows.size())
                majority.insert(line);
        const bool matches = !windows.empty() && majority == expected;

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

/** Run section 6; returns false on a hard failure. */
bool
diffReplaySection(std::optional<bool> pinned, exp::JsonFileSink &sink)
{
    std::printf("\n==============================================================\n");
    std::printf("Differential-replay A/B: denoise-shaped episodes, %zu "
                "trials x %llu re-entries\n",
                diffTrials,
                static_cast<unsigned long long>(diffIterations));
    std::printf("==============================================================\n\n");

    if (pinned) {
        const bool on = *pinned;
        exp::CampaignResult result = exp::runCampaign(
            diffReplaySpec("perf_campaign_diffreplay_pinned", on));
        std::printf("diffreplay=%s:\n", on ? "on" : "off");
        report("pinned", result);
        sink.consume(result);
        writeFileAtomic(on
                          ? "bench-results/BENCH_diffreplay_fp_on.txt"
                          : "bench-results/BENCH_diffreplay_fp_off.txt",
                      deterministicFingerprint(result));
        return result.aggregate.ok == diffTrials;
    }

    exp::CampaignResult off = exp::runCampaign(
        diffReplaySpec("perf_campaign_diffreplay_off", false));
    report("resim", off);
    exp::CampaignResult on = exp::runCampaign(
        diffReplaySpec("perf_campaign_diffreplay_on", true));
    report("cowfork", on);

    const double speedup =
        on.wallSeconds > 0.0 ? off.wallSeconds / on.wallSeconds : 0.0;
    std::printf("\ndifferential-replay speedup (1 worker): %.2fx "
                "(paper-repro target: >= 1.5x)\n", speedup);

    // The replay contract: restoring the episode snapshot is byte-
    // identical to re-simulating the prefix.  Hard failure if violated.
    const std::string fpOff = deterministicFingerprint(off);
    const std::string fpOn = deterministicFingerprint(on);
    const bool identical = fpOff == fpOn;
    std::printf("fingerprints byte-identical across arms: %s\n",
                identical ? "yes" : "NO");

    sink.consume(off);
    sink.consume(on);
    writeFileAtomic("bench-results/BENCH_diffreplay_fp_off.txt", fpOff);
    writeFileAtomic("bench-results/BENCH_diffreplay_fp_on.txt", fpOn);

    const json::Value bench =
        json::Value::object()
            .set("bench", "perf_campaign_diffreplay")
            .set("config",
                 json::Value::object()
                     .set("trials", std::uint64_t{diffTrials})
                     .set("replays_per_trial",
                          std::uint64_t{diffIterations})
                     .set("workers", std::uint64_t{1})
                     .set("master_seed", std::uint64_t{42}))
            .set("trials_per_sec", on.trialsPerSecond())
            .set("trials_per_sec_off", off.trialsPerSecond())
            .set("speedup_vs_off", speedup)
            .set("fingerprints_identical", identical)
            .set("fingerprint", fnv1aHex(fpOn));
    writeFileAtomic("bench-results/BENCH_diffreplay.json", bench.dump());
    std::printf("bench JSON: bench-results/BENCH_diffreplay.json "
                "(+ fingerprint files)\n");

    // CI gate: determinism is absolute; the speedup must never regress
    // below break-even (>= 1.5x is tracked via the JSON).
    return identical && speedup >= 1.0 &&
           off.aggregate.ok == diffTrials &&
           on.aggregate.ok == diffTrials;
}

// ---------------------------------------------------------------------
// Sections 1 and 2: sharding and fast-forward A/B.
// ---------------------------------------------------------------------

/** Run section 1 (Fig.-10 sharding); returns false on hard failure. */
bool
shardingSection(bool fast_forward, exp::JsonFileSink &sink)
{
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("==============================================================\n");
    std::printf("Campaign-runner throughput: Fig.-10-style sweep, %zu "
                "trials\n", trials);
    std::printf("hardware_concurrency: %u, fast-forward: %s\n", hw,
                fast_forward ? "on" : "off");
    std::printf("==============================================================\n\n");

    exp::CampaignResult serial =
        exp::runCampaign(fig10StyleCampaign(1, fast_forward));
    report("serial", serial);
    exp::CampaignResult parallel =
        exp::runCampaign(fig10StyleCampaign(4, fast_forward));
    report("parallel", parallel);

    const double speedup =
        parallel.wallSeconds > 0.0
            ? serial.wallSeconds / parallel.wallSeconds
            : 0.0;
    std::printf("\nspeedup at 4 workers:   %.2fx\n", speedup);

    const bool identical = deterministicFingerprint(serial) ==
                           deterministicFingerprint(parallel);
    std::printf("aggregates bit-identical across worker counts: %s\n",
                identical ? "yes" : "NO");

    sink.consume(serial);
    sink.consume(parallel);
    std::printf("campaign JSON: %s (+ serial twin)\n",
                sink.lastPath().c_str());

    bool ok = identical && serial.aggregate.ok == trials &&
              parallel.aggregate.ok == trials;
    if (hw >= 4) {
        std::printf("expectation (>= 4 cores): >= 2x  ->  %s\n",
                    speedup >= 2.0 ? "PASS" : "FAIL");
        ok = ok && speedup >= 2.0;
    } else {
        std::printf("only %u core(s) visible: parallel speedup is "
                    "hardware-bound near %ux; determinism is the "
                    "enforced check here\n",
                    hw, hw ? hw : 1);
    }
    return ok;
}

/** Run section 2 (fast-forward A/B); returns false on hard failure. */
bool
fastForwardSection(std::optional<bool> pinned, exp::JsonFileSink &sink)
{
    std::printf("\n==============================================================\n");
    std::printf("Fast-forward A/B: Fig.-11-shaped AES replay trials, "
                "%zu trials\n", fig11Trials);
    std::printf("==============================================================\n\n");

    if (pinned) {
        // Pinned mode: measure it alone, no A/B comparison possible.
        const bool ff = *pinned;
        exp::CampaignResult result = exp::runCampaign(fig11StyleCampaign(
            ff ? "perf_campaign_fig11_ff_on"
               : "perf_campaign_fig11_ff_off",
            1, ff));
        report(ff ? "ff=on" : "ff=off", result);
        sink.consume(result);
        std::printf("campaign JSON: %s\n", sink.lastPath().c_str());
        return result.aggregate.ok == fig11Trials;
    }

    exp::CampaignResult ffOff = exp::runCampaign(
        fig11StyleCampaign("perf_campaign_fig11_ff_off", 1, false));
    report("ff=off", ffOff);
    exp::CampaignResult ffOn = exp::runCampaign(
        fig11StyleCampaign("perf_campaign_fig11_ff_on", 1, true));
    report("ff=on", ffOn);
    exp::CampaignResult ffOn4 = exp::runCampaign(
        fig11StyleCampaign("perf_campaign_fig11_ff_on4", 4, true));
    report("ff=on", ffOn4);

    const double ffSpeedup = ffOn.wallSeconds > 0.0
                                 ? ffOff.wallSeconds / ffOn.wallSeconds
                                 : 0.0;
    std::printf("\nfast-forward speedup (1 worker): %.2fx\n", ffSpeedup);

    // The elision contract: identical results across modes AND across
    // worker counts within the fast mode.  Hard failure if violated;
    // the speedup is measured, not asserted (timing noise is not a
    // correctness signal).
    const std::string ffBaseline = deterministicFingerprint(ffOff);
    const bool ffIdentical =
        ffBaseline == deterministicFingerprint(ffOn) &&
        ffBaseline == deterministicFingerprint(ffOn4);
    std::printf("fingerprints bit-identical across modes and worker "
                "counts: %s\n",
                ffIdentical ? "yes" : "NO");

    sink.consume(ffOff);
    sink.consume(ffOn);
    sink.consume(ffOn4);
    std::printf("campaign JSON: %s (+ off/on twins)\n",
                sink.lastPath().c_str());

    return ffIdentical && ffOff.aggregate.ok == fig11Trials &&
           ffOn.aggregate.ok == fig11Trials &&
           ffOn4.aggregate.ok == fig11Trials;
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

    // Peel off this bench's own A/B flags before the shared obs
    // parser sees (and warns about) them.
    std::optional<bool> prefixCacheFlag;
    std::optional<bool> poolFlag;
    std::optional<bool> svcFlag;
    std::optional<bool> diffReplayFlag;
    std::optional<unsigned> sectionFlag;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--prefix-cache=on")
            prefixCacheFlag = true;
        else if (arg == "--prefix-cache=off")
            prefixCacheFlag = false;
        else if (arg == "--pool=on")
            poolFlag = true;
        else if (arg == "--pool=off")
            poolFlag = false;
        else if (arg == "--svc=on")
            svcFlag = true;
        else if (arg == "--svc=off")
            svcFlag = false;
        else if (arg == "--diffreplay=on")
            diffReplayFlag = true;
        else if (arg == "--diffreplay=off")
            diffReplayFlag = false;
        else if (arg.rfind("--section=", 0) == 0) {
            const std::uint64_t n =
                obs::requireUnsignedFlag("--section", argv[i] + 10, 6);
            if (n == 0)
                panic("--section: sections are numbered 1-6");
            sectionFlag = static_cast<unsigned>(n);
        }
        else
            rest.push_back(argv[i]);
    }
    const obs::BenchObsOptions opts = obs::parseBenchObsOptions(
        static_cast<int>(rest.size()), rest.data(),
        "bench-results/perf_campaign.trace.json");
    // Sharding section: fast-forward on unless pinned off, so the
    // throughput numbers reflect the production configuration.
    const bool fig10Ff = opts.fastForward.value_or(true);

    exp::JsonFileSink sink("bench-results", /*include_trials=*/false);

    // --section=N runs exactly one numbered section; without it, all
    // of them run (the full bench).
    const auto want = [&](unsigned section) {
        return !sectionFlag || *sectionFlag == section;
    };

    bool ok = true;
    if (want(1))
        ok = shardingSection(fig10Ff, sink) && ok;
    if (want(2))
        ok = fastForwardSection(opts.fastForward, sink) && ok;
    if (want(3))
        ok = prefixSection(prefixCacheFlag, poolFlag, sink) && ok;
    if (want(4))
        ok = svcSection(svcFlag) && ok;
    if (want(5))
        ok = obsSection(opts.obsLevel) && ok;
    if (want(6))
        ok = diffReplaySection(diffReplayFlag, sink) && ok;
    return ok ? 0 : 1;
}
