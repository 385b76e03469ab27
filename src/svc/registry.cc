#include "svc/registry.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <iterator>
#include <set>
#include <thread>
#include <utility>

#include "attack/aes_attack.hh"
#include "attack/port_contention.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/microscope.hh"
#include "os/machine.hh"
#include "svc/wire.hh"

namespace uscope::svc
{

json::Value
CampaignRequest::toJson() const
{
    json::Value v =
        json::Value::object()
            .set("recipe", recipe)
            .set("name", name)
            .set("trials", static_cast<std::uint64_t>(trials))
            .set("master_seed", masterSeed)
            .set("cycle_budget", cycleBudget)
            .set("max_retries", static_cast<std::uint64_t>(maxRetries))
            .set("params", params);
    // Omitted at Off so pre-§14 request JSON round-trips unchanged.
    if (obs != obs::ObsLevel::Off)
        v.set("obs", obs::obsLevelName(obs));
    return v;
}

std::optional<CampaignRequest>
CampaignRequest::fromJson(const json::Value &v)
{
    if (!v.isObject())
        return std::nullopt;
    const json::Value *recipe = v.get("recipe");
    if (!recipe || !recipe->isString() || recipe->asString().empty())
        return std::nullopt;
    CampaignRequest out;
    out.recipe = recipe->asString();
    if (const json::Value *f = v.get("name"))
        out.name = f->asString();
    if (const json::Value *f = v.get("trials"))
        out.trials = static_cast<std::size_t>(f->asU64());
    if (const json::Value *f = v.get("master_seed"))
        out.masterSeed = f->asU64(42);
    if (const json::Value *f = v.get("cycle_budget"))
        out.cycleBudget = f->asU64();
    if (const json::Value *f = v.get("max_retries"))
        out.maxRetries = static_cast<unsigned>(f->asU64());
    if (const json::Value *f = v.get("params"))
        out.params = *f;
    if (const json::Value *f = v.get("obs")) {
        if (std::optional<obs::ObsLevel> level =
                obs::parseObsLevel(f->asString()))
            out.obs = *level;
        else
            return std::nullopt;
    }
    return out;
}

std::string
CampaignRequest::identityKey() const
{
    // Everything result-determining, nothing else (no stream cadence,
    // no client identity, no observability level — none of them
    // changes results).  params.dump() is deterministic — objects
    // preserve insertion order — and requests round-trip through
    // toJson/fromJson on the wire, so both ends agree on the key.
    // Reconnecting clients match a running campaign by this same key,
    // so a resubmit at another obs level attaches to the original.
    CampaignRequest identity = *this;
    identity.obs = obs::ObsLevel::Off;
    return identity.toJson().dump();
}

// ---------------------------------------------------------------------
// Built-in recipes.
// ---------------------------------------------------------------------

namespace
{

/**
 * Machine-less deterministic number crunching: the service's own
 * test workload.  Microseconds per trial, yet it exercises the full
 * trial plumbing — seeds, Summary merges, metric snapshots, payload
 * round-trips — so the kill/steal/resume and lifecycle suites run in
 * test-suite time instead of simulation time.
 */
exp::CampaignSpec
selftestRecipe(const CampaignRequest &req)
{
    const std::uint64_t work = field(req.params, "work", 2000);
    // Failure-mode hooks for the service's escalation suites: trial
    // `hang_index` sleeps `hang_ms` before computing — long enough
    // (with compressed DaemonConfig timings) to trip the daemon's
    // warn -> kill -> TimedOut ladder, yet producing byte-identical
    // output whenever it *is* allowed to finish (a sleep changes no
    // results).
    const std::uint64_t hang_index =
        field(req.params, "hang_index", ~std::uint64_t{0});
    const std::uint64_t hang_ms = field(req.params, "hang_ms", 60000);
    exp::CampaignSpec spec;
    spec.trials = 32;
    spec.structureKey = "selftest";
    spec.body = [work, hang_index,
                 hang_ms](const exp::TrialContext &ctx) {
        if (ctx.index == hang_index)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(hang_ms));
        Rng rng(ctx.seed);
        std::uint64_t acc = ctx.seed;
        exp::TrialOutput out;
        for (std::uint64_t i = 0; i < work; ++i) {
            acc = mix64(acc ^ rng.next());
            if (i % 64 == 0)
                out.metric.add(
                    static_cast<double>(acc >> 40));
        }
        out.simCycles = work;
        obs::MetricRegistry registry;
        registry.counter("selftest.iterations").inc(work);
        registry.gauge("selftest.acc_norm")
            .set(static_cast<double>(acc >> 11) / (1ull << 53));
        out.metrics = registry.snapshot();
        out.payload = json::Value::object()
                          .set("acc", acc)
                          .set("work", work);
        return out;
    };
    return spec;
}

/** Fig.-10-shaped SMT port-contention sweep (div vs mul arms). */
exp::CampaignSpec
fig10Recipe(const CampaignRequest &req)
{
    const auto samples =
        static_cast<unsigned>(field(req.params, "samples", 120));
    const auto replays =
        static_cast<unsigned>(field(req.params, "replays", 8));
    const auto threshold =
        static_cast<Cycles>(field(req.params, "threshold", 120));
    exp::CampaignSpec spec;
    spec.trials = 8;
    spec.structureKey = "fig10_port_contention";
    spec.body = [samples, replays,
                 threshold](const exp::TrialContext &ctx) {
        attack::PortContentionConfig config;
        config.victimDivides = ctx.index % 2 == 1;
        config.samples = samples;
        config.replays = replays;
        config.threshold = threshold;
        // Self-built machine from the trial's config (factory, obs
        // dial); the executor cannot drain it, so the body hands the
        // drained log back.
        config.machine = ctx.machine;
        attack::PortContentionResult result =
            attack::runPortContentionAttack(config);

        exp::TrialOutput out;
        out.trace = std::move(result.events);
        for (Cycles sample : result.samples)
            out.metric.add(static_cast<double>(sample));
        out.metrics = result.metrics;
        out.simCycles = result.totalCycles;
        out.scope.episodes = 1;
        out.scope.totalReplays = result.replaysDone;
        out.payload =
            json::Value::object()
                .set("arm", config.victimDivides ? "div" : "mul")
                .set("above_threshold", result.aboveThreshold)
                .set("inferred_divides", result.inferredDivides);
        return out;
    };
    return spec;
}

/** Fig.-11-shaped AES replay: one full timeline per trial, random
 *  key and plaintext from the trial stream. */
exp::CampaignSpec
fig11Recipe(const CampaignRequest &)
{
    exp::CampaignSpec spec;
    spec.trials = 4;
    spec.structureKey = "fig11_aes_replay";
    spec.body = [](const exp::TrialContext &ctx) {
        attack::AesAttackConfig config;
        Rng rng(ctx.seed);
        for (unsigned i = 0; i < 16; ++i) {
            config.key[i] = static_cast<std::uint8_t>(rng.below(256));
            config.plaintext[i] =
                static_cast<std::uint8_t>(rng.below(256));
        }
        config.machine = ctx.machine;
        attack::Fig11Result fig11 = attack::runFig11(config);

        exp::TrialOutput out;
        out.trace = std::move(fig11.events);
        out.metric.add(fig11.matchesGroundTruth ? 1.0 : 0.0);
        out.simCycles = fig11.totalCycles;
        out.metrics = fig11.metrics;
        json::Value probes = json::Value::array();
        for (const attack::LineProbe &probe : fig11.replays) {
            json::Value row = json::Value::array();
            for (Cycles latency : probe.latency)
                row.push(latency);
            probes.push(std::move(row));
        }
        out.payload =
            json::Value::object()
                .set("consistent", fig11.consistentAcrossPrimedReplays)
                .set("matches_ground_truth", fig11.matchesGroundTruth)
                .set("probe_latencies", std::move(probes));
        return out;
    };
    return spec;
}

/**
 * The warmup-heavy arm (DESIGN.md §12 / bench/perf_campaign section
 * 3) as a service recipe: an expensive shared prefix — enclave build,
 * victim codegen, warm decryptions — snapshotted once per worker and
 * forked per trial.  The structureKey is what lets a persistent
 * service worker reuse its post-warmup snapshot across *campaigns*,
 * not just across one campaign's trials.
 */
exp::CampaignSpec
aesPrefixRecipe(const CampaignRequest &)
{
    exp::CampaignSpec spec;
    spec.trials = 12;
    spec.structureKey = "aes_prefix_replay";
    spec.warmup = attack::aesPrefixWarmup;

    spec.body = [](const exp::TrialContext &ctx) {
        os::Machine &m = *ctx.fork;
        os::Kernel &kernel = m.kernel();
        const auto &enclave =
            *static_cast<const attack::AesEnclave *>(ctx.warmupData);

        Rng rng(ctx.seed);
        std::uint8_t plaintext[16];
        for (unsigned i = 0; i < 16; ++i)
            plaintext[i] = static_cast<std::uint8_t>(rng.below(256));
        const std::array<std::uint8_t, 16> ct =
            enclave.loadPlaintext(kernel, plaintext);

        std::vector<attack::LineProbe> replays;
        ms::Microscope scope(m);
        ms::AttackRecipe recipe;
        recipe.victim = enclave.pid;
        recipe.replayHandle = enclave.layout.td0;
        recipe.pivot = enclave.layout.rk;
        recipe.confidence = 3;
        recipe.maxEpisodes = 1;
        recipe.walkPlan = ms::PageWalkPlan::longest();
        recipe.onReplay = [&](const ms::ReplayEvent &) {
            replays.push_back(enclave.probeTable(kernel, 1));
            return true;
        };
        recipe.beforeResume = [&](const ms::ReplayEvent &) {
            enclave.primeTables(kernel);
        };
        scope.setRecipe(std::move(recipe));

        enclave.primeTables(kernel);
        scope.arm();
        kernel.startOnContext(enclave.pid, 0, enclave.program);
        m.runUntilHalted(0, 50'000'000);
        scope.disarm();

        // Replay 0 runs unprimed; the vote is over the primed ones.
        std::vector<std::set<unsigned>> primed;
        for (std::size_t i = 1; i < replays.size(); ++i)
            primed.push_back(replays[i].hitLines());
        const bool matches =
            !primed.empty() && attack::majorityLines(primed) ==
                                   enclave.round1Td1Lines(ct.data());

        exp::TrialOutput out;
        out.metric.add(matches ? 1.0 : 0.0);
        out.simCycles = m.cycle() - ctx.forkCycle;
        out.scope.episodes = 1;
        out.scope.totalReplays = scope.stats().totalReplays;
        obs::MetricRegistry registry;
        m.exportMetrics(registry);
        scope.exportMetrics(registry);
        out.metrics = registry.snapshot();

        json::Value probes = json::Value::array();
        for (const attack::LineProbe &probe : replays) {
            json::Value row = json::Value::array();
            for (Cycles latency : probe.latency)
                row.push(latency);
            probes.push(std::move(row));
        }
        out.payload = json::Value::object()
                          .set("matches_ground_truth", matches)
                          .set("probe_latencies", std::move(probes));
        return out;
    };
    return spec;
}

/** The recipes buildSpec knows, by request name. */
constexpr struct
{
    const char *name;
    exp::CampaignSpec (*build)(const CampaignRequest &);
} builtinRecipes[] = {
    {"selftest", selftestRecipe},
    {"fig10_port_contention", fig10Recipe},
    {"fig11_aes_replay", fig11Recipe},
    {"aes_prefix_replay", aesPrefixRecipe},
};

} // namespace

exp::CampaignSpec
buildSpec(const CampaignRequest &request)
{
    const auto *recipe = std::find_if(
        std::begin(builtinRecipes), std::end(builtinRecipes),
        [&](const auto &r) { return request.recipe == r.name; });
    if (recipe == std::end(builtinRecipes))
        fatal("svc: unknown campaign recipe '%s'",
              request.recipe.c_str());

    exp::CampaignSpec spec = recipe->build(request);
    spec.name = request.name.empty() ? request.recipe : request.name;
    if (request.trials)
        spec.trials = request.trials;
    spec.masterSeed = request.masterSeed;
    spec.cycleBudget = request.cycleBudget;
    spec.maxRetries = request.maxRetries;
    // The daemon attaches checkpoint directories to durable
    // campaigns, and checkpoints require per-trial metrics.
    spec.perTrialMetrics = true;
    spec.obsLevel = request.obs;
    if (!spec.body)
        panic("svc: recipe '%s' produced a spec without a body",
              request.recipe.c_str());
    return spec;
}

} // namespace uscope::svc
