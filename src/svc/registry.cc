#include "svc/registry.hh"

#include <array>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "attack/aes_attack.hh"
#include "attack/port_contention.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/microscope.hh"
#include "crypto/aes.hh"
#include "crypto/aes_codegen.hh"
#include "os/machine.hh"

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

std::uint64_t
u64Param(const CampaignRequest &req, const char *key,
         std::uint64_t fallback)
{
    const json::Value *v = req.params.get(key);
    return v ? v->asU64(fallback) : fallback;
}

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
    const std::uint64_t work = u64Param(req, "work", 2000);
    // Failure-mode hooks for the service's escalation suites: trial
    // `hang_index` sleeps `hang_ms` before computing — long enough
    // (with compressed DaemonConfig timings) to trip the daemon's
    // warn -> kill -> TimedOut ladder, yet producing byte-identical
    // output whenever it *is* allowed to finish (a sleep changes no
    // results).
    const std::uint64_t hang_index =
        u64Param(req, "hang_index", ~std::uint64_t{0});
    const std::uint64_t hang_ms = u64Param(req, "hang_ms", 60000);
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
        static_cast<unsigned>(u64Param(req, "samples", 120));
    const auto replays =
        static_cast<unsigned>(u64Param(req, "replays", 8));
    const auto threshold =
        static_cast<Cycles>(u64Param(req, "threshold", 120));
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
        config.seed = ctx.seed;
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
        config.seed = ctx.seed;
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

constexpr unsigned prefixWarmRuns = 4;
constexpr Cycles prefixHitThreshold = 100;

/** One fixed campaign-wide AES key (the warmup is shared by every
 *  trial, so it cannot depend on a trial seed). */
constexpr std::array<std::uint8_t, 16> prefixKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

/** The warmup artifact: every handle the prefix mints, valid in each
 *  fork because forks share the warmed-up machine state. */
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

    spec.warmup = [](os::Machine &m) -> std::shared_ptr<const void> {
        auto rig = std::make_shared<PrefixRig>();
        os::Kernel &kernel = m.kernel();
        rig->pid = kernel.createProcess("aes-enclave");
        rig->layout =
            crypto::setupAesVictim(kernel, rig->pid, rig->decKey);
        for (unsigned t = 0; t < 5; ++t)
            rig->tablePa[t] =
                *kernel.translate(rig->pid, rig->layout.tableVa(t));
        rig->program = std::make_shared<const cpu::Program>(
            crypto::buildAesDecryptProgram(rig->layout));

        std::uint8_t ct[16];
        const std::uint8_t warm_plain[16] = {};
        crypto::encryptBlock(rig->encKey, warm_plain, ct);
        crypto::loadCiphertext(kernel, rig->pid, rig->layout, ct);
        for (unsigned run = 0; run < prefixWarmRuns; ++run) {
            kernel.startOnContext(rig->pid, 0, rig->program);
            m.runUntilHalted(0, 50'000'000);
        }
        return rig;
    };

    spec.body = [](const exp::TrialContext &ctx) {
        os::Machine &m = *ctx.fork;
        const auto *rig =
            static_cast<const PrefixRig *>(ctx.warmupData);

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

        std::vector<attack::LineProbe> replays;
        ms::Microscope scope(m);
        ms::AttackRecipe recipe;
        recipe.victim = rig->pid;
        recipe.replayHandle = rig->layout.td0;
        recipe.pivot = rig->layout.rk;
        recipe.confidence = 3;
        recipe.maxEpisodes = 1;
        recipe.walkPlan = ms::PageWalkPlan::longest();
        recipe.onReplay = [&](const ms::ReplayEvent &) {
            replays.push_back(probeTable(1));
            return true;
        };
        recipe.beforeResume = [&](const ms::ReplayEvent &) {
            primeTables();
        };
        scope.setRecipe(std::move(recipe));

        primeTables();
        scope.arm();
        m.kernel().startOnContext(rig->pid, 0, rig->program);
        m.runUntilHalted(0, 50'000'000);
        scope.disarm();

        std::set<unsigned> expected;
        const crypto::DecAccessTrace trace =
            crypto::traceDecryption(rig->decKey, ct);
        for (std::uint8_t index : trace.indices[0][1])
            expected.insert(crypto::tableLineOf(index));
        std::array<unsigned, 16> votes{};
        const std::size_t primed =
            replays.size() > 1 ? replays.size() - 1 : 0;
        for (std::size_t i = 1; i < replays.size(); ++i)
            for (unsigned line :
                 replays[i].hitLines(prefixHitThreshold))
                ++votes[line];
        std::set<unsigned> majority;
        for (unsigned line = 0; line < 16; ++line)
            if (votes[line] * 2 > primed)
                majority.insert(line);
        const bool matches = primed > 0 && majority == expected;

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

void
registerBuiltins(CampaignRegistry &registry)
{
    registry.add("selftest",
                 "machine-less deterministic workload (test/bench "
                 "plumbing)", selftestRecipe);
    registry.add("fig10_port_contention",
                 "SMT port-contention sweep (Fig. 10 shape)",
                 fig10Recipe);
    registry.add("fig11_aes_replay",
                 "AES replay timelines, random keys (Fig. 11 shape)",
                 fig11Recipe);
    registry.add("aes_prefix_replay",
                 "warmup-heavy AES replay arm (prefix snapshots, "
                 "DESIGN.md §12)", aesPrefixRecipe);
}

} // namespace

CampaignRegistry &
CampaignRegistry::global()
{
    static CampaignRegistry *registry = [] {
        auto *r = new CampaignRegistry;
        registerBuiltins(*r);
        return r;
    }();
    return *registry;
}

void
CampaignRegistry::add(std::string name, std::string description,
                      RecipeFn fn)
{
    for (auto &[existing, entry] : recipes_) {
        if (existing == name) {
            entry = Entry{std::move(description), std::move(fn)};
            return;
        }
    }
    recipes_.emplace_back(
        std::move(name), Entry{std::move(description), std::move(fn)});
}

bool
CampaignRegistry::has(const std::string &name) const
{
    for (const auto &[existing, entry] : recipes_)
        if (existing == name)
            return true;
    return false;
}

std::vector<std::pair<std::string, std::string>>
CampaignRegistry::list() const
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &[name, entry] : recipes_)
        out.emplace_back(name, entry.description);
    return out;
}

exp::CampaignSpec
CampaignRegistry::build(const CampaignRequest &request) const
{
    const Entry *entry = nullptr;
    for (const auto &[name, e] : recipes_)
        if (name == request.recipe)
            entry = &e;
    if (!entry)
        fatal("svc: unknown campaign recipe '%s'",
              request.recipe.c_str());

    exp::CampaignSpec spec = entry->fn(request);
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

exp::CampaignSpec
buildSpec(const CampaignRequest &request)
{
    return CampaignRegistry::global().build(request);
}

} // namespace uscope::svc
