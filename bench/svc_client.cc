/**
 * @file
 * Command-line client for uscope-campaignd (DESIGN.md §13).
 *
 * Submits one campaign request to a running daemon, streams update
 * frames as NDJSON, and writes the final result + fingerprint to
 * files — which is exactly the shape the svc-smoke CI job needs:
 *
 *   svc_client --socket=S --recipe=fig11_aes_replay --trials=16 \
 *       --stream-every=1 --out=run.ndjson --fingerprint-out=fp.txt
 *
 * `--inprocess` runs the *same* request through exp::runCampaign in
 * this process instead of the service — same recipe table, same
 * spec construction — producing the reference fingerprint a service
 * run must match byte for byte.  `--wait-ready` pings until the
 * daemon answers; `--shutdown` asks it to exit.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fsio.hh"
#include "common/logging.hh"
#include "exp/campaign.hh"
#include "obs/chrome_trace.hh"
#include "obs/cli.hh"
#include "obs/prof.hh"
#include "svc/client.hh"
#include "svc/registry.hh"
#include "svc/worker.hh"

using namespace uscope;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --socket=PATH [--recipe=NAME] [options]\n"
        "       %s attach --socket=PATH --recipe=NAME [options]\n"
        "       %s cancel --socket=PATH (--campaign=ID | request "
        "flags)\n"
        "       %s drain --socket=PATH\n"
        "       %s stats --socket=PATH [--watch=SECS] [--json]\n"
        "       %s trace --dir=DIR --out=PATH\n"
        "\n"
        "  --recipe=NAME         built-in recipe to run\n"
        "  --name=NAME           campaign name (default: recipe)\n"
        "  --trials=N            trial count (0 = recipe default)\n"
        "  --seed=N              master seed (default 42)\n"
        "  --max-retries=N       retry budget per trial\n"
        "  --obs=LEVEL           off|metrics|trace (default off)\n"
        "  --stream-every=N      update frame every N trials\n"
        "  --out=PATH            NDJSON stream of updates + result\n"
        "  --fingerprint-out=P   write the result fingerprint to P\n"
        "  --inprocess           run via exp::runCampaign instead of\n"
        "                        the service (reference fingerprint)\n"
        "  --workers=N           worker threads for --inprocess\n"
        "  --wait-ready          ping until the daemon answers, exit\n"
        "  --shutdown            ask the daemon to exit\n"
        "  --log-level=LEVEL     error|warn|info|debug\n"
        "  --log-json            NDJSON log lines on stderr\n"
        "\n"
        "attach: re-bind a campaign already running in the daemon\n"
        "        (matched by request identity) and stream it to its\n"
        "        result, exactly like the submit that started it;\n"
        "        falls back to submit when nothing matches — with a\n"
        "        state dir that resumes from durable checkpoints.\n"
        "cancel: stop a campaign; the daemon replies with the partial\n"
        "        aggregate and keeps the checkpoint for later resume.\n"
        "drain:  ask the daemon to stop accepting work, cut in-flight\n"
        "        shards at a trial boundary, persist resumable\n"
        "        manifests, and exit.\n"
        "stats: one live ops snapshot (table on stdout; --json for\n"
        "       the raw reply as NDJSON; --watch=SECS to poll —\n"
        "       watch survives daemon restarts, reconnecting with\n"
        "       capped exponential backoff).\n"
        "trace: merge every worker's trace-*.json spill under DIR\n"
        "       into one Perfetto/chrome://tracing document at PATH\n"
        "       (one pid lane per worker).\n",
        argv0, argv0, argv0, argv0, argv0, argv0);
}

/** Human-readable rendering of one stats reply. */
void
printStatsTable(const json::Value &stats)
{
    const json::Value *v = stats.get("uptime_seconds");
    std::printf("daemon: uptime %.1fs, %llu workers%s\n",
                v ? v->asDouble() : 0.0,
                static_cast<unsigned long long>(
                    stats.get("workers") ? stats.get("workers")->asU64()
                                         : 0),
                stats.get("shutting_down") &&
                        stats.get("shutting_down")->asBool()
                    ? " (shutting down)"
                    : "");

    if (const json::Value *campaigns = stats.get("campaigns")) {
        for (const json::Value &c : campaigns->items()) {
            const auto u64 = [&](const char *key) {
                const json::Value *f = c.get(key);
                return f ? f->asU64() : 0;
            };
            std::printf(
                "campaign %llu '%s' (%s): %llu/%llu trials, "
                "%llu resumed, %llu steals, %llu worker deaths, "
                "%llu pending shards, obs=%s, age %.1fs\n",
                static_cast<unsigned long long>(u64("id")),
                c.get("name") ? c.get("name")->asString().c_str()
                              : "?",
                c.get("recipe") ? c.get("recipe")->asString().c_str()
                                : "?",
                static_cast<unsigned long long>(u64("completed")),
                static_cast<unsigned long long>(u64("total")),
                static_cast<unsigned long long>(u64("resumed")),
                static_cast<unsigned long long>(u64("steals")),
                static_cast<unsigned long long>(u64("worker_deaths")),
                static_cast<unsigned long long>(u64("pending_shards")),
                c.get("obs") ? c.get("obs")->asString().c_str()
                             : "off",
                c.get("age_seconds")
                    ? c.get("age_seconds")->asDouble()
                    : 0.0);
        }
    }

    if (const json::Value *workers = stats.get("worker_table")) {
        for (const json::Value &w : workers->items()) {
            const auto u64 = [&](const char *key) {
                const json::Value *f = w.get(key);
                return f ? f->asU64() : 0;
            };
            std::printf(
                "worker %llu: pid %lld, %s, %llu spawns, %llu "
                "kills, heartbeat %.2fs ago",
                static_cast<unsigned long long>(u64("id")),
                static_cast<long long>(
                    w.get("pid") ? w.get("pid")->asU64() : 0),
                w.get("busy") && w.get("busy")->asBool() ? "busy"
                                                         : "idle",
                static_cast<unsigned long long>(u64("spawns")),
                static_cast<unsigned long long>(u64("kills")),
                w.get("heartbeat_age_seconds")
                    ? w.get("heartbeat_age_seconds")->asDouble()
                    : 0.0);
            if (const json::Value *counters = w.get("counters")) {
                for (const auto &[name, value] : counters->entries())
                    std::printf(", %s=%llu", name.c_str(),
                                static_cast<unsigned long long>(
                                    value.asU64()));
            }
            std::printf("\n");
        }
    }

    if (const json::Value *prof = stats.get("prof")) {
        for (const auto &[phase, summary] : prof->entries()) {
            std::printf(
                "%s: n=%llu mean=%.6fs max=%.6fs\n", phase.c_str(),
                static_cast<unsigned long long>(
                    summary.get("count") ? summary.get("count")->asU64()
                                         : 0),
                summary.get("mean_seconds")
                    ? summary.get("mean_seconds")->asDouble()
                    : 0.0,
                summary.get("max_seconds")
                    ? summary.get("max_seconds")->asDouble()
                    : 0.0);
        }
    }
}

int
statsMain(const std::string &socket, int watch_seconds, bool as_json)
{
    // Watch mode survives daemon restarts: a one-shot query fails
    // fast, but --watch reconnects with capped exponential backoff
    // (500 ms doubling to 8 s) so a dashboard loop rides out a drain
    // + restart without operator intervention.
    int backoff_ms = 500;
    constexpr int kBackoffCapMs = 8000;
    for (;;) {
        svc::Client client(socket, /*connect_timeout_ms=*/1000);
        std::optional<json::Value> stats;
        if (client.connected())
            stats = client.stats();
        if (!stats) {
            if (watch_seconds <= 0) {
                std::fprintf(stderr,
                             client.connected()
                                 ? "no stats reply from '%s'\n"
                                 : "cannot connect to '%s'\n",
                             socket.c_str());
                return 1;
            }
            std::fprintf(stderr,
                         "daemon at '%s' unreachable; retrying in "
                         "%d ms\n",
                         socket.c_str(), backoff_ms);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff_ms));
            backoff_ms = std::min(backoff_ms * 2, kBackoffCapMs);
            continue;
        }
        backoff_ms = 500; // healthy again; reset the ladder
        if (as_json)
            std::printf("%s\n", stats->dump().c_str());
        else
            printStatsTable(*stats);
        std::fflush(stdout);
        if (watch_seconds <= 0)
            return 0;
        std::this_thread::sleep_for(
            std::chrono::seconds(watch_seconds));
    }
}

int
traceMain(const std::string &dir, const std::string &out_path)
{
    if (dir.empty() || out_path.empty()) {
        std::fprintf(stderr,
                     "trace needs both --dir=DIR and --out=PATH\n");
        return 2;
    }
    std::vector<obs::TraceSpill> spills = obs::loadTraceSpills(dir);
    if (spills.empty()) {
        std::fprintf(stderr, "no trace-*.json spills under '%s'\n",
                     dir.c_str());
        return 1;
    }
    const std::size_t count = spills.size();
    if (!obs::writeTraceFile(out_path,
                             obs::mergeChromeTraces(std::move(spills))))
        return 1;
    std::printf("merged %zu spill(s) from '%s' into %s\n", count,
                dir.c_str(), out_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Any service binary can be a worker; harmless here, but it keeps
    // the "one binary, every role" invariant uniform.
    int worker_exit = 0;
    if (svc::maybeRunWorkerMain(argc, argv, &worker_exit))
        return worker_exit;
    configureLogFromEnv();

    std::string subcommand;
    int first_flag = 1;
    if (argc > 1 && argv[1][0] != '-') {
        subcommand = argv[1];
        first_flag = 2;
        if (subcommand != "stats" && subcommand != "trace" &&
            subcommand != "attach" && subcommand != "cancel" &&
            subcommand != "drain") {
            std::fprintf(stderr, "unknown subcommand '%s'\n",
                         subcommand.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    std::string socket, out_path, fingerprint_path, trace_dir;
    svc::CampaignRequest request;
    std::size_t stream_every = 0;
    unsigned inprocess_workers = 1;
    int watch_seconds = 0;
    std::uint64_t cancel_id = 0;
    bool inprocess = false, wait_ready = false, shutdown = false;
    bool stats_json = false;

    for (int i = first_flag; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto valueOf = [&](const char *prefix)
            -> std::optional<std::string> {
            const std::size_t n = std::string(prefix).size();
            if (arg.rfind(prefix, 0) == 0)
                return arg.substr(n);
            return std::nullopt;
        };
        // Checked numeric parse: a typo'd --trials=1e6 or --workers=-1
        // is a usage error (exit 2), not a silent 0 or a wrapped
        // 4-billion-worker request.
        const auto numberOf =
            [&](const std::string &text,
                const char *flag) -> std::optional<std::uint64_t> {
            const std::optional<std::uint64_t> n =
                obs::parseUnsignedValue(text.c_str());
            if (!n)
                std::fprintf(stderr,
                             "%s: bad numeric value '%s' (expected an "
                             "unsigned number)\n",
                             flag, text.c_str());
            return n;
        };
        if (auto v = valueOf("--socket="))
            socket = *v;
        else if (auto v = valueOf("--recipe="))
            request.recipe = *v;
        else if (auto v = valueOf("--name="))
            request.name = *v;
        else if (auto v = valueOf("--trials=")) {
            const auto n = numberOf(*v, "--trials");
            if (!n)
                return 2;
            request.trials = static_cast<std::size_t>(*n);
        } else if (auto v = valueOf("--seed=")) {
            const auto n = numberOf(*v, "--seed");
            if (!n)
                return 2;
            request.masterSeed = *n;
        } else if (auto v = valueOf("--max-retries=")) {
            const auto n = numberOf(*v, "--max-retries");
            if (!n)
                return 2;
            request.maxRetries = static_cast<unsigned>(*n);
        } else if (auto v = valueOf("--campaign=")) {
            const auto n = numberOf(*v, "--campaign");
            if (!n)
                return 2;
            cancel_id = *n;
        } else if (auto v = valueOf("--obs=")) {
            const std::optional<obs::ObsLevel> level =
                obs::parseObsLevel(*v);
            if (!level) {
                std::fprintf(stderr, "unknown obs level '%s'\n",
                             v->c_str());
                return 2;
            }
            request.obs = *level;
        } else if (auto v = valueOf("--stream-every=")) {
            const auto n = numberOf(*v, "--stream-every");
            if (!n)
                return 2;
            stream_every = static_cast<std::size_t>(*n);
        } else if (auto v = valueOf("--out="))
            out_path = *v;
        else if (auto v = valueOf("--fingerprint-out="))
            fingerprint_path = *v;
        else if (auto v = valueOf("--workers=")) {
            const auto n = numberOf(*v, "--workers");
            if (!n)
                return 2;
            inprocess_workers = static_cast<unsigned>(*n);
        } else if (auto v = valueOf("--watch=")) {
            const auto n = numberOf(*v, "--watch");
            if (!n)
                return 2;
            watch_seconds = static_cast<int>(*n);
        } else if (auto v = valueOf("--dir="))
            trace_dir = *v;
        else if (const LogFlag log = applyLogFlag(arg);
                 log != LogFlag::NotLogFlag) {
            if (log == LogFlag::BadValue) {
                std::fprintf(stderr,
                             "--log-level: bad value '%s' (expected "
                             "error|warn|info|debug)\n",
                             valueOf("--log-level=").value_or("").c_str());
                return 2;
            }
        } else if (arg == "--json")
            stats_json = true;
        else if (arg == "--inprocess")
            inprocess = true;
        else if (arg == "--wait-ready")
            wait_ready = true;
        else if (arg == "--shutdown")
            shutdown = true;
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (subcommand == "trace")
        return traceMain(trace_dir, out_path);
    if (subcommand == "stats") {
        if (socket.empty()) {
            usage(argv[0]);
            return 2;
        }
        return statsMain(socket, watch_seconds, stats_json);
    }

    if (inprocess) {
        // The reference arm: the identical request through the
        // identical registry, executed by the in-process runner.
        if (request.recipe.empty()) {
            usage(argv[0]);
            return 2;
        }
        exp::CampaignSpec spec = svc::buildSpec(request);
        spec.workers = inprocess_workers;
        const exp::CampaignResult result = exp::runCampaign(spec);
        const std::string fingerprint =
            exp::fnv1aHex(exp::deterministicFingerprint(result));
        std::printf("inprocess: %zu trials, %zu ok, fingerprint %s\n",
                    result.trialCount, result.aggregate.ok,
                    fingerprint.c_str());
        if (!fingerprint_path.empty())
            writeFileAtomic(fingerprint_path, fingerprint + "\n");
        if (!out_path.empty())
            writeFileAtomic(out_path,
                            result.toJson(false).dump() + "\n");
        return result.aggregate.failed == 0 ? 0 : 1;
    }

    if (socket.empty()) {
        usage(argv[0]);
        return 2;
    }
    svc::Client client(socket);
    if (!client.connected()) {
        std::fprintf(stderr, "cannot connect to '%s'\n",
                     socket.c_str());
        return 1;
    }
    if (wait_ready) {
        for (int i = 0; i < 100; ++i)
            if (client.ping())
                return 0;
        return 1;
    }
    if (shutdown)
        return client.shutdownDaemon() ? 0 : 1;
    if (subcommand == "drain") {
        if (!client.drainDaemon()) {
            std::fprintf(stderr, "no drain acknowledgement from "
                                 "'%s'\n",
                         socket.c_str());
            return 1;
        }
        std::printf("daemon draining\n");
        return 0;
    }
    if (subcommand == "cancel") {
        if (cancel_id == 0 && request.recipe.empty()) {
            std::fprintf(stderr, "cancel needs --campaign=ID or "
                                 "request flags\n");
            return 2;
        }
        const svc::SubmitResult result =
            cancel_id ? client.cancel(cancel_id)
                      : client.cancel(request);
        if (!result.cancelled) {
            std::fprintf(stderr, "cancel failed: %s\n",
                         result.error.c_str());
            return result.notFound ? 3 : 1;
        }
        std::printf("campaign %llu cancelled (%s)\n",
                    static_cast<unsigned long long>(
                        result.campaignId),
                    result.error.c_str());
        if (!result.partialJson.empty())
            std::printf("partial: %s\n", result.partialJson.c_str());
        return 0;
    }
    if (request.recipe.empty()) {
        usage(argv[0]);
        return 2;
    }

    std::ofstream stream;
    if (!out_path.empty())
        stream.open(out_path, std::ios::binary | std::ios::trunc);
    const auto on_update = [&](const json::Value &update) {
        if (stream.is_open()) {
            stream << update.dump() << '\n';
            stream.flush(); // the smoke test tails this file live
        }
    };
    svc::SubmitResult result;
    if (subcommand == "attach") {
        result = client.attach(request, stream_every, on_update);
        if (result.notFound) {
            // Nothing running matches: either the campaign finished,
            // or a restarted daemon has not resumed it (no state
            // dir).  Submitting is the race-proof fallback — with
            // durable state it resumes, bit-identically.
            std::fprintf(stderr,
                         "no running campaign matches; submitting "
                         "instead\n");
            result = client.submit(request, stream_every, on_update);
        }
    } else {
        result = client.submit(request, stream_every, on_update);
    }
    if (result.cancelled) {
        std::fprintf(stderr, "campaign %llu cancelled (%s)\n",
                     static_cast<unsigned long long>(
                         result.campaignId),
                     result.error.c_str());
        if (!result.partialJson.empty() && stream.is_open())
            stream << result.partialJson << '\n';
        return 3;
    }
    if (!result.ok) {
        std::fprintf(stderr, "campaign failed: %s\n",
                     result.error.c_str());
        return 1;
    }
    std::printf("service: %zu trials (%zu resumed), %u worker "
                "deaths, %zu steals, %zu updates, fingerprint %s\n",
                result.totalTrials, result.resumedTrials,
                result.workerDeaths, result.steals, result.updates,
                result.fingerprint.c_str());
    if (stream.is_open())
        stream << result.resultJson << '\n';
    if (!fingerprint_path.empty())
        writeFileAtomic(fingerprint_path, result.fingerprint + "\n");
    return 0;
}
