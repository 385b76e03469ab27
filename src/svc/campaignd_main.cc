/**
 * @file
 * uscope-campaignd entry point.  The same binary serves as daemon and
 * as worker: the daemon forks and re-execs /proc/self/exe with the
 * --uscope-worker marker, which maybeRunWorkerMain() intercepts here
 * before any daemon flag parsing happens.
 */

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/logging.hh"
#include "svc/daemon.hh"
#include "svc/worker.hh"

using namespace uscope;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --socket=PATH [options]\n"
        "\n"
        "  --socket=PATH            AF_UNIX listening socket (required)\n"
        "  --workers=N              worker processes (default 2)\n"
        "  --state-dir=DIR          durable campaign state (default off)\n"
        "  --heartbeat-timeout=SEC  busy-worker liveness deadline "
        "(default 30)\n"
        "  --queue-limit=N          campaigns in flight before "
        "submits are\n"
        "                           shed with {\"type\":\"busy\"} "
        "(default 32)\n"
        "\n"
        "  Every failure-handling knob (heartbeats, backoff, trial\n"
        "  escalation, drain grace) also reads USCOPE_SVC_* env\n"
        "  overrides; see src/svc/tunables.hh.  SIGTERM drains:\n"
        "  in-flight shards stop at a trial boundary, resumable\n"
        "  manifests persist, the next start resumes them.\n"
        "  --stream-every=N         default update cadence in trials "
        "(default 0 = off)\n"
        "  --worker-exe=PATH        worker binary (default: this one)\n"
        "  --die-after-trials=N     test hook: worker 0's first "
        "incarnation\n"
        "                           self-SIGKILLs after N trials\n"
        "  --log-level=LEVEL        error|warn|info|debug (default "
        "info;\n"
        "                           USCOPE_LOG also understood)\n"
        "  --log-json               NDJSON log lines on stderr\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    int worker_exit = 0;
    if (svc::maybeRunWorkerMain(argc, argv, &worker_exit))
        return worker_exit;

    configureLogFromEnv();
    svc::DaemonConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto valueOf = [&](const char *prefix)
            -> std::optional<std::string> {
            const std::size_t n = std::string(prefix).size();
            if (arg.rfind(prefix, 0) == 0)
                return arg.substr(n);
            return std::nullopt;
        };
        if (auto v = valueOf("--socket="))
            config.socketPath = *v;
        else if (auto v = valueOf("--workers="))
            config.workers =
                static_cast<unsigned>(std::atoi(v->c_str()));
        else if (auto v = valueOf("--state-dir="))
            config.stateDir = *v;
        else if (auto v = valueOf("--heartbeat-timeout="))
            config.tun.heartbeatTimeoutSec = std::atof(v->c_str());
        else if (auto v = valueOf("--queue-limit="))
            config.tun.queueLimit =
                static_cast<std::size_t>(std::atoll(v->c_str()));
        else if (auto v = valueOf("--stream-every="))
            config.streamEvery =
                static_cast<std::size_t>(std::atoll(v->c_str()));
        else if (auto v = valueOf("--worker-exe="))
            config.workerExe = *v;
        else if (auto v = valueOf("--die-after-trials="))
            config.worker0DieAfter =
                static_cast<std::size_t>(std::atoll(v->c_str()));
        else if (auto v = valueOf("--log-level=")) {
            LogConfig lc = logConfig();
            if (auto level = parseLogLevel(*v)) {
                lc.level = *level;
                configureLog(lc);
            } else {
                std::fprintf(stderr, "unknown log level '%s'\n",
                             v->c_str());
                return 2;
            }
        } else if (arg == "--log-json") {
            LogConfig lc = logConfig();
            lc.json = true;
            configureLog(lc);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (config.socketPath.empty()) {
        usage(argv[0]);
        return 2;
    }

    try {
        svc::Daemon daemon(std::move(config));
        return daemon.run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "uscope-campaignd: %s\n", e.what());
        return 1;
    }
}
