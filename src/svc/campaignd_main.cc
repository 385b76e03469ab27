/**
 * @file
 * uscope-campaignd entry point.  The same binary serves as daemon and
 * as worker: the daemon forks and re-execs /proc/self/exe with the
 * --uscope-worker marker, which maybeRunWorkerMain() intercepts here
 * before any daemon flag parsing happens.
 */

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/logging.hh"
#include "obs/cli.hh"
#include "svc/daemon.hh"
#include "svc/worker.hh"

using namespace uscope;

namespace
{

/** The most worker processes one daemon may fork. */
constexpr std::uint64_t kMaxWorkers = 256;

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --socket=PATH [options]\n"
        "\n"
        "  --socket=PATH            AF_UNIX listening socket (required)\n"
        "  --workers=N              worker processes, 1..%llu "
        "(default 2)\n"
        "  --state-dir=DIR          durable campaign state (default off)\n"
        "  --heartbeat-timeout=SEC  busy-worker liveness deadline, "
        "> 0.2 (default 30)\n"
        "  --stream-every=N         default update cadence in trials "
        "(default 0 = off)\n"
        "  --worker-exe=PATH        worker binary (default: this one)\n"
        "  --die-after-trials=N     test hook: worker 0's first "
        "incarnation\n"
        "                           self-SIGKILLs after N trials\n"
        "  --log-level=LEVEL        error|warn|info|debug (default "
        "info;\n"
        "                           USCOPE_LOG also understood)\n"
        "  --log-json               NDJSON log lines on stderr\n"
        "\n"
        "  A dead worker respawns after %.2f s.  SIGTERM drains:\n"
        "  in-flight shards stop at a trial boundary, resumable\n"
        "  manifests persist, the next start resumes them.\n",
        argv0, static_cast<unsigned long long>(kMaxWorkers),
        svc::kRespawnDelaySec);
}

/** Strict non-negative seconds: a leading digit or '.', no trailing
 *  junk, finite.  Signs, whitespace, "inf" and "nan" are rejected. */
std::optional<double>
parseSeconds(const std::string &text)
{
    if (text.empty() ||
        !(std::isdigit(static_cast<unsigned char>(text[0])) ||
          text[0] == '.'))
        return std::nullopt;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (*end != '\0' || !std::isfinite(value))
        return std::nullopt;
    return value;
}

/** A flag value that does not parse is a usage error (exit 2),
 *  reported before anything binds the socket. */
int
badValue(const char *argv0, const char *flag, const std::string &value,
         const char *expected)
{
    std::fprintf(stderr, "%s: bad value '%s' (expected %s)\n", flag,
                 value.c_str(), expected);
    usage(argv0);
    return 2;
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
        else if (auto v = valueOf("--workers=")) {
            const auto n = obs::parseUnsignedValue(v->c_str());
            if (!n || *n < 1 || *n > kMaxWorkers)
                return badValue(argv[0], "--workers", *v,
                                "an integer in 1..256");
            config.workers = static_cast<unsigned>(*n);
        } else if (auto v = valueOf("--state-dir="))
            config.stateDir = *v;
        else if (auto v = valueOf("--heartbeat-timeout=")) {
            // At or below the heartbeat period every busy worker
            // looks silent at the first poll and is SIGKILLed.
            const auto sec = parseSeconds(*v);
            if (!sec || *sec * 1000.0 <= config.heartbeatMs)
                return badValue(argv[0], "--heartbeat-timeout", *v,
                                "seconds above the 0.2 s heartbeat");
            config.heartbeatTimeoutSec = *sec;
        } else if (auto v = valueOf("--stream-every=")) {
            const auto n = obs::parseUnsignedValue(v->c_str());
            if (!n)
                return badValue(argv[0], "--stream-every", *v,
                                "an unsigned trial count");
            config.streamEvery = static_cast<std::size_t>(*n);
        } else if (auto v = valueOf("--worker-exe="))
            config.workerExe = *v;
        else if (auto v = valueOf("--die-after-trials=")) {
            const auto n = obs::parseUnsignedValue(v->c_str());
            if (!n)
                return badValue(argv[0], "--die-after-trials", *v,
                                "an unsigned trial count");
            config.worker0DieAfter = static_cast<std::size_t>(*n);
        } else if (const LogFlag log = applyLogFlag(arg);
                   log != LogFlag::NotLogFlag) {
            if (log == LogFlag::BadValue)
                return badValue(argv[0], "--log-level",
                                valueOf("--log-level=").value_or(""),
                                "error|warn|info|debug");
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
