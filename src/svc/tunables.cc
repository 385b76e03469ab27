#include "svc/tunables.hh"

#include <cstdlib>
#include <string>

#include "common/logging.hh"

namespace uscope::svc
{

namespace
{

constexpr Logger log_{"svc.tunables"};

void
readDouble(const char *name, double *out)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return;
    char *end = nullptr;
    const double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0' || parsed < 0.0) {
        log_.warn("%s='%s' is not a non-negative number; keeping %g",
                  name, value, *out);
        return;
    }
    *out = parsed;
}

void
readUnsigned(const char *name, unsigned *out)
{
    double v = static_cast<double>(*out);
    readDouble(name, &v);
    *out = static_cast<unsigned>(v);
}

void
readSize(const char *name, std::size_t *out)
{
    double v = static_cast<double>(*out);
    readDouble(name, &v);
    *out = static_cast<std::size_t>(v);
}

void
readMs(const char *name, int *out)
{
    double v = static_cast<double>(*out);
    readDouble(name, &v);
    *out = static_cast<int>(v);
}

} // namespace

Tunables
Tunables::fromEnv()
{
    Tunables t;
    readMs("USCOPE_SVC_HEARTBEAT_MS", &t.heartbeatMs);
    readDouble("USCOPE_SVC_HEARTBEAT_TIMEOUT_SEC",
               &t.heartbeatTimeoutSec);
    readDouble("USCOPE_SVC_TRIAL_WARN_SEC", &t.trialWarnSec);
    readUnsigned("USCOPE_SVC_TRIAL_KILL_LIMIT", &t.trialKillLimit);
    readDouble("USCOPE_SVC_BACKOFF_INITIAL_SEC", &t.backoffInitialSec);
    readDouble("USCOPE_SVC_BACKOFF_MAX_SEC", &t.backoffMaxSec);
    readDouble("USCOPE_SVC_BACKOFF_JITTER", &t.backoffJitter);
    readUnsigned("USCOPE_SVC_MAX_RESPAWNS", &t.maxRespawns);
    readSize("USCOPE_SVC_QUEUE_LIMIT", &t.queueLimit);
    readDouble("USCOPE_SVC_DRAIN_GRACE_SEC", &t.drainGraceSec);
    if (t.heartbeatMs <= 0)
        t.heartbeatMs = 1;
    if (t.backoffMaxSec < t.backoffInitialSec)
        t.backoffMaxSec = t.backoffInitialSec;
    if (t.backoffJitter > 1.0)
        t.backoffJitter = 1.0;
    return t;
}

Tunables
Tunables::environmentDefault()
{
    static const Tunables cached = fromEnv();
    return cached;
}

} // namespace uscope::svc
