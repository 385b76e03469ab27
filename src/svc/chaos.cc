#include "svc/chaos.hh"

#include <cstdlib>
#include <mutex>

#include "common/logging.hh"
#include "common/random.hh"

namespace uscope::svc
{

namespace
{

constexpr Logger log_{"svc.chaos"};

/** One independent deterministic stream per injection site, reseeded
 *  whenever the plan or the process role changes. */
enum Site : std::size_t {
    SiteTear = 0,
    SiteHeartbeat,
    SiteSigstop,
    SiteStall,
    SiteAbort,
    SiteCount,
};

struct ChaosState
{
    std::mutex mu;
    ChaosPlan plan = ChaosPlan::environmentDefault();
    std::uint64_t role = 0;
    Rng streams[SiteCount];

    ChaosState() { reseed(); }

    void
    reseed()
    {
        for (std::size_t s = 0; s < SiteCount; ++s)
            streams[s].seed(
                mix64(plan.seed ^ mix64(role) ^ (s * 0x9e3779b9ull)));
    }
};

ChaosState &
state()
{
    static ChaosState *st = new ChaosState;
    return *st;
}

/** One draw of site @p site's stream: true with probability
 *  @p rate (a member of the plan), never when chaos is off. */
bool
draw(Site site, double ChaosPlan::*rate)
{
    ChaosState &st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    return st.plan.enabled() && st.streams[site].chance(st.plan.*rate);
}

} // namespace

bool
ChaosPlan::enabled() const
{
    return tornFrameRate > 0.0 || heartbeatDropRate > 0.0 ||
           heartbeatDelayRate > 0.0 || sigstopRate > 0.0 ||
           clientStallRate > 0.0 || abortMergeRate > 0.0;
}

ChaosPlan
ChaosPlan::chaos()
{
    ChaosPlan plan;
    // Rates tuned so a full ctest run under USCOPE_SVC_CHAOS=chaos
    // sees every transport path misbehave repeatedly, yet no test's
    // wall-clock budget is threatened: tears and stalls cost single-
    // digit milliseconds, dropped heartbeats stay far from the 30 s
    // production timeout, and nothing kills a process.
    plan.tornFrameRate = 0.25;
    plan.tornDelayUs = 1000;
    plan.heartbeatDropRate = 0.15;
    plan.heartbeatDelayRate = 0.25;
    plan.heartbeatDelayMs = 30;
    plan.clientStallRate = 0.15;
    plan.clientStallMs = 10;
    return plan;
}

ChaosPlan
ChaosPlan::parse(const std::string &value)
{
    if (value.empty() || value == "off")
        return ChaosPlan{};
    if (value == "chaos")
        return chaos();

    ChaosPlan plan;
    std::size_t pos = 0;
    while (pos < value.size()) {
        std::size_t comma = value.find(',', pos);
        if (comma == std::string::npos)
            comma = value.size();
        const std::string item = value.substr(pos, comma - pos);
        pos = comma + 1;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            log_.warn("USCOPE_SVC_CHAOS item '%s' is not k=v; ignored",
                      item.c_str());
            continue;
        }
        const std::string key = item.substr(0, eq);
        const double v = std::strtod(item.c_str() + eq + 1, nullptr);
        if (key == "torn")
            plan.tornFrameRate = v;
        else if (key == "torn_delay_us")
            plan.tornDelayUs = static_cast<int>(v);
        else if (key == "drop")
            plan.heartbeatDropRate = v;
        else if (key == "delay")
            plan.heartbeatDelayRate = v;
        else if (key == "delay_ms")
            plan.heartbeatDelayMs = static_cast<int>(v);
        else if (key == "sigstop")
            plan.sigstopRate = v;
        else if (key == "stall")
            plan.clientStallRate = v;
        else if (key == "stall_ms")
            plan.clientStallMs = static_cast<int>(v);
        else if (key == "abort")
            plan.abortMergeRate = v;
        else if (key == "seed")
            plan.seed = static_cast<std::uint64_t>(v);
        else
            log_.warn("USCOPE_SVC_CHAOS key '%s' not recognised; "
                      "ignored", key.c_str());
    }
    return plan;
}

ChaosPlan
ChaosPlan::environmentDefault()
{
    static const ChaosPlan cached = [] {
        const char *value = std::getenv("USCOPE_SVC_CHAOS");
        return parse(value ? value : "");
    }();
    return cached;
}

void
setChaosPlan(const ChaosPlan &plan)
{
    ChaosState &st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    st.plan = plan;
    st.reseed();
}

const ChaosPlan &
chaosPlan()
{
    return state().plan;
}

void
seedChaosRole(std::uint64_t role)
{
    ChaosState &st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    st.role = role;
    st.reseed();
}

std::optional<std::size_t>
chaosTearPoint(std::size_t frame_bytes)
{
    ChaosState &st = state();
    if (frame_bytes < 2)
        return std::nullopt;
    std::lock_guard<std::mutex> lock(st.mu);
    if (!st.plan.enabled() ||
        !st.streams[SiteTear].chance(st.plan.tornFrameRate))
        return std::nullopt;
    return 1 + static_cast<std::size_t>(
                   st.streams[SiteTear].below(frame_bytes - 1));
}

int
chaosTearDelayUs()
{
    return state().plan.tornDelayUs;
}

bool
chaosDropHeartbeat()
{
    return draw(SiteHeartbeat, &ChaosPlan::heartbeatDropRate);
}

int
chaosHeartbeatDelayMs()
{
    return draw(SiteHeartbeat, &ChaosPlan::heartbeatDelayRate)
               ? chaosPlan().heartbeatDelayMs
               : 0;
}

bool
chaosSigstop()
{
    return draw(SiteSigstop, &ChaosPlan::sigstopRate);
}

int
chaosClientStallMs()
{
    return draw(SiteStall, &ChaosPlan::clientStallRate)
               ? chaosPlan().clientStallMs
               : 0;
}

bool
chaosAbortMerge()
{
    return draw(SiteAbort, &ChaosPlan::abortMergeRate);
}

} // namespace uscope::svc
