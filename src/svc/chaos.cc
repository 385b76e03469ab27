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

/** How late a delayed heartbeat goes out, milliseconds. */
constexpr int kHeartbeatDelayMs = 30;

/** How long a stalled client waits before reading, milliseconds. */
constexpr int kClientStallMs = 10;

/** Seed of every site stream, mixed with the site and the role. */
constexpr std::uint64_t kChaosSeed = 0x5eedc0de;

/** One independent deterministic stream per injection site, reseeded
 *  whenever the plan or the process role changes. */
enum Site : std::size_t {
    SiteTear = 0,
    SiteHeartbeat,
    SiteStall,
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
                mix64(kChaosSeed ^ mix64(role) ^ (s * 0x9e3779b9ull)));
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
           heartbeatDelayRate > 0.0 || clientStallRate > 0.0;
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
    plan.heartbeatDropRate = 0.15;
    plan.heartbeatDelayRate = 0.25;
    plan.clientStallRate = 0.15;
    return plan;
}

ChaosPlan
ChaosPlan::parse(const std::string &value)
{
    if (value.empty() || value == "off")
        return ChaosPlan{};
    if (value == "chaos")
        return chaos();
    log_.warn("USCOPE_SVC_CHAOS='%s' not recognised (expected \"chaos\" "
              "or \"off\"); running calm",
              value.c_str());
    return ChaosPlan{};
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

bool
chaosDropHeartbeat()
{
    return draw(SiteHeartbeat, &ChaosPlan::heartbeatDropRate);
}

int
chaosHeartbeatDelayMs()
{
    return draw(SiteHeartbeat, &ChaosPlan::heartbeatDelayRate)
               ? kHeartbeatDelayMs
               : 0;
}

int
chaosClientStallMs()
{
    return draw(SiteStall, &ChaosPlan::clientStallRate)
               ? kClientStallMs
               : 0;
}

} // namespace uscope::svc
