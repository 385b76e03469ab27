#include "obs/chrome_trace.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/fsio.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace uscope::obs
{

namespace
{

/** Virtual thread ids (Chrome "tid") per subsystem track. */
constexpr int tidReplay = 0;
constexpr int tidWalker = 1;
constexpr int tidMem = 2;
constexpr int tidFault = 3;
constexpr int tidCoreBase = 10;  ///< +ctx

const char *
levelName(unsigned level)
{
    static const char *const names[] = {"L1", "L2", "L3", "DRAM"};
    return level < 4 ? names[level] : "?";
}

/** The names of fault::Site, in its order (obs cannot depend on the
 *  fault library). */
const char *
faultSiteName(unsigned site)
{
    static const char *const names[] = {"interrupt", "preemption",
                                        "port-jitter", "probe-jitter",
                                        "sample-drop"};
    return site < 5 ? names[site] : "?";
}

std::string
hex(std::uint64_t value)
{
    return format("0x%llx", static_cast<unsigned long long>(value));
}

/** Where a trial's events land: `pid` = worker, `tid` = tidBase + the
 *  subsystem track. */
struct Lane
{
    unsigned pid;
    std::size_t tidBase;
};

/** One trace-event dict.  @p ph is "B"/"E"/"i". */
json::Value
traceEvent(const char *name, const char *ph, std::uint64_t ts, Lane lane,
           int tid)
{
    json::Value v = json::Value::object()
                        .set("name", name)
                        .set("ph", ph)
                        .set("ts", ts)
                        .set("pid", std::uint64_t{lane.pid})
                        .set("tid", lane.tidBase + tid);
    if (ph[0] == 'i')
        v.set("s", "t");  // instant scoped to its thread/track.
    return v;
}

json::Value
convert(const Event &e, Lane lane)
{
    switch (e.kind) {
      case EventKind::WalkStart:
        return traceEvent("page-walk", "B", e.cycle, lane, tidWalker)
            .set("args", json::Value::object()
                             .set("va", hex(e.addr))
                             .set("start_level", std::uint64_t{e.a}));
      case EventKind::WalkEnd:
        return traceEvent("page-walk", "E", e.cycle, lane, tidWalker)
            .set("args", json::Value::object()
                             .set("va", hex(e.addr))
                             .set("fault", e.a != 0)
                             .set("latency", std::uint64_t{e.b}));
      case EventKind::WalkStep:
        return traceEvent("walk-step", "i", e.cycle, lane, tidWalker)
            .set("args", json::Value::object()
                             .set("level", std::uint64_t{e.a})
                             .set("latency", std::uint64_t{e.b})
                             .set("entry_pa", hex(e.addr)));
      case EventKind::TlbMiss:
        return traceEvent("tlb-miss", "i", e.cycle, lane, tidWalker)
            .set("args", json::Value::object().set("va", hex(e.addr)));
      case EventKind::PageFault:
        return traceEvent("page-fault", "i", e.cycle, lane, tidWalker)
            .set("args", json::Value::object()
                             .set("ctx", std::uint64_t{e.a})
                             .set("va", hex(e.addr)));
      case EventKind::SpecIssue:
        return traceEvent("issue", "i", e.cycle, lane, tidCoreBase + e.a)
            .set("args", json::Value::object()
                             .set("op", std::uint64_t{e.b})
                             .set("pc", e.addr));
      case EventKind::Retire:
        return traceEvent("retire", "i", e.cycle, lane, tidCoreBase + e.a)
            .set("args", json::Value::object()
                             .set("op", std::uint64_t{e.b})
                             .set("pc", e.addr));
      case EventKind::Squash:
        return traceEvent("squash", "i", e.cycle, lane, tidCoreBase + e.a)
            .set("args", json::Value::object()
                             .set("entries", std::uint64_t{e.b})
                             .set("pc", e.addr));
      case EventKind::PortConflict:
        return traceEvent("port-conflict", "i", e.cycle, lane,
                          tidCoreBase + e.a)
            .set("args", json::Value::object()
                             .set("op", std::uint64_t{e.b})
                             .set("pc", e.addr));
      case EventKind::CacheAccess:
        return traceEvent("cache-access", "i", e.cycle, lane, tidMem)
            .set("args", json::Value::object()
                             .set("level", levelName(e.a))
                             .set("latency", std::uint64_t{e.b})
                             .set("line", hex(e.addr)));
      case EventKind::Probe:
        return traceEvent("probe", "i", e.cycle, lane, tidMem)
            .set("args", json::Value::object()
                             .set("level", levelName(e.a))
                             .set("latency", std::uint64_t{e.b})
                             .set("line", hex(e.addr)));
      case EventKind::ReplayBoundary:
        return traceEvent("replay", "i", e.cycle, lane, tidReplay)
            .set("args",
                 json::Value::object()
                     .set("page", e.a == 2 ? "pivot" : "handle")
                     .set("replay", std::uint64_t{e.b})
                     .set("episode", e.addr));
      case EventKind::EpisodeEnd:
        return traceEvent("episode-end", "i", e.cycle, lane, tidReplay)
            .set("args", json::Value::object()
                             .set("replays", std::uint64_t{e.b})
                             .set("episode", e.addr));
      case EventKind::FaultInject:
        return traceEvent("fault-inject", "i", e.cycle, lane, tidFault)
            .set("args", json::Value::object()
                             .set("site", faultSiteName(e.a))
                             .set("magnitude", std::uint64_t{e.b})
                             .set("payload", hex(e.addr)));
    }
    return traceEvent(eventKindName(e.kind), "i", e.cycle, lane, tidMem);
}

/** tid stride per trial in a merged document: room for the subsystem
 *  tracks (tidCoreBase + ctx stays well below it). */
constexpr std::size_t tidStride = 32;

json::Value
nameMeta(const char *kind, std::uint64_t pid, std::uint64_t tid,
         const std::string &name)
{
    return json::Value::object()
        .set("name", kind)
        .set("ph", "M")
        .set("pid", pid)
        .set("tid", tid)
        .set("args", json::Value::object().set("name", name));
}

/** The subsystem tracks a trial's tid group contains. */
constexpr std::pair<int, const char *> trialTracks[] = {
    {tidReplay, "replay"}, {tidWalker, "walker"}, {tidMem, "mem"},
    {tidFault, "fault"},   {tidCoreBase + 0, "core.ctx0"},
    {tidCoreBase + 1, "core.ctx1"},
};

} // anonymous namespace

std::string
traceSpillToJson(const TraceSpill &spill)
{
    json::Value events = json::Value::array();
    for (const Event &e : spill.log.events) {
        events.push(json::Value::array()
                        .push(e.cycle)
                        .push(std::uint64_t{
                            static_cast<unsigned>(e.kind)})
                        .push(std::uint64_t{e.a})
                        .push(std::uint64_t{e.b})
                        .push(e.addr));
    }
    return json::Value::object()
        .set("worker", std::uint64_t{spill.worker})
        .set("trial", std::uint64_t{spill.trial})
        .set("fork_cycle", spill.forkCycle)
        .set("dropped", spill.log.dropped)
        .set("total", spill.log.total)
        .set("events", std::move(events))
        .dump();
}

std::optional<TraceSpill>
parseTraceSpill(const std::string &text)
{
    const std::optional<json::Value> doc = json::Value::parse(text);
    if (!doc || !doc->isObject())
        return std::nullopt;
    const json::Value *worker = doc->get("worker");
    const json::Value *trial = doc->get("trial");
    const json::Value *events = doc->get("events");
    if (!worker || !trial || !events || !events->isArray())
        return std::nullopt;

    TraceSpill spill;
    spill.worker = static_cast<unsigned>(worker->asU64());
    spill.trial = static_cast<std::size_t>(trial->asU64());
    if (const json::Value *fork = doc->get("fork_cycle"))
        spill.forkCycle = fork->asU64();
    if (const json::Value *dropped = doc->get("dropped"))
        spill.log.dropped = dropped->asU64();
    for (const json::Value &row : events->items()) {
        if (!row.isArray() || row.items().size() != 5)
            return std::nullopt;
        const auto &f = row.items();
        const std::uint64_t kind = f[1].asU64();
        if (kind >= numEventKinds)
            return std::nullopt;
        Event e;
        e.cycle = f[0].asU64();
        e.kind = static_cast<EventKind>(kind);
        e.a = static_cast<std::uint8_t>(f[2].asU64());
        e.b = static_cast<std::uint16_t>(f[3].asU64());
        e.addr = f[4].asU64();
        spill.log.events.push_back(e);
    }
    spill.log.total = doc->get("total")
                          ? doc->get("total")->asU64()
                          : spill.log.events.size() + spill.log.dropped;
    return spill;
}

std::string
traceSpillPath(const std::string &dir, unsigned worker,
               std::size_t trial)
{
    return dir + format("/trace-w%03u-t%06zu.json", worker, trial);
}

bool
writeTraceFile(const std::string &path, const std::string &body)
{
    const std::filesystem::path dir =
        std::filesystem::path(path).parent_path();
    std::error_code ec;
    if (!dir.empty())
        std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("trace: cannot create '%s': %s", dir.c_str(),
             ec.message().c_str());
        return false;
    }
    try {
        writeFileAtomic(path, body);
    } catch (const SimFatal &e) {
        // A failed trace loses observability, never results; the
        // campaign keeps running.
        warn("trace: %s", e.what());
        return false;
    }
    return true;
}

bool
writeTraceSpill(const std::string &dir, const TraceSpill &spill)
{
    return writeTraceFile(traceSpillPath(dir, spill.worker, spill.trial),
                          traceSpillToJson(spill));
}

std::vector<TraceSpill>
loadTraceSpills(const std::string &dir)
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("trace-", 0) == 0 &&
            name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".json") == 0)
            paths.push_back(entry.path().string());
    }
    if (ec)
        warn("trace spills: cannot list '%s': %s", dir.c_str(),
             ec.message().c_str());
    std::sort(paths.begin(), paths.end());

    std::vector<TraceSpill> spills;
    for (const std::string &path : paths) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        if (!in) {
            warn("trace spill: cannot read '%s'", path.c_str());
            continue;
        }
        if (std::optional<TraceSpill> spill =
                parseTraceSpill(buffer.str()))
            spills.push_back(std::move(*spill));
        else
            warn("trace spill: '%s' is malformed; skipped",
                 path.c_str());
    }
    return spills;
}

std::string
mergeChromeTraces(std::vector<TraceSpill> spills,
                  const ChromeTraceOptions &options)
{
    // Deterministic layout regardless of spill discovery order — and
    // the dedup rule for steal races (two workers executed one trial;
    // the logs are byte-identical, keep the lowest worker id).
    std::sort(spills.begin(), spills.end(),
              [](const TraceSpill &a, const TraceSpill &b) {
                  return a.trial != b.trial ? a.trial < b.trial
                                            : a.worker < b.worker;
              });
    std::size_t duplicates = 0;
    std::vector<TraceSpill> unique;
    for (TraceSpill &spill : spills) {
        if (!unique.empty() && unique.back().trial == spill.trial)
            ++duplicates;
        else
            unique.push_back(std::move(spill));
    }

    json::Value events = json::Value::array();
    std::set<unsigned> workers;
    for (const TraceSpill &spill : unique)
        workers.insert(spill.worker);
    for (unsigned worker : workers)
        events.push(nameMeta("process_name", worker, 0,
                             format("worker %u", worker)));

    std::uint64_t ringDropped = 0, recorded = 0;
    std::size_t emitted = 0, capped = 0;
    for (const TraceSpill &spill : unique) {
        const Lane lane{spill.worker, spill.trial * tidStride};
        for (const auto &[tid, name] : trialTracks)
            events.push(nameMeta("thread_name", spill.worker,
                                 lane.tidBase + tid,
                                 format("t%zu %s", spill.trial, name)));
        for (const Event &e : spill.log.events) {
            if (emitted >= options.maxEvents) {
                ++capped;
                continue;
            }
            events.push(convert(e, lane));
            ++emitted;
        }
        ringDropped += spill.log.dropped;
        recorded += spill.log.total;
    }
    if (capped)
        warn("merged trace: emitted %zu events (writer cap %zu); %zu "
             "dropped from the tail",
             emitted, options.maxEvents, capped);
    if (ringDropped)
        warn("merged trace: worker rings overwrote %llu of %llu "
             "recorded events before export",
             static_cast<unsigned long long>(ringDropped),
             static_cast<unsigned long long>(recorded));

    return json::Value::object()
        .set("traceEvents", std::move(events))
        .set("displayTimeUnit", "ms")
        .set("otherData",
             json::Value::object()
                 .set("cycles_per_us", 1)
                 .set("workers", std::uint64_t{workers.size()})
                 .set("trials", std::uint64_t{unique.size()})
                 .set("duplicate_spills", std::uint64_t{duplicates})
                 .set("events_recorded", recorded)
                 .set("events_ring_dropped", ringDropped)
                 .set("events_writer_capped", std::uint64_t{capped}))
        .dump();
}

} // namespace uscope::obs
