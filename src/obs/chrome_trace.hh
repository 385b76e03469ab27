/**
 * @file
 * Chrome trace-event export: renders drained EventLogs as the JSON
 * object format (`{"traceEvents": [...]}`) understood by Perfetto and
 * chrome://tracing, so a Fig-10/11 replay shows up as a visual
 * timeline.  There is one renderer, mergeChromeTraces: a campaign's
 * per-trial spills become one document, and a bench's single log
 * (`--trace`) is the document of one spill (worker 0, trial 0).
 *
 * Mapping: one simulated cycle is rendered as one microsecond (the
 * trace-event "ts" unit).  Page walks become duration ("B"/"E") spans
 * on the walker track; everything else is an instant event on a track
 * per subsystem (replay boundaries, walker, memory, one track per SMT
 * context).  Ring-buffer drops and writer-side caps are counted in
 * `otherData` and warned about, never silent.
 */

#ifndef USCOPE_OBS_CHROME_TRACE_HH
#define USCOPE_OBS_CHROME_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/event.hh"

namespace uscope::obs
{

/** Renderer knobs. */
struct ChromeTraceOptions
{
    /** Emit at most this many events; the tail beyond it is dropped
     *  with a warn() and an in-trace annotation. */
    std::size_t maxEvents = 1u << 20;
};

/**
 * One trial's trace as drained by a (possibly remote) worker process:
 * the EventLog plus the coordinates that place it on the merged
 * timeline.  Serialized as a compact JSON spill file — the durable
 * per-trial form workers write under the campaign's state dir
 * (`<dir>/trace-w<worker>-t<index>.json`, via writeFileAtomic), which
 * the daemon or `svc_client trace` later merges into one Perfetto
 * document.
 */
struct TraceSpill
{
    unsigned worker = 0;
    std::size_t trial = 0;
    /** Machine cycle at trial hand-off (TrialContext::forkCycle) —
     *  lets a viewer separate shared-warmup from per-trial spans. */
    std::uint64_t forkCycle = 0;
    EventLog log;
};

/** Compact spill serialization: `{"worker","trial","fork_cycle",
 *  "dropped","total","events":[[cycle,kind,a,b,addr],...]}`. */
std::string traceSpillToJson(const TraceSpill &spill);

/** Inverse of traceSpillToJson; nullopt on malformed input. */
std::optional<TraceSpill> parseTraceSpill(const std::string &text);

/** Canonical spill filename for (worker, trial) under @p dir. */
std::string traceSpillPath(const std::string &dir, unsigned worker,
                           std::size_t trial);

/**
 * Write a trace document (a spill, or a rendered Perfetto file) to
 * @p path with writeFileAtomic, creating its directory on demand.
 * @return true on success; warns and returns false on failure.
 */
bool writeTraceFile(const std::string &path, const std::string &body);

/** writeTraceFile of @p spill at its traceSpillPath under @p dir. */
bool writeTraceSpill(const std::string &dir, const TraceSpill &spill);

/**
 * Read every `trace-*.json` spill under @p dir, sorted by filename;
 * unparseable files warn and are skipped.
 */
std::vector<TraceSpill> loadTraceSpills(const std::string &dir);

/**
 * Merge per-trial spills from many worker processes into ONE Chrome
 * trace-event document: each worker becomes a `pid` lane (with a
 * process_name metadata record), each trial a group of `tid` tracks
 * inside its worker's lane (replay/walker/mem/fault/core, named
 * `t<trial> <track>`), so a 4-worker campaign renders as four
 * side-by-side process lanes sharing one cycle axis.  Duplicate
 * spills for one trial (a steal race executed it twice — byte-
 * identical by the determinism contract) are deduplicated, keeping
 * the lowest worker id.  Drop/cap accounting is summed across spills
 * into otherData, never silent.  The trial-0 group's tids are the bare
 * subsystem track ids, so one spill of worker 0, trial 0 renders a
 * single log on pid 0 with its native tracks.
 */
std::string mergeChromeTraces(std::vector<TraceSpill> spills,
                              const ChromeTraceOptions &options = {});

} // namespace uscope::obs

#endif // USCOPE_OBS_CHROME_TRACE_HH
