/**
 * @file
 * The benches' shared `--trace` / `--metrics` command-line surface.
 *
 * Flags:
 *   --trace[=PATH]     enable event tracing; dump a Chrome trace-event
 *                      JSON to PATH (default: the bench's canonical
 *                      path under bench-results/).
 *   --trace-capacity=N ring slots (rounded up to a power of two).
 *   --metrics          print a metrics snapshot to stdout (metrics
 *                      always flow into the campaign JSON regardless).
 *   --log-level=LEVEL  structured-log threshold (error|warn|info|
 *                      debug); applied via configureLog.
 *   --log-json         NDJSON log lines on stderr.
 *
 * Unknown arguments warn and are ignored so the benches stay ctest-
 * and script-friendly.  parseBenchObsOptions() also calls
 * configureLogFromEnv() first, so USCOPE_LOG works on every bench.
 */

#ifndef USCOPE_OBS_CLI_HH
#define USCOPE_OBS_CLI_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "obs/metrics.hh"

namespace uscope::obs
{

/**
 * Strict parse of an unsigned numeric flag value (base 10, or 0x/0
 * prefixed).  Unlike bare atoi/strtoull, garbage never silently
 * becomes 0 and negatives never wrap: empty strings, trailing junk,
 * minus signs, and out-of-range values all yield nullopt.
 */
std::optional<std::uint64_t> parseUnsignedValue(const char *text);

/**
 * parseUnsignedValue plus enforcement: panics with a message naming
 * @p flag when @p text does not parse or exceeds @p max.  For benches
 * and tools whose flag errors are fatal (the common case).
 */
std::uint64_t requireUnsignedFlag(const char *flag, const char *text,
                                  std::uint64_t max = ~std::uint64_t{0});

/** Parsed bench observability options. */
struct BenchObsOptions
{
    bool trace = false;
    std::string tracePath;
    std::size_t traceCapacity = std::size_t{1} << 16;
    bool metrics = false;
};

/**
 * Parse argv.  @p default_trace_path seeds tracePath when --trace is
 * given without a value.
 */
BenchObsOptions parseBenchObsOptions(
    int argc, char **argv, const std::string &default_trace_path);

/** Pretty-print a snapshot, one `name = value` line per metric. */
void printMetrics(const MetricSnapshot &snapshot);

} // namespace uscope::obs

#endif // USCOPE_OBS_CLI_HH
