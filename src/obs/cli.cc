#include "obs/cli.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace uscope::obs
{

namespace
{

/** Match `--flag` or `--flag=value`; value (or null) via @p value. */
bool
matchFlag(const char *arg, const char *flag, const char **value)
{
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(arg, flag, len) != 0)
        return false;
    if (arg[len] == '\0') {
        *value = nullptr;
        return true;
    }
    if (arg[len] == '=') {
        *value = arg + len + 1;
        return true;
    }
    return false;
}

} // anonymous namespace

std::optional<std::uint64_t>
parseUnsignedValue(const char *text)
{
    if (!text || !*text)
        return std::nullopt;
    // strtoull accepts a leading minus sign and wraps it; reject it
    // (and stray whitespace) up front so "-1" never becomes 2^64-1.
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(text, &end, 0);
    if (errno == ERANGE || !end || *end != '\0')
        return std::nullopt;
    return static_cast<std::uint64_t>(n);
}

std::uint64_t
requireUnsignedFlag(const char *flag, const char *text, std::uint64_t max)
{
    const std::optional<std::uint64_t> n = parseUnsignedValue(text);
    if (!n)
        panic("%s: bad value '%s' (expected an unsigned number)", flag,
              text ? text : "");
    if (*n > max)
        panic("%s: value %llu out of range (max %llu)", flag,
              static_cast<unsigned long long>(*n),
              static_cast<unsigned long long>(max));
    return *n;
}

BenchObsOptions
parseBenchObsOptions(int argc, char **argv,
                     const std::string &default_trace_path)
{
    configureLogFromEnv();
    BenchObsOptions opts;
    opts.tracePath = default_trace_path;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *value = nullptr;
        if (matchFlag(arg, "--trace", &value)) {
            opts.trace = true;
            if (value && *value)
                opts.tracePath = value;
        } else if (matchFlag(arg, "--trace-capacity", &value)) {
            if (!value || !*value)
                panic("--trace-capacity requires a value");
            const std::uint64_t n =
                requireUnsignedFlag("--trace-capacity", value);
            if (n == 0)
                panic("--trace-capacity: bad value '%s'", value);
            opts.traceCapacity = static_cast<std::size_t>(n);
        } else if (matchFlag(arg, "--metrics", &value)) {
            opts.metrics = true;
        } else if (const LogFlag log = applyLogFlag(arg);
                   log != LogFlag::NotLogFlag) {
            if (log == LogFlag::BadValue)
                panic("--log-level requires error|warn|info|debug");
        } else {
            warn("ignoring unknown argument '%s' "
                 "(known: --trace[=PATH], --trace-capacity=N, "
                 "--metrics, --log-level=LEVEL, --log-json)",
                 arg);
        }
    }
    return opts;
}

void
printMetrics(const MetricSnapshot &snapshot)
{
    for (const MetricValue &value : snapshot.values) {
        switch (value.kind) {
          case MetricKind::Counter:
            std::printf("%-32s %llu\n", value.name.c_str(),
                        static_cast<unsigned long long>(value.counter));
            break;
          case MetricKind::Gauge:
            std::printf("%-32s %.6g\n", value.name.c_str(), value.gauge);
            break;
          case MetricKind::Latency:
            std::printf("%-32s count=%llu mean=%.2f min=%.0f max=%.0f\n",
                        value.name.c_str(),
                        static_cast<unsigned long long>(
                            value.latency.count()),
                        value.latency.mean(), value.latency.min(),
                        value.latency.max());
            break;
        }
    }
}

} // namespace uscope::obs
