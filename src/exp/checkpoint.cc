#include "exp/checkpoint.hh"

#include <bit>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <unistd.h>

#include "common/logging.hh"

namespace uscope::exp
{

namespace
{

constexpr Logger log_{"exp.checkpoint"};

constexpr const char *trialMagic = "uscope-trial-v1";
constexpr const char *manifestMagic = "uscope-campaign-v1";

/** Doubles persist as the hex of their bit pattern — the only text
 *  encoding that round-trips NaN payloads and signed zeros exactly. */
std::string
hexBits(double value)
{
    return format("%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(value)));
}

std::string
summaryFields(const Summary &summary)
{
    return format("%llu ",
                  static_cast<unsigned long long>(summary.count())) +
           hexBits(summary.mean()) + ' ' + hexBits(summary.m2()) + ' ' +
           hexBits(summary.rawMin()) + ' ' + hexBits(summary.rawMax());
}

/** Append `key <len>\n<bytes>\n` — the length prefix makes arbitrary
 *  bytes (exception texts, JSON dumps) safe to embed. */
void
appendBlob(std::string &out, const char *key, const std::string &bytes)
{
    out += format("%s %zu\n", key, bytes.size());
    out += bytes;
    out += '\n';
}

/**
 * Cursor over the serialized text.  Every accessor clears `ok` on
 * malformed input instead of throwing, so parseTrial reduces to a
 * straight-line read followed by one validity check.
 */
struct Reader
{
    const std::string &s;
    std::size_t pos = 0;
    bool ok = true;

    std::string
    word()
    {
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n'))
            ++pos;
        const std::size_t start = pos;
        while (pos < s.size() && s[pos] != ' ' && s[pos] != '\n')
            ++pos;
        if (start == pos)
            ok = false;
        return s.substr(start, pos - start);
    }

    void
    expect(const char *token)
    {
        if (word() != token)
            ok = false;
    }

    std::uint64_t
    u64()
    {
        const std::string w = word();
        if (!ok || w.empty())
            return 0;
        char *end = nullptr;
        const std::uint64_t v = std::strtoull(w.c_str(), &end, 10);
        if (end != w.c_str() + w.size())
            ok = false;
        return v;
    }

    double
    bits()
    {
        const std::string w = word();
        if (!ok || w.size() != 16)
            return ok = false, 0.0;
        char *end = nullptr;
        const std::uint64_t v = std::strtoull(w.c_str(), &end, 16);
        if (end != w.c_str() + w.size())
            ok = false;
        return std::bit_cast<double>(v);
    }

    Summary
    summary()
    {
        const std::uint64_t count = u64();
        const double mean = bits();
        const double m2 = bits();
        const double min = bits();
        const double max = bits();
        return Summary::fromParts(count, mean, m2, min, max);
    }

    /** The bytes of a length-prefixed blob: exactly one '\n' after the
     *  length token, then @p len raw bytes. */
    std::string
    blob(std::size_t len)
    {
        if (pos >= s.size() || s[pos] != '\n' || pos + 1 + len > s.size()) {
            ok = false;
            return {};
        }
        ++pos;
        std::string bytes = s.substr(pos, len);
        pos += len;
        return bytes;
    }
};

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in)
        return std::nullopt;
    return buffer.str();
}

std::optional<TrialStatus>
statusFromName(const std::string &name)
{
    for (TrialStatus status :
         {TrialStatus::Ok, TrialStatus::Failed, TrialStatus::TimedOut,
          TrialStatus::Retried}) {
        if (name == trialStatusName(status))
            return status;
    }
    return std::nullopt;
}

} // namespace

std::string
CampaignCheckpoint::serializeTrial(const TrialResult &result)
{
    std::string out;
    out += trialMagic;
    out += '\n';
    out += format("index %llu\n",
                  static_cast<unsigned long long>(result.index));
    out += format("seed %llu\n",
                  static_cast<unsigned long long>(result.seed));
    out += format("status %s\n", trialStatusName(result.status));
    out += format("attempts %u\n", result.attempts);
    out += "wall " + hexBits(result.wallSeconds) + '\n';
    out += format("sim_cycles %llu\n",
                  static_cast<unsigned long long>(result.output.simCycles));
    appendBlob(out, "error", result.error);
    appendBlob(out, "payload",
               result.output.payload.isNull()
                   ? std::string()
                   : result.output.payload.dump());
    out += "metric " + summaryFields(result.output.metric) + '\n';
    const ms::MicroscopeStats &scope = result.output.scope;
    out += format("scope %llu %llu %llu %llu %llu\n",
                  static_cast<unsigned long long>(scope.handleFaults),
                  static_cast<unsigned long long>(scope.pivotFaults),
                  static_cast<unsigned long long>(scope.foreignFaults),
                  static_cast<unsigned long long>(scope.episodes),
                  static_cast<unsigned long long>(scope.totalReplays));
    out += format("metrics %zu\n", result.output.metrics.values.size());
    for (const obs::MetricValue &value : result.output.metrics.values) {
        switch (value.kind) {
          case obs::MetricKind::Counter:
            appendBlob(out, "counter", value.name);
            out += format("%llu\n",
                          static_cast<unsigned long long>(value.counter));
            break;
          case obs::MetricKind::Gauge:
            appendBlob(out, "gauge", value.name);
            out += hexBits(value.gauge) + '\n';
            break;
          case obs::MetricKind::Latency:
            appendBlob(out, "latency", value.name);
            out += summaryFields(value.latency) + '\n';
            break;
        }
    }
    out += "end\n";
    return out;
}

std::optional<TrialResult>
CampaignCheckpoint::parseTrial(const std::string &text)
{
    Reader r{text};
    if (r.word() != trialMagic)
        return std::nullopt;

    TrialResult out;
    r.expect("index");
    out.index = r.u64();
    r.expect("seed");
    out.seed = r.u64();
    r.expect("status");
    const std::optional<TrialStatus> status = statusFromName(r.word());
    if (!status)
        return std::nullopt;
    out.status = *status;
    r.expect("attempts");
    out.attempts = static_cast<unsigned>(r.u64());
    r.expect("wall");
    out.wallSeconds = r.bits();
    r.expect("sim_cycles");
    out.output.simCycles = r.u64();
    r.expect("error");
    out.error = r.blob(r.u64());
    r.expect("payload");
    const std::string payload = r.blob(r.u64());
    if (!payload.empty())
        out.output.payload = json::Value::raw(payload);
    r.expect("metric");
    out.output.metric = r.summary();
    r.expect("scope");
    out.output.scope.handleFaults = r.u64();
    out.output.scope.pivotFaults = r.u64();
    out.output.scope.foreignFaults = r.u64();
    out.output.scope.episodes = r.u64();
    out.output.scope.totalReplays = r.u64();
    r.expect("metrics");
    const std::uint64_t entries = r.u64();
    for (std::uint64_t i = 0; r.ok && i < entries; ++i) {
        obs::MetricValue value;
        const std::string kind = r.word();
        value.name = r.blob(r.u64());
        if (kind == "counter") {
            value.kind = obs::MetricKind::Counter;
            value.counter = r.u64();
        } else if (kind == "gauge") {
            value.kind = obs::MetricKind::Gauge;
            value.gauge = r.bits();
        } else if (kind == "latency") {
            value.kind = obs::MetricKind::Latency;
            value.latency = r.summary();
        } else {
            return std::nullopt;
        }
        out.output.metrics.values.push_back(std::move(value));
    }
    r.expect("end");
    if (!r.ok || out.attempts == 0)
        return std::nullopt;
    return out;
}

std::string
CampaignCheckpoint::manifestPath() const
{
    return dir_ + "/manifest.txt";
}

std::string
CampaignCheckpoint::trialPath(std::size_t index) const
{
    return dir_ + "/trial_" + std::to_string(index) + ".ckpt";
}

std::string
CampaignCheckpoint::manifestText() const
{
    std::string out;
    out += manifestMagic;
    out += '\n';
    appendBlob(out, "name", name_);
    out += format("trials %llu\n",
                  static_cast<unsigned long long>(trials_));
    out += format("master_seed %llu\n",
                  static_cast<unsigned long long>(masterSeed_));
    out += format("cycle_budget %llu\n",
                  static_cast<unsigned long long>(cycleBudget_));
    out += format("max_retries %u\n", maxRetries_);
    return out;
}

CampaignCheckpoint::CampaignCheckpoint(const CampaignSpec &spec)
    : dir_(spec.checkpointDir), name_(spec.name), trials_(spec.trials),
      masterSeed_(spec.masterSeed), cycleBudget_(spec.cycleBudget),
      maxRetries_(spec.maxRetries)
{
    if (dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("CampaignCheckpoint: cannot create directory '%s': %s",
              dir_.c_str(), ec.message().c_str());

    const std::optional<std::string> existing = readFile(manifestPath());
    if (existing && *existing == manifestText()) {
        resuming_ = true;
        return;
    }
    if (existing)
        log_.warn("campaign '%s': checkpoint directory '%s' holds a "
                  "different campaign's state; discarding it",
                  name_.c_str(), dir_.c_str());

    // Fresh start: stale trial files (possibly from a campaign with a
    // different trial count) must not be picked up by load().
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        const std::string file = entry.path().filename().string();
        if (file.rfind("trial_", 0) == 0)
            std::filesystem::remove(entry.path(), ec);
    }
    writeFileAtomic(manifestPath(), manifestText());
}

std::optional<TrialResult>
CampaignCheckpoint::loadTrial(std::size_t index) const
{
    if (!resuming_ || index >= trials_)
        return std::nullopt;
    const std::optional<std::string> text = readFile(trialPath(index));
    if (!text)
        return std::nullopt; // never completed — just run it
    std::optional<TrialResult> trial = parseTrial(*text);
    if (!trial) {
        // Truncated or non-parseable (e.g. the write raced a power
        // cut on a filesystem that defeated the fsync dance): the
        // file carries no usable result, so the trial re-runs — a
        // per-trial cost, never a campaign abort.
        log_.warn("campaign '%s': checkpoint '%s' is truncated or "
                  "non-parseable; re-running trial %zu",
                  name_.c_str(), trialPath(index).c_str(), index);
        return std::nullopt;
    }
    // The seed re-derivation is the integrity check: a file that
    // parsed but does not carry the seed this campaign would hand
    // this trial is stale or tampered with, and re-running is always
    // safe.  A persisted Failed status is equally impossible —
    // store() never writes those — so it gets the same treatment.
    const bool valid =
        trial->index == index &&
        trial->status != TrialStatus::Failed &&
        trial->seed ==
            deriveRetrySeed(masterSeed_, index, trial->attempts - 1);
    if (!valid) {
        log_.warn("campaign '%s': checkpoint '%s' is stale or "
                  "inconsistent with this campaign; re-running trial "
                  "%zu",
                  name_.c_str(), trialPath(index).c_str(), index);
        return std::nullopt;
    }
    return trial;
}

std::size_t
CampaignCheckpoint::load(std::vector<TrialResult> &results,
                         std::vector<char> &done) const
{
    if (!resuming_)
        return 0;
    std::size_t restored = 0;
    for (std::size_t index = 0; index < trials_; ++index) {
        std::optional<TrialResult> trial = loadTrial(index);
        if (!trial)
            continue;
        results[index] = std::move(*trial);
        done[index] = 1;
        ++restored;
    }
    if (restored)
        log_.info("campaign '%s': resumed %zu of %zu trials from "
                  "'%s'",
                  name_.c_str(), restored, trials_, dir_.c_str());
    return restored;
}

void
CampaignCheckpoint::store(const TrialResult &result) const
{
    if (dir_.empty() || result.status == TrialStatus::Failed)
        return;
    try {
        writeFileAtomic(trialPath(result.index),
                        serializeTrial(result));
    } catch (const std::exception &e) {
        // Best-effort: a full disk must degrade the *checkpoint*, not
        // the campaign; the trial simply re-runs on a future resume.
        log_.warn("campaign '%s': could not checkpoint trial %zu: %s",
                  name_.c_str(), result.index, e.what());
    }
}

} // namespace uscope::exp
