#include "exp/result_sink.hh"

#include <filesystem>
#include <system_error>

#include "common/logging.hh"
#include "exp/checkpoint.hh"

namespace uscope::exp
{

namespace
{
constexpr Logger sinkLog{"exp.sink"};
} // namespace

JsonStreamSink::JsonStreamSink(std::ostream &os, bool include_trials,
                               int indent)
    : os_(os), includeTrials_(include_trials), indent_(indent)
{
}

namespace
{

/**
 * NaN/Inf have no JSON token and dump as null; annotate the document
 * (samples_dropped-style) and warn so the nulls are attributable when
 * the results are read back by plotting tooling.
 */
json::Value
annotateNonFinite(json::Value doc, const std::string &name)
{
    const std::size_t dropped = doc.nonFiniteCount();
    if (dropped) {
        sinkLog.warn("campaign '%s': %zu non-finite metric value(s) "
                     "serialized as null",
                     name.c_str(), dropped);
        doc.set("non_finite_nulled", std::uint64_t{dropped});
    }
    return doc;
}

} // namespace

void
JsonStreamSink::consume(const CampaignResult &result)
{
    os_ << annotateNonFinite(result.toJson(includeTrials_), result.name)
               .dump(indent_)
        << '\n';
    os_.flush();
}

namespace
{

/** `name` becomes a file name; keep it shell- and diff-friendly. */
std::string
sanitize(const std::string &name)
{
    std::string out = name.empty() ? std::string("campaign") : name;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                        || (c >= '0' && c <= '9') || c == '-'
                        || c == '_' || c == '.';
        if (!ok)
            c = '_';
    }
    return out;
}

} // namespace

JsonFileSink::JsonFileSink(std::string dir, bool include_trials,
                           int indent)
    : dir_(std::move(dir)), includeTrials_(include_trials),
      indent_(indent)
{
    if (dir_.empty())
        dir_ = ".";
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("JsonFileSink: cannot create directory '%s': %s",
              dir_.c_str(), ec.message().c_str());
}

void
JsonFileSink::consume(const CampaignResult &result)
{
    const std::string path =
        dir_ + "/" + sanitize(result.name) + ".json";
    // tmp + rename: a reader racing the write — or a campaign killed
    // mid-report — sees the previous document or the new one, never a
    // truncated prefix.
    writeFileAtomic(
        path,
        annotateNonFinite(result.toJson(includeTrials_), result.name)
                .dump(indent_) +
            '\n');
    lastPath_ = path;
}

} // namespace uscope::exp
