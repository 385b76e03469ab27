#include "exp/result_sink.hh"

#include <filesystem>
#include <system_error>

#include "common/fsio.hh"
#include "common/logging.hh"

namespace uscope::exp
{

namespace
{

constexpr Logger sinkLog{"exp.sink"};

} // namespace

JsonFileSink::JsonFileSink(std::string dir) : dir_(std::move(dir))
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
    // NaN/Inf have no JSON token and dump as null; count them in the
    // document and warn so the nulls are attributable when the results
    // are read back by plotting tooling.
    json::Value doc = result.toJson();
    if (const std::size_t nulled = doc.nonFiniteCount()) {
        sinkLog.warn("campaign '%s': %zu non-finite metric value(s) "
                     "serialized as null",
                     result.name.c_str(), nulled);
        doc.set("non_finite_nulled", std::uint64_t{nulled});
    }
    const std::string path =
        dir_ + "/" + sanitizeFileName(result.name) + ".json";
    // tmp + rename: a reader racing the write — or a campaign killed
    // mid-report — sees the previous document or the new one, never a
    // truncated prefix.
    writeFileAtomic(path, doc.dump(2) + '\n');
    lastPath_ = path;
}

} // namespace uscope::exp
