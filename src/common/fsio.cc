#include "common/fsio.hh"

#include <cctype>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <system_error>
#include <unistd.h>

#include "common/logging.hh"

namespace uscope
{

std::string
sanitizeFileName(const std::string &name)
{
    std::string out;
    for (char c : name)
        out += (std::isalnum(static_cast<unsigned char>(c)) ||
                c == '-' || c == '_')
                   ? c
                   : '_';
    return out.empty() ? std::string("campaign") : out;
}

void
fsyncDirectory(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
        warn("writeFileAtomic: cannot open directory '%s' to fsync: %s",
             dir.c_str(), std::strerror(errno));
        return;
    }
    if (::fsync(fd) != 0 && errno != EINVAL && errno != ENOTSUP)
        warn("writeFileAtomic: fsync of directory '%s' failed: %s",
             dir.c_str(), std::strerror(errno));
    ::close(fd);
}

void
writeFileAtomic(const std::string &path, const std::string &content)
{
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0)
        fatal("writeFileAtomic: cannot open '%s' for writing: %s",
              tmp.c_str(), std::strerror(errno));
    std::size_t written = 0;
    while (written < content.size()) {
        const ssize_t n = ::write(fd, content.data() + written,
                                  content.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int err = errno;
            ::close(fd);
            fatal("writeFileAtomic: short write to '%s': %s",
                  tmp.c_str(), std::strerror(err));
        }
        written += static_cast<std::size_t>(n);
    }
    // Data must be on disk *before* the rename becomes visible, or a
    // power cut can leave a fully-renamed, zero-length file — the one
    // torn state the tmp+rename dance exists to rule out.
    if (::fsync(fd) != 0 && errno != EINVAL && errno != ENOTSUP) {
        const int err = errno;
        ::close(fd);
        fatal("writeFileAtomic: fsync of '%s' failed: %s", tmp.c_str(),
              std::strerror(err));
    }
    ::close(fd);

    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        fatal("writeFileAtomic: rename '%s' -> '%s' failed: %s",
              tmp.c_str(), path.c_str(), ec.message().c_str());

    // And the rename itself must reach disk: the directory entry is
    // what a resuming campaign (or a worker told a manifest exists)
    // will look up after a crash.
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    fsyncDirectory(parent.empty() ? std::string(".")
                                  : parent.string());
}

} // namespace uscope
