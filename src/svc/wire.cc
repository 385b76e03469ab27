#include "svc/wire.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "svc/chaos.hh"

namespace uscope::svc
{

namespace
{
constexpr Logger log_{"svc.wire"};
} // namespace

std::uint64_t
field(const json::Value &msg, const char *key, std::uint64_t fallback)
{
    const json::Value *v = msg.get(key);
    return v ? v->asU64(fallback) : fallback;
}

std::string
stringField(const json::Value &msg, const char *key)
{
    const json::Value *v = msg.get(key);
    return v ? v->asString() : std::string();
}

std::string
encodeFrame(const std::string &payload)
{
    const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
    std::string out;
    out.reserve(4 + payload.size());
    out.push_back(static_cast<char>((n >> 24) & 0xff));
    out.push_back(static_cast<char>((n >> 16) & 0xff));
    out.push_back(static_cast<char>((n >> 8) & 0xff));
    out.push_back(static_cast<char>(n & 0xff));
    out += payload;
    return out;
}

void
FrameSplitter::feed(const char *data, std::size_t len)
{
    if (corrupt_)
        return;
    buf_.append(data, len);
    for (;;) {
        if (buf_.size() < 4)
            return;
        const auto b = [&](std::size_t i) {
            return static_cast<std::uint32_t>(
                static_cast<unsigned char>(buf_[i]));
        };
        const std::uint32_t n =
            (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
        if (n > kMaxFrameBytes) {
            corrupt_ = true;
            return;
        }
        if (buf_.size() < 4 + static_cast<std::size_t>(n))
            return;
        ready_.push_back(buf_.substr(4, n));
        buf_.erase(0, 4 + static_cast<std::size_t>(n));
    }
}

std::optional<std::string>
FrameSplitter::next()
{
    if (ready_.empty())
        return std::nullopt;
    std::string frame = std::move(ready_.front());
    ready_.pop_front();
    return frame;
}

Conn::~Conn()
{
    close();
}

Conn::Conn(Conn &&other) noexcept
{
    *this = std::move(other);
}

Conn &
Conn::operator=(Conn &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        failed_ = other.failed_;
        buffered_ = other.buffered_;
        badFrames_ = other.badFrames_;
        splitter_ = std::move(other.splitter_);
        out_ = std::move(other.out_);
        outOff_ = other.outOff_;
        other.fd_ = -1;
    }
    return *this;
}

void
Conn::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

bool
Conn::writeFrame(const std::string &frame)
{
    std::size_t sent = 0;
    // Chaos site: tear the frame into two kernel writes with a pause
    // between them, exercising the receiver's FrameSplitter exactly
    // the way a congested socket would.
    std::size_t tear = frame.size();
    if (std::optional<std::size_t> cut = chaosTearPoint(frame.size()))
        tear = *cut;
    while (sent < frame.size()) {
        const std::size_t limit = sent < tear ? tear : frame.size();
        const ssize_t n = ::send(fd_, frame.data() + sent,
                                 limit - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            failed_ = true;
            return false;
        }
        sent += static_cast<std::size_t>(n);
        if (sent == tear && tear < frame.size())
            ::usleep(static_cast<useconds_t>(kChaosTearDelayUs));
    }
    return true;
}

bool
Conn::flushOut()
{
    if (fd_ < 0)
        return false;
    while (outOff_ < out_.size()) {
        const ssize_t n =
            ::send(fd_, out_.data() + outOff_, out_.size() - outOff_,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break; // the kernel is full; POLLOUT will call again
            failed_ = true;
            return false;
        }
        outOff_ += static_cast<std::size_t>(n);
    }
    if (outOff_ == out_.size()) {
        out_.clear();
        outOff_ = 0;
    } else if (outOff_ > (1u << 20)) {
        out_.erase(0, outOff_);
        outOff_ = 0;
    }
    return true;
}

bool
Conn::send(const json::Value &msg)
{
    return sendFrame(encodeFrame(msg.dump()));
}

bool
Conn::sendFrame(const std::string &frame)
{
    if (!open())
        return false;
    if (!buffered_)
        return writeFrame(frame);
    if (pendingOut() > kMaxOutboundBytes) {
        log_.warn("outbound buffer for fd %d exceeds %zu bytes; peer "
                  "stopped reading — dropping connection", fd_,
                  kMaxOutboundBytes);
        failed_ = true;
        return false;
    }
    out_ += frame;
    return flushOut();
}

void
Conn::sendFinal(const json::Value &msg)
{
    if (fd_ < 0)
        return;
    flushOut(); // whatever buffered bytes still fit, first
    writeFrame(encodeFrame(msg.dump()));
}

bool
Conn::pump()
{
    if (!open())
        return false;
    char chunk[64 * 1024];
    for (;;) {
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
        if (n > 0) {
            splitter_.feed(chunk, static_cast<std::size_t>(n));
            if (splitter_.corrupt()) {
                log_.warn("oversized frame on fd %d; dropping "
                          "connection", fd_);
                failed_ = true;
                return false;
            }
            continue;
        }
        if (n == 0) { // orderly hangup
            failed_ = true;
            return false;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;
        if (errno == EINTR)
            continue;
        failed_ = true;
        return false;
    }
}

std::optional<json::Value>
Conn::next()
{
    for (;;) {
        std::optional<std::string> frame = splitter_.next();
        if (!frame)
            return std::nullopt;
        std::optional<json::Value> msg = json::Value::parse(*frame);
        if (msg)
            return msg;
        ++badFrames_;
        log_.warn("dropping non-JSON frame (%zu bytes) on fd %d",
                  frame->size(), fd_);
    }
}

std::size_t
Conn::takeBadFrames()
{
    const std::size_t n = badFrames_;
    badFrames_ = 0;
    return n;
}

namespace
{

sockaddr_un
unixAddress(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
        fatal("svc: socket path '%s' exceeds the %zu-byte AF_UNIX "
              "limit", path.c_str(), sizeof addr.sun_path - 1);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

} // namespace

int
listenUnix(const std::string &path)
{
    const sockaddr_un addr = unixAddress(path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        fatal("svc: socket(AF_UNIX): %s", std::strerror(errno));
    ::unlink(path.c_str()); // a stale socket from a dead daemon
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0) {
        const int err = errno;
        ::close(fd);
        fatal("svc: bind('%s'): %s", path.c_str(), std::strerror(err));
    }
    if (::listen(fd, 64) != 0) {
        const int err = errno;
        ::close(fd);
        fatal("svc: listen('%s'): %s", path.c_str(),
              std::strerror(err));
    }
    return fd;
}

int
connectUnix(const std::string &path)
{
    const sockaddr_un addr = unixAddress(path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

int
acceptUnix(int listen_fd)
{
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0)
            return fd;
        if (errno == EINTR)
            continue;
        return -1;
    }
}

bool
waitReadable(int fd, int timeout_ms)
{
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    for (;;) {
        const int n = ::poll(&p, 1, timeout_ms);
        if (n > 0)
            return true;
        if (n == 0)
            return false;
        if (errno != EINTR)
            return false;
    }
}

bool
retryUntil(std::chrono::steady_clock::time_point deadline,
           std::chrono::microseconds max_wait,
           const std::function<bool()> &attempt)
{
    std::chrono::microseconds wait{100};
    for (;;) {
        if (attempt())
            return true;
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline)
            return false;
        std::this_thread::sleep_for(
            std::min<std::chrono::steady_clock::duration>(wait,
                                                          deadline - now));
        wait = std::min(wait * 2, max_wait);
    }
}

} // namespace uscope::svc
