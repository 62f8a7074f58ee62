#include "support/socket.hpp"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace graphiti::net {

namespace {

std::string
errnoText(const char* what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

/** Poll one fd for @p events; 1 ready, 0 timeout, error otherwise. */
Result<int>
pollOne(int fd, short events, int timeout_ms)
{
    struct pollfd p;
    p.fd = fd;
    p.events = events;
    p.revents = 0;
    for (;;) {
        int n = ::poll(&p, 1, timeout_ms);
        if (n >= 0)
            return n;
        if (errno != EINTR)
            return err(errnoText("poll"));
    }
}

}  // namespace

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Result<Socket>
listenUnix(const std::string& path, int backlog)
{
    struct sockaddr_un addr;
    if (path.size() >= sizeof(addr.sun_path))
        return err("unix socket path too long: " + path);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return err(errnoText("socket(AF_UNIX)"));
    Socket sock(fd);
    ::unlink(path.c_str());  // stale socket file from a crashed daemon
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0)
        return err(errnoText(("bind " + path).c_str()));
    if (::listen(fd, backlog) != 0)
        return err(errnoText("listen"));
    return sock;
}

Result<Socket>
connectUnix(const std::string& path)
{
    struct sockaddr_un addr;
    if (path.size() >= sizeof(addr.sun_path))
        return err("unix socket path too long: " + path);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return err(errnoText("socket(AF_UNIX)"));
    Socket sock(fd);
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0)
        return err(errnoText(("connect " + path).c_str()));
    return sock;
}

Result<Socket>
acceptConnection(const Socket& listener, int timeout_ms)
{
    Result<int> ready = pollOne(listener.fd(), POLLIN, timeout_ms);
    if (!ready.ok())
        return ready.error();
    if (ready.value() == 0)
        return Socket{};  // timeout: let the caller poll its flags
    int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd < 0)
        return err(errnoText("accept"));
    return Socket(fd);
}

Result<bool>
waitReadable(const Socket& socket, int timeout_ms)
{
    Result<int> ready = pollOne(socket.fd(), POLLIN, timeout_ms);
    if (!ready.ok())
        return ready.error();
    return ready.value() > 0;
}

Result<std::size_t>
readSome(const Socket& socket, std::string& out, std::size_t max,
         int timeout_ms)
{
    Result<int> ready = pollOne(socket.fd(), POLLIN, timeout_ms);
    if (!ready.ok())
        return ready.error();
    if (ready.value() == 0)
        return err("read timeout");
    char buf[4096];
    std::size_t want = std::min(max, sizeof(buf));
    for (;;) {
        ssize_t n = ::recv(socket.fd(), buf, want, 0);
        if (n >= 0) {
            out.append(buf, static_cast<std::size_t>(n));
            return static_cast<std::size_t>(n);
        }
        if (errno != EINTR)
            return err(errnoText("recv"));
    }
}

Result<bool>
writeAll(const Socket& socket, const std::string& data, int timeout_ms)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        Result<int> ready =
            pollOne(socket.fd(), POLLOUT, timeout_ms);
        if (!ready.ok())
            return ready.error();
        if (ready.value() == 0)
            return err("write timeout");
        ssize_t n = ::send(socket.fd(), data.data() + sent,
                           data.size() - sent, MSG_NOSIGNAL);
        if (n >= 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (errno != EINTR)
            return err(errnoText("send"));
    }
    return true;
}

bool
peerClosed(const Socket& socket)
{
    char probe;
    ssize_t n = ::recv(socket.fd(), &probe, 1,
                       MSG_PEEK | MSG_DONTWAIT);
    if (n == 0)
        return true;  // orderly shutdown
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                  errno == EINTR))
        return false;
    return n < 0;  // ECONNRESET and friends
}

}  // namespace graphiti::net
