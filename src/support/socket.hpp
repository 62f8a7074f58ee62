#ifndef GRAPHITI_SUPPORT_SOCKET_HPP
#define GRAPHITI_SUPPORT_SOCKET_HPP

/**
 * @file
 * Thin RAII wrappers over POSIX sockets for the compile service
 * (docs/service.md): unix-domain listeners for the local daemon and
 * blocking-with-timeout reads and writes that never raise SIGPIPE.
 *
 * These are deliberately minimal — no event loop, no buffering; the
 * served framing layer (served/protocol.hpp) does its own length
 * accounting on top. Every operation reports failures as Result
 * values, never exceptions, matching the rest of the codebase.
 */

#include <string>

#include "support/result.hpp"

namespace graphiti::net {

/** One owned file descriptor; closed on destruction, movable. */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(Socket&& other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }
    Socket&
    operator=(Socket&& other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** Close now (idempotent). */
    void close();

    /** Release ownership without closing. */
    int
    release()
    {
        int fd = fd_;
        fd_ = -1;
        return fd;
    }

  private:
    int fd_ = -1;
};

/** Listen on a unix-domain socket at @p path (unlinks a stale file). */
Result<Socket> listenUnix(const std::string& path, int backlog = 64);

/** Connect to a unix-domain socket. */
Result<Socket> connectUnix(const std::string& path);

/**
 * Accept one connection, waiting at most @p timeout_ms (-1 = forever).
 * Returns an invalid Socket on timeout (not an error), so accept loops
 * can poll a shutdown flag between waits.
 */
Result<Socket> acceptConnection(const Socket& listener, int timeout_ms);

/** Wait until @p socket is readable; false on timeout. */
Result<bool> waitReadable(const Socket& socket, int timeout_ms);

/**
 * Read up to @p max bytes into @p out (appended), waiting at most
 * @p timeout_ms for data. Returns the byte count: 0 means the peer
 * closed the connection. Timeouts are errors ("read timeout").
 */
Result<std::size_t> readSome(const Socket& socket, std::string& out,
                             std::size_t max, int timeout_ms);

/** Write all of @p data (handles partial writes; no SIGPIPE). */
Result<bool> writeAll(const Socket& socket, const std::string& data,
                      int timeout_ms);

/** True when the peer has closed (half- or full-close) — a zero-byte
 * MSG_PEEK probe; never consumes data. */
bool peerClosed(const Socket& socket);

}  // namespace graphiti::net

#endif  // GRAPHITI_SUPPORT_SOCKET_HPP
