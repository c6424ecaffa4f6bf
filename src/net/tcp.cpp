#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace spectre::net {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

bool send_all_bytes(int fd, const std::uint8_t* data, std::size_t n) {
    std::size_t sent = 0;
    while (sent < n) {
        // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not kill the
        // server process with SIGPIPE.
        const ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
        if (w > 0) {
            sent += static_cast<std::size_t>(w);
            continue;
        }
        if (w < 0 && errno == EINTR) continue;
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // Non-blocking fd with a full socket buffer: wait for writability
            // (or the peer hanging up) and retry.
            pollfd p{fd, POLLOUT, 0};
            if (::poll(&p, 1, -1) < 0 && errno != EINTR) fail("poll");
            continue;
        }
        if (w < 0 && (errno == EPIPE || errno == ECONNRESET)) return false;
        fail("send");
    }
    return true;
}

ssize_t read_some(int fd, std::uint8_t* data, std::size_t n) {
    for (;;) {
        const ssize_t r = ::read(fd, data, n);
        if (r >= 0) return r;
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
        fail("read");
    }
}

int listen_loopback(std::uint16_t port, int backlog, std::uint16_t& bound_port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail("socket");
    try {
        const int one = 1;
        if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0)
            fail("setsockopt(SO_REUSEADDR)");

        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) fail("bind");
        if (::listen(fd, backlog) < 0) fail("listen");

        socklen_t len = sizeof(addr);
        if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
            fail("getsockname");
        bound_port = ntohs(addr.sin_port);
        return fd;
    } catch (...) {
        ::close(fd);
        throw;
    }
}

TcpClient::TcpClient(const std::string& host, std::uint16_t port, int rcvbuf) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) fail("socket");
    // A throwing constructor never runs the destructor: close the socket
    // here or every failed connect leaks one fd.
    try {
        if (rcvbuf > 0 &&
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)) < 0)
            fail("setsockopt(SO_RCVBUF)");
        // Clients send small frames (one quote, one control frame) and wait
        // on the replies; Nagle would hold each small write back until the
        // previous one is ACKed, which the peer's delayed ACK stretches to
        // milliseconds.
        const int nodelay = 1;
        if (::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay)) < 0)
            fail("setsockopt(TCP_NODELAY)");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
            throw std::runtime_error("bad host address: " + host);
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
            // An EINTR'd connect continues asynchronously (POSIX): wait for
            // writability, then read the final verdict from SO_ERROR.
            // Re-calling connect() would spuriously report EALREADY.
            if (errno != EINTR) fail("connect");
            pollfd p{fd_, POLLOUT, 0};
            while (::poll(&p, 1, -1) < 0)
                if (errno != EINTR) fail("poll");
            int err = 0;
            socklen_t len = sizeof(err);
            if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) < 0)
                fail("getsockopt");
            if (err != 0) {
                errno = err;
                fail("connect");
            }
        }
    } catch (...) {
        close();
        throw;
    }
}

TcpClient::~TcpClient() { close(); }

void TcpClient::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void TcpClient::send(const WireQuote& q) {
    std::vector<std::uint8_t> out;
    encode(q, out);
    if (!send_all_bytes(fd_, out.data(), out.size()))
        throw std::runtime_error("send: connection closed by peer");
}

void TcpClient::send_raw(const std::uint8_t* data, std::size_t n) {
    if (!send_all_bytes(fd_, data, n))
        throw std::runtime_error("send: connection closed by peer");
}

}  // namespace spectre::net
