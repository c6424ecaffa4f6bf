// Minimal TCP transport over POSIX sockets, mirroring the paper's
// deployment: a client streams events to the engine over a TCP connection
// (§4.1). The server side is server::CepServer (DESIGN.md §8), whose reactor
// appends each decoded DATA frame to the session's EventStore; this header
// holds the blocking pieces it and its clients share — the loopback
// listener, the write-all and read helpers, and TcpClient, the connecting
// side (TCP_NODELAY) used by the load generator and the tests.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "net/frame.hpp"

namespace spectre::net {

// Writes all `n` bytes to `fd`, retrying on EINTR and short writes, waiting
// for writability on EAGAIN (the fd may be non-blocking), and suppressing
// SIGPIPE. Returns false once the peer is gone (EPIPE/ECONNRESET) — callers
// that stream results to a client treat that as "stop sending", not an error.
// Throws on any other failure.
bool send_all_bytes(int fd, const std::uint8_t* data, std::size_t n);

// Reads up to `n` bytes, retrying on EINTR. Returns 0 at end-of-stream and
// -1 when the fd is non-blocking and no data is available (EAGAIN); throws on
// other errors.
ssize_t read_some(int fd, std::uint8_t* data, std::size_t n);

// Creates a listening socket on 127.0.0.1:`port` (0 = ephemeral) with a
// checked SO_REUSEADDR; writes the bound port to `bound_port` and returns the
// fd (caller owns). Closes the fd and throws on any failure.
int listen_loopback(std::uint16_t port, int backlog, std::uint16_t& bound_port);

class TcpClient {
public:
    // `rcvbuf` > 0 sets SO_RCVBUF before connect() — it must precede the
    // handshake to bound the advertised TCP window (backpressure tests);
    // 0 keeps the kernel default (auto-tuned).
    TcpClient(const std::string& host, std::uint16_t port, int rcvbuf = 0);
    ~TcpClient();

    TcpClient(const TcpClient&) = delete;
    TcpClient& operator=(const TcpClient&) = delete;

    void send(const WireQuote& q);
    // Unframed bytes — for protocol tests (partial/corrupt frame injection).
    void send_raw(const std::uint8_t* data, std::size_t n);
    // The connected socket, for callers that also read (e.g. the load
    // generator draining RESULT frames); -1 after close().
    int fd() const noexcept { return fd_; }
    void close();

private:
    int fd_ = -1;
};

}  // namespace spectre::net
