// Minimal TCP transport for quote streams (POSIX sockets), mirroring the
// paper's deployment: a client streams events from a file / generator to the
// engine over a TCP connection (§4.1).
//
//   TcpSource — listens on a port and accepts one client.
//   TcpStream — pull-based EventStream over the accepted connection: yields
//               each event as its frame arrives, so the engines detect while
//               the client is still sending (ingest-while-detect, DESIGN.md
//               §6). Feed it to SpectreRuntime::run(EventStream&) or
//               SequentialEngine::run_stream().
//   TcpClient — connects (TCP_NODELAY) and sends events.
//
// Blocking one-connection design: the receive path decodes frames
// incrementally from the socket buffer; receive_into remains as the batch
// convenience that drains the connection to end-of-stream before returning.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "event/stream.hpp"
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

class TcpSource {
public:
    // Binds and listens on 127.0.0.1:`port` (port 0 = ephemeral).
    explicit TcpSource(std::uint16_t port);
    ~TcpSource();

    TcpSource(const TcpSource&) = delete;
    TcpSource& operator=(const TcpSource&) = delete;

    std::uint16_t port() const noexcept { return port_; }

    // Blocks until a client connects; returns the connected fd (caller owns).
    int accept_client();

    // Batch convenience: accepts one client and appends every received event
    // to `store` until the client closes. Returns the number of events
    // received. Does not close() the store — the caller decides whether this
    // was the whole input.
    std::size_t receive_into(event::EventStore& store, const data::StockVocab& vocab);

private:
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
};

// Live ingestion: one accepted connection exposed as a pull EventStream.
// next() blocks until a full frame is buffered and returns the decoded
// event; returns nullopt when the client closes the connection at a frame
// boundary. A disconnect mid-frame (truncated final frame) is a stream
// error — next() throws std::runtime_error instead of silently dropping the
// partial frame.
class TcpStream final : public event::EventStream {
public:
    // Blocks in accept() until the client connects.
    TcpStream(TcpSource& source, const data::StockVocab& vocab);
    ~TcpStream();

    TcpStream(const TcpStream&) = delete;
    TcpStream& operator=(const TcpStream&) = delete;

    std::optional<event::Event> next() override;

private:
    int fd_ = -1;
    const data::StockVocab* vocab_;
    std::vector<std::uint8_t> buffer_;
    std::size_t offset_ = 0;
};

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
    void send_all(const std::vector<event::Event>& events, const data::StockVocab& vocab);
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
