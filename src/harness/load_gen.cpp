#include "harness/load_gen.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>

#include "net/tcp.hpp"

namespace spectre::harness {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// One session's client-side driver state. The transport is net::TcpClient,
// the connecting side of net/tcp.hpp.
struct Driver {
    std::optional<net::TcpClient> conn;
    net::FrameReader reader;
    LoadGenOutcome out;
    Clock::time_point first_data{};
    bool terminal = false;  // server BYE / ERROR / EOF seen

    int fd() const { return conn->fd(); }

    void connect(const std::string& host, std::uint16_t port, int rcvbuf) {
        conn.emplace(host, port, rcvbuf);
    }

    void send_frame(const net::SessionFrame& f) {
        flush_batch();  // keep the byte stream in frame order
        std::vector<std::uint8_t> bytes;
        net::encode_frame(f, bytes);
        conn->send_raw(bytes.data(), bytes.size());
    }

    // Batched DATA path (ungated sessions): encode_frame appends, so many
    // frames accumulate into one send. The wire bytes are identical to the
    // per-frame path — TCP carries no frame boundaries — but the client stops
    // being one syscall per event, which on a shared core starves the server.
    // Every ordering-sensitive point (control frames, fault injection,
    // blocking waits) flushes first.
    static constexpr std::size_t kBatchBytes = 32 * 1024;
    std::vector<std::uint8_t> batch;

    void send_frame_batched(const net::SessionFrame& f) {
        net::encode_frame(f, batch);
        if (batch.size() >= kBatchBytes) flush_batch();
    }

    void flush_batch() {
        if (batch.empty()) return;
        conn->send_raw(batch.data(), batch.size());
        batch.clear();
    }

    // Send for a read-gated (slow-consumer) session. A blocking send could
    // distributed-deadlock with the server's ingest backpressure: the server
    // parks the session on egress credit, stops pulling ingest, pauses
    // reading the socket — and a client wedged in send_raw would never reach
    // the gate-checked read loop. Send non-blockingly instead and, when the
    // socket fills, drain results once the gate allows (sleep until then).
    void send_frame_gated(const std::atomic<bool>& gate, const net::SessionFrame& f) {
        std::vector<std::uint8_t> bytes;
        net::encode_frame(f, bytes);
        std::size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t w = ::send(fd(), bytes.data() + sent, bytes.size() - sent,
                                     MSG_NOSIGNAL | MSG_DONTWAIT);
            if (w > 0) {
                sent += static_cast<std::size_t>(w);
                continue;
            }
            if (w < 0 && errno == EINTR) continue;
            if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                if (gate.load(std::memory_order_acquire))
                    drain_nonblocking();
                else
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                continue;
            }
            throw std::runtime_error(std::string("send: ") + std::strerror(errno));
        }
    }

    // HELLO v2 capability echo (§15); arrives before any RESULT byte.
    std::optional<net::Hello2Frame> hello2;

    void handle(net::SessionFrame&& f) {
        if (auto* echo = std::get_if<net::Hello2Frame>(&f)) {
            hello2 = std::move(*echo);
        } else if (auto* result = std::get_if<net::ResultFrame>(&f)) {
            if (out.results.empty()) out.first_result_seconds = seconds_since(first_data);
            out.results.push_back(net::from_result_frame(*result));
        } else if (const auto* bye = std::get_if<net::ByeFrame>(&f)) {
            out.completed = true;
            out.server_reported_results = bye->results;
            terminal = true;
        } else if (auto* stats = std::get_if<net::StatsFrame>(&f)) {
            out.stats_json.push_back(std::move(stats->json));
        } else if (auto* error = std::get_if<net::ErrorFrame>(&f)) {
            out.error = std::move(error->message);
            terminal = true;
        } else {
            out.error = "protocol error: unexpected frame from server";
            terminal = true;
        }
    }

    void feed_and_poll(const std::uint8_t* data, std::size_t n) {
        reader.feed(data, n);
        while (!terminal) {
            auto f = reader.poll();
            if (!f) break;
            handle(std::move(*f));
        }
    }

    // Drains whatever the server has sent without blocking, so a fast server
    // never stalls on a full client-side socket buffer mid-stream.
    void drain_nonblocking() {
        std::uint8_t chunk[16384];
        while (!terminal) {
            const ssize_t n = ::recv(fd(), chunk, sizeof(chunk), MSG_DONTWAIT);
            if (n > 0) {
                feed_and_poll(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0) {
                if (out.error.empty()) out.error = "server closed the connection";
                terminal = true;
                return;
            }
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (out.error.empty())
                out.error = std::string("recv: ") + std::strerror(errno);
            terminal = true;
            return;
        }
    }

    // One blocking read; advances the frame reader.
    void read_blocking() {
        std::uint8_t chunk[16384];
        const ssize_t n = net::read_some(fd(), chunk, sizeof(chunk));
        if (n > 0) {
            feed_and_poll(chunk, static_cast<std::size_t>(n));
            return;
        }
        if (n == 0) {
            if (!out.completed && out.error.empty())
                out.error = "server closed the connection";
            terminal = true;
        }
    }
};

LoadGenOutcome drive(const std::string& host, std::uint16_t port,
                     const LoadGenSession& spec) {
    Driver d;
    const auto t0 = Clock::now();
    try {
        // SO_RCVBUF must be set before connect to bound the TCP window.
        d.connect(host, port, spec.rcvbuf);
        d.send_frame(net::SessionFrame{
            net::HelloFrame{spec.query, spec.instances, spec.shards, spec.partition_by}});
        d.first_data = Clock::now();
        bool corrupted = false;
        bool stats_sent = spec.stats_after == SIZE_MAX;  // "never asked" latch
        for (std::size_t i = 0; i < spec.events.size() && !d.terminal; ++i) {
            if (i == spec.corrupt_after) {
                // Fault injection: an invalid frame tag followed by noise.
                d.flush_batch();
                const std::uint8_t garbage[16] = {0xff, 0xde, 0xad, 0xbe, 0xef};
                d.conn->send_raw(garbage, sizeof(garbage));
                corrupted = true;
                break;
            }
            if (i == spec.truncate_frame_at_event) {
                // Fault injection: die mid-frame — send a partial DATA frame
                // then hard-close the socket.
                d.flush_batch();
                std::vector<std::uint8_t> bytes;
                net::encode_frame(net::SessionFrame{spec.events[i]}, bytes);
                d.conn->send_raw(bytes.data(), bytes.size() / 2);
                d.conn->close();
                d.out.stats_missed = !stats_sent;
                d.out.wall_seconds = seconds_since(t0);
                return std::move(d.out);
            }
            if (spec.read_gate)
                d.send_frame_gated(*spec.read_gate, net::SessionFrame{spec.events[i]});
            else
                d.send_frame_batched(net::SessionFrame{spec.events[i]});
            ++d.out.events_sent;
            if (!stats_sent && d.out.events_sent >= spec.stats_after) {
                // Mid-stream STATS request: the reply interleaves with RESULTs.
                // Latched (>=, not ==): a stream shorter than stats_after must
                // not silently skip the request.
                stats_sent = true;
                if (spec.read_gate)
                    d.send_frame_gated(*spec.read_gate,
                                       net::SessionFrame{net::StatsFrame{}});
                else
                    d.send_frame(net::SessionFrame{net::StatsFrame{}});
            }
            if (!spec.read_gate || spec.read_gate->load(std::memory_order_acquire))
                d.drain_nonblocking();
            if (i == spec.wait_result_after) {
                d.flush_batch();  // the result may hinge on a buffered event
                while (!d.terminal && d.out.results.empty()) d.read_blocking();
            }
        }
        if (!d.terminal && !corrupted) {
            if (!stats_sent) {
                // The stream ended before stats_after events: honor the
                // request anyway, right before BYE, so the caller still gets
                // a reply instead of a silently empty stats_json.
                stats_sent = true;
                if (spec.read_gate)
                    d.send_frame_gated(*spec.read_gate,
                                       net::SessionFrame{net::StatsFrame{}});
                else
                    d.send_frame(net::SessionFrame{net::StatsFrame{}});
            }
            if (spec.read_gate)
                d.send_frame_gated(*spec.read_gate, net::SessionFrame{net::ByeFrame{}});
            else
                d.send_frame(net::SessionFrame{net::ByeFrame{}});
        }
        d.out.stats_missed = !stats_sent;
        d.out.results_before_bye = d.out.results.size();
        while (!d.terminal) {
            if (spec.read_gate && !spec.read_gate->load(std::memory_order_acquire)) {
                // Slow consumer: hold the connection open without reading a
                // byte until the gate opens.
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                continue;
            }
            d.read_blocking();
        }
    } catch (const std::exception& e) {
        if (d.out.error.empty()) d.out.error = e.what();
    }
    d.out.wall_seconds = seconds_since(t0);
    return std::move(d.out);
}

// Shared handshake for the §15 clients: connect, send the v2 HELLO, block
// until the capability echo (the server buffers it before any RESULT byte)
// or a terminal frame/transport failure. Rejects land in out.error.
bool handshake_v2(Driver& d, const std::string& host, std::uint16_t port,
                  int rcvbuf, net::Hello2Frame&& hello) {
    try {
        d.connect(host, port, rcvbuf);
        d.send_frame(net::SessionFrame{std::move(hello)});
        while (!d.terminal && !d.hello2) d.read_blocking();
    } catch (const std::exception& e) {
        if (d.out.error.empty()) d.out.error = e.what();
        d.terminal = true;
    }
    return d.hello2.has_value() && d.out.error.empty();
}

}  // namespace

// --- PublisherClient (§15) --------------------------------------------------

struct PublisherClient::Impl {
    Driver d;
    Clock::time_point t0 = Clock::now();
    bool ok = false;
};

PublisherClient::PublisherClient(const std::string& host, std::uint16_t port,
                                 std::string stream)
    : impl_(std::make_unique<Impl>()) {
    net::Hello2Frame hello;
    hello.set("role", "publish");
    hello.set("stream", std::move(stream));
    impl_->ok = handshake_v2(impl_->d, host, port, 0, std::move(hello));
    impl_->d.first_data = Clock::now();
}

PublisherClient::~PublisherClient() = default;
PublisherClient::PublisherClient(PublisherClient&&) noexcept = default;
PublisherClient& PublisherClient::operator=(PublisherClient&&) noexcept = default;

bool PublisherClient::ok() const { return impl_->ok; }
const std::string& PublisherClient::error() const { return impl_->d.out.error; }
const net::Hello2Frame& PublisherClient::capabilities() const {
    return *impl_->d.hello2;
}

void PublisherClient::publish(const std::vector<net::WireQuote>& events) {
    if (!impl_->ok || impl_->d.terminal) return;
    try {
        for (const auto& q : events) {
            if (impl_->d.terminal) break;
            impl_->d.send_frame_batched(net::SessionFrame{q});
            ++impl_->d.out.events_sent;
        }
        impl_->d.flush_batch();
        // The only egress a live publisher has is an ERROR — catch it early
        // rather than on finish().
        impl_->d.drain_nonblocking();
    } catch (const std::exception& e) {
        if (impl_->d.out.error.empty()) impl_->d.out.error = e.what();
        impl_->d.terminal = true;
    }
}

bool PublisherClient::finish() {
    Driver& d = impl_->d;
    if (impl_->ok && !d.terminal) {
        try {
            d.send_frame(net::SessionFrame{net::ByeFrame{}});
            while (!d.terminal) d.read_blocking();
        } catch (const std::exception& e) {
            if (d.out.error.empty()) d.out.error = e.what();
            d.terminal = true;
        }
    }
    d.out.wall_seconds = seconds_since(impl_->t0);
    return d.out.completed && d.out.error.empty();
}

// --- SubscriberClient (§15) -------------------------------------------------

struct SubscriberClient::Impl {
    Driver d;
    Clock::time_point t0 = Clock::now();
    std::shared_ptr<std::atomic<bool>> read_gate;
    bool ok = false;
};

SubscriberClient::SubscriberClient(const std::string& host, std::uint16_t port,
                                   Spec spec)
    : impl_(std::make_unique<Impl>()) {
    impl_->read_gate = std::move(spec.read_gate);
    net::Hello2Frame hello;
    hello.set("role", "subscribe");
    hello.set("stream", std::move(spec.stream));
    hello.set("query", std::move(spec.query));
    if (spec.instances > 0) hello.set("instances", std::to_string(spec.instances));
    if (spec.shards > 0) hello.set("shards", std::to_string(spec.shards));
    if (!spec.partition_by.empty()) hello.set("partition_by", std::move(spec.partition_by));
    impl_->ok = handshake_v2(impl_->d, host, port, spec.rcvbuf, std::move(hello));
    // Results start flowing as soon as the publisher's data does; measure
    // first-result latency from attach.
    impl_->d.first_data = Clock::now();
}

SubscriberClient::~SubscriberClient() = default;
SubscriberClient::SubscriberClient(SubscriberClient&&) noexcept = default;
SubscriberClient& SubscriberClient::operator=(SubscriberClient&&) noexcept = default;

bool SubscriberClient::ok() const { return impl_->ok; }
const std::string& SubscriberClient::error() const { return impl_->d.out.error; }
const net::Hello2Frame& SubscriberClient::capabilities() const {
    return *impl_->d.hello2;
}

LoadGenOutcome SubscriberClient::run() {
    Driver& d = impl_->d;
    while (!d.terminal) {
        if (impl_->read_gate &&
            !impl_->read_gate->load(std::memory_order_acquire)) {
            // Slow consumer: hold the connection open without reading a byte
            // until the gate opens (§9 backpressure must stay per-session).
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            continue;
        }
        d.read_blocking();
    }
    d.out.results_before_bye = d.out.results.size();
    d.out.wall_seconds = seconds_since(impl_->t0);
    return std::move(d.out);
}

LoadGenClient::LoadGenClient(std::string host, std::uint16_t port)
    : host_(std::move(host)), port_(port) {}

std::vector<LoadGenOutcome> LoadGenClient::run(
    const std::vector<LoadGenSession>& specs) const {
    std::vector<LoadGenOutcome> outcomes(specs.size());
    std::vector<std::thread> threads;
    threads.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        threads.emplace_back([this, &specs, &outcomes, i] {
            outcomes[i] = drive(host_, port_, specs[i]);
        });
    for (auto& t : threads) t.join();
    return outcomes;
}

LoadGenOutcome LoadGenClient::run_one(const LoadGenSession& spec) const {
    return drive(host_, port_, spec);
}

}  // namespace spectre::harness
