// LoadGenClient: drives N concurrent sessions against a CepServer
// (DESIGN.md §8) — the test/bench counterpart of the paper's "client program
// that ... sends events to SPECTRE over a TCP connection" (paper §4.1),
// generalized to many clients with independent queries.
//
// Each session runs on its own thread: connect, HELLO (query text + k),
// stream DATA frames while opportunistically draining RESULT frames (so a
// fast server never blocks on a full client socket), BYE, then read until the
// server's BYE. The outcome records the RESULT stream in arrival order plus
// the observability hooks the integration tests assert on: how many results
// arrived before BYE was sent (streaming egress happens before end-of-stream)
// and the first-result latency (for the throughput bench).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "event/event.hpp"
#include "net/session.hpp"

namespace spectre::harness {

struct LoadGenSession {
    std::string query;            // query::parse_query text, sent in HELLO
    std::uint32_t instances = 0;  // k operator instances; 0 = sequential engine
    std::vector<net::WireQuote> events;

    // After sending this many DATA frames, block until at least one RESULT
    // has arrived — proves results stream back before end-of-stream.
    // SIZE_MAX disables the wait.
    std::size_t wait_result_after = SIZE_MAX;

    // After sending this many DATA frames, send a STATS request (DESIGN.md
    // §12); the reply rides the ordinary egress stream, interleaved with
    // RESULT frames, and lands in outcome.stats_json. SIZE_MAX disables.
    std::size_t stats_after = SIZE_MAX;

    // After sending this many DATA frames, send garbage bytes instead of the
    // rest (protocol-corruption fault injection). SIZE_MAX disables.
    std::size_t corrupt_after = SIZE_MAX;

    // Close the connection abruptly after sending this many *bytes* of the
    // next DATA frame (death mid-frame fault injection). SIZE_MAX disables.
    std::size_t truncate_frame_at_event = SIZE_MAX;

    // Slow-consumer fault injection: while set and false, the client does
    // not read a single RESULT byte — the server's egress buffer for this
    // session must fill and park its engine task (DESIGN.md §9), never a
    // pool worker. Reading (and the final drain) begins once the gate flips
    // to true. nullptr disables.
    std::shared_ptr<std::atomic<bool>> read_gate = nullptr;

    // SO_RCVBUF for this client's socket; 0 keeps the kernel default. Paired
    // with ServerConfig::session_sndbuf by the backpressure tests so result
    // bytes stop flowing at a known small bound instead of vanishing into
    // auto-tuned loopback buffers.
    int rcvbuf = 0;

    // Sharded HELLO fields (DESIGN.md §10).
    std::uint32_t shards = 0;     // HELLO shard count; 0 leaves it to the query
    std::string partition_by;     // HELLO partition key; "" = from query text
};

struct LoadGenOutcome {
    std::vector<event::ComplexEvent> results;  // RESULT frames, arrival order
    std::vector<std::string> stats_json;       // STATS replies, arrival order
    std::size_t results_before_bye = 0;        // received before BYE was sent
    std::uint64_t server_reported_results = 0; // count in the server's BYE
    bool completed = false;                    // server BYE received
    std::string error;                         // ERROR frame / transport failure
    double first_result_seconds = -1.0;        // since first DATA; -1 = none
    double wall_seconds = 0.0;                 // connect → session end
    std::size_t events_sent = 0;
    // stats_after was requested but the STATS frame could not be sent (the
    // session died first, or fault injection cut the stream). Distinguishes
    // "no reply yet" from "never asked" — callers used to silently get an
    // empty stats_json when stats_after exceeded the events actually sent.
    bool stats_missed = false;
};

// Shared-ingest-plane clients (DESIGN.md §15, HELLO v2). A PublisherClient
// owns a named stream and carries only DATA; SubscriberClients attach queries
// to it. Construction performs the versioned handshake and blocks until the
// server's capability echo arrives (or the session fails — captured in
// error(), never thrown for protocol-level rejects), so a test that
// constructs its subscribers before the publisher sends data *knows* they
// were attached before any history chunk could be reclaimed.
class PublisherClient {
public:
    PublisherClient(const std::string& host, std::uint16_t port,
                    std::string stream);
    ~PublisherClient();
    PublisherClient(PublisherClient&&) noexcept;
    PublisherClient& operator=(PublisherClient&&) noexcept;

    bool ok() const;                  // handshake echo received, no error
    const std::string& error() const;
    const net::Hello2Frame& capabilities() const;  // valid when ok()

    // Batched DATA frames; flushes at the end of the call.
    void publish(const std::vector<net::WireQuote>& events);
    // End the stream: BYE, then block for the server's acknowledging BYE.
    // Subscribers keep running — the stream's end-of-stream is what lets
    // their engines drain to completion. False = session failed (see error()).
    bool finish();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

class SubscriberClient {
public:
    struct Spec {
        std::string stream;           // published stream to attach to
        std::string query;            // query::parse_query text
        std::uint32_t instances = 0;  // k; 0 = sequential engine
        std::uint32_t shards = 0;     // HELLO shard count; 0 leaves it to the query
        std::string partition_by;     // HELLO partition key; "" = from query text
        // Slow-consumer gate, same contract as LoadGenSession::read_gate.
        std::shared_ptr<std::atomic<bool>> read_gate = nullptr;
        int rcvbuf = 0;
    };

    SubscriberClient(const std::string& host, std::uint16_t port, Spec spec);
    ~SubscriberClient();
    SubscriberClient(SubscriberClient&&) noexcept;
    SubscriberClient& operator=(SubscriberClient&&) noexcept;

    bool ok() const;                  // handshake echo received, no error
    const std::string& error() const;
    const net::Hello2Frame& capabilities() const;  // valid when ok()

    // Blocks until the server ends the session — BYE once the stream closed
    // and the query drained, or ERROR — and returns the RESULT stream in
    // arrival order. A failed handshake returns its outcome immediately.
    LoadGenOutcome run();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

class LoadGenClient {
public:
    LoadGenClient(std::string host, std::uint16_t port);

    // Drives all sessions concurrently, one thread each; outcome[i]
    // corresponds to specs[i]. Never throws for per-session failures — they
    // land in outcome.error.
    std::vector<LoadGenOutcome> run(const std::vector<LoadGenSession>& specs) const;

    // Convenience for single-session flows.
    LoadGenOutcome run_one(const LoadGenSession& spec) const;

private:
    std::string host_;
    std::uint16_t port_;
};

}  // namespace spectre::harness
