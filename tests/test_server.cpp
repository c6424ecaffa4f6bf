// Multi-session CEP server (DESIGN.md §8, §9): many concurrent clients, each
// with its own query and engine, over one epoll reactor and a shared engine
// worker pool. The acceptance bar is the parity invariant extended to the
// wire: each session's RESULT stream — received over TCP, in arrival order —
// must be byte-identical (events, payloads, window order) to a
// SequentialEngine run over that session's input, and results must
// observably arrive before the client ends its stream (streaming egress).
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "harness/load_gen.hpp"
#include "net/tcp.hpp"
#include "server/cep_server.hpp"
#include "server/config.hpp"
#include "server_test_util.hpp"

using namespace spectre;
using namespace spectre::testing;

// ---------------------------------------------------------------------------
// The acceptance-criteria test: >= 4 concurrent clients, different queries,
// one CepServer; each RESULT stream byte-identical to a sequential run of
// that session's input; results observably arrive before end-of-stream.
// ---------------------------------------------------------------------------

TEST(CepServer, FourConcurrentSessionsMatchSequentialByteForByte) {
    server::CepServer srv;
    srv.start();

    // Four sessions: distinct queries, distinct inputs, a mix of sequential
    // (k=0) and speculative SPECTRE (k>0) engines. Each blocks mid-stream
    // until its first RESULT arrives, proving egress precedes end-of-stream.
    std::vector<harness::LoadGenSession> specs(4);
    specs[0] = make_session(kRisingPairQuery, 0, wire_events(600, 11), /*wait_result_after=*/300);
    specs[1] = make_session(kRisingTripleQuery, 2, wire_events(500, 22), /*wait_result_after=*/250);
    specs[2] = make_session(kFallingPairQuery, 1, wire_events(550, 33, 30, 0.4),
                /*wait_result_after=*/275);
    specs[3] = make_session(kLeaderQuery, 2, wire_events(450, 44), /*wait_result_after=*/225);

    harness::LoadGenClient client("127.0.0.1", srv.port());
    const auto outcomes = client.run(specs);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto& out = outcomes[i];
        const std::string label = "session " + std::to_string(i);
        EXPECT_TRUE(out.error.empty()) << label << ": " << out.error;
        EXPECT_TRUE(out.completed) << label;
        // Streaming egress: at least one result arrived before BYE was sent.
        EXPECT_GE(out.results_before_bye, 1u) << label;
        EXPECT_EQ(out.server_reported_results, out.results.size()) << label;
        expect_byte_identical(sequential_ground_truth(specs[i].query, specs[i].events),
                              out.results, label);
    }

    srv.stop();
    const auto stats = srv.stats();
    EXPECT_EQ(stats.sessions_accepted, 4u);
    EXPECT_EQ(stats.sessions_completed, 4u);
    EXPECT_EQ(stats.sessions_failed, 0u);
    EXPECT_EQ(stats.events_ingested, 600u + 500 + 550 + 450);
    // Pool hygiene (§9): the engines multiplexed over the shared workers and
    // every task drained.
    EXPECT_GE(stats.quanta_executed, 4u);
    EXPECT_EQ(stats.tasks_added, 4u);
    EXPECT_EQ(stats.tasks_finished, 4u);
    EXPECT_EQ(stats.tasks_live, 0u);
    EXPECT_EQ(stats.sessions_live, 0u);
}

// ---------------------------------------------------------------------------
// Handshake versioning (§15): v1 HELLO sessions are untouched by the v2
// handshake — same engine selection, no capability echo injected into their
// RESULT stream, byte-identical output — even while v2 publisher/subscriber
// sessions share the same server.
// ---------------------------------------------------------------------------

TEST(CepServer, HelloV1SessionsUnchangedAlongsideV2Sessions) {
    server::CepServer srv;
    srv.start();

    const auto shared_wire = wire_events(500, 91);
    harness::PublisherClient pub("127.0.0.1", srv.port(), "v2stream");
    ASSERT_TRUE(pub.ok()) << pub.error();
    harness::SubscriberClient::Spec spec;
    spec.stream = "v2stream";
    spec.query = kRisingPairQuery;
    harness::SubscriberClient sub("127.0.0.1", srv.port(), std::move(spec));
    ASSERT_TRUE(sub.ok()) << sub.error();

    harness::LoadGenOutcome sub_out;
    std::thread sub_thread([&] { sub_out = sub.run(); });

    // The v1 session runs concurrently with the v2 pair. Its outcome is the
    // pre-§15 contract verbatim: HELLO → RESULTs → BYE, nothing else (the
    // LoadGen driver rejects any unexpected frame as a protocol error).
    const auto v1_wire = wire_events(600, 92);
    harness::LoadGenClient client("127.0.0.1", srv.port());
    const auto v1_out = client.run_one(make_session(kRisingTripleQuery, 2, v1_wire));

    pub.publish(shared_wire);
    EXPECT_TRUE(pub.finish()) << pub.error();
    sub_thread.join();

    EXPECT_TRUE(v1_out.error.empty()) << v1_out.error;
    EXPECT_TRUE(v1_out.completed);
    expect_byte_identical(sequential_ground_truth(kRisingTripleQuery, v1_wire),
                          v1_out.results, "v1 session");
    EXPECT_TRUE(sub_out.completed) << sub_out.error;
    expect_byte_identical(sequential_ground_truth(kRisingPairQuery, shared_wire),
                          sub_out.results, "v2 subscriber");
    srv.stop();
}

// ---------------------------------------------------------------------------
// Failure isolation: a corrupt frame fails only its own session.
// ---------------------------------------------------------------------------

TEST(CepServer, CorruptFrameFailsOnlyThatSession) {
    server::CepServer srv;
    srv.start();

    std::vector<harness::LoadGenSession> specs(3);
    specs[0] = make_session(kRisingPairQuery, 0, wire_events(400, 55));
    specs[1] = make_session(kRisingPairQuery, 2, wire_events(400, 66));
    specs[1].corrupt_after = 100;  // injects an invalid frame tag mid-stream
    specs[2] = make_session(kRisingTripleQuery, 0, wire_events(400, 77));

    harness::LoadGenClient client("127.0.0.1", srv.port());
    const auto outcomes = client.run(specs);

    // The corrupted session got an ERROR frame and was disconnected.
    EXPECT_FALSE(outcomes[1].completed);
    EXPECT_FALSE(outcomes[1].error.empty());

    // Its neighbours are untouched and still byte-identical.
    for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
        const std::string label = "session " + std::to_string(i);
        EXPECT_TRUE(outcomes[i].error.empty()) << label << ": " << outcomes[i].error;
        EXPECT_TRUE(outcomes[i].completed) << label;
        expect_byte_identical(sequential_ground_truth(specs[i].query, specs[i].events),
                              outcomes[i].results, label);
    }

    srv.stop();
    EXPECT_EQ(srv.stats().sessions_failed, 1u);
    EXPECT_EQ(srv.stats().sessions_completed, 2u);
}

// ---------------------------------------------------------------------------
// Death mid-frame: a truncated final DATA frame is a surfaced stream error,
// not a silent drop; the server survives and other sessions are unaffected.
// ---------------------------------------------------------------------------

TEST(CepServer, ClientDeathMidFrameIsIsolated) {
    server::CepServer srv;
    srv.start();

    std::vector<harness::LoadGenSession> specs(2);
    specs[0] = make_session(kRisingPairQuery, 1, wire_events(300, 88));
    specs[0].truncate_frame_at_event = 150;  // dies halfway through a frame
    specs[1] = make_session(kRisingPairQuery, 0, wire_events(300, 99));

    harness::LoadGenClient client("127.0.0.1", srv.port());
    const auto outcomes = client.run(specs);

    EXPECT_FALSE(outcomes[0].completed);
    EXPECT_TRUE(outcomes[1].completed) << outcomes[1].error;
    expect_byte_identical(sequential_ground_truth(specs[1].query, specs[1].events),
                          outcomes[1].results, "survivor");

    // The client returns the instant it hard-closes; the server notices the
    // mid-frame death asynchronously — a stop() before that aborts the
    // session instead of failing it.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (srv.stats().sessions_failed < 1 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    srv.stop();
    EXPECT_EQ(srv.stats().sessions_failed, 1u);
}

// ---------------------------------------------------------------------------
// Session protocol errors.
// ---------------------------------------------------------------------------

TEST(CepServer, MalformedQueryGetsErrorFrame) {
    server::CepServer srv;
    srv.start();

    harness::LoadGenClient client("127.0.0.1", srv.port());
    harness::LoadGenSession spec;
    spec.query = "PATTERN (A DEFINE oops";
    spec.instances = 1;
    spec.events = wire_events(10, 1);
    const auto out = client.run_one(spec);

    EXPECT_FALSE(out.completed);
    EXPECT_NE(out.error.find("HELLO rejected"), std::string::npos) << out.error;

    srv.stop();
    EXPECT_EQ(srv.stats().sessions_failed, 1u);
}

TEST(CepServer, InstancesBeyondServerLimitRejected) {
    const server::ServerConfig cfg =
        server::ServerConfigBuilder{}.max_instances(2).build();
    server::CepServer srv(cfg);
    srv.start();

    harness::LoadGenClient client("127.0.0.1", srv.port());
    harness::LoadGenSession spec;
    spec.query = kRisingPairQuery;
    spec.instances = 16;
    spec.events = wire_events(10, 1);
    const auto out = client.run_one(spec);

    EXPECT_FALSE(out.completed);
    EXPECT_NE(out.error.find("instances exceed"), std::string::npos) << out.error;
    srv.stop();
}

namespace {

// Sends one raw HELLO and returns the server's ERROR text ("" if none).
std::string handshake_error(std::uint16_t port, const net::SessionFrame& hello) {
    net::TcpClient conn("127.0.0.1", port);
    std::vector<std::uint8_t> buf;
    net::encode_frame(hello, buf);
    conn.send_raw(buf.data(), buf.size());
    net::FrameReader reader;
    std::uint8_t chunk[4096];
    for (;;) {
        const ssize_t n = net::read_some(conn.fd(), chunk, sizeof(chunk));
        if (n <= 0) return {};
        reader.feed(chunk, static_cast<std::size_t>(n));
        while (auto f = reader.poll())
            if (const auto* e = std::get_if<net::ErrorFrame>(&*f)) return e->message;
    }
}

}  // namespace

// One handshake validator (DESIGN.md §15): a v1 HELLO and a v2
// `role=standalone` carrying the same bad handshake get the same ERROR, and
// the instance limit reads the same for a subscriber.
TEST(CepServer, OneHandshakeValidatorForV1AndV2) {
    server::CepServer srv(server::ServerConfigBuilder{}.max_instances(2).max_shards(2).build());
    srv.start();
    harness::PublisherClient pub("127.0.0.1", srv.port(), "validated");
    ASSERT_TRUE(pub.ok()) << pub.error();

    struct BadHello {
        const char* name;
        std::string query;
        std::uint32_t instances;
        std::uint32_t shards;
        std::string error;  // "" = any "HELLO rejected: " text
    };
    const BadHello cases[] = {
        {"instances above max_instances", kRisingPairQuery, 3, 0,
         "HELLO rejected: instances exceed server limit"},
        {"shards above max_shards", kRisingPairQuery, 0, 3,
         "HELLO rejected: shards exceed server limit"},
        {"shards > 1 without a partition key", kRisingPairQuery, 0, 2,
         "HELLO rejected: shards > 1 needs a partition key"},
        {"malformed query text", "PATTERN (A DEFINE oops", 0, 0, ""},
    };
    for (const auto& c : cases) {
        const std::string v1 = handshake_error(
            srv.port(), net::SessionFrame{net::HelloFrame{c.query, c.instances, c.shards, ""}});
        net::Hello2Frame h2;
        h2.set("role", "standalone");
        h2.set("query", c.query);
        h2.set("instances", std::to_string(c.instances));
        h2.set("shards", std::to_string(c.shards));
        const std::string v2 = handshake_error(srv.port(), net::SessionFrame{std::move(h2)});
        if (c.error.empty())
            EXPECT_EQ(v1.rfind("HELLO rejected: ", 0), 0u) << c.name << ": " << v1;
        else
            EXPECT_EQ(v1, c.error) << c.name;
        EXPECT_EQ(v2, v1) << c.name;
    }

    net::Hello2Frame sub;
    sub.set("role", "subscribe");
    sub.set("stream", "validated");
    sub.set("query", kRisingPairQuery);
    sub.set("instances", "3");
    EXPECT_EQ(handshake_error(srv.port(), net::SessionFrame{std::move(sub)}), cases[0].error);

    EXPECT_TRUE(pub.finish()) << pub.error();
    srv.stop();
    EXPECT_EQ(srv.stats().sessions_failed, 2 * std::size(cases) + 1);
}

// A client that keeps sending after its HELLO was rejected — the rest of its
// stream is already in flight — neither fails a send nor misses the ERROR:
// the server half-closes and drains instead of closing over unread input,
// which resets the connection and fails the client's next send before it
// ever reads the ERROR (DESIGN.md §8, lingering close).
TEST(CepServer, RejectedHandshakeLingersForAClientStillSending) {
    server::CepServer srv;
    srv.start();
    net::TcpClient conn("127.0.0.1", srv.port(), 0);
    std::vector<std::uint8_t> buf;
    net::encode_frame(net::SessionFrame{net::HelloFrame{"PATTERN (A DEFINE oops", 0, 0, ""}},
                      buf);
    conn.send_raw(buf.data(), buf.size());
    // Let the server reject (and, without a lingering close, close) first.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    buf.clear();
    for (const auto& q : wire_events(20, 3)) net::encode_frame(net::SessionFrame{q}, buf);
    // Two sends, the second after any reset provoked by the first landed:
    // a closed server socket fails it with EPIPE / ECONNRESET.
    for (int round = 0; round < 2; ++round) {
        const ssize_t sent = ::send(conn.fd(), buf.data(), buf.size(), MSG_NOSIGNAL);
        EXPECT_EQ(sent, static_cast<ssize_t>(buf.size()))
            << "send " << round << ": " << std::strerror(errno);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    net::FrameReader reader;
    std::string error;
    std::uint8_t chunk[4096];
    for (;;) {
        const ssize_t n = net::read_some(conn.fd(), chunk, sizeof(chunk));
        if (n <= 0) break;
        reader.feed(chunk, static_cast<std::size_t>(n));
        while (auto f = reader.poll())
            if (auto* e = std::get_if<net::ErrorFrame>(&*f)) error = e->message;
        if (!error.empty()) break;
    }
    EXPECT_NE(error.find("HELLO rejected"), std::string::npos) << "no ERROR frame read";
    // The client never closes: the linger deadline reaps the session anyway.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (srv.stats().sessions_live != 0 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(srv.stats().sessions_live, 0u) << "lingering session never reaped";
    conn.close();
    srv.stop();
    EXPECT_EQ(srv.stats().sessions_failed, 1u);
}

// ---------------------------------------------------------------------------
// The metrics plane (DESIGN.md §12): the in-band STATS frame and the
// reactor-hosted admin scrape endpoint, both against a *live* server.
// ---------------------------------------------------------------------------

namespace {

// High result volume per input event (the test_pool_stress shape): the
// egress byte count dwarfs the shrunken socket buffers, so the slow-reader
// session below parks on egress credit quickly.
const char* kFatResultQuery =
    "PATTERN (R1 R2) "
    "DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open "
    "WITHIN 20 EVENTS FROM EVERY 2 EVENTS "
    "EMIT open1 = R1.open, close1 = R1.close, open2 = R2.open, "
    "     close2 = R2.close, gain = R2.close - R1.open, spread = R2.close - R2.open";

// Minimal scrape client: one HTTP/1.0 GET against the admin port, response
// read to EOF (the server closes once the body is flushed).
std::string http_scrape(std::uint16_t port) {
    net::TcpClient conn("127.0.0.1", port);
    const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
    conn.send_raw(reinterpret_cast<const std::uint8_t*>(req.data()), req.size());
    std::string resp;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(conn.fd(), buf, sizeof(buf), 0);
        if (n > 0) {
            resp.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        break;
    }
    return resp;
}

// Value of an unlabeled series in a Prometheus text exposition; 0 if absent.
std::uint64_t series_value(const std::string& text, const std::string& name) {
    const auto pos = text.find("\n" + name + " ");
    if (pos == std::string::npos) return 0;
    return std::strtoull(text.c_str() + pos + 1 + name.size() + 1, nullptr, 10);
}

// Value of a scalar series in a STATS reply's per-session scope; 0 if absent.
std::uint64_t session_value(const std::string& json, const std::string& name) {
    const auto scope = json.find("\"session\":{");
    if (scope == std::string::npos) return 0;
    const std::string key = "\"" + name + "\":";
    const auto pos = json.find(key, scope);
    if (pos == std::string::npos) return 0;
    return std::strtoull(json.c_str() + pos + key.size(), nullptr, 10);
}

}  // namespace

// A STATS request sent mid-stream gets a JSON reply riding the ordinary
// egress stream — interleaved with RESULT frames, without perturbing the
// byte-parity invariant.
TEST(CepServer, StatsFrameAnswersMidStream) {
    server::CepServer srv;
    srv.start();

    auto spec = make_session(kRisingTripleQuery, 2, wire_events(600, 77),
                             /*wait_result_after=*/300);
    // After the client's wait for its first RESULT (at event 300).
    spec.stats_after = 302;

    harness::LoadGenClient client("127.0.0.1", srv.port());
    const auto out = client.run_one(spec);

    ASSERT_TRUE(out.completed) << out.error;
    ASSERT_EQ(out.stats_json.size(), 1u);
    const std::string& j = out.stats_json.front();
    // Both scopes of the reply: server-wide aggregate + this session's own.
    EXPECT_NE(j.find("\"server\":{"), std::string::npos) << j.substr(0, 200);
    EXPECT_NE(j.find("\"session\":{"), std::string::npos) << j.substr(0, 200);
    EXPECT_NE(j.find("\"events_ingested\":"), std::string::npos);
    EXPECT_NE(j.find("\"result_latency_ns\":"), std::string::npos);
    // Engine stats are live (§11/§12): the runtime publishes every step, so
    // a session that already produced results reports its work mid-stream.
    // (windows_retired is not asserted: the step retiring a window publishes
    // after its RESULT may already be on the wire.)
    EXPECT_GT(session_value(j, "sched_steps"), 0u) << j;
    EXPECT_GT(session_value(j, "splitter_cycles"), 0u) << j;
    EXPECT_GT(session_value(j, "windows_opened"), 0u) << j;

    // The interleaved STATS exchange didn't perturb the RESULT stream.
    expect_byte_identical(sequential_ground_truth(spec.query, spec.events),
                          out.results, "stats-mid-stream");
    srv.stop();
}

// Scraping the admin endpoint must work against a *live* loaded server —
// here one whose only session is parked on egress backpressure — without
// stopping any worker, and counters must be monotone between scrapes.
TEST(CepServer, AdminScrapeIsLiveAndMonotoneDuringBackpressure) {
    const server::ServerConfig cfg = server::ServerConfigBuilder{}
                                          .pool_workers(2)
                                          .egress_buffer_bytes(2048)  // tiny credit: park quickly
                                          .quantum_windows(1)
                                          .session_sndbuf(8192)
                                          .build();
    server::CepServer srv(cfg);
    srv.start();

    auto gate = std::make_shared<std::atomic<bool>>(false);
    auto spec = make_session(kFatResultQuery, 0, wire_events(1500, 11, 40, 0.7));
    spec.read_gate = gate;
    spec.rcvbuf = 8192;

    harness::LoadGenClient client("127.0.0.1", srv.port());
    harness::LoadGenOutcome out;
    std::thread driver([&] { out = client.run_one(spec); });

    // Wait until the session is parked on egress credit — the server is now
    // "stuck" from the session's point of view, but the scrape must not be.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (srv.stats().parks_egress < 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_GE(srv.stats().parks_egress, 1u) << "session never parked on egress";

    const std::string scrape1 = http_scrape(srv.admin_port());
    EXPECT_NE(scrape1.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(scrape1.find("text/plain; version=0.0.4"), std::string::npos);
    EXPECT_NE(scrape1.find("# TYPE spectre_events_ingested counter"),
              std::string::npos);
    // Live-session series: the parked session is visible in the aggregate.
    EXPECT_EQ(series_value(scrape1, "spectre_sessions_live"), 1u);
    EXPECT_GE(series_value(scrape1, "spectre_parks_egress"), 1u);
    EXPECT_GE(series_value(scrape1, "spectre_events_ingested"), 1u);
    // The lifecycle histograms are exposed (results were emitted pre-park).
    EXPECT_NE(scrape1.find("spectre_result_latency_ns_count"), std::string::npos);

    const std::string scrape2 = http_scrape(srv.admin_port());
    EXPECT_GE(series_value(scrape2, "spectre_events_ingested"),
              series_value(scrape1, "spectre_events_ingested"))
        << "counter went backwards between live scrapes";

    // Unpark: the slow reader drains, the session completes, and a final
    // scrape (still on the live server) stays monotone across the session's
    // shard retirement — the fold must not lose counts.
    gate->store(true, std::memory_order_release);
    driver.join();
    ASSERT_TRUE(out.completed) << out.error;

    const std::string scrape3 = http_scrape(srv.admin_port());
    EXPECT_GE(series_value(scrape3, "spectre_events_ingested"),
              series_value(scrape2, "spectre_events_ingested"));
    EXPECT_EQ(series_value(scrape3, "spectre_events_ingested"), 1500u);
    EXPECT_EQ(series_value(scrape3, "spectre_sessions_completed"), 1u);
    EXPECT_EQ(series_value(scrape3, "spectre_results_emitted"),
              out.results.size());

    srv.stop();
}

// The admin endpoint is an HTTP server, not an echo chamber: anything that
// is not a GET — a POST, a stray TLS ClientHello, plain garbage — gets a 400
// and the close, never a 200 with a metrics body. (It used to answer any
// EOF'd garbage with the full scrape.)
TEST(CepServer, AdminScrapeRejectsNonGetRequests) {
    server::CepServer srv;
    srv.start();

    const auto send_raw_expect = [&](const std::string& req) {
        net::TcpClient conn("127.0.0.1", srv.admin_port());
        conn.send_raw(reinterpret_cast<const std::uint8_t*>(req.data()), req.size());
        ::shutdown(conn.fd(), SHUT_WR);  // EOF the request side
        std::string resp;
        char buf[4096];
        for (;;) {
            const ssize_t n = ::recv(conn.fd(), buf, sizeof(buf), 0);
            if (n > 0) {
                resp.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR) continue;
            break;
        }
        return resp;
    };

    const std::string post = send_raw_expect("POST /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(post.find("HTTP/1.0 400"), std::string::npos) << post.substr(0, 120);
    EXPECT_EQ(post.find("spectre_"), std::string::npos) << "400 carried a body";

    const std::string garbage = send_raw_expect("\x16\x03\x01\x02garbage");
    EXPECT_NE(garbage.find("HTTP/1.0 400"), std::string::npos)
        << garbage.substr(0, 120);

    // The half-close tolerance the fix must preserve: a bare GET with no
    // headers, EOF'd immediately, still gets the scrape.
    const std::string bare = send_raw_expect("GET /\r\n");
    EXPECT_NE(bare.find("HTTP/1.0 200 OK"), std::string::npos) << bare.substr(0, 120);
    EXPECT_NE(bare.find("spectre_events_ingested"), std::string::npos);

    srv.stop();
}

// stats_after beyond the stream length used to silently skip the STATS
// request (the latch compared with == on the way past). Now the request is
// honored just before BYE and the reply still arrives.
TEST(CepServer, StatsRequestedBeyondStreamStillAnswered) {
    server::CepServer srv;
    srv.start();

    auto spec = make_session(kRisingTripleQuery, 2, wire_events(200, 31));
    spec.stats_after = 100000;  // > events.size(): fires on the pre-BYE latch

    harness::LoadGenClient client("127.0.0.1", srv.port());
    const auto out = client.run_one(spec);

    ASSERT_TRUE(out.completed) << out.error;
    EXPECT_FALSE(out.stats_missed);
    ASSERT_EQ(out.stats_json.size(), 1u);
    EXPECT_NE(out.stats_json.front().find("\"events_ingested\":"), std::string::npos);
    expect_byte_identical(sequential_ground_truth(spec.query, spec.events),
                          out.results, "stats-beyond-stream");
    srv.stop();
}

// When fault injection kills the stream before the STATS request could be
// sent, the outcome must say so instead of leaving an empty stats_json that
// reads like "no reply yet".
TEST(CepServer, StatsMissReportedWhenStreamTruncates) {
    server::CepServer srv;
    srv.start();

    auto spec = make_session(kRisingPairQuery, 0, wire_events(200, 13));
    spec.truncate_frame_at_event = 50;  // die mid-frame at event 50
    spec.stats_after = 120;             // never reached

    harness::LoadGenClient client("127.0.0.1", srv.port());
    const auto out = client.run_one(spec);

    EXPECT_FALSE(out.completed);
    EXPECT_TRUE(out.stats_missed);
    EXPECT_TRUE(out.stats_json.empty());
    // The client returns the instant it hard-closes; the server notices the
    // mid-frame death asynchronously.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (srv.stats().sessions_failed < 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(srv.stats().sessions_failed, 1u);
    srv.stop();
}

// Every shard index a HELLO may ask for has a live depth-peak series: the
// server registers one per index below max_shards before any session's
// metrics shard exists, so a 20-shard session's lanes 16..19 publish too.
TEST(CepServer, LaneDepthPeakIsLivePastShardIndexFifteen) {
    if (!obs::enabled()) GTEST_SKIP() << "metrics disabled via SPECTRE_OBS_OFF";
    constexpr std::uint32_t kShards = 20;
    const server::ServerConfig cfg = server::ServerConfigBuilder{}
                                         .pool_workers(2)
                                         .max_shards(static_cast<int>(kShards))
                                         .build();
    server::CepServer srv(cfg);
    srv.start();

    const char* kPartitioned =
        "PATTERN (R1 R2) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open "
        "WITHIN 12 EVENTS FROM EVERY 4 EVENTS PARTITION BY SUBJECT CONSUME ALL";
    auto spec = make_session(kPartitioned, 0, wire_events(20000, 1616, /*symbols=*/200));
    spec.shards = kShards;

    harness::LoadGenClient client("127.0.0.1", srv.port());
    const auto out = client.run_one(spec);
    ASSERT_TRUE(out.error.empty()) << out.error;
    ASSERT_TRUE(out.completed);
    expect_byte_identical(
        harness::partitioned_oracle(spec.query, spec.events, /*hello_key=*/""),
        out.results, "twenty-shards");

    const std::string scrape = http_scrape(srv.admin_port());
    std::uint64_t high = 0;
    for (std::uint32_t s = 16; s < kShards; ++s)
        high = std::max(high, series_value(scrape, "spectre_lane_depth_peak{shard=\"" +
                                                       std::to_string(s) + "\"}"));
    EXPECT_GT(high, 0u) << scrape;
    srv.stop();
    EXPECT_EQ(srv.stats().sessions_failed, 0u);
}

// A max_shards the metrics table cannot give one series per index is a
// configuration error at build(), not a throw on the reactor at HELLO.
TEST(CepServer, MaxShardsBeyondTheSeriesTableIsRejected) {
    const int fits = static_cast<int>(obs::kMaxSeries - obs::sid::kCount);
    EXPECT_NO_THROW(server::ServerConfigBuilder{}.max_shards(fits).build());
    EXPECT_THROW(server::ServerConfigBuilder{}.max_shards(fits + 1).build(),
                 std::invalid_argument);
    EXPECT_THROW(server::ServerConfigBuilder{}.max_shards(1 << 20).build(),
                 std::invalid_argument);
}

// One wakeup per read (§10): the reactor appends a read view's DATA frames
// to the session's store and publishes them once, waking each shard lane
// once. The pool then runs a bounded number of quanta per read — not one
// wakeup per event, which a lane that keeps up with its share of the stream
// would turn into one quantum per event.
TEST(CepServer, ShardedSessionWakesEachLaneOncePerRead) {
    if (!obs::enabled()) GTEST_SKIP() << "metrics disabled via SPECTRE_OBS_OFF";
    constexpr std::uint64_t kEvents = 40000;
    constexpr std::uint32_t kShards = 8;
    // The watermark sits above the whole stream: every publish is a read
    // view's end, none a pause.
    const server::ServerConfig cfg = server::ServerConfigBuilder{}
                                         .pool_workers(2)
                                         .ingest_queue_events(2 * kEvents)
                                         .build();
    server::CepServer srv(cfg);
    srv.start();

    // Cheap detection — a window opens only on a sharp rise — so a lane
    // keeps up with its share of a read and parks between arrivals: the
    // shape where a per-event wakeup costs one quantum per event.
    const char* kSparse =
        "PATTERN (A B) DEFINE A AS A.close > A.open * 1.003, B AS B.close < B.open "
        "WITHIN 6 EVENTS FROM A PARTITION BY SUBJECT CONSUME ALL";
    auto spec = make_session(kSparse, 0, wire_events(kEvents, 4242, /*symbols=*/32));
    spec.shards = kShards;

    harness::LoadGenClient client("127.0.0.1", srv.port());
    const auto out = client.run_one(spec);
    ASSERT_TRUE(out.error.empty()) << out.error;
    ASSERT_TRUE(out.completed);
    EXPECT_FALSE(out.results.empty());
    expect_byte_identical(
        harness::partitioned_oracle(spec.query, spec.events, /*hello_key=*/""),
        out.results, "wake-once-per-read");
    srv.stop();

    const auto snap = srv.registry().snapshot();
    const auto quanta = counter(snap, obs::sid::kPoolQuanta);
    const auto reads = counter(snap, obs::sid::kIngestReads);
    ASSERT_GT(reads, 0u);
    EXPECT_LE(quanta, 4 * reads * kShards + 16) << "quanta=" << quanta << " reads=" << reads;
}

// The lane-depth series stay meaningful (§12): a shard's depth counts the
// input it has not scanned yet, observed once per publish. Mid-stream, the
// hot shard's peak is live and bounded by the ingest watermark plus one read
// view.
TEST(CepServer, ShardedLaneDepthPeakIsLiveAndBounded) {
    if (!obs::enabled()) GTEST_SKIP() << "metrics disabled via SPECTRE_OBS_OFF";
    constexpr std::size_t kCap = 1024;
    const server::ServerConfig cfg = server::ServerConfigBuilder{}
                                         .pool_workers(2)
                                         .ingest_queue_events(kCap)
                                         .build();
    server::CepServer srv(cfg);
    srv.start();

    const char* kPartitioned =
        "PATTERN (R1 R2) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open "
        "WITHIN 12 EVENTS FROM EVERY 4 EVENTS PARTITION BY SUBJECT CONSUME ALL";
    auto spec = make_session(kPartitioned, 0, wire_events(20000, 2024, /*symbols=*/4));
    spec.shards = 3;
    spec.stats_after = 10000;

    harness::LoadGenClient client("127.0.0.1", srv.port());
    const auto out = client.run_one(spec);
    ASSERT_TRUE(out.error.empty()) << out.error;
    ASSERT_TRUE(out.completed);
    expect_byte_identical(
        harness::partitioned_oracle(spec.query, spec.events, /*hello_key=*/""),
        out.results, "lane-depth-mid-stream");
    srv.stop();

    ASSERT_EQ(out.stats_json.size(), 1u);
    const std::string& j = out.stats_json.front();
    std::uint64_t hot = 0;
    for (int s = 0; s < 3; ++s)
        hot = std::max(hot, session_value(j, "lane_depth_peak{shard=\\\"" +
                                                 std::to_string(s) + "\\\"}"));
    // One read view: the backend's 64 KiB buffer of the smallest DATA frames.
    const std::uint64_t one_read = 64 * 1024 / (1 + net::kWireQuoteHeaderBytes);
    EXPECT_GT(hot, 0u) << j;
    EXPECT_LE(hot, kCap + one_read) << j;
}

// Lane runtimes of a sharded speculative session publish concurrently, from
// several workers, into the one session shard (§10/§12): the registry's sums
// must come out exact — every complex event counted once, one speculative
// session — with the merged stream still byte-identical to the oracle.
TEST(CepServer, ShardedSpeculativeLanesPublishExactStats) {
    const server::ServerConfig cfg = server::ServerConfigBuilder{}.pool_workers(3).build();
    server::CepServer srv(cfg);
    srv.start();

    const char* kPartitioned =
        "PATTERN (R1 R2) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open "
        "WITHIN 12 EVENTS FROM EVERY 4 EVENTS PARTITION BY SUBJECT CONSUME ALL";
    auto spec = make_session(kPartitioned, 2, wire_events(1500, 909, /*symbols=*/6));
    spec.shards = 3;

    harness::LoadGenClient client("127.0.0.1", srv.port());
    const auto out = client.run_one(spec);

    ASSERT_TRUE(out.error.empty()) << out.error;
    ASSERT_TRUE(out.completed);
    expect_byte_identical(
        harness::partitioned_oracle(spec.query, spec.events, /*hello_key=*/""),
        out.results, "sharded-speculative");
    srv.stop();

    const auto stats = srv.stats();
    const auto snap = srv.registry().snapshot();
    EXPECT_EQ(snap.value(obs::Series{obs::sid::kComplexEvents}), stats.results_emitted);
    EXPECT_EQ(stats.results_emitted, out.results.size());
    EXPECT_EQ(stats.sched_sessions, 1u);
    EXPECT_GT(stats.sched_steps, 0u);
    EXPECT_EQ(stats.sessions_failed, 0u);
}

// Same input + same query through the sequential (k=0) and speculative (k>0)
// engines, concurrently, over the wire: the parity invariant end to end.
TEST(CepServer, SequentialAndSpectreSessionsAgree) {
    server::CepServer srv;
    srv.start();

    const auto wire = wire_events(500, 123);
    harness::LoadGenClient client("127.0.0.1", srv.port());

    std::vector<harness::LoadGenSession> specs(2);
    specs[0] = make_session(kRisingTripleQuery, 0, wire);  // sequential reference
    specs[1] = make_session(kRisingTripleQuery, 3, wire);  // speculative SPECTRE, k=3
    const auto outcomes = client.run(specs);

    ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
    ASSERT_TRUE(outcomes[1].completed) << outcomes[1].error;
    // Same input + same query through different engines over the wire: the
    // parity invariant, end to end.
    expect_byte_identical(outcomes[0].results, outcomes[1].results, "seq-vs-spectre");
    srv.stop();
}

// ---------------------------------------------------------------------------
// Zero-copy ingest + vectored egress (DESIGN.md §14): the byte-accounting
// counters assert the bulk DATA path takes exactly one copy off the socket.
// ---------------------------------------------------------------------------

TEST(CepServer, ScatterIngestTakesOneCopyOffTheSocket) {
    constexpr std::uint64_t kEvents = 4000;
    // The one-copy invariant is a *hot-path* property: an ingest pause must
    // stage the view's unread tail (the reactor recycles its buffer on the
    // next read), which is a deliberate copy under backpressure. Keep the
    // watermark above the whole burst so this test measures the un-paused
    // path the counters are meant to assert.
    const server::ServerConfig cfg = server::ServerConfigBuilder{}
                                         .ingest_queue_events(2 * kEvents)
                                         .build();
    server::CepServer srv(cfg);
    srv.start();

    harness::LoadGenClient client("127.0.0.1", srv.port());
    const auto out = client.run_one(make_session(kRisingPairQuery, 0, wire_events(kEvents, 99)));
    ASSERT_TRUE(out.completed) << out.error;

    srv.stop();  // folds every session shard into the retained block
    const auto snap = srv.registry().snapshot();
    const auto wire = counter(snap, obs::sid::kIngestWireBytes);
    const auto copied = counter(snap, obs::sid::kIngestCopiedBytes);
    const auto scattered = counter(snap, obs::sid::kIngestFramesScatter);
    const auto staged = counter(snap, obs::sid::kIngestFramesStaged);
    const auto reads = counter(snap, obs::sid::kIngestReads);

    // Every DATA byte was read off the socket exactly once...
    EXPECT_GE(wire, kEvents * (1 + net::kWireQuoteHeaderBytes));
    // ...and only a sliver (control frames + the partial frame at a read
    // view's tail) took the FrameReader staging copy: 3 copies -> 1.
    EXPECT_LT(copied * 10, wire) << "copied=" << copied << " wire=" << wire;
    // The DATA frames themselves overwhelmingly decoded in place.
    EXPECT_GE(scattered + staged, kEvents);
    EXPECT_GE(scattered, (kEvents * 9) / 10) << "staged=" << staged;
    // Drain-until-EAGAIN with a 64 KiB view buffer: far fewer read() calls
    // than events (the pre-§14 path paid ~1 recv per TCP segment).
    EXPECT_GT(reads, 0u);
    EXPECT_LT(reads * 2, kEvents) << "reads=" << reads;

    // Results left through vectored sends, and the counters saw the bytes.
    EXPECT_GT(counter(snap, obs::sid::kEgressWritevs), 0u);
    EXPECT_GT(counter(snap, obs::sid::kEgressBytesSent), 0u);
}

// ---------------------------------------------------------------------------
// Egress fault injection at the session level (§14): the real ServerSession
// flushing through an adversarial sendv — random partial writes, EINTR,
// EAGAIN — must still put the exact RESULT byte stream on the wire; a
// mid-iovec connection death must poison egress and fail only that session.
// ---------------------------------------------------------------------------

namespace {

// Stand-in for the reactor + pool around one real ServerSession: feeds raw
// client bytes through a socketpair, single-steps the engine task, flushes
// egress — with the vectored-send function replaced by the test.
struct ManualSessionHarness {
    obs::Registry registry;
    server::EngineTask* task = nullptr;
    std::vector<std::pair<std::uint64_t, server::SessionCmd>> cmds;
    net::Reactor io;
    std::unique_ptr<server::ServerSession> session;
    int client_fd = -1;

    ManualSessionHarness() {
        int sv[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
        client_fd = sv[1];
        server::SessionHooks hooks;
        hooks.post = [this](std::uint64_t id, server::SessionCmd c) {
            cmds.emplace_back(id, c);
        };
        hooks.register_task = [this](std::uint64_t, server::EngineTask* t) { task = t; };
        hooks.notify_task = [](std::uint64_t) {};
        session = std::make_unique<server::ServerSession>(1, sv[0], server::SessionLimits{},
                                                          &registry, registry.make_shard(),
                                                          std::move(hooks));
    }
    ~ManualSessionHarness() {
        session.reset();
        if (client_fd >= 0) ::close(client_fd);
    }

    // Runs the whole lifecycle: trickle `input` in (respecting the socketpair
    // buffer), read/step/flush until the input is consumed, the engine task
    // finished and egress drained. Returns false on livelock.
    bool pump(const std::vector<std::uint8_t>& input) {
        std::size_t off = 0;
        bool sent_all = false;
        bool read_open = true;
        bool task_done = false;
        for (int spin = 0; spin < 200000; ++spin) {
            if (off < input.size()) {
                const ssize_t w = ::send(client_fd, input.data() + off, input.size() - off,
                                         MSG_NOSIGNAL | MSG_DONTWAIT);
                if (w > 0) off += static_cast<std::size_t>(w);
            } else if (!sent_all) {
                ::shutdown(client_fd, SHUT_WR);  // clean client EOF
                sent_all = true;
            }
            if (read_open &&
                session->on_readable(io) == server::SessionStatus::Finished)
                read_open = false;
            if (task && !task_done &&
                task->run_quantum() == server::EngineTask::Quantum::Done)
                task_done = true;
            if (session->egress_pending()) session->flush_egress();
            if (!read_open && (!task || task_done) && session->egress_idle()) return true;
        }
        return false;
    }
};

std::vector<std::uint8_t> client_stream(const std::string& query,
                                        const std::vector<net::WireQuote>& events) {
    std::vector<std::uint8_t> bytes;
    net::encode_frame(net::SessionFrame{net::HelloFrame{query, 0, 0, ""}}, bytes);
    for (const auto& q : events) net::encode_frame(net::SessionFrame{q}, bytes);
    net::encode_frame(net::SessionFrame{net::ByeFrame{}}, bytes);
    return bytes;
}

}  // namespace

TEST(ServerSessionEgress, PartialWritesEintrAndEagainKeepResultsByteIdentical) {
    ManualSessionHarness h;
    std::vector<std::uint8_t> wire;
    std::uint32_t rng = 0x2545f491u;
    int calls = 0;
    h.session->set_sendv_for_test([&](const struct iovec* iov, int cnt) -> ssize_t {
        ++calls;
        if (calls % 5 == 2) {
            errno = EINTR;
            return -1;
        }
        if (calls % 7 == 3) {
            errno = EAGAIN;  // socket "full": session must re-arm and resume
            return -1;
        }
        rng = rng * 1664525u + 1013904223u;
        std::size_t budget = 1 + rng % 200;  // adversarially small writes
        std::size_t wrote = 0;
        for (int i = 0; i < cnt && budget > 0; ++i) {
            const auto* base = static_cast<const std::uint8_t*>(iov[i].iov_base);
            const std::size_t take = std::min<std::size_t>(iov[i].iov_len, budget);
            wire.insert(wire.end(), base, base + take);
            wrote += take;
            budget -= take;
        }
        return static_cast<ssize_t>(wrote);
    });

    const auto events = wire_events(2000, 123);
    ASSERT_TRUE(h.pump(client_stream(kRisingPairQuery, events))) << "session livelocked";
    EXPECT_GT(calls, 10);

    // Decode what "reached the wire": the RESULT stream must be byte-identical
    // to the sequential ground truth, closed out by a BYE with the count.
    net::FrameReader r;
    r.feed(wire.data(), wire.size());
    std::vector<event::ComplexEvent> results;
    bool saw_bye = false;
    while (auto f = r.poll()) {
        if (const auto* res = std::get_if<net::ResultFrame>(&*f)) {
            ASSERT_FALSE(saw_bye) << "RESULT after BYE";
            results.push_back(net::from_result_frame(*res));
        } else if (const auto* bye = std::get_if<net::ByeFrame>(&*f)) {
            saw_bye = true;
            EXPECT_EQ(bye->results, results.size());
        }
    }
    EXPECT_TRUE(r.empty()) << "torn frame on the wire";
    EXPECT_TRUE(saw_bye);
    expect_byte_identical(sequential_ground_truth(kRisingPairQuery, events), results,
                          "faulty-sendv session");
}

TEST(ServerSessionEgress, MidIovecConnectionDeathPoisonsEgressAndFailsSession) {
    ManualSessionHarness h;
    std::vector<std::uint8_t> wire;
    int calls = 0;
    h.session->set_sendv_for_test([&](const struct iovec* iov, int cnt) -> ssize_t {
        if (++calls <= 2) {  // two partial writes, then the peer dies mid-iovec
            std::size_t budget = 50, wrote = 0;
            for (int i = 0; i < cnt && budget > 0; ++i) {
                const auto* base = static_cast<const std::uint8_t*>(iov[i].iov_base);
                const std::size_t take = std::min<std::size_t>(iov[i].iov_len, budget);
                wire.insert(wire.end(), base, base + take);
                wrote += take;
                budget -= take;
            }
            return static_cast<ssize_t>(wrote);
        }
        errno = EPIPE;
        return -1;
    });

    const auto events = wire_events(2000, 321);
    ASSERT_TRUE(h.pump(client_stream(kRisingPairQuery, events))) << "session livelocked";
    EXPECT_GE(calls, 3);

    // Egress is poisoned: nothing pending, nothing more ever sent.
    EXPECT_FALSE(h.session->egress_pending());
    EXPECT_TRUE(h.session->egress_idle());

    // What did get out before the death is a clean frame-stream prefix.
    net::FrameReader r;
    r.feed(wire.data(), wire.size());
    EXPECT_NO_THROW({
        while (r.poll()) {
        }
    });

    // The session counted itself failed — exactly once, in its shard.
    h.session.reset();  // retire the shard so the snapshot sees the fold
    const auto snap = h.registry.snapshot();
    EXPECT_EQ(counter(snap, obs::sid::kSessionsFailed), 1u);
}
