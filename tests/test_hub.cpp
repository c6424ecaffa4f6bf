// Shared multi-query ingest plane (DESIGN.md §15): one publisher session
// owns a named stream — decoded once into one chunked EventStore — and many
// subscriber sessions run independent queries over it. The acceptance bar is
// the §8 parity invariant restated for the shared plane: every subscriber's
// RESULT stream must be byte-identical to the same query run standalone over
// the same events, regardless of fan-out, engine kind, attach time, or how
// slowly any *other* subscriber reads.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "harness/load_gen.hpp"
#include "net/tcp.hpp"
#include "server/cep_server.hpp"
#include "server/config.hpp"
#include "server_test_util.hpp"

using namespace spectre;
using namespace spectre::testing;

namespace {

const char* subscriber_query(std::size_t i) {
    switch (i % 3) {
        case 0: return kRisingPairQuery;
        case 1: return kRisingTripleQuery;
        default: return kFallingPairQuery;
    }
}

harness::SubscriberClient::Spec sub_spec(const std::string& stream, std::size_t i) {
    harness::SubscriberClient::Spec s;
    s.stream = stream;
    s.query = subscriber_query(i);
    s.instances = (i % 2 == 0) ? 0 : 2;  // alternate sequential / SPECTRE
    return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// The acceptance-criteria test: fan-outs {1, 4, 32}, mixed engine kinds
// (k=0 sequential, k=2 speculative), every subscriber byte-identical to the
// standalone ground truth over the same published events.
// ---------------------------------------------------------------------------

TEST(StreamHub, SubscriberParityAcrossFanoutAndEngines) {
    for (const std::size_t fanout : {std::size_t{1}, std::size_t{4}, std::size_t{32}}) {
        server::CepServer srv;
        srv.start();
        const auto wire = wire_events(fanout >= 32 ? 700 : 1200, 17 + fanout);

        harness::PublisherClient pub("127.0.0.1", srv.port(), "nyse");
        ASSERT_TRUE(pub.ok()) << pub.error();
        EXPECT_EQ(pub.capabilities().get("role"), "publish");
        EXPECT_EQ(pub.capabilities().get("stream"), "nyse");

        // Attach everyone before the first DATA frame: their pins hold the
        // history from sequence zero.
        std::vector<std::unique_ptr<harness::SubscriberClient>> subs;
        for (std::size_t i = 0; i < fanout; ++i) {
            subs.push_back(std::make_unique<harness::SubscriberClient>(
                "127.0.0.1", srv.port(), sub_spec("nyse", i)));
            ASSERT_TRUE(subs.back()->ok()) << "sub " << i << ": " << subs.back()->error();
        }

        std::vector<harness::LoadGenOutcome> outcomes(fanout);
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < fanout; ++i)
            threads.emplace_back([&, i] { outcomes[i] = subs[i]->run(); });

        pub.publish(wire);
        EXPECT_TRUE(pub.finish()) << pub.error();
        for (auto& t : threads) t.join();

        for (std::size_t i = 0; i < fanout; ++i) {
            const std::string label =
                "fanout=" + std::to_string(fanout) + " sub=" + std::to_string(i);
            EXPECT_TRUE(outcomes[i].error.empty()) << label << ": " << outcomes[i].error;
            EXPECT_TRUE(outcomes[i].completed) << label;
            EXPECT_EQ(outcomes[i].server_reported_results, outcomes[i].results.size())
                << label;
            expect_byte_identical(sequential_ground_truth(subscriber_query(i), wire),
                                  outcomes[i].results, label);
        }
        srv.stop();
    }
}

// A subscriber that attaches after the whole stream was published (but before
// the publisher leaves) replays the retained history and matches the same
// ground truth — chunk retention is exact while any attach can still happen.
TEST(StreamHub, LateSubscriberReplaysFullHistory) {
    server::CepServer srv;
    srv.start();
    const auto wire = wire_events(1500, 99);

    harness::PublisherClient pub("127.0.0.1", srv.port(), "replay");
    ASSERT_TRUE(pub.ok()) << pub.error();
    pub.publish(wire);

    harness::SubscriberClient late("127.0.0.1", srv.port(), sub_spec("replay", 1));
    ASSERT_TRUE(late.ok()) << late.error();

    EXPECT_TRUE(pub.finish()) << pub.error();
    const auto out = late.run();
    EXPECT_TRUE(out.error.empty()) << out.error;
    EXPECT_TRUE(out.completed);
    expect_byte_identical(sequential_ground_truth(subscriber_query(1), wire),
                          out.results, "late subscriber");
    srv.stop();
}

// Subscribers advance their pins behind their engines' low watermarks while
// the stream is still open, so the shared store frees chunks mid-stream — and
// from then on a late subscriber cannot replay from seq 0 and is refused.
// The store frees behind the slowest pin, so every subscriber's engine must
// report a moving watermark, whichever k.
namespace {

void check_reclaims_mid_stream(const std::vector<std::uint32_t>& instances) {
    server::CepServer srv;
    srv.start();
    // Twenty store chunks (chunk = 1024 events), all published before the BYE.
    const auto wire = wire_events(5 * 4096, 31);

    harness::PublisherClient pub("127.0.0.1", srv.port(), "rolling");
    ASSERT_TRUE(pub.ok()) << pub.error();
    std::vector<std::unique_ptr<harness::SubscriberClient>> subs;
    for (const std::uint32_t k : instances) {
        auto spec = sub_spec("rolling", 0);
        spec.instances = k;
        subs.push_back(std::make_unique<harness::SubscriberClient>("127.0.0.1", srv.port(),
                                                                   spec));
        ASSERT_TRUE(subs.back()->ok()) << "k=" << k << ": " << subs.back()->error();
    }
    std::vector<harness::LoadGenOutcome> outcomes(subs.size());
    std::vector<std::thread> readers;
    for (std::size_t i = 0; i < subs.size(); ++i)
        readers.emplace_back([&, i] { outcomes[i] = subs[i]->run(); });

    pub.publish(wire);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (counter(srv.registry().snapshot(), obs::sid::kHubChunksReclaimed) == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(counter(srv.registry().snapshot(), obs::sid::kHubChunksReclaimed), 0u)
        << "no chunk reclaimed before the publisher's BYE";

    harness::SubscriberClient late("127.0.0.1", srv.port(), sub_spec("rolling", 0));
    EXPECT_FALSE(late.ok());
    EXPECT_NE(late.error().find("history already reclaimed"), std::string::npos)
        << late.error();

    EXPECT_TRUE(pub.finish()) << pub.error();
    for (auto& t : readers) t.join();
    for (std::size_t i = 0; i < subs.size(); ++i) {
        const std::string label = "reclaiming subscriber k=" + std::to_string(instances[i]);
        EXPECT_TRUE(outcomes[i].error.empty()) << label << ": " << outcomes[i].error;
        EXPECT_TRUE(outcomes[i].completed) << label;
        expect_byte_identical(sequential_ground_truth(subscriber_query(0), wire),
                              outcomes[i].results, label);
    }
    srv.stop();
}

}  // namespace

TEST(StreamHub, SequentialSubscriberReclaimsMidStream) { check_reclaims_mid_stream({0}); }

// A speculative subscriber's pin follows its splitter's front root, so it
// holds no history behind its k = 0 sibling's.
TEST(StreamHub, SpeculativeSubscriberBesideSequentialReclaimsMidStream) {
    check_reclaims_mid_stream({0, 3});
}

// A subscriber may partition and shard (DESIGN.md §10/§15): its S shard
// tasks read the published store like any other reader, through the
// session's one pin. Sharded subscribers at S ∈ {1, 3} × k ∈ {0, 2} beside
// an unpartitioned sibling each match their oracle byte for byte, and the
// shared store frees chunks behind all of them before the publisher's BYE.
TEST(StreamHub, PartitionedSubscribersMatchOracleAndReclaimMidStream) {
    const char* kPartitionedRising =
        "PATTERN (R1 R2) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open "
        "WITHIN 40 EVENTS FROM EVERY 10 EVENTS PARTITION BY SUBJECT CONSUME ALL";
    server::CepServer srv;
    srv.start();
    // 110 store chunks (chunk = 1024 events), all published before the BYE.
    const auto wire = wire_events(110 * 1024, 4404);

    harness::PublisherClient pub("127.0.0.1", srv.port(), "keyed");
    ASSERT_TRUE(pub.ok()) << pub.error();
    std::vector<harness::SubscriberClient::Spec> specs;
    for (const std::uint32_t shards : {1u, 3u}) {
        for (const std::uint32_t k : {0u, 2u}) {
            harness::SubscriberClient::Spec spec;
            spec.stream = "keyed";
            spec.instances = k;
            spec.shards = shards;
            // S = 3 partitions through the HELLO field, S = 1 by query text.
            spec.query = shards == 3 ? kRisingPairQuery : kPartitionedRising;
            if (shards == 3) spec.partition_by = "SUBJECT";
            specs.push_back(spec);
        }
    }
    specs.push_back(sub_spec("keyed", 0));  // the unpartitioned k = 0 sibling
    std::vector<std::unique_ptr<harness::SubscriberClient>> subs;
    for (const auto& spec : specs) {
        subs.push_back(std::make_unique<harness::SubscriberClient>("127.0.0.1", srv.port(),
                                                                   spec));
        ASSERT_TRUE(subs.back()->ok()) << subs.back()->error();
    }
    std::vector<harness::LoadGenOutcome> outcomes(subs.size());
    std::vector<std::thread> readers;
    for (std::size_t i = 0; i < subs.size(); ++i)
        readers.emplace_back([&, i] { outcomes[i] = subs[i]->run(); });

    pub.publish(wire);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (counter(srv.registry().snapshot(), obs::sid::kHubChunksReclaimed) == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(counter(srv.registry().snapshot(), obs::sid::kHubChunksReclaimed), 0u)
        << "no chunk reclaimed before the publisher's BYE";

    EXPECT_TRUE(pub.finish()) << pub.error();
    for (auto& t : readers) t.join();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto& spec = specs[i];
        const std::string label = "subscriber S=" + std::to_string(spec.shards) +
                                  " k=" + std::to_string(spec.instances) +
                                  (spec.shards == 0 ? " unpartitioned" : "");
        EXPECT_TRUE(outcomes[i].error.empty()) << label << ": " << outcomes[i].error;
        EXPECT_TRUE(outcomes[i].completed) << label;
        expect_byte_identical(
            spec.shards == 0
                ? sequential_ground_truth(spec.query, wire)
                : harness::partitioned_oracle(spec.query, wire, spec.partition_by),
            outcomes[i].results, label);
    }
    srv.stop();
    EXPECT_EQ(srv.stats().sessions_failed, 0u);
}

// ---------------------------------------------------------------------------
// Isolation: a stalled slow subscriber parks only its own engine task (§9).
// The publisher and every other subscriber finish while it reads nothing;
// once its gate opens it still produces the byte-identical stream.
// ---------------------------------------------------------------------------

TEST(StreamHub, StalledSubscriberBlocksNeitherPublisherNorPeers) {
    const server::ServerConfig cfg = server::ServerConfigBuilder{}
                                         .pool_workers(2)
                                         .egress_buffer_bytes(2048)  // park fast
                                         .quantum_windows(1)
                                         .session_sndbuf(8192)
                                         .build();
    server::CepServer srv(cfg);
    srv.start();
    const auto wire = wire_events(2000, 5);

    harness::PublisherClient pub("127.0.0.1", srv.port(), "hot");
    ASSERT_TRUE(pub.ok()) << pub.error();

    auto gate = std::make_shared<std::atomic<bool>>(false);
    harness::SubscriberClient::Spec slow_spec = sub_spec("hot", 0);
    slow_spec.read_gate = gate;
    slow_spec.rcvbuf = 4096;  // keep results out of auto-tuned socket buffers
    harness::SubscriberClient slow("127.0.0.1", srv.port(), slow_spec);
    ASSERT_TRUE(slow.ok()) << slow.error();

    std::vector<std::unique_ptr<harness::SubscriberClient>> fast;
    for (std::size_t i = 1; i <= 2; ++i) {
        fast.push_back(std::make_unique<harness::SubscriberClient>(
            "127.0.0.1", srv.port(), sub_spec("hot", i)));
        ASSERT_TRUE(fast.back()->ok()) << fast.back()->error();
    }

    std::vector<harness::LoadGenOutcome> fast_out(fast.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < fast.size(); ++i)
        threads.emplace_back([&, i] { fast_out[i] = fast[i]->run(); });

    // The whole stream goes out and the publisher completes while the slow
    // subscriber has not read one RESULT byte.
    pub.publish(wire);
    EXPECT_TRUE(pub.finish()) << pub.error();
    for (auto& t : threads) t.join();
    for (std::size_t i = 0; i < fast.size(); ++i) {
        EXPECT_TRUE(fast_out[i].completed) << fast_out[i].error;
        expect_byte_identical(sequential_ground_truth(subscriber_query(i + 1), wire),
                              fast_out[i].results, "fast sub " + std::to_string(i));
    }

    gate->store(true, std::memory_order_release);
    const auto slow_out = slow.run();
    EXPECT_TRUE(slow_out.completed) << slow_out.error;
    expect_byte_identical(sequential_ground_truth(subscriber_query(0), wire),
                          slow_out.results, "slow sub");
    srv.stop();
}

// ---------------------------------------------------------------------------
// Early unsubscribe: a subscriber's BYE seals its egress. However it races
// the engine's lane — a step mid-way through appending RESULT frames, or (on
// rounds that close the stream at the same instant) the engine finishing and
// sending a BYE of its own — the client sees exactly one BYE, as the last
// frame, counting the RESULT frames before it; the session counts completed
// exactly once and never failed. Every fifth round's subscriber runs three
// shard lanes, and the BYE must release all of them while the stream is
// still open.
// ---------------------------------------------------------------------------

TEST(StreamHub, EarlyUnsubscribeSealsEgressWithOneBye) {
    server::CepServer srv(server::ServerConfigBuilder{}.pool_workers(2).build());
    srv.start();
    const auto wire = wire_events(1500, 61);
    constexpr int kRounds = 60;
    for (int round = 0; round < kRounds; ++round) {
        const std::string label = "round " + std::to_string(round);
        const std::string stream = "early" + std::to_string(round);
        harness::PublisherClient pub("127.0.0.1", srv.port(), stream);
        ASSERT_TRUE(pub.ok()) << label << ": " << pub.error();

        net::TcpClient conn("127.0.0.1", srv.port(), 0);
        net::Hello2Frame hello;
        hello.set("role", "subscribe");
        hello.set("stream", stream);
        if (round % 3 == 1) hello.set("instances", "2");
        if (round % 5 == 2) {
            // A sharded subscriber, whose BYE must release every lane. Its
            // 24-event windows complete per key mid-stream (~37 events a
            // key), so RESULTs flow before the stream closes.
            hello.set("query", kFallingPairQuery);
            hello.set("partition_by", "SUBJECT");
            hello.set("shards", "3");
        } else {
            hello.set("query", subscriber_query(static_cast<std::size_t>(round)));
        }
        std::vector<std::uint8_t> buf;
        net::encode_frame(net::SessionFrame{std::move(hello)}, buf);
        conn.send_raw(buf.data(), buf.size());

        net::FrameReader reader;
        std::vector<net::SessionFrame> frames;
        std::size_t results = 0;
        std::uint8_t chunk[16384];
        const auto read_more = [&] {  // false once the server closes
            ssize_t n = 0;
            do n = ::recv(conn.fd(), chunk, sizeof(chunk), 0);
            while (n < 0 && errno == EINTR);
            if (n <= 0) return false;  // EOF, or a reset: the BYE raced the close
            reader.feed(chunk, static_cast<std::size_t>(n));
            while (auto f = reader.poll()) {
                if (std::holds_alternative<net::ResultFrame>(*f)) ++results;
                frames.push_back(std::move(*f));
            }
            return true;
        };
        while (frames.empty()) ASSERT_TRUE(read_more()) << label << ": no echo";
        ASSERT_TRUE(std::holds_alternative<net::Hello2Frame>(frames.front())) << label;

        pub.publish(wire);
        const std::size_t bye_after = static_cast<std::size_t>(round % 4);
        while (results < bye_after) ASSERT_TRUE(read_more()) << label;
        std::thread closer;
        if (round % 2 == 1)
            closer = std::thread([&] { EXPECT_TRUE(pub.finish()) << label << ": " << pub.error(); });
        buf.clear();
        net::encode_frame(net::SessionFrame{net::ByeFrame{}}, buf);
        // Unchecked: on racing rounds the session may already be reaped.
        (void)::send(conn.fd(), buf.data(), buf.size(), MSG_NOSIGNAL);
        while (read_more()) {
        }  // the server closes once the session is reaped
        if (closer.joinable())
            closer.join();
        else
            EXPECT_TRUE(pub.finish()) << label << ": " << pub.error();

        std::size_t byes = 0;
        for (const auto& f : frames) byes += std::holds_alternative<net::ByeFrame>(f) ? 1 : 0;
        EXPECT_EQ(byes, 1u) << label;
        ASSERT_TRUE(std::holds_alternative<net::ByeFrame>(frames.back()))
            << label << ": BYE must be the last frame";
        EXPECT_EQ(std::get<net::ByeFrame>(frames.back()).results, results) << label;
        EXPECT_EQ(frames.size(), results + 2) << label << ": only echo, RESULTs, BYE";

        // The completed count lands right after the sealing BYE is buffered.
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (srv.stats().sessions_completed < static_cast<std::uint64_t>(round + 1) &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_EQ(srv.stats().sessions_completed, static_cast<std::uint64_t>(round + 1))
            << label;
    }
    srv.stop();
    EXPECT_EQ(srv.stats().sessions_completed, static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(srv.stats().sessions_failed, 0u);
}

// ---------------------------------------------------------------------------
// Failure semantics: a publisher dying without BYE poisons the stream — every
// attached subscriber gets an ERROR naming the cause, never a clean BYE over
// a truncated result set.
// ---------------------------------------------------------------------------

TEST(StreamHub, PublisherDeathFailsAttachedSubscribers) {
    server::CepServer srv;
    srv.start();

    auto pub = std::make_unique<harness::PublisherClient>("127.0.0.1", srv.port(), "doomed");
    ASSERT_TRUE(pub->ok()) << pub->error();
    harness::SubscriberClient sub("127.0.0.1", srv.port(), sub_spec("doomed", 0));
    ASSERT_TRUE(sub.ok()) << sub.error();

    pub->publish(wire_events(300, 3));
    pub.reset();  // hard close, no BYE: the stream can never end cleanly

    const auto out = sub.run();
    EXPECT_FALSE(out.completed);
    EXPECT_NE(out.error.find("publisher disconnected"), std::string::npos) << out.error;
    srv.stop();
    EXPECT_GE(srv.stats().sessions_failed, 1u);
}

// ---------------------------------------------------------------------------
// Handshake rejections: each bad HELLO v2 yields an ERROR before any session
// state leaks — and the server keeps serving afterwards.
// ---------------------------------------------------------------------------

TEST(StreamHub, HandshakeRejectsBadRolesStreamsAndQueries) {
    server::CepServer srv;
    srv.start();

    harness::PublisherClient pub("127.0.0.1", srv.port(), "taken");
    ASSERT_TRUE(pub.ok()) << pub.error();

    {  // duplicate stream name
        harness::PublisherClient dup("127.0.0.1", srv.port(), "taken");
        EXPECT_FALSE(dup.ok());
        EXPECT_NE(dup.error().find("already published"), std::string::npos)
            << dup.error();
    }
    {  // unknown stream
        harness::SubscriberClient s("127.0.0.1", srv.port(), sub_spec("nope", 0));
        EXPECT_FALSE(s.ok());
        EXPECT_NE(s.error().find("unknown stream"), std::string::npos) << s.error();
    }
    {  // a subscriber's shard count is capped like a standalone session's
        auto spec = sub_spec("taken", 0);
        spec.partition_by = "SUBJECT";
        spec.shards = 1000;
        harness::SubscriberClient s("127.0.0.1", srv.port(), spec);
        EXPECT_FALSE(s.ok());
        EXPECT_NE(s.error().find("shards exceed server limit"), std::string::npos)
            << s.error();
    }
    {  // sharding needs a partition key, on a subscriber too
        auto spec = sub_spec("taken", 0);
        spec.shards = 2;
        harness::SubscriberClient s("127.0.0.1", srv.port(), spec);
        EXPECT_FALSE(s.ok());
        EXPECT_NE(s.error().find("needs a partition key"), std::string::npos) << s.error();
    }
    {  // malformed query text still names the parse failure
        auto spec = sub_spec("taken", 0);
        spec.query = "PATTERN (";
        harness::SubscriberClient s("127.0.0.1", srv.port(), spec);
        EXPECT_FALSE(s.ok());
        EXPECT_NE(s.error().find("HELLO rejected"), std::string::npos) << s.error();
    }

    // The hub still works: a clean subscribe on the same stream completes.
    const auto wire = wire_events(400, 8);
    harness::SubscriberClient good("127.0.0.1", srv.port(), sub_spec("taken", 2));
    ASSERT_TRUE(good.ok()) << good.error();
    pub.publish(wire);
    EXPECT_TRUE(pub.finish()) << pub.error();
    const auto out = good.run();
    EXPECT_TRUE(out.completed) << out.error;
    expect_byte_identical(sequential_ground_truth(subscriber_query(2), wire),
                          out.results, "post-reject subscriber");
    srv.stop();
}

// A v2 standalone HELLO is the v1 handshake plus a capability echo: same
// engine, byte-identical results. Driven over raw frames because the v2
// standalone still carries its own DATA.
TEST(StreamHub, Hello2StandaloneRoleMatchesGroundTruth) {
    server::CepServer srv;
    srv.start();
    const auto wire = wire_events(600, 21);

    net::TcpClient conn("127.0.0.1", srv.port(), 0);
    net::Hello2Frame hello;
    hello.set("role", "standalone");
    hello.set("query", kRisingPairQuery);
    hello.set("instances", "2");
    std::vector<std::uint8_t> buf;
    net::encode_frame(net::SessionFrame{std::move(hello)}, buf);
    for (const auto& q : wire) net::encode_frame(net::SessionFrame{q}, buf);
    net::encode_frame(net::SessionFrame{net::ByeFrame{}}, buf);
    conn.send_raw(buf.data(), buf.size());

    net::FrameReader reader;
    std::optional<net::Hello2Frame> echo;
    std::vector<event::ComplexEvent> results;
    bool done = false;
    std::uint8_t chunk[16384];
    while (!done) {
        const ssize_t n = net::read_some(conn.fd(), chunk, sizeof(chunk));
        ASSERT_GT(n, 0) << "server closed before BYE";
        reader.feed(chunk, static_cast<std::size_t>(n));
        while (auto f = reader.poll()) {
            if (auto* h2 = std::get_if<net::Hello2Frame>(&*f)) {
                EXPECT_TRUE(results.empty()) << "echo must precede all RESULT bytes";
                echo = std::move(*h2);
            } else if (auto* r = std::get_if<net::ResultFrame>(&*f)) {
                results.push_back(net::from_result_frame(*r));
            } else if (std::get_if<net::ByeFrame>(&*f)) {
                done = true;
            } else {
                FAIL() << "unexpected frame from server";
            }
        }
    }
    ASSERT_TRUE(echo.has_value());
    EXPECT_EQ(echo->get("proto"), "2");
    EXPECT_EQ(echo->get("role"), "standalone");
    EXPECT_FALSE(echo->get("max_instances").empty());
    expect_byte_identical(sequential_ground_truth(kRisingPairQuery, wire), results,
                          "v2 standalone");
    srv.stop();
}

// ---------------------------------------------------------------------------
// Observability (§12 + §15): stream/subscriber gauges while live; decode
// happens once per stream regardless of fan-out; identical subscriber
// queries share one compiled artifact; drained chunks get reclaimed.
// ---------------------------------------------------------------------------

TEST(StreamHub, SharedPlaneCountersDecodeOnceShareCompilesReclaimChunks) {
    if (!obs::enabled()) GTEST_SKIP() << "metrics disabled via SPECTRE_OBS_OFF";
    server::CepServer srv;
    srv.start();
    // Eight EventStore chunks and change (chunk = 1024 events): completion-
    // time pin advancement can free the first eight.
    const auto wire = wire_events(9000, 77);
    std::size_t stream_bytes = 0;
    {
        std::vector<std::uint8_t> tmp;
        for (const auto& q : wire) net::encode_frame(net::SessionFrame{q}, tmp);
        stream_bytes = tmp.size();
    }

    harness::PublisherClient pub("127.0.0.1", srv.port(), "metered");
    ASSERT_TRUE(pub.ok()) << pub.error();
    constexpr std::size_t kSubs = 4;
    std::vector<std::unique_ptr<harness::SubscriberClient>> subs;
    for (std::size_t i = 0; i < kSubs; ++i) {
        auto spec = sub_spec("metered", 0);  // all identical: one compile, 3 hits
        subs.push_back(std::make_unique<harness::SubscriberClient>(
            "127.0.0.1", srv.port(), std::move(spec)));
        ASSERT_TRUE(subs.back()->ok()) << subs.back()->error();
    }

    {  // live gauges: one stream, four subscribers attached
        const auto live = srv.registry().snapshot();
        EXPECT_EQ(counter(live, obs::sid::kHubStreams), 1u);
        EXPECT_EQ(counter(live, obs::sid::kHubSubscribers), kSubs);
    }

    std::vector<harness::LoadGenOutcome> outs(kSubs);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kSubs; ++i)
        threads.emplace_back([&, i] { outs[i] = subs[i]->run(); });
    pub.publish(wire);
    EXPECT_TRUE(pub.finish()) << pub.error();
    for (auto& t : threads) t.join();
    const auto expected = sequential_ground_truth(subscriber_query(0), wire);
    for (std::size_t i = 0; i < kSubs; ++i) {
        EXPECT_TRUE(outs[i].completed) << outs[i].error;
        expect_byte_identical(expected, outs[i].results, "sub " + std::to_string(i));
    }
    srv.stop();

    const auto snap = srv.registry().snapshot();
    EXPECT_EQ(counter(snap, obs::sid::kHubSubscribersTotal), kSubs);
    // Decode-once: the server read the stream's wire bytes once (plus frame
    // handshake overhead), not once per subscriber.
    const auto ingest_wire = counter(snap, obs::sid::kIngestWireBytes);
    EXPECT_GE(ingest_wire, stream_bytes);
    EXPECT_LT(ingest_wire, stream_bytes + stream_bytes / 2)
        << "fan-out must not re-decode the stream";
    // Identical queries share one artifact.
    EXPECT_EQ(counter(snap, obs::sid::kCompileCacheMisses), 1u);
    EXPECT_EQ(counter(snap, obs::sid::kCompileCacheHits), kSubs - 1);
    // All pins advanced past the first chunks at completion → reclaimed.
    EXPECT_GE(counter(snap, obs::sid::kHubChunksReclaimed), 1u);
}
