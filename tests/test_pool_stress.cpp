// Engine-pool stress and fault-injection suites (DESIGN.md §9): slow
// consumers must park only their own session (bounded memory, no worker
// held hostage), session churn must leave the pool with zero leaked tasks,
// and stop() must drain sessions parked on backpressure. Runs under the
// TSan CI job (-DSPECTRE_TSAN=ON) alongside the concurrent-store suite.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/load_gen.hpp"
#include "net/tcp.hpp"
#include "server/cep_server.hpp"
#include "server/config.hpp"
#include "server_test_util.hpp"

using namespace spectre;
using namespace spectre::testing;

namespace {

using Clock = std::chrono::steady_clock;

// Polls `pred` (on the main thread) until it holds or `seconds` elapse.
bool eventually(double seconds, const std::function<bool()>& pred) {
    const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
    while (Clock::now() < deadline) {
        if (pred()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

// High result volume per input event: every other event starts a window and
// nearly every window matches (up_prob 0.7), each RESULT carrying a six-entry
// payload — the egress byte count dwarfs the shrunken socket buffers below,
// so backpressure must engage at the server's configured cap. Partitioned
// per symbol, windows open every other event of each key — the same volume.
std::string fat_result_query(bool partitioned = false) {
    return std::string("PATTERN (R1 R2) "
                       "DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open "
                       "WITHIN 20 EVENTS FROM EVERY 2 EVENTS ") +
           (partitioned ? "PARTITION BY SUBJECT " : "") +
           "EMIT open1 = R1.open, close1 = R1.close, open2 = R2.open, "
           "     close2 = R2.close, gain = R2.close - R1.open, spread = R2.close - R2.open";
}

}  // namespace

// ---------------------------------------------------------------------------
// Slow consumer: a client that stops reading RESULT frames parks its own
// engine task on egress credit — other sessions keep completing, server
// memory stays bounded by the configured cap, and once the client resumes
// reading the parked session finishes byte-identical to the oracle. The
// slow session runs unsharded, or sharded over two lanes that share its
// egress credit (each lane parks on its own as it hits the gate).
// ---------------------------------------------------------------------------

class PoolStressSlowConsumer : public ::testing::TestWithParam<bool> {};  // sharded?

TEST_P(PoolStressSlowConsumer, ParksOnlyItsOwnSession) {
    const bool sharded = GetParam();
    const server::ServerConfig cfg = server::ServerConfigBuilder{}
                                         .pool_workers(2)
                                         .egress_buffer_bytes(2048)  // tiny credit: park quickly
                                         .quantum_windows(1)
                                         .session_sndbuf(8192)  // keep result bytes out of auto-tuned buffers
                                         .build();
    server::CepServer srv(cfg);
    srv.start();

    auto gate = std::make_shared<std::atomic<bool>>(false);
    std::vector<harness::LoadGenSession> specs(4);
    // The slow one: ~hundreds of fat RESULT frames, none read until the gate
    // opens — far more bytes than cap + both kernel socket buffers hold.
    specs[0] = make_session(fat_result_query(sharded), 0, wire_events(1500, 11, 40, 0.7));
    if (sharded) specs[0].shards = 2;
    specs[0].read_gate = gate;
    specs[0].rcvbuf = 8192;
    // Three well-behaved neighbours, mixed engines.
    specs[1] = make_session(kRisingTripleQuery, 2, wire_events(400, 22));
    specs[2] = make_session(kFallingPairQuery, 0, wire_events(350, 33, 30, 0.4));
    specs[3] = make_session(kRisingPairQuery, 1, wire_events(300, 44));

    harness::LoadGenClient client("127.0.0.1", srv.port());
    std::vector<harness::LoadGenOutcome> outcomes;
    std::thread driver([&] { outcomes = client.run(specs); });

    // The three readers finish while the slow session is parked on egress.
    EXPECT_TRUE(eventually(30.0, [&] {
        const auto s = srv.stats();
        return s.sessions_completed >= 3 && s.parks_egress >= 1;
    })) << "fast sessions did not finish while a slow consumer was parked";

    {
        const auto s = srv.stats();
        // Bounded memory: the buffered egress never exceeds the cap by more
        // than one scheduling quantum's emission burst.
        EXPECT_LE(s.egress_peak_bytes, cfg.session.egress_buffer_bytes + 64 * 1024);
        EXPECT_GE(s.parks_egress, 1u);
        // No worker is held hostage by the slow reader — the proof is that
        // the three well-behaved sessions above already completed. (The
        // instantaneous tasks_running gauge is deliberately not asserted:
        // a transient re-notify can legitimately have the task mid-quantum.)
    }

    gate->store(true, std::memory_order_release);
    driver.join();

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string label = "session " + std::to_string(i);
        EXPECT_TRUE(outcomes[i].completed) << label << ": " << outcomes[i].error;
        expect_byte_identical(
            i == 0 && sharded ? harness::partitioned_oracle(specs[i].query, specs[i].events)
                              : sequential_ground_truth(specs[i].query, specs[i].events),
            outcomes[i].results, label);
    }

    srv.stop();
    const auto s = srv.stats();
    EXPECT_EQ(s.sessions_completed, 4u);
    EXPECT_EQ(s.sessions_failed, 0u);
    // Counters survive stop(): every task registered on the pool finished.
    EXPECT_EQ(s.tasks_added, s.tasks_finished);
    EXPECT_EQ(s.egress_buffered_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, PoolStressSlowConsumer, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                             return info.param ? "Sharded" : "Unsharded";
                         });

// ---------------------------------------------------------------------------
// Session churn: repeated connect/HELLO/abandon-mid-DATA cycles (truncated
// frames, corrupt frames, plus clean sessions) leave the pool with zero
// leaked tasks and all workers idle; the server stays healthy throughout.
// ---------------------------------------------------------------------------

TEST(PoolStress, SessionChurnLeavesZeroLeakedTasks) {
    const server::ServerConfig cfg =
        server::ServerConfigBuilder{}.pool_workers(2).quantum_steps(8).build();
    server::CepServer srv(cfg);
    srv.start();

    harness::LoadGenClient client("127.0.0.1", srv.port());
    std::uint64_t expect_failed = 0, expect_completed = 0;
    for (int round = 0; round < 10; ++round) {
        std::vector<harness::LoadGenSession> specs(5);
        // Abandon mid-DATA, mid-frame: the server must surface a stream
        // error and drop the task without leaking it.
        specs[0] = make_session(kRisingPairQuery, 1, wire_events(200, 100 + round));
        specs[0].truncate_frame_at_event = 20 + round;
        // Corrupt framing mid-stream.
        specs[1] = make_session(kRisingTripleQuery, 2, wire_events(200, 200 + round));
        specs[1].corrupt_after = 15 + round;
        // Abandon before HELLO's engine even exists (bad query).
        specs[2] = make_session("PATTERN (oops", 0, wire_events(5, 300 + round));
        // Two clean sessions riding along.
        specs[3] = make_session(kFallingPairQuery, 0, wire_events(80, 400 + round, 30, 0.4));
        specs[4] = make_session(kRisingPairQuery, 2, wire_events(80, 500 + round));
        const auto outcomes = client.run(specs);
        expect_failed += 3;
        expect_completed += 2;
        EXPECT_FALSE(outcomes[0].completed);
        EXPECT_FALSE(outcomes[1].completed);
        EXPECT_FALSE(outcomes[2].completed);
        EXPECT_TRUE(outcomes[3].completed) << outcomes[3].error;
        EXPECT_TRUE(outcomes[4].completed) << outcomes[4].error;
    }

    // Every abandoned session's task drains: zero leaked tasks, all workers
    // idle, every session reaped.
    EXPECT_TRUE(eventually(10.0, [&] {
        const auto s = srv.stats();
        return s.tasks_live == 0 && s.sessions_live == 0 && s.tasks_running == 0;
    })) << "pool did not drain after churn: tasks_live=" << srv.stats().tasks_live
        << " sessions_live=" << srv.stats().sessions_live;
    {
        const auto s = srv.stats();
        EXPECT_EQ(s.tasks_added, s.tasks_finished);
        EXPECT_EQ(s.sessions_failed, expect_failed);
        EXPECT_EQ(s.sessions_completed, expect_completed);
        EXPECT_EQ(s.egress_buffered_bytes, 0u);
    }

    // The survivor check: a fresh session on the churned server still
    // matches the oracle.
    harness::LoadGenSession spec = make_session(kRisingTripleQuery, 2, wire_events(150, 999));
    const auto out = client.run_one(spec);
    ASSERT_TRUE(out.completed) << out.error;
    expect_byte_identical(sequential_ground_truth(spec.query, spec.events), out.results,
                          "post-churn session");
    srv.stop();
}

// ---------------------------------------------------------------------------
// Quantum-budget fairness (DESIGN.md §11): a speculative session sharing one
// worker with a tiny sequential neighbour must yield often enough that the
// neighbour completes promptly. Before the ready-instance scheduler, one
// step() ran a bounded batch on *every* instance — k × batch_events window
// positions per step, so a k = 4 session consumed its whole quantum k times
// faster than the budget intends, and needed ~k× fewer quanta to finish
// (starving co-scheduled sessions in between). The budget caps every step at
// quantum_budget positions regardless of k.
// ---------------------------------------------------------------------------

TEST(PoolStress, QuantumBudgetKeepsSpeculativeSessionsFair) {
    const server::ServerConfig cfg =
        server::ServerConfigBuilder{}
            .pool_workers(1)    // everyone shares a single worker
            .batch_events(16)   // quantum_budget follows batch_events (§11)
            .quantum_steps(8)
            .build();
    server::CepServer srv(cfg);
    srv.start();

    // Heavy speculative session: k = 4 over overlapping windows (40 events
    // every 10 → 4 live windows) — tens of thousands of window positions.
    std::vector<harness::LoadGenSession> specs(2);
    specs[0] = make_session(kRisingPairQuery, 4, wire_events(6000, 311));
    // Tiny sequential neighbour on the same worker.
    specs[1] = make_session(kFallingPairQuery, 0, wire_events(60, 322, 30, 0.4));

    harness::LoadGenClient client("127.0.0.1", srv.port());
    std::vector<harness::LoadGenOutcome> outcomes;
    std::thread driver([&] { outcomes = client.run(specs); });

    // Co-scheduling: the tiny session finishes long before the heavy one.
    EXPECT_TRUE(eventually(30.0, [&] { return srv.stats().sessions_completed >= 1; }))
        << "tiny session starved behind the speculative one";

    driver.join();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string label = "session " + std::to_string(i);
        EXPECT_TRUE(outcomes[i].completed) << label << ": " << outcomes[i].error;
        expect_byte_identical(sequential_ground_truth(specs[i].query, specs[i].events),
                              outcomes[i].results, label);
    }

    srv.stop();
    const auto s = srv.stats();
    EXPECT_EQ(s.sessions_completed, 2u);
    EXPECT_EQ(s.sessions_failed, 0u);
    // The speculative session reported its scheduler stats exactly once.
    ASSERT_EQ(s.sched_sessions, 1u);
    ASSERT_GT(s.sched_steps, 0u);
    // Overlapping windows mean far more window positions than input events.
    EXPECT_GE(s.sched_batch_events, 6000u);
    // The §11 budget, aggregated over the whole run: no step advances more
    // than quantum_budget (= batch_events) window positions. The pre-§11
    // round-robin did k × batch_events per step and fails this by ~4x.
    EXPECT_LE(s.sched_batch_events, s.sched_steps * cfg.session.batch_events);
    // Starvation floor: the work therefore spreads over at least
    // positions / (quantum_steps × budget) pool quanta — each a point where
    // the neighbour could run. (The old step shape needed ~k× fewer.)
    EXPECT_GE(s.quanta_executed,
              s.sched_batch_events /
                  (cfg.session.quantum_steps * cfg.session.batch_events));
}

// ---------------------------------------------------------------------------
// Shutdown regression: stop() while a session is parked on egress credit
// (slow reader) or on input (silent client) must poison the waits and drain
// the tasks — it must never hang on a parked session.
// ---------------------------------------------------------------------------

TEST(PoolStress, StopWhileParkedOnEgressReturnsPromptly) {
    const server::ServerConfig cfg = server::ServerConfigBuilder{}
                                         .pool_workers(2)
                                         .egress_buffer_bytes(1024)  // park fast
                                         .quantum_windows(1)
                                         .session_sndbuf(8192)
                                         .build();
    auto srv = std::make_unique<server::CepServer>(cfg);
    srv->start();

    auto gate = std::make_shared<std::atomic<bool>>(false);
    harness::LoadGenSession spec = make_session(fat_result_query(), 0, wire_events(1200, 77, 40, 0.7));
    spec.read_gate = gate;
    spec.rcvbuf = 8192;
    harness::LoadGenClient client("127.0.0.1", srv->port());
    harness::LoadGenOutcome outcome;
    std::thread driver([&] { outcome = client.run_one(spec); });

    ASSERT_TRUE(eventually(30.0, [&] { return srv->stats().parks_egress >= 1; }))
        << "session never parked on egress";

    const auto t0 = Clock::now();
    srv->stop();  // must poison the parked session's wait and drain it
    const double stop_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    EXPECT_LT(stop_seconds, 5.0) << "stop() stalled on a parked session";
    EXPECT_EQ(srv->stats().egress_buffered_bytes, 0u);

    gate->store(true, std::memory_order_release);
    driver.join();  // client sees reset/ERROR — the session was aborted
    EXPECT_FALSE(outcome.completed);
    srv.reset();
}

TEST(PoolStress, StopWhileParkedOnInputReturnsPromptly) {
    const server::ServerConfig cfg =
        server::ServerConfigBuilder{}.pool_workers(2).build();
    auto srv = std::make_unique<server::CepServer>(cfg);
    srv->start();

    // HELLO + a little DATA, then silence: the engine drains what arrived
    // and parks waiting for input that never comes.
    net::TcpClient conn("127.0.0.1", srv->port());
    {
        std::vector<std::uint8_t> bytes;
        net::encode_frame(net::SessionFrame{net::HelloFrame{kRisingPairQuery, 1, 0, ""}}, bytes);
        for (const auto& q : wire_events(25, 5))
            net::encode_frame(net::SessionFrame{q}, bytes);
        conn.send_raw(bytes.data(), bytes.size());
    }

    ASSERT_TRUE(eventually(30.0, [&] { return srv->stats().parks_input >= 1; }))
        << "session never parked on input";

    const auto t0 = Clock::now();
    srv->stop();
    const double stop_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    EXPECT_LT(stop_seconds, 5.0) << "stop() stalled on an input-parked session";
    srv.reset();
}
