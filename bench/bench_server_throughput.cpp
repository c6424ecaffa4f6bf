// E-server — multi-session server throughput, result latency, and
// sessions-per-thread scaling on the engine worker pool.
//
// Measures the full middleware path (DESIGN.md §8, §9): N concurrent
// clients, each with its own query, streaming wire-framed events into one
// CepServer whose engines multiplex over a fixed 4-worker pool — sessions
// scale far past the thread count (up to 16 sessions per worker here).
// Reports aggregate ingest throughput (events/second across all sessions,
// wall-clock), per-session first-result latency (time from the first DATA
// frame to the first RESULT frame — the streaming-egress advantage), and
// the parity verdict: every session's RESULT stream is checked
// byte-identical against a SequentialEngine run over that session's input.
// A parity break or an incomplete session fails the bench (non-zero exit) —
// this is the §9 acceptance gate, run in ctest at SPECTRE_BENCH_SCALE=0.05.
// One JSON line per row for scripts.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench_workloads.hpp"
#include "harness/load_gen.hpp"
#include "harness/oracle.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "server/cep_server.hpp"
#include "server/config.hpp"
#include "util/stats.hpp"

using namespace spectre;

namespace {

std::vector<net::WireQuote> day(std::uint64_t events, std::uint64_t seed) {
    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    data::NyseSynthConfig cfg;
    cfg.events = events;
    cfg.symbols = 100;
    cfg.up_prob = 0.55;
    cfg.seed = seed;
    std::vector<net::WireQuote> wire;
    for (const auto& e : data::generate_nyse(vocab, cfg)) wire.push_back(net::to_wire(e, vocab));
    return wire;
}

const char* kQueries[] = {
    // Rising pair — cheap, high selectivity.
    "PATTERN (R1 R2) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open "
    "WITHIN 40 EVENTS FROM EVERY 10 EVENTS CONSUME ALL",
    // Rising triple with payload.
    "PATTERN (R1 R2 R3) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open, "
    "R3 AS R3.close > R3.open WITHIN 30 EVENTS FROM EVERY 10 EVENTS CONSUME ALL "
    "EMIT gain = R3.close - R1.open",
    // Falling pair.
    "PATTERN (F1 F2) DEFINE F1 AS F1.close < F1.open, F2 AS F2.close < F2.open "
    "WITHIN 24 EVENTS FROM EVERY 8 EVENTS CONSUME ALL",
};

constexpr int kPoolWorkers = 4;

// Resident set size in KiB (/proc/self/statm, Linux-only like the reactor).
long rss_kb() {
    long pages = 0, resident = 0;
    if (FILE* f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
        std::fclose(f);
    }
    return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

// Both ends of every idle connection live in this process, so each session
// costs two fds; leave headroom for the active sessions and the runtime.
std::size_t fd_budget_sessions() {
    rlimit rl{};
    if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return 256;
    const auto soft = static_cast<std::size_t>(rl.rlim_cur);
    return soft > 512 ? (soft - 256) / 2 : 128;
}

}  // namespace

int main() {
    harness::print_header(
        "E-server", "worker-pool server: sessions-per-thread scaling + result latency");

    const std::uint64_t events_per_session = bench::scaled(20'000);
    harness::Table table({"sessions", "sess/worker", "engine", "aggregate eps",
                          "first-result p50 (ms)", "results", "parity"});
    std::vector<harness::JsonLine> json_rows;
    bool all_parity_ok = true;

    for (const std::size_t n_sessions : {1u, 4u, 16u, 64u}) {
        // Inputs (and therefore oracles) are identical across the two engine
        // rows — compute the sequential references once per session count.
        std::vector<harness::LoadGenSession> base_specs(n_sessions);
        std::vector<std::vector<event::ComplexEvent>> expected(n_sessions);
        for (std::size_t i = 0; i < n_sessions; ++i) {
            base_specs[i].query = kQueries[i % (sizeof(kQueries) / sizeof(kQueries[0]))];
            base_specs[i].events = day(events_per_session, 1000 + i);
            expected[i] =
                harness::sequential_oracle(base_specs[i].query, base_specs[i].events);
        }

        for (const std::uint32_t k : {0u, 2u}) {  // sequential vs SPECTRE engines
            const server::ServerConfig cfg =
                server::ServerConfigBuilder{}.pool_workers(kPoolWorkers).build();
            server::CepServer srv(cfg);
            srv.start();

            std::vector<harness::LoadGenSession> specs = base_specs;
            for (auto& spec : specs) spec.instances = k;

            harness::LoadGenClient client("127.0.0.1", srv.port());
            const auto t0 = std::chrono::steady_clock::now();
            const auto outcomes = client.run(specs);
            const double wall =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                    .count();
            srv.stop();
            const auto stats = srv.stats();
            // Lifecycle histograms (§12): retired session shards fold into the
            // registry's retained block, so the latency distributions survive
            // stop() and come from the same source of truth as stats().
            const auto snap = srv.registry().snapshot();
            const auto q = [&snap](std::uint32_t idx, double p) {
                return snap.quantile(obs::Series{idx}, p);
            };

            std::uint64_t total_events = 0, total_results = 0;
            std::vector<double> first_result_ms;
            bool all_ok = true, parity_ok = true;
            for (std::size_t i = 0; i < outcomes.size(); ++i) {
                const auto& out = outcomes[i];
                all_ok = all_ok && out.completed && out.error.empty();
                total_events += out.events_sent;
                total_results += out.results.size();
                if (out.first_result_seconds >= 0)
                    first_result_ms.push_back(out.first_result_seconds * 1e3);
                // §9 acceptance gate: byte-identical to the sequential
                // reference for every session, at every sessions:workers ratio.
                if (!harness::results_identical(expected[i], out.results)) {
                    parity_ok = false;
                    std::fprintf(stderr, "PARITY BREAK: session %zu (k=%u, pool=%d)\n", i,
                                 k, kPoolWorkers);
                }
            }
            if (!all_ok) {
                std::fprintf(stderr, "ERROR: a session failed to complete\n");
                parity_ok = false;
            }
            // Counters survive stop() (the live-task table does not): every
            // registered task must have run to completion.
            if (stats.tasks_added != stats.tasks_finished) {
                std::fprintf(stderr,
                             "ERROR: pool leaked tasks (%llu added, %llu finished)\n",
                             (unsigned long long)stats.tasks_added,
                             (unsigned long long)stats.tasks_finished);
                parity_ok = false;
            }
            all_parity_ok = all_parity_ok && parity_ok;

            const double eps = wall > 0 ? static_cast<double>(total_events) / wall : 0;
            const double latency_p50 =
                first_result_ms.empty() ? -1 : util::percentile(first_result_ms, 50);
            const double per_worker =
                static_cast<double>(n_sessions) / static_cast<double>(kPoolWorkers);

            const std::string engine = k == 0 ? "sequential" : "spectre_k2";
            table.row({std::to_string(n_sessions), harness::fmt_double(per_worker, 2),
                       engine, harness::fmt_eps(eps), harness::fmt_double(latency_p50, 1),
                       std::to_string(total_results), parity_ok ? "ok" : "BROKEN"});
            json_rows.emplace_back(
                harness::JsonLine("E-server")
                    .field("sessions", static_cast<int>(n_sessions))
                    .field("pool_workers", kPoolWorkers)
                    .field("sessions_per_worker", per_worker)
                    .field("engine", engine)
                    .field("events_per_session", events_per_session)
                    .field("eps", eps)
                    .field("first_result_ms_p50", latency_p50)
                    .field("results", total_results)
                    .field("quanta", stats.quanta_executed)
                    .field("parks_input", stats.parks_input)
                    .field("parks_egress", stats.parks_egress)
                    // Ready-instance scheduler observability (§11); all-zero
                    // on sequential rows (no speculative session reports).
                    .field("sched_steps", stats.sched_steps)
                    .field("sched_cycles", stats.sched_cycles)
                    .field("sched_cycles_skipped", stats.sched_cycles_skipped)
                    .field("sched_batches", stats.sched_batches)
                    .field("sched_batch_events", stats.sched_batch_events)
                    .field("sched_ready_depth_max", stats.sched_ready_depth_max)
                    .field("sched_instances_retired", stats.sched_instances_retired)
                    .field("sched_instances_cancelled", stats.sched_instances_cancelled)
                    .field("sched_wasted_events", stats.sched_wasted_events)
                    // Registry histograms (§12), nanoseconds.
                    .field("result_latency_ns_p50", q(obs::sid::kResultLatencyNs, 0.50))
                    .field("result_latency_ns_p99", q(obs::sid::kResultLatencyNs, 0.99))
                    .field("first_result_ns_p50", q(obs::sid::kFirstResultLatencyNs, 0.50))
                    .field("pool_queue_wait_ns_p50", q(obs::sid::kPoolQueueWaitNs, 0.50))
                    .field("quantum_ns_p50", q(obs::sid::kQuantumNs, 0.50))
                    .field("egress_stall_ns_p99", q(obs::sid::kEgressStallNs, 0.99))
                    .field("parity_ok", parity_ok ? 1 : 0));
        }
    }

    table.print();
    std::printf("\n");

    // Connection-scale rows (DESIGN.md §14): a large mostly-idle session
    // population — connect + HELLO, engine task parked on input — alongside a
    // handful of active streams. Reports what scaling connections actually
    // costs: accept+HELLO setup time per session, resident memory per idle
    // session, and whether the active sessions' throughput (and the one-copy
    // ingest invariant, bytes copied per event) survives the crowd. The idle
    // count follows the paper-scale 10k target through SPECTRE_BENCH_SCALE,
    // capped by RLIMIT_NOFILE (both connection ends are in-process).
    const std::size_t idle_target =
        std::min<std::size_t>(bench::scaled(10'000), fd_budget_sessions());
    harness::Table scale_table({"idle sessions", "active", "accept us/conn",
                                "rss KiB/conn", "active eps", "copied B/event",
                                "parity"});
    for (const std::size_t n_idle : {std::size_t{0}, idle_target}) {
        constexpr std::size_t kActive = 8;
        const std::uint64_t active_events = bench::scaled(10'000);

        const server::ServerConfig cfg =
            server::ServerConfigBuilder{}.pool_workers(kPoolWorkers).build();
        server::CepServer srv(cfg);
        srv.start();

        const long rss_before = rss_kb();
        const auto t_accept = std::chrono::steady_clock::now();
        std::vector<std::unique_ptr<net::TcpClient>> idle;
        idle.reserve(n_idle);
        std::vector<std::uint8_t> hello;
        net::encode_frame(net::SessionFrame{net::HelloFrame{kQueries[0], 0, 0, ""}},
                          hello);
        for (std::size_t i = 0; i < n_idle; ++i) {
            idle.push_back(std::make_unique<net::TcpClient>("127.0.0.1", srv.port()));
            idle.back()->send_raw(hello.data(), hello.size());
        }
        // Setup cost includes the reactor registering every session: wait for
        // the accept counter, not just connect() returning.
        while (srv.stats().sessions_accepted < n_idle)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const double accept_us =
            n_idle == 0 ? 0.0
                        : std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t_accept)
                                  .count() /
                              static_cast<double>(n_idle);
        const double rss_per_conn =
            n_idle == 0 ? 0.0
                        : static_cast<double>(rss_kb() - rss_before) /
                              static_cast<double>(n_idle);

        std::vector<harness::LoadGenSession> specs(kActive);
        std::vector<std::vector<event::ComplexEvent>> active_expected(kActive);
        for (std::size_t i = 0; i < kActive; ++i) {
            specs[i].query = kQueries[i % (sizeof(kQueries) / sizeof(kQueries[0]))];
            specs[i].events = day(active_events, 9000 + i);
            specs[i].instances = 2;
            active_expected[i] = harness::sequential_oracle(specs[i].query, specs[i].events);
        }
        harness::LoadGenClient client("127.0.0.1", srv.port());
        const auto t0 = std::chrono::steady_clock::now();
        const auto outcomes = client.run(specs);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

        bool parity_ok = true;
        std::uint64_t total_events = 0;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            total_events += outcomes[i].events_sent;
            if (!outcomes[i].completed || !outcomes[i].error.empty() ||
                !harness::results_identical(active_expected[i], outcomes[i].results)) {
                parity_ok = false;
                std::fprintf(stderr, "PARITY BREAK: active session %zu (idle=%zu)\n", i,
                             n_idle);
            }
        }
        all_parity_ok = all_parity_ok && parity_ok;

        // §12 byte accounting over the whole run (idle HELLOs included —
        // they are a rounding error next to the active DATA streams).
        const auto snap = srv.registry().snapshot();
        const auto counter = [&snap](std::uint32_t sid) {
            return snap.value(obs::Series{sid});
        };
        const double copied_per_event =
            total_events
                ? static_cast<double>(counter(obs::sid::kIngestCopiedBytes)) /
                      static_cast<double>(total_events)
                : 0.0;
        const double wire_per_event =
            total_events
                ? static_cast<double>(counter(obs::sid::kIngestWireBytes)) /
                      static_cast<double>(total_events)
                : 0.0;
        const double reads_per_event =
            total_events
                ? static_cast<double>(counter(obs::sid::kIngestReads)) /
                      static_cast<double>(total_events)
                : 0.0;

        idle.clear();  // closes the client ends; stop() aborts whatever remains
        srv.stop();

        const double eps = wall > 0 ? static_cast<double>(total_events) / wall : 0;
        scale_table.row({std::to_string(n_idle), std::to_string(kActive),
                         harness::fmt_double(accept_us, 1),
                         harness::fmt_double(rss_per_conn, 1), harness::fmt_eps(eps),
                         harness::fmt_double(copied_per_event, 1),
                         parity_ok ? "ok" : "BROKEN"});
        // `shape` is the scale-invariant row identity (the idle count itself
        // tracks SPECTRE_BENCH_SCALE and the fd limit, so it cannot key the
        // committed-vs-smoke comparison in perf_trend.py).
        json_rows.emplace_back(harness::JsonLine("E-server-scale")
                                   .field("shape", n_idle ? "idle-crowd" : "no-idle")
                                   .field("idle_sessions", static_cast<int>(n_idle))
                                   .field("active_sessions", static_cast<int>(kActive))
                                   .field("pool_workers", kPoolWorkers)
                                   .field("events_per_session", active_events)
                                   .field("eps", eps)
                                   .field("accept_us_per_conn", accept_us)
                                   .field("rss_kb_per_conn", rss_per_conn)
                                   .field("copied_bytes_per_event", copied_per_event)
                                   .field("wire_bytes_per_event", wire_per_event)
                                   .field("reads_per_event", reads_per_event)
                                   .field("parity_ok", parity_ok ? 1 : 0));
    }
    scale_table.print();
    std::printf("\n");
    for (const auto& row : json_rows) row.print();
    std::printf(
        "\nexpected shape: aggregate eps holds (or grows) as sessions climb to\n"
        "16x the worker count — engine tasks multiplex over the fixed pool\n"
        "(§9) instead of oversubscribing threads; first-result latency stays\n"
        "far below total stream duration — egress overlaps ingestion (§8);\n"
        "parity must read ok in every row (byte-identical to sequential).\n");
    return all_parity_ok ? 0 : 1;
}
