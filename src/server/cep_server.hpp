// CepServer: the multi-session CEP server (DESIGN.md §8, §9).
//
// The paper deploys SPECTRE as middleware behind a TCP ingest (paper §4.1);
// this subsystem generalizes the repo's one-connection pipeline to many
// concurrent clients, each with its own query, policies and engine — the
// middleware shape of the ROADMAP's north star.
//
// Architecture (one box per thread):
//
//    ┌ reactor ───────────────────────────────┐   ┌ engine pool ───────────┐
//    │ epoll Reactor (§14):                   │   │ N workers multiplexing │
//    │ listen fd, wake, every session fd.     │──▶│ every session's engine │
//    │ Accepts clients, reads bytes, decodes  │   │ task in bounded quanta │
//    │ typed frames, drives each session's    │◀──│ (§9); a waiting task   │
//    │ state machine, flushes egress on       │   │ parks, not a worker.   │
//    │ writable, reaps done sessions.         │   └────────────────────────┘
//    └────────────────────────────────────────┘
//
// The reactor never blocks on a session: fds are non-blocking, corrupt input
// fails only the offending session (ERROR frame + disconnect), and pool
// workers talk back through a command queue drained via the wake eventfd
// (ResumeRead after an ingest pause, WatchWrite for pending egress, TaskDone
// for reaping). Sessions are decoupled from OS threads: thousands of
// sessions share the pool's N workers, ingest is bounded per session (a full
// queue pauses that socket's reads — TCP backpressure), and egress is
// bounded per session (an over-cap buffer parks that session's task until
// write readiness drains it). The per-session ordering guarantee — RESULT stream
// byte-identical to a sequential run of that session's input — is inherited
// from the engines' retirement order (§8) and is independent of pool size.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/reactor.hpp"
#include "obs/metrics.hpp"
#include "server/engine_pool.hpp"
#include "server/session.hpp"

namespace spectre::server {

struct ServerConfig {
    std::uint16_t port = 0;  // 127.0.0.1:port; 0 = ephemeral
    // Admin/scrape port (DESIGN.md §12): a second loopback listener hosted
    // by the same reactor serving the Prometheus text exposition of the
    // metrics registry over minimal HTTP. 0 = ephemeral (see admin_port()).
    std::uint16_t admin_port = 0;
    int backlog = 64;
    // Engine worker pool size (§9): sessions multiplex over this many
    // threads regardless of how many clients connect.
    int pool_workers = 4;
    // SO_SNDBUF for accepted session fds; 0 keeps the kernel default
    // (auto-tuned). Tests shrink it so egress backpressure engages at the
    // configured cap instead of hiding inside megabytes of socket buffer.
    int session_sndbuf = 0;
    SessionLimits session{};
};

// Snapshot of the server-wide counters.
struct ServerStats {
    std::uint64_t sessions_accepted = 0;
    std::uint64_t sessions_completed = 0;  // engine finished, BYE buffered for delivery
    std::uint64_t sessions_failed = 0;     // corrupt frame / bad query / died mid-frame
    std::uint64_t events_ingested = 0;
    std::uint64_t results_emitted = 0;     // RESULT frames buffered for delivery
    std::size_t sessions_live = 0;         // currently connected / draining

    // Engine pool (§9).
    int pool_workers = 0;
    std::uint64_t quanta_executed = 0;
    std::uint64_t tasks_added = 0;
    std::uint64_t tasks_finished = 0;
    std::size_t tasks_live = 0;    // parked + queued + running
    std::size_t tasks_queued = 0;
    std::size_t tasks_running = 0;

    // Backpressure (§9).
    std::uint64_t parks_input = 0;       // task parked awaiting ingest
    std::uint64_t parks_egress = 0;      // task parked awaiting egress credit
    std::uint64_t ingest_pauses = 0;     // reactor paused a socket's reads
    std::size_t egress_buffered_bytes = 0;  // currently buffered, all sessions
    std::size_t egress_peak_bytes = 0;      // high-water mark of the above

    // Ready-instance scheduler (§11): live sums over every speculative
    // runtime, each publishing its deltas per step (§12).
    std::uint64_t sched_sessions = 0;          // speculative sessions started
    std::uint64_t sched_steps = 0;             // step() calls
    std::uint64_t sched_cycles = 0;            // splitter cycles the gate ran
    std::uint64_t sched_cycles_skipped = 0;    // steps with no cycle at all
    std::uint64_t sched_batches = 0;           // instance batches scheduled
    std::uint64_t sched_batch_events = 0;      // window positions advanced
    std::uint64_t sched_ready_depth_max = 0;   // peak ready depth, any session
    std::uint64_t sched_instances_retired = 0;    // versions finished
    std::uint64_t sched_instances_cancelled = 0;  // dead speculation found
    std::uint64_t sched_wasted_events = 0;        // work on dropped versions
};

class CepServer {
public:
    explicit CepServer(ServerConfig config = {});
    ~CepServer();  // stop()

    CepServer(const CepServer&) = delete;
    CepServer& operator=(const CepServer&) = delete;

    // Bound ports (valid after construction — the listen sockets are set up
    // eagerly so callers can connect as soon as start() returns).
    std::uint16_t port() const noexcept { return port_; }
    // Metrics scrape endpoint (§12): GET on this loopback port returns the
    // Prometheus text exposition of a live snapshot — no worker stops.
    std::uint16_t admin_port() const noexcept { return admin_port_; }

    // The metrics plane (§12). Live for the server's lifetime; benches and
    // tests may snapshot it directly instead of going through a socket.
    obs::Registry& registry() noexcept { return registry_; }

    // The reactor's readiness primitive, printed by hosts at start.
    const char* io_backend_name() const noexcept { return "epoll"; }

    // Spawns the reactor thread and the engine pool. Call once.
    void start();

    // Shutdown protocol (§9): join the reactor, abort every live session
    // (poisons egress, closes ingestion, wakes parked tasks so they abandon
    // their engines), join the pool workers, destroy the sessions. A session
    // parked on a slow reader or on input never blocks stop(). Idempotent.
    void stop();

    ServerStats stats() const;

private:
    using SessionMap = std::unordered_map<std::uint64_t, std::unique_ptr<ServerSession>>;

    // One admin (scrape) connection: minimal HTTP/1.0 — read until the blank
    // line, reply with one fresh prometheus() snapshot, close when drained.
    struct AdminConn {
        int fd = -1;
        std::string in;       // request bytes until the header terminator
        std::string out;      // response; empty until the request completes
        std::size_t off = 0;  // flushed prefix of `out`
    };

    void reactor_loop();
    void accept_clients();
    void accept_admin_clients();
    void handle_admin_event(std::uint64_t id, const net::IoEvent& ev);
    void close_admin(std::uint64_t id);
    void handle_session_event(std::uint64_t id, const net::IoEvent& ev);
    void handle_readable(std::uint64_t id);
    void handle_writable(std::uint64_t id);
    void drain_wake_and_commands();
    void maybe_reap(std::uint64_t id);
    void destroy_session(SessionMap::iterator it);
    // Lingering close (rejected handshakes): queue the session's deadline,
    // reap the sessions whose deadline passed (timer event), re-arm the
    // timer for the oldest remaining one.
    void start_lingering(std::uint64_t id);
    void expire_lingering();
    void arm_linger_timer();
    void update_interest(ServerSession& session);
    void post_cmd(std::uint64_t id, SessionCmd cmd);
    void wake();

    ServerConfig config_;
    int listen_fd_ = -1;
    int admin_listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::uint16_t admin_port_ = 0;

    // The reactor's epoll set (§14). Owns the wake channel and the ingest
    // read buffer; the reactor thread is the only caller of everything
    // except wake().
    net::Reactor io_;

    // Declared before the pool and the sessions: both hold shards of (and
    // pointers into) the registry, so it must be destroyed last. The server
    // scope's own shard carries the reactor-side series (accepts, live).
    obs::Registry registry_;
    obs::ShardPtr server_shard_;

    // Shared ingest plane (§15). Declared before sessions_: session
    // destructors detach from the hub, so it must outlive them. The compile
    // cache holds only immutable artifacts; sessions share them by shared_ptr.
    StreamHub hub_;
    detect::CompileCache compile_cache_;

    EnginePool pool_;
    std::thread reactor_;
    std::atomic<bool> stopping_{false};
    bool started_ = false;
    bool stopped_ = false;

    // Sessions are owned and touched by the reactor thread only (and by
    // stop() after reactor and pool have been joined).
    SessionMap sessions_;
    // Admin (scrape) connections share the tag space with sessions.
    std::unordered_map<std::uint64_t, AdminConn> admin_conns_;
    std::uint64_t next_session_id_ = 3;  // 0 = listen, 1 = linger timer, 2 = admin listen

    // Half-closed rejected handshakes awaiting EOF, oldest deadline first;
    // linger_timer_fd_ (a timerfd in the reactor's epoll set) fires at the
    // front deadline.
    int linger_timer_fd_ = -1;
    std::deque<std::pair<std::chrono::steady_clock::time_point, std::uint64_t>> lingering_;

    // Pool workers post commands here; the reactor drains on wake.
    std::mutex cmd_mutex_;
    std::vector<std::pair<std::uint64_t, SessionCmd>> cmds_;
};

}  // namespace spectre::server
