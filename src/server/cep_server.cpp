#include "server/cep_server.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "net/tcp.hpp"
#include "util/assert.hpp"

namespace spectre::server {

namespace {

constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kLingerTimerTag = 1;
constexpr std::uint64_t kAdminListenTag = 2;

// How long a rejected handshake's half-closed connection may keep sending
// before the reactor closes it anyway (lingering close, ServerSession::fail).
constexpr std::chrono::milliseconds kLinger{250};

// Admin request bytes tolerated before the connection is dropped (a scrape
// request is one line plus a few headers).
constexpr std::size_t kMaxAdminRequest = 16 * 1024;

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) fail("fcntl");
}

}  // namespace

CepServer::CepServer(ServerConfig config)
    : config_(config), pool_(config.pool_workers) {
    // Per-shard-index depth peaks (§12) must be registered before any
    // session's shard exists — a shard only carries cells for series known
    // at its creation. One per index a HELLO may ask for (max_shards, which
    // ServerConfigBuilder::build() keeps within the series table), never
    // more with session churn.
    for (int s = 0; s < config_.session.max_shards; ++s)
        registry_.add("lane_depth_peak{shard=\"" + std::to_string(s) + "\"}",
                      obs::Kind::PeakGauge, "peak unscanned input events of this shard index");
    server_shard_ = registry_.make_shard();
    hub_.bind_obs(server_shard_.get());
    pool_.bind_obs(&registry_);

    listen_fd_ = net::listen_loopback(config_.port, config_.backlog, port_);
    set_nonblocking(listen_fd_);
    admin_listen_fd_ =
        net::listen_loopback(config_.admin_port, config_.backlog, admin_port_);
    set_nonblocking(admin_listen_fd_);

    if (!io_.add(listen_fd_, kListenTag, net::Reactor::kRead)) fail("Reactor add(listen)");
    if (!io_.add(admin_listen_fd_, kAdminListenTag, net::Reactor::kRead))
        fail("Reactor add(admin listen)");
    linger_timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (linger_timer_fd_ < 0) fail("timerfd_create");
    if (!io_.add(linger_timer_fd_, kLingerTimerTag, net::Reactor::kRead))
        fail("Reactor add(linger timer)");
}

CepServer::~CepServer() {
    stop();
    for (auto& [id, conn] : admin_conns_) ::close(conn.fd);
    admin_conns_.clear();
    if (linger_timer_fd_ >= 0) ::close(linger_timer_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (admin_listen_fd_ >= 0) ::close(admin_listen_fd_);
}

void CepServer::start() {
    SPECTRE_REQUIRE(!started_, "CepServer::start called twice");
    started_ = true;
    pool_.start();
    reactor_ = std::thread([this] { reactor_loop(); });
}

void CepServer::stop() {
    if (!started_ || stopped_) return;
    stopped_ = true;
    stopping_.store(true, std::memory_order_release);
    wake();
    reactor_.join();
    // Reactor is gone; pool workers may still be running quanta. Abort every
    // session first: poisons egress (a parked-on-egress task's wait resolves
    // to "nothing left to send"), closes ingestion, and notifies the task so
    // a parked one runs once more, sees the abort and finishes. Quanta are
    // bounded, so the pool join below is prompt; tasks that never get a
    // worker before the join are simply forgotten with the pool and
    // destroyed with their sessions — no thread is parked inside them.
    for (auto& [id, session] : sessions_) session->abort();
    pool_.stop();
    sessions_.clear();  // destructors retire each session's metrics shard
    server_shard_->set(obs::Series{obs::sid::kSessionsLive}, 0);
}

ServerStats CepServer::stats() const {
    // One source of truth (§12): every migrated counter comes out of the
    // registry snapshot; only the pool's instantaneous task-state fields
    // (exact under its mutex) are read from the pool directly.
    const obs::Snapshot snap = registry_.snapshot();
    const auto v = [&snap](std::uint32_t idx) { return snap.value(obs::Series{idx}); };
    ServerStats s;
    s.sessions_accepted = v(obs::sid::kSessionsAccepted);
    s.sessions_completed = v(obs::sid::kSessionsCompleted);
    s.sessions_failed = v(obs::sid::kSessionsFailed);
    s.events_ingested = v(obs::sid::kEventsIngested);
    s.results_emitted = v(obs::sid::kResultsEmitted);
    s.sessions_live = v(obs::sid::kSessionsLive);
    const auto pool = pool_.stats();
    s.pool_workers = pool.workers;
    s.quanta_executed = pool.quanta;
    s.tasks_added = pool.tasks_added;
    s.tasks_finished = pool.tasks_finished;
    s.tasks_live = pool.tasks_live;
    s.tasks_queued = pool.tasks_queued;
    s.tasks_running = pool.tasks_running;
    s.parks_input = v(obs::sid::kParksInput);
    s.parks_egress = v(obs::sid::kParksEgress);
    s.ingest_pauses = v(obs::sid::kIngestPauses);
    s.egress_buffered_bytes = v(obs::sid::kEgressBufferedBytes);
    s.egress_peak_bytes = v(obs::sid::kEgressPeakBytes);
    s.sched_sessions = v(obs::sid::kSchedSessions);
    s.sched_steps = v(obs::sid::kSchedSteps);
    s.sched_cycles = v(obs::sid::kSchedCycles);
    s.sched_cycles_skipped = v(obs::sid::kSchedCyclesSkipped);
    s.sched_batches = v(obs::sid::kSchedBatches);
    s.sched_batch_events = v(obs::sid::kSchedBatchEvents);
    s.sched_ready_depth_max = v(obs::sid::kSchedReadyDepthMax);
    s.sched_instances_retired = v(obs::sid::kSchedInstancesRetired);
    s.sched_instances_cancelled = v(obs::sid::kSchedInstancesCancelled);
    s.sched_wasted_events = v(obs::sid::kSchedWastedEvents);
    return s;
}

void CepServer::wake() { io_.wake(); }

void CepServer::post_cmd(std::uint64_t id, SessionCmd cmd) {
    {
        const std::lock_guard<std::mutex> lock(cmd_mutex_);
        cmds_.emplace_back(id, cmd);
    }
    wake();
}

void CepServer::reactor_loop() {
    std::array<net::IoEvent, 64> events;
    while (!stopping_.load(std::memory_order_acquire)) {
        const int n = io_.wait(events.data(), static_cast<int>(events.size()));
        if (n < 0) break;  // epoll unusable — shutting down
        for (int i = 0; i < n; ++i) {
            const net::IoEvent& ev = events[static_cast<std::size_t>(i)];
            if (ev.tag == net::Reactor::kWakeTag)
                drain_wake_and_commands();
            else if (ev.tag == kListenTag)
                accept_clients();
            else if (ev.tag == kLingerTimerTag)
                expire_lingering();
            else if (ev.tag == kAdminListenTag)
                accept_admin_clients();
            else if (admin_conns_.count(ev.tag))
                handle_admin_event(ev.tag, ev);
            else
                handle_session_event(ev.tag, ev);
        }
    }
}

void CepServer::accept_clients() {
    for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
        if (fd < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            // Transient accept failures (ECONNABORTED, EMFILE, …) must not
            // kill the reactor; the client simply doesn't get a session.
            return;
        }
        if (config_.session_sndbuf > 0 &&
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.session_sndbuf,
                         sizeof(config_.session_sndbuf)) < 0) {
            // The configured buffer bound is a correctness premise for the
            // caller (backpressure engages at the cap, not in auto-tuned
            // kernel buffers); refuse the connection rather than run
            // silently unbounded.
            ::close(fd);
            continue;
        }
        const auto id = next_session_id_++;
        SessionHooks hooks;
        hooks.post = [this](std::uint64_t sid, SessionCmd cmd) { post_cmd(sid, cmd); };
        hooks.register_task = [this](std::uint64_t sid, EngineTask* task) {
            pool_.add(sid, task, [this](std::uint64_t done_id) {
                post_cmd(done_id, SessionCmd::TaskDone);
            });
        };
        hooks.notify_task = [this](std::uint64_t sid) { pool_.notify(sid); };
        auto session = std::make_unique<ServerSession>(
            id, fd, config_.session, &registry_, registry_.make_shard(),
            std::move(hooks), &hub_, &compile_cache_);
        if (!io_.add(fd, id, net::Reactor::kRead)) {
            // Registration failed — drop the connection, keep the server.
            continue;  // session destructor closes fd (and retires the shard)
        }
        session->set_armed_mask(net::Reactor::kRead);
        server_shard_->add(obs::Series{obs::sid::kSessionsAccepted}, 1);
        server_shard_->add(obs::Series{obs::sid::kSessionsLive}, 1);
        sessions_.emplace(id, std::move(session));
    }
}

// --- admin scrape endpoint (§12) --------------------------------------------

void CepServer::accept_admin_clients() {
    for (;;) {
        const int fd = ::accept4(admin_listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return;  // EAGAIN or a transient failure — nothing to accept
        }
        const auto id = next_session_id_++;
        if (!io_.add(fd, id, net::Reactor::kRead)) {
            ::close(fd);
            continue;
        }
        AdminConn conn;
        conn.fd = fd;
        admin_conns_.emplace(id, std::move(conn));
    }
}

void CepServer::close_admin(std::uint64_t id) {
    const auto it = admin_conns_.find(id);
    if (it == admin_conns_.end()) return;
    io_.del(it->second.fd);
    ::close(it->second.fd);
    admin_conns_.erase(it);
}

void CepServer::handle_admin_event(std::uint64_t id, const net::IoEvent& event) {
    const auto it = admin_conns_.find(id);
    if (it == admin_conns_.end()) return;
    AdminConn& conn = it->second;
    if ((event.readable || event.err_hup) && conn.out.empty()) {
        bool eof = false;
        char chunk[4096];
        for (;;) {
            const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            if (n <= 0) {
                eof = true;  // EOF or hard error: no more request bytes coming
                break;
            }
            conn.in.append(chunk, static_cast<std::size_t>(n));
            if (conn.in.size() > kMaxAdminRequest) {
                close_admin(id);
                return;
            }
            if (conn.in.find("\r\n\r\n") != std::string::npos) break;
        }
        const bool complete = conn.in.find("\r\n\r\n") != std::string::npos;
        if (!complete) {
            // A bare scrape may write "GET / HTTP/1.0\r\n\r\n" then half-close,
            // or skip headers entirely; treat EOF-with-bytes as a request.
            // EOF with nothing received (or headers still in flight) ends here.
            if (!eof) return;
            if (conn.in.empty()) {
                close_admin(id);
                return;
            }
        }
        // Method gate: only GET serves a scrape. A POST, a TLS ClientHello,
        // or plain garbage followed by EOF used to fall through here and
        // collect a 200 — now anything that doesn't start with "GET " gets a
        // 400 and the close. (A bare "GET /\r\n\r\n" half-close still works.)
        if (conn.in.rfind("GET ", 0) != 0) {
            conn.out = "HTTP/1.0 400 Bad Request\r\n"
                       "Content-Length: 0\r\n"
                       "Connection: close\r\n\r\n";
        } else {
            // A live snapshot: aggregates every session/worker shard while
            // they keep writing — no worker stops, no session pauses (§12).
            const std::string body = registry_.prometheus();
            conn.out = "HTTP/1.0 200 OK\r\n"
                       "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                       "Content-Length: " + std::to_string(body.size()) + "\r\n"
                       "Connection: close\r\n\r\n";
            conn.out += body;
        }
        io_.mod(conn.fd, id, net::Reactor::kWrite);
    }
    if (conn.out.empty()) return;
    // Flush the response; close when done (Connection: close semantics).
    while (conn.off < conn.out.size()) {
        const ssize_t w = ::send(conn.fd, conn.out.data() + conn.off,
                                 conn.out.size() - conn.off,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w > 0) {
            conn.off += static_cast<std::size_t>(w);
            continue;
        }
        if (w < 0 && errno == EINTR) continue;
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;  // write armed
        close_admin(id);
        return;
    }
    close_admin(id);
}

void CepServer::handle_session_event(std::uint64_t id, const net::IoEvent& event) {
    if (event.writable) handle_writable(id);
    if (event.readable || event.err_hup) handle_readable(id);
    // A hung-up fd with a live engine would re-report ERR/HUP every wait
    // (level-triggered) — detach it; completion still arrives via TaskDone.
    if (event.err_hup) {
        const auto it = sessions_.find(id);
        if (it == sessions_.end()) return;
        ServerSession& s = *it->second;
        if (!s.egress_pending()) {
            io_.del(s.fd());
            s.set_armed_mask(0);
        }
    }
}

void CepServer::handle_readable(std::uint64_t id) {
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;  // reaped earlier this batch
    ServerSession& s = *it->second;
    if (s.input_done()) return;
    // on_readable drains the reactor until Again (scatter-decoding DATA
    // frames straight into the session's store, §14).
    for (;;) switch (s.on_readable(io_)) {
        case SessionStatus::Open:
            update_interest(s);
            return;
        case SessionStatus::Paused:
            // Ingest high watermark: stop reading; the task posts ResumeRead
            // once it drains below the low watermark (§9 backpressure).
            // Publish the pause, then re-check the queue level: the task may
            // have drained past the watermark (and missed the flag) between
            // the append that tripped the limit and now — pausing then would
            // strand a session the task has already parked.
            s.set_read_paused(true);
            if (!s.ingest_above_low()) {
                s.set_read_paused(false);
                continue;  // keep reading — the task raced ahead
            }
            update_interest(s);
            return;
        case SessionStatus::Finished:
            if (s.lingering()) {
                // Rejected handshake, half-closed after its ERROR: keep
                // reading (and discarding) until EOF or the deadline.
                start_lingering(id);
                update_interest(s);
                return;
            }
            s.set_input_done();
            // Input side is over (clean EOF, BYE'd out, or failed). Egress
            // may still be running; the session stays until its task is done
            // and its buffer drained.
            if (!s.task_registered()) {
                // Task-less sessions (AwaitHello rejects, §15 publishers) may
                // still owe buffered egress — a publisher's BYE reply, a
                // reject's ERROR that didn't flush in one send. Failed
                // sessions poisoned their egress (idle), so they still die
                // here immediately; otherwise maybe_reap finishes the job
                // once the buffer drains.
                if (s.egress_idle()) {
                    destroy_session(it);
                    return;
                }
                update_interest(s);
                return;
            }
            maybe_reap(id);
            return;
    }
}

void CepServer::handle_writable(std::uint64_t id) {
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    ServerSession& s = *it->second;
    // flush_egress poisons + fails the session on a transport error and
    // notifies a task parked on egress credit once room is available.
    s.flush_egress();
    maybe_reap(id);
}

void CepServer::drain_wake_and_commands() {
    std::vector<std::pair<std::uint64_t, SessionCmd>> cmds;
    {
        const std::lock_guard<std::mutex> lock(cmd_mutex_);
        cmds.swap(cmds_);
    }
    for (const auto& [id, cmd] : cmds) {
        // TaskDone commands carry a *task* id; a sharded session owns one
        // task per shard, all mapping back to its session id (§10).
        const auto sid = session_of_task(id);
        const auto it = sessions_.find(sid);
        if (it == sessions_.end()) continue;  // already reaped
        ServerSession& s = *it->second;
        switch (cmd) {
            case SessionCmd::ResumeRead:
                if (!s.input_done()) {
                    update_interest(s);
                    // Frames decoded before the pause may still be buffered;
                    // dispatch them now — no new bytes will push them out.
                    handle_readable(sid);
                }
                break;
            case SessionCmd::WatchWrite:
                s.ack_watch_write();
                // Opportunistic flush first — often drains without polling.
                s.flush_egress();
                maybe_reap(sid);
                break;
            case SessionCmd::TaskDone:
                // Posted after the pool forgot the task and the final
                // quantum returned — only once every task of the session is
                // done is destruction safe.
                s.note_task_done();
                maybe_reap(sid);
                break;
        }
    }
}

void CepServer::maybe_reap(std::uint64_t id) {
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    ServerSession& s = *it->second;
    // With a task: done means every task reported TaskDone. Without one (§15
    // publishers, rejected handshakes): done means the input side ended —
    // never true while a healthy session still awaits its HELLO.
    const bool done = s.task_registered() ? s.task_done() : s.input_done();
    if (done && s.egress_idle()) {
        destroy_session(it);
        return;
    }
    update_interest(s);
}

void CepServer::destroy_session(SessionMap::iterator it) {
    // §15: leaving the hub may orphan subscribers (publisher died before
    // closing its stream) — fail each one after the erase, so a subscriber
    // reaped inside the loop can't invalidate our iterator.
    const std::vector<ServerSession*> to_fail = it->second->hub_detach();
    io_.del(it->second->fd());  // may already be detached — harmless
    server_shard_->sub(obs::Series{obs::sid::kSessionsLive}, 1);
    sessions_.erase(it);
    for (ServerSession* sub : to_fail) {
        const std::uint64_t sid = sub->id();
        sub->fail_publisher_gone();  // sets input_done; task exits via abort
        maybe_reap(sid);
    }
}

void CepServer::start_lingering(std::uint64_t id) {
    // Every linger lasts kLinger, so deadlines queue in arrival order.
    lingering_.emplace_back(std::chrono::steady_clock::now() + kLinger, id);
    if (lingering_.size() == 1) arm_linger_timer();
}

void CepServer::expire_lingering() {
    std::uint64_t expirations = 0;
    [[maybe_unused]] const auto n = ::read(linger_timer_fd_, &expirations, sizeof(expirations));
    const auto now = std::chrono::steady_clock::now();
    while (!lingering_.empty() && lingering_.front().first <= now) {
        const auto it = sessions_.find(lingering_.front().second);
        lingering_.pop_front();
        // Sessions that saw EOF were reaped already (ids are never reused).
        if (it != sessions_.end() && it->second->lingering()) destroy_session(it);
    }
    arm_linger_timer();
}

void CepServer::arm_linger_timer() {
    if (lingering_.empty()) return;
    const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
        lingering_.front().first - std::chrono::steady_clock::now());
    const std::int64_t ns = std::max<std::int64_t>(wait.count(), 1);  // 0 would disarm
    itimerspec spec{};
    spec.it_value.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
    spec.it_value.tv_nsec = static_cast<long>(ns % 1'000'000'000);
    ::timerfd_settime(linger_timer_fd_, 0, &spec, nullptr);
}

void CepServer::update_interest(ServerSession& s) {
    std::uint32_t mask = 0;
    if (!s.input_done() && !s.read_paused()) mask |= net::Reactor::kRead;
    if (s.egress_pending()) mask |= net::Reactor::kWrite;
    if (mask == s.armed_mask()) return;
    // mod may fail with ENOENT after an ERR/HUP detach; that fd is done
    // delivering events, so the stale mask is harmless.
    if (io_.mod(s.fd(), s.id(), mask)) s.set_armed_mask(mask);
}

}  // namespace spectre::server
