// Server-side session: one connected client of the multi-session CEP server
// (DESIGN.md §8), scheduled on the shared engine worker pool (§9).
//
// A session is one stream entry plus at most one engine. At HELLO it takes a
// StreamEntry (server/stream_hub.hpp) for its whole life — a private one it
// alone reads (standalone), or the hub's named one (publish, subscribe) — and
// every role but publish runs one cooperatively-scheduled engine over the
// entry's store, read through one ChunkPins cursor: an engine::LaneEngine
// (SPECTRE with HELLO's k operator instances, or the sequential stepper when
// k = 0), or a ShardedEngine for a partitioned query, whose shards all read
// that store.
// The reactor thread (server/cep_server.hpp) feeds raw socket bytes in; the
// session's state machine decodes typed frames (net/session.hpp) and drives:
//
//   AwaitHello --HELLO--> Streaming --BYE / clean EOF--> Draining
//        \                    \                             engine finishes,
//         \--anything else     \--corrupt frame/protocol    sends BYE, done
//             = Failed             error = Failed (ERROR frame, disconnect)
//
// Failure isolation: every per-session error — corrupt frame, bad query,
// protocol violation, death mid-frame — fails only this session; the reactor
// loop never sees an exception (§8 session lifecycle).
//
// Threading (§9/§14): the reactor runs on_readable()/flush_egress()/abort();
// the session's engine runs as one pool task per lane — one lane for an
// unsharded session, one per shard for a sharded one, whatever its role —
// and one worker at a time runs a given lane (serialized by the pool's task
// state machine — the engine state needs no locks). The two sides meet:
//
//   * Ingest (§14 scatter path): the reactor decodes DATA frames straight out
//     of the reactor's read view into the entry's EventStore — one copy off
//     the socket, published once per read view, for every engine. Backpressure
//     is a pacing counter: after every step the worker stores what its
//     engine has processed into `accepted_` (LaneEngine::processed(),
//     whichever k, or the sharded engine's slowest scan cursor); when the
//     frontier runs ahead of it by the high watermark the reactor pauses the
//     *reader*, never a thread. Control frames and partial frame tails still
//     stage through the FrameReader (the copied-byte path, which the §12
//     counters keep visibly rare).
//   * Egress: the task appends encoded RESULT/BYE frames into an EgressRing
//     when it has credit; both sides flush non-blockingly with one vectored
//     send per burst; an over-cap ring parks the *task*, never a worker.
//
// Nothing in this file blocks on a socket, and no per-session thread exists.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/stock.hpp"
#include "detect/compile_cache.hpp"
#include "detect/compiled_query.hpp"
#include "engine/lane_engine.hpp"
#include "event/chunk_pins.hpp"
#include "event/stream.hpp"
#include "net/egress_ring.hpp"
#include "net/reactor.hpp"
#include "net/session.hpp"
#include "obs/metrics.hpp"
#include "server/engine_pool.hpp"
#include "server/stream_hub.hpp"
#include "shard/sharded_engine.hpp"

namespace spectre::server {

// Pool task ids (§10): a session owns one engine task per lane (one total
// when unsharded). The session id lives in the low 48 bits, the lane index
// in the high 16 — commands posted with a task id map back to their session,
// and lane 0's task id is the session id itself.
inline constexpr std::uint64_t kTaskSessionMask = (std::uint64_t{1} << 48) - 1;
inline std::uint64_t shard_task_id(std::uint64_t session, std::uint32_t shard) {
    return session | (std::uint64_t{shard} << 48);
}
inline std::uint64_t session_of_task(std::uint64_t task_id) {
    return task_id & kTaskSessionMask;
}

// Server-wide counters live on the metrics plane (obs::Registry, DESIGN.md
// §12): each session owns one obs::Shard whose cells both sides update
// (the reactor writes ingest-side series, the session's current pool worker
// writes engine-side series); the server aggregates every shard at scrape
// time.

struct SessionLimits {
    int max_instances = 8;          // cap on HELLO's k
    int max_shards = 16;            // cap on HELLO's shard count (§10)
    std::size_t batch_events = 64;  // engine batch + per-step budget (k > 0)
    // Pool scheduling quantum (§9): engine steps per run_quantum() — the
    // slice after which a runnable session yields its worker.
    std::size_t quantum_steps = 32;
    // Sequential-engine windows per step; bounds the egress burst one credit
    // check can miss (SPECTRE's burst is bounded by the splitter lookahead).
    std::size_t quantum_windows = 4;
    // Ingest high watermark: once the store frontier runs this many events
    // ahead of the task's accepted counter the reactor stops reading the
    // session's socket (TCP backpressure to the client); reading resumes
    // below half of it.
    std::size_t ingest_queue_events = 1024;
    // Egress credit: while more than this many bytes are buffered for a slow
    // result reader, the engine task parks (§9 backpressure).
    std::size_t egress_buffer_bytes = 256 * 1024;
};

// What a session is to the shared ingest plane (DESIGN.md §15). HELLO v1 and
// a v2 `role=standalone` both yield Standalone — the pre-§15 private-stream
// session. `role=publish` owns a named StreamHub entry and carries only DATA;
// `role=subscribe` attaches a query to a published stream and carries none.
enum class SessionRole : std::uint8_t { Standalone, Publisher, Subscriber };

// What the reactor should do with the connection after feeding it input.
enum class SessionStatus {
    Open,      // keep watching the fd for input
    Paused,    // ingest ran ahead — stop reading until the task accepts it
    Finished,  // stop watching; egress (if an engine runs) continues
};

// Commands a session posts to the reactor from a pool worker (applied on the
// reactor thread, which owns the epoll interest sets).
enum class SessionCmd : std::uint8_t {
    ResumeRead,  // ingest drained below the low watermark
    WatchWrite,  // egress bytes pending — arm write interest
    TaskDone,    // engine task finished — reap once egress drains
};

// How the session reaches the server: post a command + wake the reactor
// (any thread), register the engine task on the pool (reactor thread, at
// HELLO), schedule a parked task (any thread).
struct SessionHooks {
    std::function<void(std::uint64_t, SessionCmd)> post;
    std::function<void(std::uint64_t, EngineTask*)> register_task;
    std::function<void(std::uint64_t)> notify_task;
};

class ServerSession final {
public:
    // Takes ownership of `fd` (non-blocking). `registry`/`shard` are the
    // session's metrics scope (§12): `shard` must have been created from
    // `registry` and the registry must outlive the session — the destructor
    // retires the shard (folding its counters into the retained block).
    // `hub`/`cache` wire the session into the shared ingest plane (§15); null
    // disables HELLO v2 publish/subscribe roles (standalone still works).
    ServerSession(std::uint64_t id, int fd, SessionLimits limits, obs::Registry* registry,
                  obs::ShardPtr shard, SessionHooks hooks, StreamHub* hub = nullptr,
                  detect::CompileCache* cache = nullptr);
    ~ServerSession();  // closes the fd (callers stop the pool first)

    ServerSession(const ServerSession&) = delete;
    ServerSession& operator=(const ServerSession&) = delete;

    std::uint64_t id() const noexcept { return id_; }
    int fd() const noexcept { return fd_; }

    // --- reactor side --------------------------------------------------------

    // The fd is readable (or a ResumeRead re-entry): polls frames already
    // staged, then drains the reactor's read views for this fd (§14 scatter
    // decode), dispatching every frame. Never throws — any failure fails
    // this session only.
    SessionStatus on_readable(net::Reactor& io);

    // The fd is writable: flush buffered egress bytes. Returns true when the
    // flush made credit available or emptied the buffer (the reactor then
    // notifies a task parked on egress). A transport error poisons egress.
    bool flush_egress();

    // True once HELLO registered engine task(s); a finished session without a
    // task can be destroyed immediately, one with tasks is reaped after every
    // task's TaskDone command arrives.
    bool task_registered() const noexcept { return task_registered_; }
    // Reactor bookkeeping: one task's TaskDone command arrived (a sharded
    // session owns one task per shard, §10). Reaping is gated on all of them
    // — never on worker-side state — so a session is only destroyed after
    // the pool has forgotten every task and each final quantum has fully
    // returned (the TaskDone posts happen-after both).
    void note_task_done() noexcept { ++tasks_done_; }
    bool task_done() const noexcept {
        const auto expected = tasks_expected_.load(std::memory_order_relaxed);
        return expected > 0 && tasks_done_ >= expected;
    }
    // Reap gate: nothing left to send (or nobody to send it to).
    bool egress_idle() const;
    // Bytes currently buffered for this client (reactor interest mask).
    bool egress_pending() const;

    // Resume-read gate, owned by the reactor: true while the reactor has
    // stopped reading this fd (set on Paused, cleared when ResumeRead is
    // applied). The task uses it to post ResumeRead exactly once. seq_cst:
    // the reactor stores it and then loads the in-flight count, the task
    // publishes its credit and then exchanges it — a store-load pair each
    // way, where anything weaker lets both sides miss the other and strands
    // a paused session whose lanes all parked.
    void set_read_paused(bool paused) noexcept {
        read_paused_.store(paused, std::memory_order_seq_cst);
    }
    bool read_paused() const noexcept {
        return read_paused_.load(std::memory_order_acquire);
    }
    // Pause double-check (§9, reactor side): after publishing read_paused,
    // the reactor verifies ingest still sits at or above the low watermark —
    // the task may have accepted past it (and missed the flag) in between.
    // Below the watermark the reactor unpauses and keeps reading instead.
    bool ingest_above_low() const;

    // Reactor bookkeeping: input side finished (EOF / BYE'd out / failed).
    bool input_done() const noexcept { return input_done_; }
    void set_input_done() noexcept { input_done_ = true; }
    // Epoll interest currently armed for this fd (Reactor mask bits).
    std::uint32_t armed_mask() const noexcept { return armed_mask_; }
    void set_armed_mask(std::uint32_t mask) noexcept { armed_mask_ = mask; }
    // The reactor handled this session's WatchWrite command; the task may
    // post another when new egress bytes appear.
    void ack_watch_write() noexcept {
        watch_write_requested_.store(false, std::memory_order_release);
    }

    // Server shutdown: poison egress, close ingestion, shut the socket down,
    // and ask the task to abandon its engine on its next quantum. Safe from
    // the server thread at any point; idempotent.
    void abort();

    // Lingering close (reactor thread): a rejected handshake sent its ERROR
    // and half-closed; on_readable now discards input and reports Finished
    // at EOF. The reactor reaps it then, or at its linger deadline.
    bool lingering() const noexcept { return lingering_; }

    // --- shared ingest plane (§15, reactor thread) ---------------------------

    // Drops the session's hub registration and its chunk pin (idempotent);
    // the entry itself stays held. A subscriber leaves the entry's reader
    // list; a publisher marks the stream gone and returns the subscribers the
    // caller must fail (mid-stream death) — the destructor also detaches but
    // ignores that list (server-stop teardown destroys everyone anyway).
    std::vector<ServerSession*> hub_detach();
    // Reactor-side error injection for those returned subscribers: fails the
    // session with the hub entry's recorded reason (ERROR frame + teardown).
    void fail_publisher_gone();

    // Test seam: replaces the vectored-send function the egress ring flushes
    // through (default: sendmsg on the session fd). Call before any egress.
    void set_sendv_for_test(net::EgressRing::SendvFn fn) { sendv_ = std::move(fn); }

private:
    enum class State { AwaitHello, Streaming, Draining, Failed };

    // One engine task on the pool (§9/§10). Every lane runs the same quantum
    // loop (run_lane) and park protocol; only step_lane/lane_parkable know
    // whether a ShardedEngine or the one LaneEngine is behind it. Lane
    // `index` is shard `index` of a sharded session, or the single lane 0 of
    // any other.
    struct Lane final : EngineTask {
        Lane(ServerSession* s, std::uint32_t i) : session(s), index(i) {}
        Quantum run_quantum() override { return session->run_lane(*this); }
        ServerSession* const session;
        const std::uint32_t index;
        ParkFlag on_input;   // starved: woken by ingest, close or a handoff
        ParkFlag on_egress;  // out of credit: woken by a reactor flush
        // Egress-credit stall stamp (§12), lane-private: set when a quantum
        // parks on credit, observed (stall duration) at the lane's next one.
        std::uint64_t stall_ns = 0;
        // The last chunk floor this lane advanced the session's pin to.
        event::Seq reclaimed_floor = 0;
    };
    // What one engine step left the lane with (step_lane).
    enum class LaneStep { Busy, Idle, LaneDone, AllDone };
    using Quantum = EngineTask::Quantum;

    SessionStatus dispatch(net::SessionFrame&& frame);
    // One decoded HELLO, v1 or v2 (§15). A v1 HELLO is a standalone one
    // without the capability echo; decode_hello reads a v2 one.
    struct Handshake {
        net::HelloFrame hello;  // query, k, shard count, partition key
        SessionRole role = SessionRole::Standalone;
        bool v2 = false;    // answer with the capability echo
        std::string stream{};
        std::string error{};  // a v2 value that does not decode
    };
    static Handshake decode_hello(const net::Hello2Frame& hello);
    // The one handshake path: limits, the entry by role, the query compile,
    // the read pin, the v2 capability echo, then the engine (every role but
    // publish).
    SessionStatus on_hello(Handshake&& hs);
    // Builds the engine over the entry's store — a ShardedEngine of `shards`
    // lanes for a partitioned query, else one LaneEngine with HELLO's k —
    // with the result sink feeding egress, then registers its lanes.
    void start_engine(std::uint32_t shards);
    // STATS request (§12): buffers a StatsFrame reply carrying the server-wide
    // registry aggregate plus this session's own shard, as one JSON object.
    SessionStatus on_stats();
    SessionStatus on_end_of_input();
    // Fails the session: optionally buffers an ERROR frame (flushed
    // best-effort), poisons egress, closes ingestion, shuts the socket down
    // and wakes the task so it can abandon its engine.
    SessionStatus fail(const std::string& message, bool send_error);
    // Poison egress, close ingestion, abort + wake the task, and shut the
    // socket down `shut_how` (SHUT_WR for a lingering close).
    void teardown(int shut_how);
    // Lingering input drain: discard until Again (Open) or EOF (Finished).
    SessionStatus drain_lingering(net::Reactor& io);
    // `close_store` only from reactor dispatch paths (BYE / clean EOF): the
    // reactor is the sole appender, so no append can race the close. Abort
    // paths (worker-side engine failure, server stop) never close the store
    // — their task exits via abort_requested_, not engine completion.
    void close_ingestion(bool close_store);
    // sessions_failed exactly once per session, and never after its BYE.
    void count_failed_once();

    // Scatter ingest (§14, reactor thread).
    // Walks one reactor read view: DATA frames decode in place into the
    // entry's store; control frames and partial tails stage through reader_.
    SessionStatus consume_view(const std::uint8_t* data, std::size_t size);
    // Dispatches every whole frame staged in reader_ until a non-Open status;
    // Open once reader_ is empty or holds only a partial frame.
    SessionStatus dispatch_staged();
    // Stages view bytes [pos, size) into reader_, counting the copy (§12).
    void stage_tail(const std::uint8_t* data, std::size_t size, std::size_t& pos);
    // Takes one decoded quote into an unpublished slot of the entry's store.
    // Returns Paused once in-flight (stored, not yet processed) hits the
    // high watermark; a publisher is never paused.
    SessionStatus ingest(event::Event&& ev);
    // Hands over everything ingested since the last call, then wakes each
    // lane once: release-publishes the scatter slots and wakes every reader
    // of the entry (§15 fan-out: a published stream's subscribers, or a
    // standalone session itself). Called at the end of every read view,
    // before a pause, before a control frame is dispatched and before close.
    void publish_ingest();
    // New input or end-of-stream was published (by this session's reactor
    // side, or by a publisher for a subscriber): pass the §9 barrier — an
    // empty ingest_mutex_ section, which orders the publish against a lane's
    // publish-park-then-recheck (either the lane sees the new frontier or
    // this thread sees its flag, never neither) — observe the lane depths,
    // then wake parked lanes.
    void wake_input_lanes();

    // Posts ResumeRead once in-flight drops below the low watermark (exactly
    // once per pause — the read_paused_ exchange is the dedup).
    void resume_read_if_low();

    // Egress ring (task → reactor/socket).
    // False when poisoned or sealed. RESULT frames count into results_sent_.
    bool egress_append(const net::SessionFrame& frame);
    // The session's one BYE, on every path (engine finish, early unsubscribe,
    // publisher BYE): appends BYE{results_sent_} and seals the ring, so every
    // later append is refused, the BYE is the last frame and its count exact.
    // The sealing call counts a session with an engine completed. No-op when
    // already sealed or poisoned.
    void seal_with_bye();
    // Non-blocking vectored flush of buffered bytes into the socket; returns
    // false on a transport error (egress poisoned). Either side may call it.
    bool egress_try_flush();
    void egress_poison();
    bool egress_has_credit() const;
    // Publishes the session's current egress backlog (gauge + peak) after a
    // buffer mutation; callers hold egress_mutex_.
    void account_egress(std::size_t now_bytes);

    // Result-latency clock (§12): the reactor stamps each DATA arrival by
    // global seq; the worker-side result sink maps a complex event's last
    // constituent back to its stamp. No-ops when obs is disabled.
    void stamp_arrival();
    void observe_result_latency(const event::ComplexEvent& ce,
                                std::uint64_t prev_results);
    // Per-shard depth — input the shard has not scanned (lane_depth,
    // lane_depth_peak{shard}) — and its max-min over the lanes (lane_skew),
    // once per publish (reactor side, sharded sessions only).
    void observe_lane_depths();
    // Observes kEgressStallNs if the lane's previous quantum parked on
    // egress credit.
    void note_stall_end(std::uint64_t& stamp);

    // --- pool worker side (one lane's quantum) -------------------------------

    // One bounded quantum of `lane`: up to quantum_steps iterations of credit
    // gate → one engine step → exit on completion or park on starvation (§9).
    Quantum run_lane(Lane& lane);
    // One engine step for `lane`, at the engine's own per-step budget; then
    // the credit and the pin follow the engine.
    LaneStep step_lane(Lane& lane);
    // Park predicate for an idle lane, evaluated after publishing intent.
    bool lane_parkable(std::uint32_t index);
    // Producer side of the park protocol: wake lane `s` if it parked on
    // `flag`, or every live lane. A null flag notifies unconditionally.
    void wake_lane(std::uint32_t s, ParkFlag Lane::*flag);
    void wake_lanes(ParkFlag Lane::*flag);
    // Bounded memory (§6/§15), after each engine step: once the engine's
    // low watermark crosses a chunk boundary the lane has not yet passed,
    // advance the session's pin to it (the store frees behind its slowest
    // pinned reader; the pin ignores a lane that lags another).
    void reclaim_behind(Lane& lane, event::Seq watermark);
    // Raises the pin to the frontier, then BYE (first caller), Done.
    Quantum finish_engine(Lane& lane);
    Quantum engine_failed(const std::string& what);
    void request_watch_write();

    const std::uint64_t id_;
    const int fd_;
    const SessionLimits limits_;
    obs::Registry* registry_;
    obs::ShardPtr shard_;  // this session's metrics scope (§12)
    SessionHooks hooks_;

    State state_ = State::AwaitHello;
    net::FrameReader reader_;
    // Reactor-thread-only bookkeeping (no locks needed) — except
    // tasks_expected_, which worker threads also read (wake_lanes), hence
    // the atomic.
    bool input_done_ = false;
    bool lingering_ = false;
    std::atomic<std::uint32_t> tasks_expected_{0};  // live lane count (§10)
    std::uint32_t tasks_done_ = 0;
    std::uint32_t armed_mask_ = 0;

    // Set on HELLO. cq_ is shared: subscriber sessions may hold the same
    // compiled artifact as their siblings via the server's CompileCache (§15)
    // — it is immutable after construction, so sharing is free.
    data::StockVocab vocab_;
    std::shared_ptr<const detect::CompiledQuery> cq_;
    std::uint32_t instances_ = 0;
    bool task_registered_ = false;

    // The session's stream (§15), set at HELLO and held for the session's
    // whole life — the store must outlive the engine stepping it; hub_detach
    // drops only the hub registration and the pin. pin_cursor_ is the
    // session's one read pin on it (none for a publisher), and its freed
    // chunks count into chunks_reclaimed_: store_chunks_reclaimed for a
    // private entry, hub_chunks_reclaimed for a published one.
    StreamHub* hub_;
    detect::CompileCache* cache_;
    SessionRole role_ = SessionRole::Standalone;
    StreamHub::EntryPtr entry_;
    event::ChunkPins::Cursor pin_cursor_ = event::ChunkPins::kInvalidCursor;
    obs::Series chunks_reclaimed_{obs::sid::kStoreChunksReclaimed};

    // Engine: exactly one of the two after HELLO, driven by lanes_ — one
    // per shard, allocated and registered once at HELLO.
    std::unique_ptr<engine::LaneEngine> engine_;
    std::unique_ptr<shard::ShardedEngine> sharded_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    // Per-shard-index depth peaks (§12, bounded by max_shards): resolved at
    // HELLO against names the server pre-registered, e.g.
    // lane_depth_peak{shard="3"}. Reactor-written.
    std::vector<obs::Series> lane_peaks_;

    // Ingest pacing (§14): the reactor appends straight into the entry's
    // store (frontier = its size()); after every step the worker stores the
    // engine's processed() into accepted_. in-flight = frontier -
    // accepted_ is the queue depth the watermarks bound. ingest_mutex_
    // orders the park handshake (see publish_ingest) and guards
    // ingest_closed_.
    std::size_t unpublished_ = 0;  // reactor-only: ingested, not yet published
    mutable std::mutex ingest_mutex_;
    bool ingest_closed_ = false;
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<bool> read_paused_{false};

    // Egress ring (§14): encoded frames waiting for the socket, flushed with
    // vectored sends. sendv_ defaults to sendmsg on fd_; injectable by tests.
    // egress_sealed_ (set by the session's one BYE) and results_sent_ (the
    // RESULT frames appended before it) change only under egress_mutex_.
    mutable std::mutex egress_mutex_;
    net::EgressRing egress_;
    net::EgressRing::SendvFn sendv_;
    std::atomic<bool> egress_dead_{false};
    bool egress_sealed_ = false;
    std::atomic<std::uint64_t> results_sent_{0};
    std::atomic<bool> watch_write_requested_{false};

    // Arrival clock ring (§12): reactor pushes one CLOCK_MONOTONIC stamp per
    // DATA event (index = global seq - arrival_base_); the result sink looks
    // stamps up under the same lock. Bounded: entries evicted past the cap
    // simply miss their observation, they never block ingest. Empty when obs
    // is disabled.
    static constexpr std::size_t kArrivalCap = std::size_t{1} << 16;
    mutable std::mutex arrival_mutex_;
    std::deque<std::uint64_t> arrival_ns_;
    std::uint64_t arrival_base_ = 0;   // seq of arrival_ns_.front()
    std::uint64_t first_data_ns_ = 0;  // first DATA arrival stamp

    std::atomic<bool> abort_requested_{false};
    // Single-winner outcome latch: a session with an engine is counted
    // exactly once, as either completed (BYE buffered) or failed — whichever
    // exchanges the latch first. Closes the race between the worker
    // finishing and the reactor failing the same session concurrently.
    std::atomic<bool> outcome_counted_{false};
};

}  // namespace spectre::server
