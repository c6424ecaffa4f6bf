#include "server/session.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "query/parser.hpp"

namespace spectre::server {

namespace {

// Degenerate knobs would wedge the scheduling loops (a < 2 ingest cap makes
// the resume low-watermark zero — reads never resume; a zero quantum makes a
// drain report pending work while processing nothing). Clamp, don't reject:
// a session must never fail over a tuning value.
SessionLimits sanitized(SessionLimits limits) {
    limits.batch_events = std::max<std::size_t>(limits.batch_events, 1);
    limits.quantum_steps = std::max<std::size_t>(limits.quantum_steps, 1);
    limits.quantum_windows = std::max<std::size_t>(limits.quantum_windows, 1);
    limits.ingest_queue_events = std::max<std::size_t>(limits.ingest_queue_events, 2);
    limits.egress_buffer_bytes = std::max<std::size_t>(limits.egress_buffer_bytes, 1);
    return limits;
}

}  // namespace

ServerSession::ServerSession(std::uint64_t id, int fd, SessionLimits limits,
                             obs::Registry* registry, obs::ShardPtr shard,
                             SessionHooks hooks, StreamHub* hub,
                             detect::CompileCache* cache)
    : id_(id), fd_(fd), limits_(sanitized(limits)), registry_(registry),
      shard_(std::move(shard)), hooks_(std::move(hooks)), hub_(hub), cache_(cache),
      sendv_([fd](const struct iovec* iov, int iovcnt) -> ssize_t {
          struct msghdr msg {};
          msg.msg_iov = const_cast<struct iovec*>(iov);
          msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
          return ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
      }) {}

ServerSession::~ServerSession() {
    // Callers guarantee no worker is inside a lane (every lane finished,
    // or the pool was stopped first).
    // Quiet hub detach (§15): drops the pin / marks the publisher gone. The
    // returned fail list is ignored — this path is server-stop teardown
    // (destroy_session detaches explicitly first and handles the list).
    hub_detach();
    {
        const std::lock_guard<std::mutex> lock(egress_mutex_);
        account_egress(0);
        egress_.clear();
    }
    // Retire the shard: counters fold into the registry's retained block, so
    // server totals stay monotone across session churn.
    registry_->retire(shard_);
    ::close(fd_);
}

// --- reactor side: ingest (§14 scatter path) --------------------------------

SessionStatus ServerSession::on_readable(net::Reactor& io) {
    if (lingering_) return drain_lingering(io);
    for (;;) {
        // Frames already staged first: a ResumeRead re-entry must not wait
        // for new bytes to dispatch what was decoded before the pause. They
        // go out as one hand-off.
        const auto staged = dispatch_staged();
        publish_ingest();
        if (staged != SessionStatus::Open) return staged;
        net::Reactor::ReadView view;
        const auto rs = io.read(fd_, view);
        if (rs == net::Reactor::ReadStatus::Again)
            return SessionStatus::Open;  // drained for now
        if (rs == net::Reactor::ReadStatus::Eof) return on_end_of_input();
        if (rs == net::Reactor::ReadStatus::Error)
            // Peer reset / transport error: the client is gone, so there is
            // nobody to send ERROR to.
            return fail(std::string("read failed: ") + std::strerror(io.read_error()),
                        /*send_error=*/false);
        shard_->add(obs::Series{obs::sid::kIngestReads}, 1);
        shard_->add(obs::Series{obs::sid::kIngestWireBytes}, view.size);
        const auto status = consume_view(view.data, view.size);
        if (status != SessionStatus::Open) return status;
    }
}

SessionStatus ServerSession::dispatch_staged() {
    while (!reader_.empty()) {
        std::optional<net::SessionFrame> frame;
        try {
            frame = reader_.poll();
        } catch (const std::exception& e) {
            // Corrupt frame: framing is lost, the session is unrecoverable —
            // but only this session (ERROR + disconnect).
            publish_ingest();
            return fail(std::string("corrupt frame: ") + e.what(), /*send_error=*/true);
        }
        if (!frame) break;  // mid-frame tail — need more bytes
        shard_->add(obs::Series{obs::sid::kIngestFramesStaged}, 1);
        const auto status = dispatch(std::move(*frame));
        if (status != SessionStatus::Open) return status;
    }
    return SessionStatus::Open;
}

void ServerSession::stage_tail(const std::uint8_t* data, std::size_t size,
                               std::size_t& pos) {
    if (pos >= size) return;
    reader_.feed(data + pos, size - pos);
    shard_->add(obs::Series{obs::sid::kIngestCopiedBytes}, size - pos);
    pos = size;
}

SessionStatus ServerSession::consume_view(const std::uint8_t* data, std::size_t size) {
    // Bounded staging feed: a lone control frame must not drag the rest of
    // the view through the copy path — feed one chunk, poll it, and return
    // to the scatter fast path as soon as the reader drains.
    constexpr std::size_t kStageChunk = 4096;
    std::size_t pos = 0;
    std::uint64_t scattered = 0;  // DATA frames decoded in place (§12)
    // Every exit hands the view's events over in one publish (§10/§14).
    const auto flush = [this, &scattered] {
        publish_ingest();
        if (scattered == 0) return;
        shard_->add(obs::Series{obs::sid::kIngestFramesScatter}, scattered);
        scattered = 0;
    };
    while (pos < size) {
        // Subscribers never carry DATA — route everything through the staged
        // decode so a stray DATA frame surfaces as a protocol error below.
        if (state_ == State::Streaming && role_ != SessionRole::Subscriber &&
            reader_.empty()) {
            net::DataFrameView dv;
            net::ScatterStatus st;
            try {
                st = net::scatter_data(data, size, pos, dv);
            } catch (const std::exception& e) {
                flush();
                return fail(std::string("corrupt frame: ") + e.what(), /*send_error=*/true);
            }
            if (st == net::ScatterStatus::Data) {
                ++scattered;
                // The symbol view points into the reactor's buffer — intern
                // it now; nothing of the view outlives this iteration.
                event::Event ev = data::make_quote(
                    vocab_, dv.ts, vocab_.schema->intern_subject(dv.symbol_view()),
                    dv.open, dv.close, dv.volume);
                const SessionStatus status = ingest(std::move(ev));
                if (status != SessionStatus::Open) {
                    // Pausing mid-view: the unread tail must survive until
                    // ResumeRead — stage it (the one place the bulk path
                    // still copies, and only under backpressure).
                    stage_tail(data, size, pos);
                    flush();
                    return status;
                }
                continue;
            }
            if (st == net::ScatterStatus::NeedMore) {
                stage_tail(data, size, pos);
                break;
            }
            // Control frame — decode it on the staged path below.
        }
        // Feed only what the staged frame needs: with a partial tail,
        // tail_need() names the exact completion bytes, so the reader drains
        // right at the frame boundary and the loop returns to scatter — a
        // split frame costs one staged frame, never the rest of the view. A
        // fresh control frame starts from its tag byte and converges the
        // same way; kStageChunk is only the can't-tell fallback.
        std::size_t chunk = reader_.empty() ? 1 : reader_.tail_need();
        if (chunk == 0) chunk = kStageChunk;
        chunk = std::min(size - pos, chunk);
        reader_.feed(data + pos, chunk);
        shard_->add(obs::Series{obs::sid::kIngestCopiedBytes}, chunk);
        pos += chunk;
        // Back to the scatter fast path once the reader drains; a partial
        // frame feeds the next chunk.
        const auto status = dispatch_staged();
        if (status != SessionStatus::Open) {
            if (status == SessionStatus::Paused) stage_tail(data, size, pos);
            flush();
            return status;
        }
    }
    flush();
    return SessionStatus::Open;
}

SessionStatus ServerSession::dispatch(net::SessionFrame&& frame) {
    // Control frames may close the store (BYE) or snapshot counters (STATS):
    // hand the DATA before them over first so they observe it.
    if (!std::holds_alternative<net::WireQuote>(frame)) publish_ingest();
    switch (state_) {
        case State::AwaitHello:
            if (auto* v1 = std::get_if<net::HelloFrame>(&frame))
                return on_hello(Handshake{std::move(*v1)});
            if (const auto* v2 = std::get_if<net::Hello2Frame>(&frame))
                return on_hello(decode_hello(*v2));
            // A pure monitoring client may query server-wide stats without
            // ever subscribing a query (§12).
            if (std::get_if<net::StatsFrame>(&frame)) return on_stats();
            return fail("protocol error: expected HELLO", /*send_error=*/true);
        case State::Streaming:
            if (const auto* quote = std::get_if<net::WireQuote>(&frame)) {
                if (role_ == SessionRole::Subscriber)
                    return fail("protocol error: DATA on a subscriber session",
                                /*send_error=*/true);
                // Staged-path DATA (rare: a frame split across reads, or one
                // riding behind a control frame). Symbol interning stays on
                // the reactor thread (§8) either way: the engine only ever
                // sees interned ids. Accounting and the publish cadence
                // match the scatter path.
                return ingest(net::from_wire(*quote, vocab_));
            }
            if (std::get_if<net::StatsFrame>(&frame)) return on_stats();
            if (std::get_if<net::ByeFrame>(&frame)) {
                if (role_ == SessionRole::Subscriber) {
                    // Early unsubscribe: the client no longer wants results.
                    // Reply with what was sent — the BYE seals egress, so a
                    // lane mid-step appends nothing after it and the engine's
                    // own finish finds the seal taken — then abandon every lane.
                    seal_with_bye();
                    abort_requested_.store(true, std::memory_order_release);
                    wake_lanes(nullptr);
                    egress_try_flush();
                    state_ = State::Draining;
                    return SessionStatus::Open;  // keep watching: detect client death
                }
                close_ingestion(/*close_store=*/true);
                if (role_ == SessionRole::Publisher) {
                    // No engine task exists: the stream is closed for every
                    // subscriber; acknowledge the publisher with BYE{0} now.
                    seal_with_bye();
                    egress_try_flush();
                }
                state_ = State::Draining;
                return SessionStatus::Open;  // keep watching: detect client death
            }
            return fail("protocol error: unexpected frame while streaming",
                        /*send_error=*/true);
        case State::Draining:
            return fail("protocol error: frame after BYE", /*send_error=*/true);
        case State::Failed:
            return SessionStatus::Finished;
    }
    return SessionStatus::Finished;  // unreachable
}

SessionStatus ServerSession::ingest(event::Event&& ev) {
    // §14 scatter append: fill the store's next slot in place. Handed over
    // in batches by publish_ingest (the caller owns the cadence).
    event::EventStore& st = entry_->store;
    event::Event& slot = st.append_slot();
    ev.seq = slot.seq;
    slot = std::move(ev);
    ++unpublished_;
    // A published stream is unpaced (§15): each subscriber reads
    // at its own frontier, and a lagging one must never stall the publisher
    // or its siblings. The store's live-span cap (SPECTRE_REQUIRE, §6) is the
    // hard stop.
    if (role_ == SessionRole::Publisher) return SessionStatus::Open;
    stamp_arrival();
    if (st.size() + st.pending_appends() - accepted_.load(std::memory_order_relaxed) >=
        limits_.ingest_queue_events) {
        // High watermark hit: stop reading this socket — TCP pushes back on
        // the client while the task catches up.
        shard_->add(obs::Series{obs::sid::kIngestPauses}, 1);
        return SessionStatus::Paused;
    }
    return SessionStatus::Open;
}

void ServerSession::publish_ingest() {
    if (unpublished_ == 0) return;
    const std::size_t n = std::exchange(unpublished_, 0);
    entry_->store.publish_appends();
    shard_->add(obs::Series{obs::sid::kEventsIngested}, n);
    // Each reader passes its own §9 barrier: each lane parks independently
    // at its own read frontier (a sharded reader's S lanes each at its scan
    // cursor).
    for (ServerSession* reader : entry_->readers) reader->wake_input_lanes();
}

void ServerSession::wake_input_lanes() {
    // The lane publishes its on_input flag and then re-checks the frontier
    // under this mutex; the producer published first and takes the flag
    // after passing the mutex. The critical sections are totally ordered —
    // a plain store-load pair would guarantee neither side sees the other.
    { const std::lock_guard<std::mutex> lock(ingest_mutex_); }
    observe_lane_depths();
    wake_lanes(&Lane::on_input);
}

// --- HELLO (§8, §15) --------------------------------------------------------

namespace {

// Numeric HELLO v2 values are strict decimal u32 — anything else rejects the
// handshake (unknown KEYS are ignored; malformed VALUES for known keys are
// errors, per the append-only versioning rule in DESIGN.md §15).
bool parse_u32(std::string_view s, std::uint32_t& out) {
    if (s.empty() || s.size() > 10) return false;
    std::uint64_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9') return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (v > std::numeric_limits<std::uint32_t>::max()) return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

// The v2 `role` value each SessionRole answers with in the capability echo.
constexpr std::string_view kRoleNames[] = {"standalone", "publish", "subscribe"};

}  // namespace

ServerSession::Handshake ServerSession::decode_hello(const net::Hello2Frame& v2) {
    Handshake hs;
    hs.v2 = true;
    const std::string_view role = v2.has("role") ? v2.get("role") : kRoleNames[0];
    const auto* known = std::find(std::begin(kRoleNames), std::end(kRoleNames), role);
    if (known == std::end(kRoleNames)) {
        hs.error = "unknown role '" + std::string(role) + "'";
        return hs;
    }
    hs.role = static_cast<SessionRole>(known - std::begin(kRoleNames));
    if (hs.role != SessionRole::Standalone) hs.stream = v2.get("stream");
    hs.hello.query = v2.get("query");
    hs.hello.partition_by = v2.get("partition_by");
    if (v2.has("instances") && !parse_u32(v2.get("instances"), hs.hello.instances))
        hs.error = "bad instances value";
    else if (v2.has("shards") && !parse_u32(v2.get("shards"), hs.hello.shards))
        hs.error = "bad shards value";
    return hs;
}

SessionStatus ServerSession::on_hello(Handshake&& hs) {
    const auto reject = [this](const std::string& why) {
        return fail("HELLO rejected: " + why, /*send_error=*/true);
    };
    if (!hs.error.empty()) return reject(hs.error);
    if (hs.hello.instances > static_cast<std::uint32_t>(limits_.max_instances))
        return reject("instances exceed server limit");
    if (hs.hello.shards > static_cast<std::uint32_t>(limits_.max_shards))
        return reject("shards exceed server limit");

    // Resolve the stream by role: a standalone session's is private and
    // never enters the hub; the other roles name a published one.
    StreamHub::EntryPtr entry;
    if (hs.role == SessionRole::Standalone) {
        entry = make_stream_entry({});
    } else {
        const std::string_view role = kRoleNames[static_cast<int>(hs.role)];
        if (!hub_) return reject("this server has no stream hub");
        if (hs.stream.empty()) return reject(std::string(role) + " needs stream=<name>");
        if (hs.role == SessionRole::Publisher) {
            if (!hs.hello.query.empty()) return reject("publisher sessions carry no query");
            entry = hub_->publish(hs.stream, id_);
            if (!entry) return reject("stream '" + hs.stream + "' already published");
        } else {
            entry = hub_->find(hs.stream);
            if (!entry) return reject("unknown stream '" + hs.stream + "'");
            if (entry->failed) return reject(entry->fail_reason);
        }
    }
    // The stream's vocab interns DATA symbols and query atoms, on this reactor
    // thread only (§8): a subscriber's query resolves against the schema the
    // publisher's events were interned with.
    vocab_ = entry->vocab;
    if (hs.role != SessionRole::Publisher) {
        try {
            auto query = query::parse_query(hs.hello.query, vocab_.schema);
            // HELLO's partition key (§10) overrides/supplies the query
            // text's PARTITION BY; sharding without one is meaningless.
            if (!hs.hello.partition_by.empty())
                query.partition =
                    query::resolve_partition_key(hs.hello.partition_by, *vocab_.schema);
            if (hs.hello.shards > 1 && !query.partition.active())
                throw std::invalid_argument("shards > 1 needs a partition key");
            if (hs.role == SessionRole::Subscriber && cache_) {
                // Only subscribers share compiled artifacts: a standalone
                // session's schema is its own (§15).
                const auto before = cache_->stats();
                cq_ = cache_->get(std::move(query));
                const auto after = cache_->stats();
                shard_->add(obs::Series{obs::sid::kCompileCacheHits}, after.hits - before.hits);
                shard_->add(obs::Series{obs::sid::kCompileCacheMisses},
                            after.misses - before.misses);
            } else {
                cq_ = std::make_shared<const detect::CompiledQuery>(
                    detect::CompiledQuery::compile(std::move(query)));
            }
        } catch (const std::exception& e) {
            return reject(e.what());
        }
        // The session's one read pin; it starts at seq 0. Last, because a
        // pin taken and then abandoned would hold the stream's history.
        pin_cursor_ = entry->pins.attach();
        if (pin_cursor_ == event::ChunkPins::kInvalidCursor)
            return reject("stream '" + hs.stream + "' history already reclaimed");
    }

    role_ = hs.role;
    entry_ = std::move(entry);
    instances_ = hs.hello.instances;
    if (role_ == SessionRole::Subscriber) {
        chunks_reclaimed_ = obs::Series{obs::sid::kHubChunksReclaimed};
        hub_->subscribe(entry_, this);
    } else if (role_ == SessionRole::Standalone) {
        entry_->readers.push_back(this);
    }
    if (hs.v2) {
        // The capability echo, buffered before the engine starts so it
        // precedes every RESULT byte. v1 clients get none.
        net::Hello2Frame echo;
        echo.set("proto", "2");
        echo.set("role", std::string(kRoleNames[static_cast<int>(role_)]));
        if (!hs.stream.empty()) echo.set("stream", hs.stream);
        echo.set("max_instances", std::to_string(limits_.max_instances));
        echo.set("max_shards", std::to_string(limits_.max_shards));
        egress_append(net::SessionFrame{std::move(echo)});
        egress_try_flush();
    }
    state_ = State::Streaming;
    // A publisher has no engine and no task: the reaper gates on input_done
    // and drained egress.
    if (role_ != SessionRole::Publisher) start_engine(hs.hello.shards);
    return SessionStatus::Open;
}

void ServerSession::start_engine(std::uint32_t shards) {
    event::ResultSink sink = [this](event::ComplexEvent&& ce) {
        const auto prev = results_sent_.load(std::memory_order_relaxed);
        if (!egress_append(net::SessionFrame{net::to_result_frame(ce)})) return;
        observe_result_latency(ce, prev);
        shard_->add(obs::Series{obs::sid::kResultsEmitted}, 1);
    };
    std::uint32_t lanes = 1;
    if (cq_->query().partition.active()) {
        // Partitioned query (§10): per-key lanes behind a ShardedEngine, one
        // session lane per shard, each shard a reader of the entry's store.
        // The session scales across the pool's workers without owning a
        // single thread.
        shard::ShardedConfig cfg;
        cfg.shards = lanes = std::max<std::uint32_t>(shards, 1);
        cfg.instances = instances_;
        cfg.batch_events = limits_.batch_events;
        sharded_ = std::make_unique<shard::ShardedEngine>(cq_.get(), cfg, std::move(sink),
                                                          &entry_->store);
        sharded_->bind_obs(shard_.get());
        // Per-shard-index depth peaks (§12): the server pre-registered these
        // names (one per index below max_shards) before any session shard
        // existed, so add() only resolves ids.
        lane_peaks_.reserve(lanes);
        for (std::uint32_t s = 0; s < lanes; ++s)
            lane_peaks_.push_back(registry_->add(
                "lane_depth_peak{shard=\"" + std::to_string(s) + "\"}",
                obs::Kind::PeakGauge));
    } else {
        // Bound even under SPECTRE_OBS_OFF: engine stats are counters,
        // published by every step (§11/§12).
        engine_ = std::make_unique<engine::LaneEngine>(
            cq_.get(), &entry_->store, instances_, limits_.quantum_windows,
            limits_.batch_events, std::move(sink), shard_.get());
    }
    if (instances_ > 0) shard_->add(obs::Series{obs::sid::kSchedSessions}, 1);
    for (std::uint32_t s = 0; s < lanes; ++s)
        lanes_.push_back(std::make_unique<Lane>(this, s));
    task_registered_ = true;
    tasks_expected_.store(lanes, std::memory_order_relaxed);
    for (std::uint32_t s = 0; s < lanes; ++s)  // schedules the first quanta
        hooks_.register_task(shard_task_id(id_, s), lanes_[s].get());
}

SessionStatus ServerSession::on_stats() {
    // §12: one flat JSON object per scope — the server-wide aggregate over
    // every live shard plus the retained block, and this session's own shard
    // (live counters and latency histograms). The reply rides the ordinary
    // egress stream: a stats reply behind a full buffer waits like a RESULT.
    std::string body = "{\"server\":";
    body += obs::Registry::json(registry_->snapshot());
    body += ",\"session\":";
    body += obs::Registry::json(registry_->snapshot_of(*shard_));
    body += '}';
    egress_append(net::SessionFrame{net::StatsFrame{std::move(body)}});
    egress_try_flush();
    return SessionStatus::Open;
}

SessionStatus ServerSession::on_end_of_input() {
    switch (state_) {
        case State::AwaitHello:
            // Client left before subscribing; nothing ran, nothing to tear down.
            return SessionStatus::Finished;
        case State::Streaming:
            if (reader_.mid_frame())
                // Death mid-frame: the truncated final event must surface as
                // a stream error, not be silently dropped. Scatter keeps
                // this observable: a partial DATA tail is always staged.
                return fail("connection closed mid-frame (truncated event)",
                            /*send_error=*/true);
            // Clean EOF at a frame boundary is an implicit BYE — clients may
            // simply shutdown(SHUT_WR) and keep reading results.
            if (role_ == SessionRole::Subscriber) {
                // The subscriber's input side was only ever the HELLO; its
                // engine keeps running until the published stream ends.
                state_ = State::Draining;
                return SessionStatus::Finished;
            }
            if (role_ == SessionRole::Publisher)
                // NOT an implicit BYE: N subscribers cannot tell a truncated
                // stream from a complete one, so only an explicit BYE closes
                // a published stream cleanly. The hub detach sees the store
                // un-closed and fails every attached subscriber.
                return fail("publisher disconnected without BYE", /*send_error=*/false);
            close_ingestion(/*close_store=*/true);
            state_ = State::Draining;
            return SessionStatus::Finished;
        case State::Draining:
        case State::Failed:
            return SessionStatus::Finished;
    }
    return SessionStatus::Finished;  // unreachable
}

SessionStatus ServerSession::fail(const std::string& message, bool send_error) {
    if (state_ == State::Failed) return SessionStatus::Finished;
    count_failed_once();
    if (send_error) {
        // Best effort: buffer the ERROR frame and take one non-blocking
        // flush pass. A client that is not reading loses it but still sees
        // the disconnect.
        egress_append(net::SessionFrame{net::ErrorFrame{message}});
        egress_try_flush();
    }
    // Lingering close for a rejected handshake whose ERROR left in full: the
    // client may still be sending (its stream, its BYE), and closing over
    // unread input resets the connection — which can destroy the ERROR in
    // flight. Half-close instead; the reactor drains input until EOF or its
    // linger deadline, then reaps.
    lingering_ = send_error && !task_registered_ &&
                 !egress_dead_.load(std::memory_order_relaxed) && !egress_pending();
    // One teardown sequence for both failure and shutdown (poison, close
    // ingestion, abort + wake the task, shut the socket down).
    teardown(lingering_ ? SHUT_WR : SHUT_RDWR);
    state_ = State::Failed;
    input_done_ = !lingering_;
    return SessionStatus::Finished;
}

SessionStatus ServerSession::drain_lingering(net::Reactor& io) {
    for (;;) {
        net::Reactor::ReadView view;
        const auto rs = io.read(fd_, view);
        if (rs == net::Reactor::ReadStatus::Data) continue;  // discarded
        if (rs == net::Reactor::ReadStatus::Again) return SessionStatus::Open;
        lingering_ = false;  // EOF or a transport error: the peer is done
        return SessionStatus::Finished;
    }
}

void ServerSession::close_ingestion(bool close_store) {
    // Reactor paths hand over what they ingested before closing behind it.
    if (close_store) publish_ingest();
    {
        const std::lock_guard<std::mutex> lock(ingest_mutex_);
        if (ingest_closed_) return;
        ingest_closed_ = true;
    }
    if (close_store) {
        // Reactor dispatch paths only (BYE / clean EOF): the sole appender
        // closes the store, and every reader must observe closed() to finish
        // (a parking lane re-checks it under its §9 mutex: no lost wakeup).
        // Abort paths leave it open and wake only this session's lanes.
        entry_->store.close();
        for (ServerSession* reader : entry_->readers) reader->wake_input_lanes();
        return;
    }
    wake_input_lanes();
}

void ServerSession::abort() {
    lingering_ = false;
    teardown(SHUT_RDWR);
}

void ServerSession::teardown(int shut_how) {
    egress_poison();
    close_ingestion(/*close_store=*/false);
    abort_requested_.store(true, std::memory_order_release);
    ::shutdown(fd_, shut_how);
    wake_lanes(nullptr);
}

// --- shared ingest plane (§15) ----------------------------------------------

std::vector<ServerSession*> ServerSession::hub_detach() {
    // Idempotent, and entry_ stays: lanes still running keep stepping it.
    // Each failed subscriber reads the reason off its own entry_.
    if (role_ == SessionRole::Publisher)
        return entry_->publisher_live ? hub_->publisher_gone(entry_)
                                      : std::vector<ServerSession*>{};
    if (pin_cursor_ == event::ChunkPins::kInvalidCursor) return {};  // no HELLO
    const std::size_t freed = entry_->pins.detach(pin_cursor_);
    if (freed > 0) shard_->add(chunks_reclaimed_, freed);
    if (role_ == SessionRole::Subscriber) hub_->unsubscribe(entry_, this);
    return {};
}

void ServerSession::fail_publisher_gone() { fail(entry_->fail_reason, /*send_error=*/true); }

void ServerSession::count_failed_once() {
    // A session whose engine already claimed the completed outcome must not
    // also count failed, and reactor-side vs worker-side failure paths must
    // not double-count — the single outcome latch settles both races.
    if (!outcome_counted_.exchange(true, std::memory_order_acq_rel))
        shard_->add(obs::Series{obs::sid::kSessionsFailed}, 1);
}

// --- arrival clock (§12) ----------------------------------------------------

void ServerSession::stamp_arrival() {
    const std::uint64_t now = obs::now_ns();
    if (now == 0) return;  // obs disabled
    const std::lock_guard<std::mutex> lock(arrival_mutex_);
    if (first_data_ns_ == 0) first_data_ns_ = now;
    arrival_ns_.push_back(now);
    if (arrival_ns_.size() > kArrivalCap) {
        arrival_ns_.pop_front();
        ++arrival_base_;
    }
}

void ServerSession::observe_result_latency(const event::ComplexEvent& ce,
                                           std::uint64_t prev_results) {
    const std::uint64_t now = obs::now_ns();
    if (now == 0 || ce.constituents.empty()) return;
    std::uint64_t t0 = 0;
    std::uint64_t first = 0;
    {
        const std::lock_guard<std::mutex> lock(arrival_mutex_);
        // The last constituent is the window's max seq (constituents are
        // ascending), i.e. the arrival that made this result completable.
        const std::uint64_t seq = ce.constituents.back();
        if (seq >= arrival_base_ && seq - arrival_base_ < arrival_ns_.size())
            t0 = arrival_ns_[seq - arrival_base_];
        first = first_data_ns_;
    }
    if (t0 != 0 && now >= t0)
        shard_->observe(obs::Series{obs::sid::kResultLatencyNs}, now - t0);
    if (prev_results == 0 && first != 0 && now >= first)
        shard_->observe(obs::Series{obs::sid::kFirstResultLatencyNs}, now - first);
}

void ServerSession::observe_lane_depths() {
    if (!sharded_ || !obs::enabled()) return;
    std::size_t mn = ~std::size_t{0};
    std::size_t mx = 0;
    for (std::uint32_t s = 0; s < sharded_->shards(); ++s) {
        const std::size_t d = sharded_->shard_queue_depth(s);
        shard_->observe(obs::Series{obs::sid::kLaneDepth}, d);
        shard_->set_peak(lane_peaks_[s], d);
        mn = std::min(mn, d);
        mx = std::max(mx, d);
    }
    if (mx >= mn) shard_->observe(obs::Series{obs::sid::kLaneSkew}, mx - mn);
}

void ServerSession::note_stall_end(std::uint64_t& stamp) {
    if (stamp == 0) return;
    const std::uint64_t now = obs::now_ns();
    if (now > stamp)
        shard_->observe(obs::Series{obs::sid::kEgressStallNs}, now - stamp);
    stamp = 0;
}

// --- ingest pacing (§14) ----------------------------------------------------

bool ServerSession::ingest_above_low() const {
    // In-flight: events handed over that the engine has not accepted yet.
    return entry_->store.size() - accepted_.load(std::memory_order_seq_cst) >=
           limits_.ingest_queue_events / 2;
}

void ServerSession::resume_read_if_low() {
    if (!ingest_above_low() && read_paused_.exchange(false, std::memory_order_seq_cst))
        hooks_.post(id_, SessionCmd::ResumeRead);
}

bool ServerSession::lane_parkable(std::uint32_t index) {
    const event::EventStore& st = entry_->store;
    const std::lock_guard<std::mutex> lock(ingest_mutex_);
    // A subscriber's ingest_closed_ never flips: the publisher's close of the
    // shared store, published through this mutex, is what ends its stream.
    if (ingest_closed_) return false;
    if (sharded_) return sharded_->shard_parkable(index);
    return st.size() == accepted_.load(std::memory_order_relaxed) && !st.closed();
}

// --- egress ring (§14) ------------------------------------------------------

void ServerSession::account_egress(std::size_t now_bytes) {
    // Gauge: this session's current backlog (the server sums the gauges of
    // live sessions). Peak: this session's high-water mark (the server takes
    // the max over sessions — folded on retire, so it survives the session).
    shard_->set(obs::Series{obs::sid::kEgressBufferedBytes}, now_bytes);
    shard_->set_peak(obs::Series{obs::sid::kEgressPeakBytes}, now_bytes);
}

bool ServerSession::egress_append(const net::SessionFrame& frame) {
    if (egress_dead_.load(std::memory_order_acquire)) return false;
    const std::lock_guard<std::mutex> lock(egress_mutex_);
    if (egress_dead_.load(std::memory_order_relaxed) || egress_sealed_) return false;
    // §14: encode_frame writes directly into the ring's tail block — frame
    // bytes are produced exactly once, already in wire order.
    egress_.append(frame);
    account_egress(egress_.bytes());
    if (std::holds_alternative<net::ResultFrame>(frame))
        results_sent_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void ServerSession::seal_with_bye() {
    {
        const std::lock_guard<std::mutex> lock(egress_mutex_);
        if (egress_dead_.load(std::memory_order_relaxed) || egress_sealed_) return;
        egress_sealed_ = true;
        egress_.append(net::SessionFrame{
            net::ByeFrame{results_sent_.load(std::memory_order_relaxed)}});
        account_egress(egress_.bytes());
    }
    // The sealing BYE is the completed outcome of a session with an engine
    // (single-winner latch against a concurrent failure).
    if (task_registered_ && !outcome_counted_.exchange(true, std::memory_order_acq_rel))
        shard_->add(obs::Series{obs::sid::kSessionsCompleted}, 1);
}

bool ServerSession::egress_try_flush() {
    const std::lock_guard<std::mutex> lock(egress_mutex_);
    if (egress_dead_.load(std::memory_order_relaxed)) return false;
    if (!egress_.empty()) {
        const auto r = egress_.flush([this](const struct iovec* iov, int iovcnt) {
            shard_->add(obs::Series{obs::sid::kEgressWritevs}, 1);
            return sendv_(iov, iovcnt);
        });
        if (r.sent > 0)
            shard_->add(obs::Series{obs::sid::kEgressBytesSent}, r.sent);
        if (r.status == net::EgressRing::FlushStatus::Error) {
            // Transport error (EPIPE, ECONNRESET, …): the peer is
            // unreachable — poison the path, drop what it will never read,
            // and abort the engine so the task stops burning pool quanta
            // computing results nobody can receive. The outcome latch
            // coordinates with the reactor's fail() so the session is
            // counted failed exactly once (and never after its BYE).
            account_egress(0);
            egress_.clear();
            egress_dead_.store(true, std::memory_order_release);
            abort_requested_.store(true, std::memory_order_release);
            count_failed_once();
            return false;
        }
    }
    account_egress(egress_.bytes());
    return true;
}

void ServerSession::egress_poison() {
    const std::lock_guard<std::mutex> lock(egress_mutex_);
    account_egress(0);
    egress_.clear();
    egress_dead_.store(true, std::memory_order_release);
}

bool ServerSession::egress_has_credit() const {
    if (egress_dead_.load(std::memory_order_acquire)) return true;  // sink discards
    const std::lock_guard<std::mutex> lock(egress_mutex_);
    return egress_.bytes() <= limits_.egress_buffer_bytes;
}

bool ServerSession::egress_idle() const {
    if (egress_dead_.load(std::memory_order_acquire)) return true;
    const std::lock_guard<std::mutex> lock(egress_mutex_);
    return egress_.empty();
}

bool ServerSession::egress_pending() const {
    if (egress_dead_.load(std::memory_order_acquire)) return false;
    const std::lock_guard<std::mutex> lock(egress_mutex_);
    return !egress_.empty();
}

bool ServerSession::flush_egress() {
    const bool ok = egress_try_flush();
    if (!ok) {
        // The write side died. If the session is still nominally healthy,
        // fail it (poisons, aborts the task); a Failed session just reports.
        if (state_ != State::Failed) fail("result write failed", /*send_error=*/false);
        return false;
    }
    if (egress_has_credit()) wake_lanes(&Lane::on_egress);
    return true;
}

void ServerSession::request_watch_write() {
    if (!egress_pending()) return;
    if (!watch_write_requested_.exchange(true, std::memory_order_acq_rel))
        hooks_.post(id_, SessionCmd::WatchWrite);
}

// --- pool worker side -------------------------------------------------------

void ServerSession::wake_lane(std::uint32_t s, ParkFlag Lane::*flag) {
    const auto notify = [this, s] { hooks_.notify_task(shard_task_id(id_, s)); };
    if (flag)
        (lanes_[s].get()->*flag).wake(notify);
    else
        notify();
}

void ServerSession::wake_lanes(ParkFlag Lane::*flag) {
    const auto span = tasks_expected_.load(std::memory_order_acquire);
    for (std::uint32_t s = 0; s < span; ++s) wake_lane(s, flag);
}

ServerSession::Quantum ServerSession::run_lane(Lane& lane) {
    // Dropped mid-flight (failure, server stop, early unsubscribe): abandon
    // the engine. Cooperative stepping makes this trivial — no thread is
    // inside it.
    if (abort_requested_.load(std::memory_order_acquire)) return Quantum::Done;
    Quantum exit = Quantum::MoreWork;  // quantum exhausted with work left: yield
    try {
        note_stall_end(lane.stall_ns);
        for (std::size_t s = 0; s < limits_.quantum_steps && exit == Quantum::MoreWork; ++s) {
            if (abort_requested_.load(std::memory_order_acquire)) return Quantum::Done;
            // Egress credit gate (§9): the ring is shared by every lane of
            // the session — a slow result reader parks each lane as it
            // arrives here, never a worker.
            if (!egress_has_credit()) {
                egress_try_flush();  // the socket may have drained meanwhile
                if (lane.on_egress.park_if([this] { return !egress_has_credit(); })) {
                    shard_->add(obs::Series{obs::sid::kParksEgress}, 1);
                    lane.stall_ns = obs::now_ns();
                    request_watch_write();
                    return Quantum::Parked;
                }
            }
            const LaneStep step = step_lane(lane);
            if (step == LaneStep::AllDone) return finish_engine(lane);
            if (step == LaneStep::LaneDone) {
                // This shard is drained; peers still run (and will merge any
                // results it buffered).
                exit = Quantum::Done;
            } else if (step == LaneStep::Idle &&
                       lane.on_input.park_if([&] { return lane_parkable(lane.index); })) {
                // Parked on input starvation: a producer's publish between
                // the idle step and the re-check took the flag instead and
                // re-queued us (no lost wakeup — see publish_ingest).
                shard_->add(obs::Series{obs::sid::kParksInput}, 1);
                exit = Quantum::Parked;
            }
        }
    } catch (const std::exception& e) {
        // Engine failure (e.g. a pathological query blowing an internal
        // limit) fails this session only.
        return engine_failed(e.what());
    }
    egress_try_flush();
    request_watch_write();
    return exit;
}

ServerSession::LaneStep ServerSession::step_lane(Lane& lane) {
    // Credit follows processing (§9): an engine slower than its client
    // pauses the socket instead of letting the store grow ahead of it. The
    // pin follows the engine's reclaim floor.
    if (sharded_) {
        const auto res = sharded_->step_shard(lane.index, limits_.batch_events);
        // S lanes publish one credit: keep the largest, so a lane's stale
        // read can never land after a fresher one (processed() only grows).
        const event::Seq credit = sharded_->processed();
        std::uint64_t seen = accepted_.load(std::memory_order_relaxed);
        while (seen < credit &&
               !accepted_.compare_exchange_weak(seen, credit, std::memory_order_seq_cst)) {
        }
        resume_read_if_low();
        reclaim_behind(lane, credit);
        // all_finished: every result is already in the egress ring — the
        // merge that set it emitted them.
        if (res.all_finished) return LaneStep::AllDone;
        if (res.shard_finished) return LaneStep::LaneDone;
        return res.idle ? LaneStep::Idle : LaneStep::Busy;
    }
    const auto step = engine_->step();
    accepted_.store(engine_->processed(), std::memory_order_seq_cst);
    resume_read_if_low();
    reclaim_behind(lane, engine_->low_watermark());
    if (step == engine::LaneEngine::Step::Done) return LaneStep::AllDone;
    return step == engine::LaneEngine::Step::Busy ? LaneStep::Busy : LaneStep::Idle;
}

void ServerSession::reclaim_behind(Lane& lane, event::Seq watermark) {
    // Whole chunks only: most drains move the watermark within one chunk and
    // cost a compare.
    const event::Seq floor = watermark & ~event::Seq{event::EventStore::kChunkSize - 1};
    if (floor <= lane.reclaimed_floor) return;
    lane.reclaimed_floor = floor;
    // The store frees behind the slowest pinned reader (§6/§15): for a
    // private store that is this session; the reactor's appends touch only
    // the frontier chunk, which lies above the watermark.
    const std::size_t freed = entry_->pins.advance(pin_cursor_, floor);
    if (freed > 0) shard_->add(chunks_reclaimed_, freed);
}

ServerSession::Quantum ServerSession::finish_engine(Lane& lane) {
    // Engine done: this reader never addresses its store again, so its pin
    // rises to the frontier — releasing the tail its last watermark (the
    // oldest live window, whichever k) still held.
    reclaim_behind(lane, entry_->store.size());
    // Every sharded lane that observes all_finished lands here; the first
    // seals egress with the BYE, the rest find the seal taken.
    seal_with_bye();
    egress_try_flush();
    request_watch_write();
    return Quantum::Done;
}

ServerSession::Quantum ServerSession::engine_failed(const std::string& what) {
    count_failed_once();
    egress_append(net::SessionFrame{net::ErrorFrame{std::string("engine error: ") + what}});
    egress_try_flush();
    // Tear the session down like every other failure path: without this a
    // client that keeps streaming would fill the ingest queue, pause the
    // reader, and linger as a zombie — no task exists anymore to resume it.
    abort();
    return Quantum::Done;
}

}  // namespace spectre::server
