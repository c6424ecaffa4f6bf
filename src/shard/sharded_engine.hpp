// Partition-parallel sharded detection (DESIGN.md §10, §13).
//
// A query that declares PARTITION BY (query::PartitionBy) applies
// independently to each distinct key value's sub-stream. That independence is
// what makes key-based data parallelism semantically free: a ShardedEngine
// hash-distributes the keys over S shards, each shard hosts the per-key
// engine lanes of the keys it owns (a lane = MappedStore + SeqStepper, or a
// cooperative SpectreRuntime when instances > 0 — the §9 step interfaces, so
// shards are pool tasks, never threads), and a deterministic merger
// interleaves the per-shard results back into ONE result stream that is
// byte-identical to the unsharded sequential run of the same input for every
// shard count and every schedule.
//
// Determinism comes from merge tags. The single-threaded reference
// (reference_partitioned_run) processes arrivals in global order: append
// event g to its key's lane, drain that lane to quiescence (emitting every
// window the arrival completed), move to g+1; at end-of-stream it drains the
// lanes in key-first-appearance order. Every emitted complex event therefore
// has a well-defined *trigger tag*: (g, key) for an arrival-driven emission,
// (EOS, key) for an end-of-stream one. A sharded run produces the exact same
// tagged results per key (same lane code, same sub-stream); the merger
// releases a result only once no shard can still produce a smaller tag —
// tracked by per-shard lower bounds (head of the shard's inbox, the first
// unprocessed tag of the task's batch, the router frontier for an idle shard,
// the EOS key cursor) —
// and emits in ascending tag order. Constituent seqs are translated back to
// global stream positions on the way out (event::MappedStore), so the output
// is indistinguishable from an engine that saw the whole stream.
//
// Elastic partitioning (§13) builds on the same tags: because a tag names a
// (global seq, key) trigger and never a shard, a lane can MOVE between shards
// mid-stream without perturbing the merged output. The feeder keeps a
// versioned key→shard routing table (each update is a *routing epoch*); a
// migration enqueues a marker in the source shard's FIFO, the source task
// hands the whole lane object to the destination's mailbox, and the
// destination blocks that key's arrivals until the lane is installed. The
// protocol serves both re-sharding (grow/shrink the active shard count and
// re-route every key) and key-skew lane stealing (move one hot/cold key).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "detect/compiled_query.hpp"
#include "event/stream.hpp"
#include "obs/metrics.hpp"
#include "sequential/seq_engine.hpp"
#include "spectre/runtime.hpp"

namespace spectre::shard {

struct ShardedConfig {
    std::uint32_t shards = 1;
    // Slot capacity for online growth: reshard() can raise the active shard
    // count up to this many slots. 0 means "== shards" (no growth headroom,
    // the pre-elastic behavior). Drivers create one task per slot.
    std::uint32_t max_shards = 0;
    // Per-lane engine: 0 = sequential stepper (the throughput path);
    // > 0 = cooperative SpectreRuntime with that many operator instances.
    std::uint32_t instances = 0;
    std::size_t batch_events = 64;  // SpectreRuntime lane batch per step
};

class ShardedEngine {
public:
    // `cq` must outlive the engine and its query must declare a partition
    // key. `sink` receives the merged result stream (called under the merge
    // lock, from whichever shard task merges; it must not re-enter the
    // engine).
    ShardedEngine(const detect::CompiledQuery* cq, ShardedConfig cfg,
                  event::ResultSink sink);
    ~ShardedEngine();

    ShardedEngine(const ShardedEngine&) = delete;
    ShardedEngine& operator=(const ShardedEngine&) = delete;

    // Slot capacity (max(shards, max_shards)): how many shard tasks a driver
    // must create so every slot reshard() may ever route to has a stepper.
    std::uint32_t shards() const noexcept {
        return static_cast<std::uint32_t>(slot_count_);
    }
    // Current routing width: fresh keys hash over [0, active_shards).
    std::uint32_t active_shards() const noexcept {
        return active_shards_.load(std::memory_order_acquire);
    }
    // Slots the merger consults (monotone: grows with reshard, never
    // shrinks while running — a shrunk-away slot still drains its EOS).
    std::uint32_t task_span() const noexcept {
        return task_span_.load(std::memory_order_acquire);
    }

    // --- feeder side (exactly one thread) -----------------------------------

    struct IngestInfo {
        std::uint32_t shard = 0;  // where the event was routed
        // Routed but not yet processed after this call, summed over every
        // shard and counting the events still staged (ingest backpressure).
        std::size_t queued = 0;
        // The benign abort-race drop: input closed under the feeder, the
        // event was NOT staged. Callers must skip arrival-stamp and
        // backpressure bookkeeping for this event.
        bool dropped = false;
    };
    // Routes one event: assigns its global seq g, looks up its key's shard
    // and appends it to that shard's feeder-private staging batch. Nothing
    // reaches a shard task until publish(). Must not be called after
    // close_input().
    IngestInfo route(event::Event e);
    // Hands every staged batch over: one lock per touched shard, whose inbox
    // takes the batch whole, then one queued_total() add and one frontier
    // release. Wakes each touched shard once through the shard waker.
    // Returns the events handed over (staged events that met a closed shard
    // gate are dropped instead).
    std::size_t publish();
    // route() then publish() — one hand-off per event (tests, PooledShardRun).
    IngestInfo ingest(event::Event e);

    // Publishes end-of-stream (idempotent). Callers then notify every shard
    // task so parked ones run their end-of-stream drains.
    void close_input();
    bool input_closed() const noexcept {
        return closed_.load(std::memory_order_acquire);
    }

    // Events published but not yet processed, over every shard (ingest
    // backpressure; staged events are not in it). seq_cst, like the step's
    // subtract: the server's pause double-check is a store-load pair
    // (ServerSession::set_read_paused).
    std::size_t queued_total() const noexcept {
        return queued_.load(std::memory_order_seq_cst);
    }

    // --- elastic partitioning (feeder thread; DESIGN.md §13) ----------------

    // Re-route every key under a new active shard count (hash % new_shards)
    // and migrate the lanes whose placement changed. One routing-epoch bump;
    // refused (returns false) while a previous migration wave is still in
    // flight, after close_input, or when new_shards exceeds the slot
    // capacity. Growing raises task_span(); shrinking leaves the old slots
    // stepping until they drain at EOS.
    bool reshard(std::uint32_t new_shards);

    // Key-skew lane stealing: move the hottest key of `from` that is
    // *lighter than the load gap* to `to` — a key hotter than the gap would
    // just re-pin the destination (ping-pong), so an 80%-hot key stays put
    // and the cold keys drain off its shard instead. Heat is a decayed
    // per-key arrival count maintained by ingest(). Same refusal rules as
    // reshard(); returns false when no key improves the balance.
    bool steal_hottest(std::uint32_t from, std::uint32_t to);

    // Move one specific key's lane (tests / explicit schedules). Same
    // refusal rules; `to` must be inside task_span().
    bool migrate_key(std::uint32_t key, std::uint32_t to);

    // True once every armed migration's lane is installed at its
    // destination. New waves are refused until then (one wave at a time
    // keeps a reshard from racing a lane that is still in transit).
    bool migration_idle() const noexcept {
        return migrations_inflight_.load(std::memory_order_acquire) == 0;
    }

    struct MigrationStats {
        std::uint64_t reshards = 0;    // accepted reshard() calls
        std::uint64_t steals = 0;      // accepted steal/migrate calls
        std::uint64_t keys_moved = 0;  // lanes armed for migration
        std::uint32_t epoch = 0;       // current routing epoch
    };
    // Feeder-thread read (same thread that ingests / migrates).
    MigrationStats migration_stats() const noexcept;

    // Feeder-thread read of key `k`'s current route (tests).
    std::uint32_t key_route(std::uint32_t key) const {
        return key_route_[key].shard;
    }

    // Called when publish() hands shard `s` arrivals (feeder thread), or
    // when a migration deposits a lane into its mailbox or a rolled-back wave
    // un-blocks it (any shard task thread): the driver must wake shard `s`'s
    // task. Set before the shard tasks start.
    void set_shard_waker(std::function<void(std::uint32_t)> waker) {
        waker_ = std::move(waker);
    }

    // --- shard task side (one logical caller per shard) ---------------------

    struct StepResult {
        std::size_t events = 0;      // arrivals processed this call
        bool idle = false;           // nothing to do until woken
        bool blocked = false;        // head arrival waits on a lane in transit
        bool shard_finished = false; // this shard fully drained incl. EOS
        bool all_finished = false;   // every shard done and every result merged
    };
    // One bounded quantum of shard `s`: install any migrated-in lanes,
    // process up to `max_events` arrivals of the task's batch (append to
    // lane, drain lane to quiescence, tag results) — taking the whole inbox
    // in one swap whenever the batch runs out — hand off migrated-out lanes,
    // run the end-of-stream drains once the input closed, publish progress,
    // then merge. Never blocks on I/O; serialize calls per shard (the pool's
    // task state machine already does).
    StepResult step_shard(std::uint32_t s, std::size_t max_events);

    // Park predicate for shard `s`'s task (call from that task): nothing to
    // do until a publish, a close, or a lane handoff (waker) arrives.
    bool shard_parkable(std::uint32_t s) const;

    bool finished() const noexcept {
        return all_finished_.load(std::memory_order_acquire);
    }
    std::uint64_t results_emitted() const noexcept {
        return emitted_.load(std::memory_order_relaxed);
    }
    std::uint32_t key_count() const;

    // --- observability (DESIGN.md §12) --------------------------------------

    // Metrics plane: when bound, every speculative lane runtime created from
    // here on publishes its per-step stat deltas into `shard`, and every
    // sequential lane its reclaimed store chunks (shard_chunks_reclaimed).
    // Call before the first ingest; the shard must outlive the engine.
    void bind_obs(obs::Shard* shard) noexcept { obs_ = shard; }

    // Test hook: what the key lanes hold right now — store chunks not yet
    // reclaimed and seq-mapping rows, summed over every lane. Reads
    // task-private state: call only while no shard task runs (between the
    // steps of an inline driver, or once finished()).
    struct LaneFootprint {
        std::size_t lanes = 0;
        std::size_t resident_chunks = 0;
        std::size_t parent_rows = 0;
    };
    LaneFootprint lane_footprint() const;

    // Arrivals published to shard `s` and not yet processed (the live
    // lane-depth signal adaptive re-sharding consumes). Updated once per
    // publish and once per step, so it counts a task's batch too.
    std::size_t shard_queue_depth(std::uint32_t s) const;

private:
    // Merge tag: (g, key) for arrival-driven emissions, (kEosG, key) for
    // end-of-stream drains, kInfTag = "nothing further".
    struct MergeTag {
        std::uint64_t g = 0;
        std::uint32_t key = 0;
        bool operator<(const MergeTag& o) const {
            return g != o.g ? g < o.g : key < o.key;
        }
        bool operator==(const MergeTag&) const = default;
    };
    static constexpr std::uint64_t kEosG = ~std::uint64_t{0} - 1;
    static constexpr MergeTag kInfTag{~std::uint64_t{0}, ~std::uint32_t{0}};
    static constexpr std::uint32_t kNoKey = ~std::uint32_t{0};

    struct KeyLane;
    struct Pending;
    struct TaggedResult;
    struct ShardState;

    // Key → current shard, stamped with the routing epoch that placed it.
    struct RouteEntry {
        std::uint32_t shard = 0;
        std::uint32_t epoch = 0;
    };
    struct EpochRecord {
        event::Seq boundary_g = 0;  // first g routed under this epoch
        std::uint32_t width = 0;    // active shard count of this epoch
    };

    std::unique_ptr<KeyLane> make_lane(ShardState& owner, std::uint32_t key);
    KeyLane& get_lane(ShardState& sh, std::uint32_t key);
    void process_event(ShardState& sh, Pending&& p);
    // Task side: swaps the shard's inbox into the exhausted batch under one
    // lock. False when nothing was published.
    bool take_inbox(ShardState& sh);
    // Task side: is `key`'s lane still in transit toward this shard?
    bool awaiting(ShardState& sh, std::uint32_t key) const;
    void drain_lane_quiescent(KeyLane& lane);
    // Runs end-of-stream lane drains for up to `budget` units; returns false
    // once the budget is exhausted with work left.
    bool eos_step(ShardState& sh, std::size_t& budget);
    void merge_locked(StepResult& r);
    // Migration plumbing: install mailbox lanes (destination task), hand a
    // lane off (source task), arm one key's move (feeder).
    void install_incoming(ShardState& sh);
    void migrate_out(ShardState& sh, const Pending& p);
    bool arm_migration(std::uint32_t key, std::uint32_t to);
    bool migrations_allowed() const;
    void decay_heat();

    const detect::CompiledQuery* cq_;
    const ShardedConfig cfg_;
    const std::size_t slot_count_;
    event::ResultSink sink_;
    obs::Shard* obs_ = nullptr;
    std::vector<std::unique_ptr<ShardState>> shards_;
    std::function<void(std::uint32_t)> waker_;

    // Feeder-private router state.
    std::unordered_map<std::uint64_t, std::uint32_t> key_index_;  // bits → dense
    std::vector<RouteEntry> key_route_;                           // dense → route
    std::vector<std::uint64_t> key_bits_;                         // dense → bits
    std::vector<std::uint64_t> key_heat_;    // decayed arrival counts
    std::vector<std::uint64_t> shard_heat_;  // per-slot sum of key heat
    std::vector<EpochRecord> epochs_;        // routing-epoch history
    std::uint32_t epoch_ = 0;
    std::uint64_t reshards_ = 0;
    std::uint64_t steals_ = 0;
    std::uint64_t keys_moved_ = 0;
    event::Seq next_g_ = 0;
    std::vector<std::uint32_t> touched_;  // shards with a staged batch
    std::size_t staged_ = 0;              // events staged over all shards

    // Published router frontier: every event with g < frontier_ is visible in
    // its shard's inbox (or beyond); idle shards can produce nothing below it.
    std::atomic<event::Seq> frontier_{0};
    std::atomic<std::uint32_t> active_shards_;
    std::atomic<std::uint32_t> task_span_;
    std::atomic<std::uint32_t> migrations_inflight_{0};
    std::atomic<bool> closed_{false};
    std::atomic<std::size_t> queued_{0};
    std::atomic<std::uint64_t> emitted_{0};
    std::atomic<bool> all_finished_{false};

    std::mutex merge_mutex_;
    // merge_locked's per-shard splice buffers, reused across calls (guarded
    // by merge_mutex_); grows with task_span_, never shrinks.
    std::vector<std::deque<TaggedResult>> merge_scratch_;
};

// The parity oracle: the unsharded sequential run of a partitioned query —
// per-key SeqStepper lanes driven single-threadedly in global arrival order,
// end-of-stream drains in key-first-appearance order. A sharded run of any
// shard count AND any migration schedule reproduces this byte-identically; on
// a single-key stream it is itself byte-identical to SequentialEngine::run
// over the whole input.
std::vector<event::ComplexEvent> reference_partitioned_run(
    const detect::CompiledQuery& cq, const std::vector<event::Event>& events);

}  // namespace spectre::shard
