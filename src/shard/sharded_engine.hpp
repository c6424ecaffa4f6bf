// Partition-parallel sharded detection (DESIGN.md §10).
//
// A query that declares PARTITION BY (query::PartitionBy) applies
// independently to each distinct key value's sub-stream. That independence is
// what makes key-based data parallelism semantically free: a ShardedEngine
// hash-distributes the keys over S shards (splitmix64(key) % S, fixed for the
// engine's life), each shard hosts the per-key engine lanes of the keys it
// owns (a lane = MappedStore + engine::LaneEngine, the §9 step interface,
// so shards are pool tasks, never threads), and a deterministic merger
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
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "detect/compiled_query.hpp"
#include "engine/lane_engine.hpp"
#include "event/stream.hpp"
#include "obs/metrics.hpp"

namespace spectre::shard {

struct ShardedConfig {
    std::uint32_t shards = 1;  // drivers create one task per shard
    // Per-lane engine: 0 = sequential stepper (the throughput path);
    // > 0 = cooperative SpectreRuntime with that many operator instances.
    std::uint32_t instances = 0;
    std::size_t batch_events = 64;  // k > 0 lane batch and per-step budget
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

    std::uint32_t shards() const noexcept { return cfg_.shards; }

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

    // Called when publish() hands shard `s` arrivals (feeder thread): the
    // driver must wake shard `s`'s task. Set before the shard tasks start.
    void set_shard_waker(std::function<void(std::uint32_t)> waker) {
        waker_ = std::move(waker);
    }

    // --- shard task side (one logical caller per shard) ---------------------

    struct StepResult {
        std::size_t events = 0;      // arrivals processed this call
        bool idle = false;           // nothing to do until woken
        bool shard_finished = false; // this shard fully drained incl. EOS
        bool all_finished = false;   // every shard done and every result merged
    };
    // One bounded quantum of shard `s`: process up to `max_events` arrivals
    // of the task's batch (append to lane, drain lane to quiescence, tag
    // results) — taking the whole inbox in one swap whenever the batch runs
    // out — run the end-of-stream drains once the input closed, publish
    // progress, then merge. Never blocks on I/O; serialize calls per shard
    // (the pool's task state machine already does).
    StepResult step_shard(std::uint32_t s, std::size_t max_events);

    // Park predicate for shard `s`'s task (call from that task): nothing to
    // do until a publish or a close arrives.
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
    // lane-depth signal). Updated once per publish and once per step, so it
    // counts a task's batch too.
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

    struct KeyLane;
    struct Pending;
    struct TaggedResult;
    struct ShardState;

    void process_event(ShardState& sh, Pending&& p);
    // Task side: swaps the shard's inbox into the exhausted batch under one
    // lock. False when nothing was published.
    bool take_inbox(ShardState& sh);
    // Runs end-of-stream lane drains, one engine step per budget unit.
    void eos_step(ShardState& sh, std::size_t& budget);
    void merge_locked(StepResult& r);

    const detect::CompiledQuery* cq_;
    const ShardedConfig cfg_;
    event::ResultSink sink_;
    obs::Shard* obs_ = nullptr;
    std::vector<std::unique_ptr<ShardState>> shards_;
    std::function<void(std::uint32_t)> waker_;

    // Feeder-private router state.
    std::unordered_map<std::uint64_t, std::uint32_t> key_index_;  // bits → dense
    std::vector<std::uint32_t> key_shard_;                        // dense → shard
    event::Seq next_g_ = 0;
    std::vector<std::uint32_t> touched_;  // shards with a staged batch
    std::size_t staged_ = 0;              // events staged over all shards

    // Published router frontier: every event with g < frontier_ is visible in
    // its shard's inbox (or beyond); idle shards can produce nothing below it.
    std::atomic<event::Seq> frontier_{0};
    std::atomic<bool> closed_{false};
    std::atomic<std::size_t> queued_{0};
    std::atomic<std::uint64_t> emitted_{0};
    std::atomic<bool> all_finished_{false};

    std::mutex merge_mutex_;
    // merge_locked's per-shard splice buffers, reused across calls (guarded
    // by merge_mutex_), one per shard.
    std::vector<std::deque<TaggedResult>> merge_scratch_;
};

// The parity oracle: the unsharded sequential run of a partitioned query —
// per-key SeqStepper lanes driven single-threadedly in global arrival order,
// end-of-stream drains in key-first-appearance order. A sharded run of any
// shard count and any schedule reproduces this byte-identically; on a
// single-key stream it is itself byte-identical to SequentialEngine::run over
// the whole input.
std::vector<event::ComplexEvent> reference_partitioned_run(
    const detect::CompiledQuery& cq, const std::vector<event::Event>& events);

}  // namespace spectre::shard
