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
// Every shard reads one input EventStore — a server session's store, or the
// engine's own — from its own scan cursor, keeps the events whose key hashes
// to it and appends them to their key lanes. Nothing is routed or handed
// over: the store is the splitter, as in the paper's Fig. 2.
//
// Determinism comes from merge tags. The single-threaded reference
// (reference_partitioned_run) processes arrivals in global order: append
// event g to its key's lane, drain that lane to quiescence (emitting every
// window the arrival completed), move to g+1; at end-of-stream it drains the
// lanes in key-first-appearance order. Every emitted complex event therefore
// has a well-defined *trigger tag*: (g, key) for an arrival-driven emission,
// (EOS, key) for an end-of-stream one, where a key's id is its first global
// seq (so ascending ids are first-appearance order). A sharded run produces
// the exact same tagged results per key (same lane code, same sub-stream);
// the merger releases a result only once no shard can still produce a
// smaller tag — tracked by per-shard lower bounds (the scan cursor a shard
// published at the end of its last step, or its EOS key cursor once the
// input closed and it scanned all of it) — and emits in ascending tag order.
// Constituent seqs are translated back to global stream positions on the way
// out (event::MappedStore), so the output is indistinguishable from an engine
// that saw the whole stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
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
    // engine). The shards read `input`, which must outlive the engine, and
    // whose single writer must free no chunk at or above processed(). With
    // no `input` the engine owns its store and ingest() feeds it.
    ShardedEngine(const detect::CompiledQuery* cq, ShardedConfig cfg,
                  event::ResultSink sink, const event::EventStore* input = nullptr);
    ~ShardedEngine();

    ShardedEngine(const ShardedEngine&) = delete;
    ShardedEngine& operator=(const ShardedEngine&) = delete;

    std::uint32_t shards() const noexcept { return cfg_.shards; }

    // --- feeder side of an owned store (exactly one thread) -----------------

    struct IngestInfo {
        std::uint32_t shard = 0;  // the shard that will read the event
    };
    // Appends one event to the owned store and frees its chunks below
    // processed(). The driver then wakes the shard tasks. Must not be called
    // after close_input(), nor on an engine built over a caller's store.
    IngestInfo ingest(event::Event e);
    // Closes the owned store: end-of-stream (idempotent). Callers then
    // notify every shard task so parked ones run their end-of-stream drains.
    void close_input();

    // Events every shard has scanned (the §9 ingest credit and the input's
    // reclaim floor): the minimum over the shards' published cursors. Only
    // grows.
    event::Seq processed() const noexcept;

    // --- shard task side (one logical caller per shard) ---------------------

    struct StepResult {
        bool idle = false;           // nothing to do until woken
        bool shard_finished = false; // this shard fully drained incl. EOS
        bool all_finished = false;   // every shard done and every result merged
    };
    // One bounded quantum of shard `s`: scan the input from the shard's
    // cursor (at most `max_events` × S events), processing up to
    // `max_events` of its own (append to lane, drain lane to quiescence,
    // tag results); once the input closed and is fully scanned run the
    // end-of-stream drains; publish the cursor, then merge. Never blocks on
    // I/O; serialize calls per shard (the pool's task state machine
    // already does).
    StepResult step_shard(std::uint32_t s, std::size_t max_events);

    // Park predicate for shard `s`'s task (call from that task): nothing to
    // do until the input grows or closes. The caller orders it against the
    // feeder's wake (§9 barrier).
    bool shard_parkable(std::uint32_t s) const;

    bool finished() const noexcept {
        return all_finished_.load(std::memory_order_acquire);
    }
    // Keys seen so far. Reads task-private state: call only while no shard
    // task runs (between the steps of an inline driver, or once finished()).
    std::uint32_t key_count() const;

    // --- observability (DESIGN.md §12) --------------------------------------

    // Metrics plane: when bound, every speculative lane runtime created from
    // here on publishes its per-step stat deltas into `shard`, and every
    // sequential lane its reclaimed store chunks (shard_chunks_reclaimed).
    // Call before the first step; the shard must outlive the engine.
    void bind_obs(obs::Shard* shard) noexcept { obs_ = shard; }

    // Test hook: what the key lanes hold right now — store chunks not yet
    // reclaimed, seq-mapping rows, and the store bytes (chunk directory plus
    // resident chunks), summed over every lane. Same calling rule as
    // key_count().
    struct LaneFootprint {
        std::size_t lanes = 0;
        std::size_t resident_chunks = 0;
        std::size_t parent_rows = 0;
        std::size_t store_bytes = 0;
    };
    LaneFootprint lane_footprint() const;

    // Input events shard `s` has not scanned yet, as of its last step (the
    // live lane-depth signal).
    std::size_t shard_queue_depth(std::uint32_t s) const;

private:
    // Merge tag: (g, key) for arrival-driven emissions, (kEosG, key) for
    // end-of-stream drains, kInfTag = "nothing further". A key is its first
    // global seq.
    struct MergeTag {
        event::Seq g = 0;
        event::Seq key = 0;
        bool operator<(const MergeTag& o) const {
            return g != o.g ? g < o.g : key < o.key;
        }
    };
    static constexpr event::Seq kEosG = ~event::Seq{0} - 1;
    static constexpr MergeTag kInfTag{~event::Seq{0}, ~event::Seq{0}};

    struct KeyLane;
    struct TaggedResult;
    struct ShardState;

    std::uint32_t shard_of(std::uint64_t key_bits) const;
    void process_event(ShardState& sh, const event::Event& e, std::uint64_t bits,
                       event::Seq g);
    // Runs end-of-stream lane drains, one engine step per budget unit.
    void eos_step(ShardState& sh, std::size_t& budget);
    void merge_locked(StepResult& r);

    const detect::CompiledQuery* cq_;
    const ShardedConfig cfg_;
    event::ResultSink sink_;
    obs::Shard* obs_ = nullptr;
    std::unique_ptr<event::EventStore> owned_;  // the input when none was given
    const event::EventStore* input_;
    std::vector<std::unique_ptr<ShardState>> shards_;
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
