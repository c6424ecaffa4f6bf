// Drivers for ShardedEngine outside the server (DESIGN.md §10), both over
// the engine's own store: the deterministic inline runner the differential
// tests drive at chosen feed and step cadences, and the pooled runner that
// scales one hot partitioned stream across an EnginePool's workers — S shard
// tasks on N threads, no thread per shard — which is what
// bench_shard_scaling measures.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "server/engine_pool.hpp"
#include "shard/sharded_engine.hpp"

namespace spectre::shard {

// Single-threaded sharded run with an adversarially boring schedule: ingest
// `feed_chunk` events into the engine's store, round-robin one bounded step
// per shard, repeat; then close and step until finished. Exercises every
// merge-bound path without threads — output must be byte-identical to
// reference_partitioned_run.
std::vector<event::ComplexEvent> run_sharded_inline(
    const detect::CompiledQuery& cq, ShardedConfig cfg,
    const std::vector<event::Event>& events, std::size_t feed_chunk = 7,
    std::size_t step_events = 3);

// Runs a ShardedEngine's S shards as cooperative tasks on an existing
// (started) EnginePool. The feeder thread calls ingest()/close(); wait()
// blocks until every shard task finished (all results are in the sink by
// then). Task ids occupy [id_base, id_base + shards).
class PooledShardRun {
public:
    PooledShardRun(ShardedEngine* engine, server::EnginePool* pool,
                   std::uint64_t id_base, std::size_t quantum_events = 128);
    ~PooledShardRun();

    PooledShardRun(const PooledShardRun&) = delete;
    PooledShardRun& operator=(const PooledShardRun&) = delete;

    // Registers the shard tasks and schedules their first quanta. Call once.
    void start();

    // Feeder side (one thread): append one event to the engine's store and
    // wake every shard, since each reads it. Returns the shard it hashes to.
    ShardedEngine::IngestInfo ingest(event::Event e);
    // End-of-stream: wake every shard for its EOS drain.
    void close();
    // Blocks until all shard tasks returned Done. The pool must stay alive.
    void wait();

private:
    struct Task final : server::EngineTask {
        PooledShardRun* run = nullptr;
        std::uint32_t shard = 0;
        server::ParkFlag parked;  // idle until an ingest or close
        Quantum run_quantum() override;
    };
    // Passes the §9 barrier (mutex_: a parking task re-checks the store
    // under it), then wakes every parked shard task (take-before-notify).
    void wake_all();

    ShardedEngine* engine_;
    server::EnginePool* pool_;
    const std::uint64_t id_base_;
    const std::size_t quantum_events_;
    std::vector<std::unique_ptr<Task>> tasks_;

    std::mutex mutex_;  // guards done_; also the §9 park barrier
    std::condition_variable cv_;
    std::size_t done_ = 0;
    bool started_ = false;
};

}  // namespace spectre::shard
