// Drivers for ShardedEngine outside the server (DESIGN.md §10): the
// deterministic inline runner the differential tests drive at chosen publish
// and step cadences, and the pooled runner that scales one hot partitioned
// stream across an EnginePool's workers — S shard tasks on N threads, no
// thread per shard — which is what bench_shard_scaling measures.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "server/engine_pool.hpp"
#include "shard/sharded_engine.hpp"

namespace spectre::shard {

// Single-threaded sharded run with an adversarially boring schedule: route
// `feed_chunk` events, publish them as one hand-off, round-robin one bounded
// step per shard, repeat; then close and step until finished. Exercises
// every merge-bound path without threads — output must be byte-identical to
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

    // Feeder side (one thread): route and publish one event; the publish
    // wakes its shard's task through the shard waker. Returns the engine's
    // routing info (shard, depth, dropped).
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
    // Wakes shard `s`'s task if it parked (§9 take-before-notify).
    void wake(std::uint32_t s);

    ShardedEngine* engine_;
    server::EnginePool* pool_;
    const std::uint64_t id_base_;
    const std::size_t quantum_events_;
    std::vector<std::unique_ptr<Task>> tasks_;

    std::mutex mutex_;
    std::condition_variable cv_;
    std::size_t done_ = 0;
    bool started_ = false;
};

}  // namespace spectre::shard
