#include "shard/shard_run.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace spectre::shard {

std::vector<event::ComplexEvent> run_sharded_inline(
    const detect::CompiledQuery& cq, ShardedConfig cfg,
    const std::vector<event::Event>& events, std::size_t feed_chunk,
    std::size_t step_events) {
    std::vector<event::ComplexEvent> out;
    ShardedEngine engine(&cq, cfg,
                         [&out](event::ComplexEvent&& ce) { out.push_back(std::move(ce)); });
    std::size_t fed = 0;
    while (fed < events.size()) {
        const std::size_t end = std::min(events.size(), fed + std::max<std::size_t>(feed_chunk, 1));
        for (; fed < end; ++fed) engine.ingest(events[fed]);
        for (std::uint32_t s = 0; s < engine.shards(); ++s)
            engine.step_shard(s, step_events);
    }
    engine.close_input();
    while (!engine.finished())
        for (std::uint32_t s = 0; s < engine.shards(); ++s)
            engine.step_shard(s, step_events);
    return out;
}

server::EngineTask::Quantum PooledShardRun::Task::run_quantum() {
    const auto res = run->engine_->step_shard(shard, run->quantum_events_);
    if (res.shard_finished) return Quantum::Done;
    // An ingest or close between the idle observation and the park takes the
    // flag and re-queues us (§9) — no lost wakeup.
    if (res.idle && parked.park_if([this] {
            const std::lock_guard<std::mutex> lock(run->mutex_);
            return run->engine_->shard_parkable(shard);
        }))
        return Quantum::Parked;
    return Quantum::MoreWork;
}

PooledShardRun::PooledShardRun(ShardedEngine* engine, server::EnginePool* pool,
                               std::uint64_t id_base, std::size_t quantum_events)
    : engine_(engine), pool_(pool), id_base_(id_base), quantum_events_(quantum_events) {
    SPECTRE_REQUIRE(engine_ != nullptr && pool_ != nullptr,
                    "PooledShardRun needs an engine and a pool");
    for (std::uint32_t s = 0; s < engine_->shards(); ++s) {
        auto task = std::make_unique<Task>();
        task->run = this;
        task->shard = s;
        tasks_.push_back(std::move(task));
    }
}

PooledShardRun::~PooledShardRun() = default;

void PooledShardRun::start() {
    SPECTRE_REQUIRE(!started_, "PooledShardRun::start called twice");
    started_ = true;
    for (std::uint32_t s = 0; s < engine_->shards(); ++s) {
        pool_->add(id_base_ + s, tasks_[s].get(), [this](std::uint64_t) {
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                ++done_;
            }
            cv_.notify_all();
        });
    }
}

ShardedEngine::IngestInfo PooledShardRun::ingest(event::Event e) {
    const auto info = engine_->ingest(std::move(e));
    wake_all();
    return info;
}

void PooledShardRun::close() {
    engine_->close_input();
    wake_all();
}

void PooledShardRun::wake_all() {
    { const std::lock_guard<std::mutex> lock(mutex_); }
    for (std::uint32_t s = 0; s < engine_->shards(); ++s)
        tasks_[s]->parked.wake([this, s] { pool_->notify(id_base_ + s); });
}

void PooledShardRun::wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return done_ == tasks_.size(); });
}

}  // namespace spectre::shard
