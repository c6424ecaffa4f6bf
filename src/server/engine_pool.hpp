// EnginePool: fixed pool of N worker threads multiplexing many sessions'
// engine work (DESIGN.md §9).
//
// PR 2's server spawned one engine thread per session, capping concurrent
// sessions at the thread budget. The pool decouples sessions from OS
// threads: each session registers one cooperatively-scheduled EngineTask,
// and a worker runs one bounded *quantum* of a task at a time — a task that
// is waiting for input or for egress credit parks itself (returns Parked)
// and the worker picks up another session. Thousands of sessions multiplex
// over N threads; a slow client suspends only its own task, never a worker.
//
// Scheduling contract (no lost wakeups):
//   * A task is in exactly one state: Parked, Queued, Running, or
//     RunningNotified. notify() on a Parked task queues it; on a Running
//     task it latches RunningNotified, and the worker re-queues the task
//     after the quantum even if the quantum itself returned Parked — so a
//     producer that publishes work *then* calls notify() never strands a
//     task that checked for work just before the publish.
//   * One task never runs on two workers at once (state machine above), and
//     the pool mutex orders consecutive quanta of the same task across
//     workers — a task's engine state needs no locking of its own.
//   * After a quantum returns Done the pool forgets the task before invoking
//     `on_done`, so the callback may destroy the task object.
//
// stop() joins the workers without draining parked tasks (server shutdown
// destroys the sessions that own them); a worker finishes at most the
// quantum it is in, which is bounded by construction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"

namespace spectre::server {

// One session's cooperatively-scheduled engine work.
class EngineTask {
public:
    virtual ~EngineTask() = default;

    enum class Quantum {
        MoreWork,  // ran the full quantum, more to do — requeue (round-robin)
        Parked,    // waiting for input / egress credit — run again on notify()
        Done,      // final: the pool forgets the task
    };

    // Run one bounded quantum of engine work. Never blocks.
    virtual Quantum run_quantum() = 0;
};

// The park half of the no-lost-wakeup contract, one flag per reason a task
// parks. The task publishes intent and then re-checks its wait condition; a
// producer publishes work and then takes the flag before notifying. Either
// the re-check sees the work or the producer sees the flag — never neither —
// and the exchange hands each park exactly one wakeup. The wait condition
// and the producer must also pass a common barrier (a mutex both take) when
// a plain store-load pair would not order them.
class ParkFlag {
public:
    // Task side: true when `still_waiting()` held after publishing intent —
    // return Parked. False leaves the flag clear; keep working.
    template <class Pred>
    bool park_if(Pred&& still_waiting) {
        parked_.store(true, std::memory_order_release);
        if (still_waiting()) return true;
        parked_.store(false, std::memory_order_relaxed);
        return false;
    }
    // Producer side, after publishing work: runs `notify` iff the task parked.
    template <class Notify>
    void wake(Notify&& notify) {
        if (parked_.exchange(false, std::memory_order_acq_rel)) notify();
    }

private:
    std::atomic<bool> parked_{false};
};

struct PoolStats {
    int workers = 0;
    std::uint64_t quanta = 0;          // quanta executed
    std::uint64_t tasks_added = 0;
    std::uint64_t tasks_finished = 0;  // quanta that returned Done
    std::size_t tasks_live = 0;        // registered: parked + queued + running
    std::size_t tasks_queued = 0;
    std::size_t tasks_running = 0;
};

class EnginePool {
public:
    explicit EnginePool(int workers);
    ~EnginePool();  // stop()

    EnginePool(const EnginePool&) = delete;
    EnginePool& operator=(const EnginePool&) = delete;

    // Spawns the worker threads. Call once.
    void start();

    // Joins every worker. Parked/queued tasks are forgotten, not drained —
    // callers own the task objects and destroy them afterwards. Idempotent.
    void stop();

    // Registers `task` under `id` and schedules its first quantum. `on_done`
    // is invoked from a worker thread after the task's final quantum, once
    // the pool has forgotten the task (the callback may destroy it).
    void add(std::uint64_t id, EngineTask* task, std::function<void(std::uint64_t)> on_done);

    // Schedules a parked task's next quantum. No-op for unknown (finished)
    // ids; safe from any thread, including from inside a quantum.
    void notify(std::uint64_t id);

    PoolStats stats() const;

    // Metrics plane (DESIGN.md §12): call before start(). Each worker gets
    // its own shard (queue-wait + quantum-duration histograms, quanta
    // counter); task add/finish counters land on a pool-scope shard. The
    // registry must outlive the pool's stop().
    void bind_obs(obs::Registry* registry);

private:
    enum class TaskState { Parked, Queued, Running, RunningNotified };
    struct Entry {
        EngineTask* task = nullptr;
        TaskState state = TaskState::Parked;
        std::function<void(std::uint64_t)> on_done;
        // When the task last became runnable (0 = obs off): queue-wait base.
        std::uint64_t ready_ns = 0;
    };

    void worker_loop();

    const int workers_count_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::unordered_map<std::uint64_t, Entry> tasks_;
    std::deque<std::uint64_t> run_queue_;
    std::vector<std::thread> workers_;
    bool started_ = false;
    bool stopping_ = false;
    obs::Registry* obs_registry_ = nullptr;
    obs::ShardPtr pool_shard_;
    std::uint64_t quanta_ = 0;
    std::uint64_t added_ = 0;
    std::uint64_t finished_ = 0;
    std::size_t running_ = 0;
};

}  // namespace spectre::server
