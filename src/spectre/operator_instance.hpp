// OperatorInstance: one of the k parallel workers (§3.3, Fig. 8).
//
// Each instance processes the window version the splitter scheduled to it:
// it feeds non-suppressed events to the version's detector, maintains the
// version's consumption groups, buffers produced complex events, and runs the
// periodic consistency check, rolling the version back to the window start
// when a suppressed group gained an event this version already processed.
//
// Instances read the store only up to its ingestion frontier (DESIGN.md §6):
// a batch stalls when the next window position has not arrived yet, and a
// trailing window whose extent reaches past a completed input finishes at
// end-of-stream.
//
// The class is runtime-agnostic: SpectreRuntime's scheduler calls run_batch()
// inline on whichever thread steps the runtime, the simulated runtime calls
// it under a virtual clock. All communication with the splitter goes through
// the assignment slot (mutex), the store's frontier (which another thread may
// advance), and the splitter's update queue.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "event/stream.hpp"
#include "spectre/updates.hpp"
#include "spectre/window_version.hpp"

namespace spectre::core {

struct InstanceConfig {
    // Fig. 8 line 32: consistency check every `consistency_check_freq` steps.
    std::uint64_t consistency_check_freq = 64;
};

struct InstanceStats {
    std::uint64_t events_processed = 0;   // fed to a detector
    std::uint64_t events_suppressed = 0;  // skipped as consumed
    std::uint64_t rollbacks = 0;
    std::uint64_t versions_finished = 0;
    std::uint64_t batches = 0;
};

// What one run_batch() accomplished and — when it stopped early — why. The
// scheduler (instance_scheduler.hpp) files the instance under the matching
// state: Stalled waits on the frontier at `wait_seq`; every other outcome
// without runnable work waits on the splitter.
struct BatchResult {
    enum class Outcome : std::uint8_t {
        Progress,      // budget exhausted mid-window; more work immediately
        NoAssignment,  // slot empty — needs a scheduling cycle
        Busy,          // version batch-locked by another owner; retry later
        Stalled,       // next window position not yet arrived (see wait_seq)
        Finished,      // version finished (this batch or before)
        Dropped,       // assignment was dropped — dead speculation
        RolledBack,    // inconsistency detected; version restarts next batch
    };
    std::size_t advanced = 0;  // window positions advanced (fed + suppressed)
    Outcome outcome = Outcome::Progress;
    event::Seq wait_seq = 0;  // Stalled only: first sequence not yet arrived
};

class OperatorInstance {
public:
    // `input_complete` is the splitter's end-of-input latch: once it reads
    // true, the store's frontier is the stream's final length.
    OperatorInstance(int index, const event::EventStore* store,
                     const detect::CompiledQuery* cq, UpdateQueue* updates,
                     const std::atomic<bool>* input_complete, InstanceConfig config);

    int index() const noexcept { return index_; }

    // --- splitter side -------------------------------------------------------
    void assign(WvPtr wv);
    WvPtr assignment() const;

    // --- worker side ---------------------------------------------------------
    // Processes up to `max_events` events of the current assignment. Events
    // are fed to the compiled detector in contiguous runs between suppressed
    // positions (the per-event membership probe of the old loop is replaced
    // by one sorted-suppression cursor per run); progress is published once
    // per run. Returns how far the batch advanced and why it stopped.
    BatchResult run_batch(std::size_t max_events);

    const InstanceStats& stats() const noexcept { return stats_; }

private:
    // Rebuilds the sorted union of suppressed offsets for the version's
    // window (the run boundaries of the batched inner loop).
    void rebuild_suppressed_sorted(WindowVersion& wv);
    void refresh_caches(WindowVersion& wv);
    // Consumes `fb`: completed complex events are moved out (the caller
    // clears the buffer before its next use anyway).
    void handle_feedback(WindowVersion& wv, detect::Feedback& fb);
    bool consistency_check(WindowVersion& wv);
    void rollback(WindowVersion& wv);
    void finish_window(WindowVersion& wv);
    void flush_stats(WindowVersion& wv);

    const int index_;
    const event::EventStore* store_;
    const detect::CompiledQuery* cq_;
    UpdateQueue* updates_;
    const std::atomic<bool>* input_complete_;
    const InstanceConfig config_;

    mutable std::mutex slot_mutex_;
    WvPtr slot_;  // guarded by slot_mutex_

    std::uint64_t next_cg_id_;  // instance-striped unique ids
    detect::Feedback fb_;       // reused per event
    std::vector<std::pair<int, int>> pending_transitions_;  // stats buffer
    InstanceStats stats_;
};

}  // namespace spectre::core
