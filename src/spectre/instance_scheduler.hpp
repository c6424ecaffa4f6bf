// Ready-instance scheduler for the cooperative SPECTRE runtime (DESIGN.md §11).
//
// Every operator instance is in exactly one state: Ready (queued), Running
// (popped, batch in flight), WaitFrontier (stalled until the ingestion
// frontier passes its wait_seq) or WaitSplitter (version finished, dropped,
// busy or never assigned: only a splitter cycle can hand it work). An
// instance waits on at most one thing, so its state *is* its dependency: the
// scheduler keeps a FIFO of ready instances and a frontier wait list in stall
// order, and step() runs ready instances only.
//
// Single-threaded by design: step() runs inline on one thread at a time, so
// the scheduler is the runtime's private state and needs no locking.
#pragma once

#include <cstdint>
#include <vector>

#include "event/stream.hpp"

namespace spectre::core {

class InstanceScheduler {
public:
    // Until the first cycle assigns versions, every instance waits on the
    // splitter.
    explicit InstanceScheduler(std::size_t instances);

    std::size_t size() const noexcept { return slots_.size(); }
    std::size_t ready_depth() const noexcept { return ready_.size() - ready_head_; }

    // Instance i has runnable work (idempotent: a queued instance keeps its
    // place in the queue).
    void mark_ready(int i) { move(i, State::Ready); }
    // Instance i stalled: the event at `wait_seq` has not arrived yet.
    void mark_stalled(int i, event::Seq wait_seq);
    // Instance i has nothing runnable until a splitter cycle runs.
    void mark_waiting_assignment(int i) { move(i, State::WaitSplitter); }

    // The ingestion frontier advanced to `frontier`: every instance whose
    // awaited sequence has arrived becomes ready, in stall order.
    void wake_frontier(event::Seq frontier);

    // A splitter cycle ran: assignments may have changed anywhere (top-k
    // reshuffle, rollback rebuilds, drops), so every instance with a live
    // assignment (`has_work(i)`) is ready and the rest wait on the splitter.
    template <typename HasWork>
    void requeue_after_cycle(HasWork&& has_work) {
        for (int i = 0; i < static_cast<int>(slots_.size()); ++i)
            move(i, has_work(i) ? State::Ready : State::WaitSplitter);
    }

    // Pops the next ready instance (FIFO) and samples the queue depth for
    // the p50/max statistics. Returns -1 when nothing is ready.
    int pop_ready();

    // The runtime completed: nothing stays queued or waiting on the frontier.
    void retire_all();

    std::uint64_t ready_max() const noexcept { return ready_max_; }
    // Median observed ready-queue depth at pop time (0 with no samples).
    double ready_p50() const;

    // The lists mirror the states exactly: the ready queue holds each Ready
    // instance once (so no queued instance waits on anything) and the wait
    // list each WaitFrontier instance once. Throws on a violation.
    void check_invariants() const;

private:
    enum class State : std::uint8_t { Ready, Running, WaitFrontier, WaitSplitter };
    struct Slot {
        State state = State::WaitSplitter;
        event::Seq wait_seq = 0;  // WaitFrontier only: first missing seq
    };

    Slot& slot(int i);
    // Leaves the current state's list and enters `to`'s.
    void move(int i, State to);

    std::vector<Slot> slots_;
    std::vector<int> ready_;  // FIFO with a consumed-prefix cursor
    std::size_t ready_head_ = 0;
    std::vector<int> waiters_;  // WaitFrontier instances, in stall order
    std::vector<std::uint64_t> ready_hist_;  // pop-time depth histogram
    std::uint64_t ready_samples_ = 0;
    std::uint64_t ready_max_ = 0;
};

}  // namespace spectre::core
