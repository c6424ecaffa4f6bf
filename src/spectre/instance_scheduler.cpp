#include "spectre/instance_scheduler.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace spectre::core {

InstanceScheduler::InstanceScheduler(std::size_t instances) : slots_(instances) {
    ready_.reserve(instances);
    waiters_.reserve(instances);
    // Depth can never exceed the instance count.
    ready_hist_.assign(instances + 1, 0);
}

void InstanceScheduler::mark_stalled(int i, event::Seq wait_seq) {
    // Re-stalling moves the instance to the back of the wait list.
    move(i, State::WaitFrontier);
    slot(i).wait_seq = wait_seq;
}

void InstanceScheduler::wake_frontier(event::Seq frontier) {
    std::size_t kept = 0;
    for (const int i : waiters_) {
        Slot& s = slot(i);
        if (s.wait_seq < frontier) {
            s.state = State::Ready;
            ready_.push_back(i);
        } else {
            waiters_[kept++] = i;
        }
    }
    waiters_.resize(kept);
}

int InstanceScheduler::pop_ready() {
    const std::size_t depth = ready_depth();
    if (depth == 0) return -1;
    ready_max_ = std::max<std::uint64_t>(ready_max_, depth);
    ++ready_hist_[std::min(depth, ready_hist_.size() - 1)];
    ++ready_samples_;
    const int i = ready_[ready_head_++];
    if (ready_head_ == ready_.size()) {
        ready_.clear();
        ready_head_ = 0;
    }
    slot(i).state = State::Running;
    return i;
}

void InstanceScheduler::retire_all() {
    for (auto& s : slots_) s.state = State::WaitSplitter;
    ready_.clear();
    ready_head_ = 0;
    waiters_.clear();
}

double InstanceScheduler::ready_p50() const {
    if (ready_samples_ == 0) return 0.0;
    std::uint64_t seen = 0;
    for (std::size_t d = 0; d < ready_hist_.size(); ++d) {
        seen += ready_hist_[d];
        if (seen * 2 >= ready_samples_) return static_cast<double>(d);
    }
    return static_cast<double>(ready_hist_.size() - 1);
}

void InstanceScheduler::check_invariants() const {
    const auto queued = ready_.begin() + static_cast<std::ptrdiff_t>(ready_head_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const int idx = static_cast<int>(i);
        const State s = slots_[i].state;
        SPECTRE_CHECK(std::count(queued, ready_.end(), idx) == (s == State::Ready ? 1 : 0),
                      "ready queue out of sync with instance states");
        SPECTRE_CHECK(std::count(waiters_.begin(), waiters_.end(), idx) ==
                          (s == State::WaitFrontier ? 1 : 0),
                      "frontier wait list out of sync with instance states");
    }
}

InstanceScheduler::Slot& InstanceScheduler::slot(int i) {
    SPECTRE_CHECK(i >= 0 && static_cast<std::size_t>(i) < slots_.size(),
                  "instance index out of range");
    return slots_[static_cast<std::size_t>(i)];
}

void InstanceScheduler::move(int i, State to) {
    Slot& s = slot(i);
    if (s.state == to && to != State::WaitFrontier) return;
    // A cycle may re-classify an instance that is still queued (its version
    // fell out of the top-k): eject it so the queue never holds a waiter.
    // Both lists hold at most k entries.
    if (s.state == State::Ready)
        ready_.erase(std::find(ready_.begin() + static_cast<std::ptrdiff_t>(ready_head_),
                               ready_.end(), i));
    if (s.state == State::WaitFrontier)
        waiters_.erase(std::find(waiters_.begin(), waiters_.end(), i));
    s.state = to;
    if (to == State::Ready) ready_.push_back(i);
    if (to == State::WaitFrontier) waiters_.push_back(i);
}

}  // namespace spectre::core
