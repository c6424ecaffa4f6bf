#include "spectre/consumption_group.hpp"

#include <algorithm>

namespace spectre::core {

ConsumptionGroup::ConsumptionGroup(std::uint64_t id, std::uint64_t window_id,
                                   std::uint64_t owner_version_id, int initial_delta)
    : id_(id), window_id_(window_id), owner_version_id_(owner_version_id),
      delta_(initial_delta) {}

void ConsumptionGroup::add_event(event::Seq seq) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        events_.push_back(seq);
    }
    if (seq >= end_.load()) end_.store(seq + 1);
    // Release so a reader that sees the new version also sees the new event.
    version_.fetch_add(1, std::memory_order_release);
}

void ConsumptionGroup::resolve(CgOutcome outcome) noexcept {
    outcome_.store(outcome, std::memory_order_release);
}

std::vector<event::Seq> ConsumptionGroup::snapshot(std::uint64_t& version_out) const {
    // Version first (acquire), then the membership: the snapshot can only be
    // *newer* than the recorded version, never older — which errs toward
    // suppressing too much, caught as a plain re-check, never an anomaly.
    version_out = version_.load(std::memory_order_acquire);
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_;
}

bool ConsumptionGroup::contains(event::Seq seq) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::find(events_.begin(), events_.end(), seq) != events_.end();
}

std::size_t ConsumptionGroup::size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

}  // namespace spectre::core
