// ConsumptionGroup: the shared record of one partial match's would-be
// consumptions (§3.1).
//
// Created by the operator instance that detects the partial match; referenced
// by the dependency tree (one or more Group vertices) and by every window
// version that speculatively suppresses its events. The owning instance adds
// events as the match grows; other instances read the membership through
// versioned snapshots. The monotonically increasing `version` counter is what
// the consistency check of Fig. 8 (lines 31–45) compares against
// `lastCheckedVersion` to detect late additions.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "event/event.hpp"

namespace spectre::core {

enum class CgOutcome : std::uint8_t { Pending, Completed, Abandoned };

class ConsumptionGroup {
public:
    ConsumptionGroup(std::uint64_t id, std::uint64_t window_id, std::uint64_t owner_version_id,
                     int initial_delta);

    std::uint64_t id() const noexcept { return id_; }
    std::uint64_t window_id() const noexcept { return window_id_; }
    // The window version whose detector owns this group. Group vertices in
    // copied subtrees share the underlying group of their original, and this
    // field is how the tree copy distinguishes self-owned groups (preserved,
    // shared) from descendant-owned ones (not part of a fresh copy).
    std::uint64_t owner_version_id() const noexcept { return owner_version_id_; }

    // --- owner-instance side -------------------------------------------------
    void add_event(event::Seq seq);
    void set_delta(int delta) noexcept { delta_.store(delta, std::memory_order_relaxed); }
    void resolve(CgOutcome outcome) noexcept;

    // --- reader side ---------------------------------------------------------
    std::uint64_t version() const noexcept { return version_.load(std::memory_order_acquire); }
    int delta() const noexcept { return delta_.load(std::memory_order_relaxed); }
    CgOutcome outcome() const noexcept { return outcome_.load(std::memory_order_acquire); }

    // True iff the group completed and none of its events reaches `first` (it
    // is empty or its largest seq is below `first`). A completed group is
    // frozen, so such a group can never touch a window starting at `first` or
    // later — the suppression-set bound of DESIGN.md §4.1. O(1), lock-free.
    bool completed_before(event::Seq first) const noexcept {
        return outcome() == CgOutcome::Completed && end_.load() <= first;
    }

    // Copies the current membership; `version_out` receives the version the
    // snapshot corresponds to.
    std::vector<event::Seq> snapshot(std::uint64_t& version_out) const;

    bool contains(event::Seq seq) const;
    std::size_t size() const;

private:
    const std::uint64_t id_;
    const std::uint64_t window_id_;
    const std::uint64_t owner_version_id_;
    std::atomic<int> delta_;
    std::atomic<std::uint64_t> version_{0};
    std::atomic<CgOutcome> outcome_{CgOutcome::Pending};
    // One past the largest member seq (0 while empty). Written by the owner
    // before it resolves the group, so a reader that sees Completed sees the
    // final value.
    std::atomic<event::Seq> end_{0};
    mutable std::mutex mutex_;
    std::vector<event::Seq> events_;  // guarded by mutex_
};

using CgPtr = std::shared_ptr<ConsumptionGroup>;

}  // namespace spectre::core
