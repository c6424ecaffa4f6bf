// WindowVersion: one speculative version of one window (§3.1).
//
// A version is defined by its window plus the set of consumption groups it
// assumes to complete (whose events it suppresses — the groups reached via
// completion edges on its root path). The constructor bounds that set to the
// groups that can still touch the window (DESIGN.md §4.1): completed groups
// lying wholly before `window.first` are dropped. Processing state (detector,
// position, buffered complex events, the used-event set for consistency
// checks) lives here; it is mutated only by the operator instance the version
// is currently scheduled on. The splitter touches only the atomic flags
// (dropped / finished / finish_applied / stats_enabled) and reads `progress`
// for the prediction model.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "detect/detector.hpp"
#include "spectre/consumption_group.hpp"

namespace spectre::core {

class WindowVersion {
public:
    WindowVersion(std::uint64_t version_id, query::WindowInfo window,
                  const detect::CompiledQuery* cq, std::vector<CgPtr> suppressed);

    std::uint64_t version_id() const noexcept { return version_id_; }
    const query::WindowInfo& window() const noexcept { return window_; }
    const std::vector<CgPtr>& suppressed() const noexcept { return suppressed_; }
    // How many leading groups of suppressed() had already completed when the
    // version was built. None of them lies wholly before the window
    // (DependencyTree::check_invariants asserts it); the groups after them
    // were pending then and may complete before the window later.
    std::size_t frozen_suppressed() const noexcept { return frozen_suppressed_; }

    // --- splitter side -------------------------------------------------------
    void mark_dropped() noexcept { dropped_.store(true, std::memory_order_release); }
    bool dropped() const noexcept { return dropped_.load(std::memory_order_acquire); }
    bool finished() const noexcept { return finished_.load(std::memory_order_acquire); }
    // The splitter applied this version's WindowFinished update. The update
    // queue is FIFO per instance, so every group update of the final pass was
    // applied before it: only then may the version retire.
    void mark_finish_applied() noexcept {
        finish_applied_.store(true, std::memory_order_release);
    }
    bool retirable() const noexcept {
        return finished() && finish_applied_.load(std::memory_order_acquire);
    }
    // Enables δ-transition statistics gathering; the splitter turns this on
    // when the version becomes the valid version of an independent window
    // (§3.2.1: only independent windows feed the model).
    void enable_stats() noexcept { stats_enabled_.store(true, std::memory_order_release); }
    bool stats_enabled() const noexcept {
        return stats_enabled_.load(std::memory_order_acquire);
    }
    // Events processed or skipped so far (offset of the next event).
    std::uint64_t progress() const noexcept {
        return progress_.load(std::memory_order_relaxed);
    }
    std::uint64_t events_left() const noexcept {
        const auto p = progress();
        return p >= window_.length() ? 0 : window_.length() - p;
    }

    // Takes the buffered output after the version finished and became valid.
    // Caller must be the splitter, after observing finished() through the
    // update queue (which provides the happens-before edge).
    std::vector<event::ComplexEvent> take_output();

    // --- owning operator-instance side --------------------------------------
    struct Processing;
    Processing& processing() noexcept { return *state_; }

    // Batch-scoped exclusive ownership. A version can be rescheduled to a
    // different instance between batches (§2.2: "the processing of a window
    // can be interrupted ... and resumed ... by a different operator
    // instance"); the acquire/release pair serializes the batches and
    // publishes the processing state to the next owner.
    bool try_acquire(int instance_index) noexcept {
        int expected = -1;
        return busy_.compare_exchange_strong(expected, instance_index,
                                             std::memory_order_acquire);
    }
    void release_ownership() noexcept { busy_.store(-1, std::memory_order_release); }

    void mark_finished() noexcept { finished_.store(true, std::memory_order_release); }
    void set_progress(std::uint64_t p) noexcept {
        progress_.store(p, std::memory_order_relaxed);
    }

    // Clone support: copies `src`'s entire processing state (detector,
    // position, buffered output, used set). Used when a new consumption
    // group spawns the "modified copy" of a dependent subtree (§3.1): the
    // copy keeps the original's progress — restarting from scratch would
    // forfeit exactly the parallelism speculation exists to create — and the
    // caller validates the result against the new suppression set, falling
    // back to a fresh start only when the copied state already used a
    // suppressed event. Caller must hold both versions' batch locks.
    void clone_processing_from(const WindowVersion& src);

    // Rollback (§3.3): wipes all processing state so the version reprocesses
    // from the window start. Caller must hold the batch lock. Pending own
    // groups are marked abandoned; the splitter rebuilds the dependent
    // subtree (see DependencyTree::rebuild_after_rollback) because group
    // resolutions issued by the invalid pass may already have pruned it.
    void reset_processing();

    // Final validation against the (frozen) suppressed groups: true iff no
    // suppressed event was processed. Used by the splitter before retiring a
    // finished root — the safety net for versions that finished before a
    // suppressed group gained an event (a case the periodic in-flight check
    // cannot see). Caller must hold the batch lock.
    bool validate_suppression() const;

private:
    const std::uint64_t version_id_;
    const query::WindowInfo window_;
    std::size_t frozen_suppressed_ = 0;
    const std::vector<CgPtr> suppressed_;

    std::atomic<bool> dropped_{false};
    std::atomic<bool> finished_{false};
    std::atomic<bool> finish_applied_{false};
    std::atomic<bool> stats_enabled_{false};
    std::atomic<std::uint64_t> progress_{0};
    std::atomic<int> busy_{-1};  // instance index holding the batch lock

    std::unique_ptr<Processing> state_;
};

// Mutable processing state; only the owning operator instance touches it.
struct WindowVersion::Processing {
    explicit Processing(const detect::CompiledQuery* cq) : detector(cq) {}

    detect::Detector detector;
    std::uint64_t next_offset = 0;  // offset of next event within the window
    std::vector<event::ComplexEvent> output;  // buffered speculative output
    std::vector<bool> used;  // per-offset: event was fed to the detector

    // Suppression cache per suppressed group: membership snapshot + the
    // version it corresponds to + the version covered by the last
    // consistency check (CG.lastCheckedVersion in Fig. 8).
    struct CgCache {
        std::vector<event::Seq> events;
        std::uint64_t snapshot_version = UINT64_MAX;
        std::uint64_t checked_version = 0;
    };
    std::vector<CgCache> caches;  // parallel to suppressed()

    // Batched-run suppression index: the union of all cached memberships that
    // fall inside the window, as sorted offsets. The operator instance feeds
    // the detector in contiguous runs between these offsets instead of
    // probing a hash set per event; rebuilt (supp_dirty) whenever any cache
    // snapshot refreshes.
    std::vector<std::uint64_t> suppressed_sorted;
    bool supp_dirty = true;

    // Consumption groups created by this version's detector, by match id.
    std::unordered_map<detect::MatchId, CgPtr> own_groups;
    // Groups this version completed, in completion order. Used by the clone
    // path: cloning is refused while any of them still has a tree vertex
    // (its CgCompleted update is in flight), because the copied subtree
    // could not inherit the suppression yet.
    std::vector<CgPtr> completed_history;

    std::uint64_t steps_since_check = 0;
};

using WvPtr = std::shared_ptr<WindowVersion>;

}  // namespace spectre::core
