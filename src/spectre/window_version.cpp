#include "spectre/window_version.hpp"

#include "util/assert.hpp"

namespace spectre::core {

namespace {

// The suppression-set rule (DESIGN.md §4.1): keep pending groups and completed
// groups with an event at or after `first`. Completed groups come first and
// `frozen` counts them. Each outcome is read once, so a group that completes
// during the pass lands among the pending ones.
std::vector<CgPtr> reaching(std::vector<CgPtr> groups, event::Seq first, std::size_t& frozen) {
    std::vector<CgPtr> kept, pending;
    for (auto& cg : groups) {
        if (cg->outcome() != CgOutcome::Completed)
            pending.push_back(std::move(cg));
        else if (!cg->completed_before(first))
            kept.push_back(std::move(cg));
    }
    frozen = kept.size();
    kept.insert(kept.end(), std::make_move_iterator(pending.begin()),
                std::make_move_iterator(pending.end()));
    return kept;
}

}  // namespace

WindowVersion::WindowVersion(std::uint64_t version_id, query::WindowInfo window,
                             const detect::CompiledQuery* cq, std::vector<CgPtr> suppressed)
    : version_id_(version_id), window_(window),
      suppressed_(reaching(std::move(suppressed), window.first, frozen_suppressed_)),
      state_(std::make_unique<Processing>(cq)) {
    SPECTRE_REQUIRE(cq != nullptr, "WindowVersion needs a compiled query");
    state_->detector.begin_window(window_);
    state_->used.assign(window_.length(), false);
    state_->caches.resize(suppressed_.size());
}

std::vector<event::ComplexEvent> WindowVersion::take_output() {
    SPECTRE_CHECK(finished(), "take_output before the version finished");
    return std::move(state_->output);
}

void WindowVersion::clone_processing_from(const WindowVersion& src) {
    SPECTRE_REQUIRE(src.window() == window_, "cloning across different windows");
    *state_ = *src.state_;
    // The suppression set differs from the source's; rebuild the cache slots
    // and force full re-validation on the next consistency check.
    state_->caches.assign(suppressed_.size(), Processing::CgCache{});
    state_->suppressed_sorted.clear();
    state_->supp_dirty = true;  // the copied run index reflects src's groups
    progress_.store(src.progress(), std::memory_order_relaxed);
    finished_.store(src.finished(), std::memory_order_release);
}

void WindowVersion::reset_processing() {
    for (auto& [match_id, cg] : state_->own_groups) {
        (void)match_id;
        cg->resolve(CgOutcome::Abandoned);
    }
    state_->own_groups.clear();
    state_->completed_history.clear();
    state_->output.clear();
    std::fill(state_->used.begin(), state_->used.end(), false);
    state_->detector.begin_window(window_);
    state_->next_offset = 0;
    state_->steps_since_check = 0;
    // Keep the suppression caches' membership (still valid) but force the
    // next consistency check to re-verify everything.
    for (auto& cache : state_->caches) cache.checked_version = UINT64_MAX;
    state_->supp_dirty = true;
    finished_.store(false, std::memory_order_release);
    finish_applied_.store(false, std::memory_order_release);
    progress_.store(0, std::memory_order_relaxed);
}

bool WindowVersion::validate_suppression() const {
    for (const auto& cg : suppressed_) {
        std::uint64_t version = 0;
        for (const auto seq : cg->snapshot(version)) {
            if (seq < window_.first || seq > window_.last) continue;
            if (state_->used[seq - window_.first]) return false;
        }
    }
    return true;
}

}  // namespace spectre::core
