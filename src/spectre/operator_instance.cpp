#include "spectre/operator_instance.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace spectre::core {

namespace {
// Consumption-group ids are striped by instance index so concurrent
// instances never collide without synchronization.
constexpr std::uint64_t kIdStride = 1u << 20;
}  // namespace

OperatorInstance::OperatorInstance(int index, const event::EventStore* store,
                                   const detect::CompiledQuery* cq, UpdateQueue* updates,
                                   const std::atomic<bool>* input_complete,
                                   InstanceConfig config)
    : index_(index), store_(store), cq_(cq), updates_(updates),
      input_complete_(input_complete), config_(config),
      next_cg_id_(static_cast<std::uint64_t>(index) * kIdStride + 1) {
    SPECTRE_REQUIRE(store != nullptr && cq != nullptr && updates != nullptr &&
                        input_complete != nullptr,
                    "OperatorInstance needs store, query, update queue and input flag");
    SPECTRE_REQUIRE(config.consistency_check_freq >= 1,
                    "consistency_check_freq must be >= 1");
}

void OperatorInstance::assign(WvPtr wv) {
    const std::lock_guard<std::mutex> lock(slot_mutex_);
    slot_ = std::move(wv);
}

WvPtr OperatorInstance::assignment() const {
    const std::lock_guard<std::mutex> lock(slot_mutex_);
    return slot_;
}

void OperatorInstance::refresh_caches(WindowVersion& wv) {
    auto& st = wv.processing();
    for (std::size_t i = 0; i < wv.suppressed().size(); ++i) {
        const auto& cg = wv.suppressed()[i];
        auto& cache = st.caches[i];
        if (cache.snapshot_version == cg->version()) continue;
        std::uint64_t version = 0;
        cache.events = cg->snapshot(version);
        cache.snapshot_version = version;
        st.supp_dirty = true;
    }
}

void OperatorInstance::rebuild_suppressed_sorted(WindowVersion& wv) {
    auto& st = wv.processing();
    st.suppressed_sorted.clear();
    const auto first = wv.window().first;
    const auto last = wv.window().last;
    for (const auto& cache : st.caches) {
        for (const auto seq : cache.events)
            if (seq >= first && seq <= last)
                st.suppressed_sorted.push_back(seq - first);
    }
    std::sort(st.suppressed_sorted.begin(), st.suppressed_sorted.end());
    st.suppressed_sorted.erase(
        std::unique(st.suppressed_sorted.begin(), st.suppressed_sorted.end()),
        st.suppressed_sorted.end());
    st.supp_dirty = false;
}

void OperatorInstance::handle_feedback(WindowVersion& wv, detect::Feedback& fb) {
    auto& st = wv.processing();

    for (const auto& c : fb.created) {
        if (!c.consumable) continue;  // no consumption: no group, no dependency
        auto cg = std::make_shared<ConsumptionGroup>(next_cg_id_++, wv.window().id,
                                                     wv.version_id(), c.delta);
        st.own_groups.emplace(c.id, cg);
        Update u;
        u.kind = Update::Kind::CgCreated;
        u.version_id = wv.version_id();
        u.cg = cg;
        updates_->push(std::move(u));
    }

    for (const auto& b : fb.bound) {
        if (!b.consumable) continue;
        const auto it = st.own_groups.find(b.id);
        if (it == st.own_groups.end()) continue;  // match opened no group
        it->second->add_event(b.seq);
        it->second->set_delta(b.delta_after);
    }

    for (auto& done : fb.completed) {
        st.output.push_back(std::move(done.complex_event));
        const auto it = st.own_groups.find(done.id);
        if (it != st.own_groups.end()) {
            it->second->resolve(CgOutcome::Completed);
            st.completed_history.push_back(it->second);
            Update u;
            u.kind = Update::Kind::CgCompleted;
            u.version_id = wv.version_id();
            u.cg = it->second;
            updates_->push(std::move(u));
            st.own_groups.erase(it);
        }
    }

    for (const auto& a : fb.abandoned) {
        const auto it = st.own_groups.find(a.id);
        if (it == st.own_groups.end()) continue;
        it->second->resolve(CgOutcome::Abandoned);
        Update u;
        u.kind = Update::Kind::CgAbandoned;
        u.version_id = wv.version_id();
        u.cg = it->second;
        updates_->push(std::move(u));
        st.own_groups.erase(it);
    }

    if (wv.stats_enabled()) {
        for (const auto& t : fb.transitions)
            pending_transitions_.emplace_back(t.from, t.to);
    }
}

bool OperatorInstance::consistency_check(WindowVersion& wv) {
    // Fig. 8 lines 31-45: for every suppressed group that changed since the
    // last check, test whether this version processed an event that should
    // have been suppressed.
    auto& st = wv.processing();
    bool inconsistent = false;
    for (std::size_t i = 0; i < wv.suppressed().size(); ++i) {
        const auto& cg = wv.suppressed()[i];
        auto& cache = st.caches[i];
        const std::uint64_t current = cg->version();
        if (current == cache.checked_version) continue;
        std::uint64_t version = 0;
        cache.events = cg->snapshot(version);
        cache.snapshot_version = version;
        st.supp_dirty = true;  // membership moved: the run index is stale
        for (const auto seq : cache.events) {
            if (seq < wv.window().first || seq > wv.window().last) continue;
            if (st.used[seq - wv.window().first]) {
                inconsistent = true;
                break;
            }
        }
        cache.checked_version = version;
    }
    return inconsistent;
}

void OperatorInstance::rollback(WindowVersion& wv) {
    // All groups the invalid pass produced — pending *and* resolved — are
    // void, and resolutions may already have pruned dependent versions. The
    // Rollback update makes the splitter rebuild the whole dependent subtree
    // fresh; reprocessing then re-detects everything.
    wv.reset_processing();
    pending_transitions_.clear();  // partially gathered stats are tainted
    Update u;
    u.kind = Update::Kind::Rollback;
    u.version_id = wv.version_id();
    updates_->push(std::move(u));
    ++stats_.rollbacks;
}

void OperatorInstance::flush_stats(WindowVersion& wv) {
    if (pending_transitions_.empty()) return;
    Update u;
    u.kind = Update::Kind::Stats;
    u.version_id = wv.version_id();
    u.transitions = std::move(pending_transitions_);
    pending_transitions_.clear();
    updates_->push(std::move(u));
}

void OperatorInstance::finish_window(WindowVersion& wv) {
    fb_.clear();
    wv.processing().detector.end_window(fb_);
    handle_feedback(wv, fb_);
    wv.mark_finished();
    flush_stats(wv);
    Update u;
    u.kind = Update::Kind::WindowFinished;
    u.version_id = wv.version_id();
    updates_->push(std::move(u));
    ++stats_.versions_finished;
}

BatchResult OperatorInstance::run_batch(std::size_t max_events) {
    BatchResult r;
    WvPtr wv = assignment();
    if (!wv) {
        r.outcome = BatchResult::Outcome::NoAssignment;
        return r;
    }
    if (wv->dropped()) {
        r.outcome = BatchResult::Outcome::Dropped;
        return r;
    }
    if (wv->finished()) {
        r.outcome = BatchResult::Outcome::Finished;
        return r;
    }
    // Another instance may still be inside a batch on this version right
    // after a reassignment; back off and retry next batch.
    if (!wv->try_acquire(index_)) {
        r.outcome = BatchResult::Outcome::Busy;
        return r;
    }
    struct Release {
        WindowVersion* wv;
        ~Release() { wv->release_ownership(); }
    } release{wv.get()};
    ++stats_.batches;

    refresh_caches(*wv);
    auto& st = wv->processing();

    // Read the completion latch *before* the frontier: if it reads true, the
    // frontier read below is the stream's final length (DESIGN.md §6).
    const bool complete = input_complete_->load(std::memory_order_acquire);
    const event::Seq frontier = store_->size();
    const std::uint64_t win_len = wv->window().length();
    const event::Seq first = wv->window().first;

    // The batch advances in contiguous runs: each run ends at the window
    // extent, the ingestion frontier, the event budget, the consistency-check
    // cadence, or the next suppressed position — whichever is closest. Inside
    // a run the compiled detector programs execute back to back with no
    // membership probes, and progress is published once at the run boundary.
    while (r.advanced < max_events) {
        if (wv->dropped()) {
            r.outcome = BatchResult::Outcome::Dropped;
            break;
        }
        if (st.next_offset >= win_len) {
            finish_window(*wv);
            r.outcome = BatchResult::Outcome::Finished;
            break;
        }
        const event::Seq seq = first + st.next_offset;
        if (seq >= frontier) {
            // The next window position has not arrived yet. On a complete
            // input it never will — the window's extent bound reaches past
            // end-of-stream, so it finishes here (the batch engines' clamp);
            // on a live input, stall until the frontier advances.
            if (complete) {
                finish_window(*wv);
                r.outcome = BatchResult::Outcome::Finished;
            } else {
                r.outcome = BatchResult::Outcome::Stalled;
                r.wait_seq = seq;
            }
            break;
        }
        if (st.supp_dirty) rebuild_suppressed_sorted(*wv);

        std::uint64_t run = std::min<std::uint64_t>(win_len - st.next_offset,
                                                    frontier - seq);
        run = std::min<std::uint64_t>(run, max_events - r.advanced);
        run = std::min<std::uint64_t>(
            run, config_.consistency_check_freq - st.steps_since_check);
        const auto supp_it =
            std::lower_bound(st.suppressed_sorted.begin(), st.suppressed_sorted.end(),
                             st.next_offset);
        bool hit_suppressed = false;
        if (supp_it != st.suppressed_sorted.end() && *supp_it < st.next_offset + run) {
            run = *supp_it - st.next_offset;
            hit_suppressed = true;
        }

        for (std::uint64_t i = 0; i < run; ++i) {
            fb_.clear();
            st.detector.on_event(store_->at(seq + i), fb_);
            handle_feedback(*wv, fb_);
            st.used[st.next_offset + i] = true;
        }
        stats_.events_processed += run;
        st.next_offset += run;
        st.steps_since_check += run;
        r.advanced += run;
        if (hit_suppressed && r.advanced < max_events &&
            st.steps_since_check < config_.consistency_check_freq) {
            // The boundary position itself is suppressed: skip it.
            ++stats_.events_suppressed;
            ++st.next_offset;
            ++st.steps_since_check;
            ++r.advanced;
        }
        wv->set_progress(st.next_offset);

        if (st.steps_since_check >= config_.consistency_check_freq) {
            st.steps_since_check = 0;
            if (consistency_check(*wv)) {
                rollback(*wv);
                r.outcome = BatchResult::Outcome::RolledBack;
                break;  // restart the version in the next batch
            }
        }
    }

    flush_stats(*wv);
    return r;
}

}  // namespace spectre::core
