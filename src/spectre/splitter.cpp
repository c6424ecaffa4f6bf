#include "spectre/splitter.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "util/assert.hpp"

namespace {
bool trace_enabled() {
    static const bool on = std::getenv("SPECTRE_TRACE") != nullptr;
    return on;
}
// Splitter-side batch-lock holder id (clone + final validation paths).
constexpr int kSplitterOwner = 1 << 30;

// Validates `cq` before any member initializer dereferences it (the window
// assigner is constructed before the constructor body's checks run).
const spectre::query::WindowSpec& window_spec_of(const spectre::detect::CompiledQuery* cq) {
    SPECTRE_REQUIRE(cq != nullptr, "Splitter needs store and query");
    return cq->query().window;
}
}  // namespace

namespace spectre::core {

Splitter::Splitter(const event::EventStore* store, const detect::CompiledQuery* cq,
                   SplitterConfig config, std::unique_ptr<model::CompletionModel> model)
    : store_(store), cq_(cq), config_(std::move(config)), model_(std::move(model)),
      assigner_(window_spec_of(cq)),
      tree_([this](const query::WindowInfo& w, std::vector<CgPtr> suppressed) {
          return std::make_shared<WindowVersion>(next_version_id_++, w, cq_,
                                                 std::move(suppressed));
      }) {
    SPECTRE_REQUIRE(store != nullptr && cq != nullptr, "Splitter needs store and query");
    SPECTRE_REQUIRE(model_ != nullptr, "Splitter needs a completion model");
    SPECTRE_REQUIRE(config_.instances >= 1, "need at least one operator instance");

    instances_.reserve(static_cast<std::size_t>(config_.instances));
    for (int i = 0; i < config_.instances; ++i)
        instances_.push_back(std::make_unique<OperatorInstance>(i, store_, cq_, &updates_,
                                                                &input_complete_,
                                                                config_.instance));
    tree_.set_clone_factory(
        [this](const query::WindowInfo& w, std::vector<CgPtr> suppressed,
               const WindowVersion& src, std::unordered_map<std::uint64_t, CgPtr>& cg_map,
               bool allow_pending) {
            return make_clone(w, std::move(suppressed), src, cg_map, allow_pending);
        });
    tree_.set_collapse_threshold(config_.collapse_threshold);
}

WvPtr Splitter::make_clone(const query::WindowInfo& w, std::vector<CgPtr> suppressed,
                           const WindowVersion& src,
                           std::unordered_map<std::uint64_t, CgPtr>& cg_map,
                           bool allow_pending) {
    // The source may be mid-batch on an operator instance; cloning its state
    // concurrently would race. Fall back to a fresh copy in that (rare) case.
    auto& mutable_src = const_cast<WindowVersion&>(src);
    if (!mutable_src.try_acquire(kSplitterOwner)) return nullptr;

    // Under memory pressure the tree collapses pending branches: only
    // versions without in-flight matches may keep their state.
    if (!allow_pending && !mutable_src.processing().own_groups.empty()) {
        mutable_src.release_ownership();
        return nullptr;
    }

    // Pending groups created inside the current cycle may not have tree
    // vertices yet; a clone of them could never propagate its consumptions.
    for (const auto& [match_id, cg] : mutable_src.processing().own_groups) {
        (void)match_id;
        if (!tree_.group_attached(cg->id())) {
            mutable_src.release_ownership();
            return nullptr;
        }
    }
    // Symmetrically, a *completed* group whose splice is still in flight
    // (vertex still attached) has not yet reached the subtree's suppression
    // sets; a copy made now would lose that consumption.
    for (const auto& cg : mutable_src.processing().completed_history) {
        if (tree_.group_attached(cg->id())) {
            mutable_src.release_ownership();
            return nullptr;
        }
    }

    auto clone = std::make_shared<WindowVersion>(next_version_id_++, w, cq_,
                                                 std::move(suppressed));
    clone->clone_processing_from(src);

    // The clone diverges from the source from here on: its in-flight matches
    // need their own consumption groups (same membership so far).
    auto& st = clone->processing();
    std::unordered_map<detect::MatchId, CgPtr> cloned_groups;
    std::vector<std::uint64_t> added_keys;
    for (const auto& [match_id, cg] : st.own_groups) {
        std::uint64_t version = 0;
        const auto events = cg->snapshot(version);
        auto copy = std::make_shared<ConsumptionGroup>(next_clone_cg_id_++, w.id,
                                                       clone->version_id(), cg->delta());
        for (const auto seq : events) copy->add_event(seq);
        cloned_groups.emplace(match_id, copy);
        cg_map.emplace(cg->id(), copy);
        added_keys.push_back(cg->id());
    }
    st.own_groups = std::move(cloned_groups);
    mutable_src.release_ownership();

    // The copied state is only valid if it never used an event the new
    // suppression set forbids (the "modified copy ... suppresses all events
    // listed in CG" condition); otherwise restart fresh.
    if (!clone->validate_suppression()) {
        for (const auto key : added_keys) cg_map.erase(key);
        return nullptr;
    }
    // A cloned finished version has no in-flight updates — its group state
    // was cloned synchronously — so it is immediately eligible to retire.
    if (clone->finished()) clone->mark_finish_applied();
    return clone;
}

std::size_t Splitter::effective_lookahead() const {
    if (config_.lookahead_windows > 0) return config_.lookahead_windows;
    // Natural overlap degree: how many consecutive windows share events.
    std::size_t overlap = 1;
    const auto& spec = cq_->query().window;
    if (spec.kind == query::WindowKind::SlidingCount && spec.slide < spec.size)
        overlap = static_cast<std::size_t>((spec.size + spec.slide - 1) / spec.slide);
    return std::max<std::size_t>({overlap, static_cast<std::size_t>(config_.instances) * 2,
                                  2});
}

void Splitter::apply_updates() {
    auto batch = updates_.drain();
    metrics_.updates_applied += batch.size();

    // Reorder the batch to maximize state-preserving clones without changing
    // semantics: (1) splice resolutions of already-attached groups first, so
    // their consumptions reach the tree before any copy is made; (2) attach
    // creations deepest-owner-first, so an ancestor's copy finds descendant
    // group vertices in place; (3) everything else in arrival order. Only
    // updates before the first Rollback are hoisted — a creation issued
    // after a rollback must not attach before the rebuild wipes the subtree.
    std::size_t hoist_limit = batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].kind == Update::Kind::Rollback) {
            hoist_limit = i;
            break;
        }
    }
    std::vector<std::size_t> order;
    std::vector<char> taken(batch.size(), 0);
    order.reserve(batch.size());
    for (std::size_t i = 0; i < hoist_limit; ++i) {
        const auto k = batch[i].kind;
        if ((k == Update::Kind::CgCompleted || k == Update::Kind::CgAbandoned) &&
            batch[i].cg && tree_.group_attached(batch[i].cg->id())) {
            order.push_back(i);
            taken[i] = 1;
        }
    }
    std::vector<std::size_t> creations;
    for (std::size_t i = 0; i < hoist_limit; ++i) {
        if (batch[i].kind == Update::Kind::CgCreated) {
            creations.push_back(i);
            taken[i] = 1;
        }
    }
    std::stable_sort(creations.begin(), creations.end(),
                     [&](std::size_t a, std::size_t b) {
                         return batch[a].cg->window_id() > batch[b].cg->window_id();
                     });
    order.insert(order.end(), creations.begin(), creations.end());
    for (std::size_t i = 0; i < batch.size(); ++i)
        if (!taken[i]) order.push_back(i);

    for (const auto idx : order) {
        auto& u = batch[idx];
        switch (u.kind) {
            case Update::Kind::CgCreated: {
                const bool ok = tree_.on_group_created(u.cg);
                if (ok) ++metrics_.groups_created;
                if (trace_enabled())
                    std::fprintf(stderr, "[trace] cg_created id=%llu owner=%llu win=%llu ok=%d\n",
                                 (unsigned long long)u.cg->id(),
                                 (unsigned long long)u.cg->owner_version_id(),
                                 (unsigned long long)u.cg->window_id(), ok ? 1 : 0);
                break;
            }
            case Update::Kind::CgCompleted:
                ++metrics_.groups_completed;
                if (trace_enabled()) {
                    std::uint64_t ver = 0;
                    std::string evs;
                    for (auto s : u.cg->snapshot(ver)) evs += std::to_string(s) + ",";
                    std::fprintf(stderr, "[trace] cg_completed id=%llu owner=%llu events=%s\n",
                                 (unsigned long long)u.cg->id(),
                                 (unsigned long long)u.cg->owner_version_id(), evs.c_str());
                }
                tree_.on_group_resolved(u.cg, /*completed=*/true);
                break;
            case Update::Kind::CgAbandoned:
                ++metrics_.groups_abandoned;
                tree_.on_group_resolved(u.cg, /*completed=*/false);
                break;
            case Update::Kind::WindowFinished:
                // Retirement is gated on this update, not on the version's
                // atomic flag: the queue is FIFO per instance, so once this
                // arrives, every group update of the version's final pass has
                // been applied. Acting on the flag alone could retire a root
                // whose last consumption-group updates are still in flight.
                // A version dropped meanwhile is gone from the tree.
                if (WindowVersion* wv = tree_.find(u.version_id)) wv->mark_finish_applied();
                break;
            case Update::Kind::Rollback:
                ++metrics_.rollbacks;
                tree_.rebuild_after_rollback(u.version_id);
                break;
            case Update::Kind::Stats:
                metrics_.stats_samples += u.transitions.size();
                for (const auto& [from, to] : u.transitions) model_->observe(from, to);
                break;
        }
    }
}

void Splitter::retire_finished_roots() {
    while (WindowVersion* root = tree_.front_root()) {
        if (!root->retirable()) break;
        // Final consistency check before the root's output becomes visible:
        // a version that finished *before* one of its suppressed groups
        // gained an event never saw that addition in its periodic checks. By
        // now the root path is fully resolved, so membership is frozen and
        // the verdict is final.
        if (!root->try_acquire(kSplitterOwner)) break;  // owner mid-batch; retry next cycle
        if (!root->validate_suppression()) {
            ++metrics_.late_validations;
            root->reset_processing();
            root->release_ownership();
            tree_.rebuild_after_rollback(root->version_id());
            break;  // reprocess; retirement resumes once re-finished
        }
        if (trace_enabled()) {
            std::string cgs;
            for (const auto& cg : root->suppressed()) {
                std::uint64_t ver = 0;
                cgs += std::to_string(cg->id()) + "{";
                for (auto s : cg->snapshot(ver)) cgs += std::to_string(s) + ",";
                cgs += "} ";
            }
            std::string out;
            for (const auto& ce : root->processing().output) {
                out += "[";
                for (auto s : ce.constituents) out += std::to_string(s) + ",";
                out += "]";
            }
            std::fprintf(stderr, "[trace] retire win=%llu ver=%llu suppressed=%s out=%s\n",
                         (unsigned long long)root->window().id,
                         (unsigned long long)root->version_id(), cgs.c_str(), out.c_str());
        }
        root->release_ownership();
        // Only *validated* retirements feed the consumed tail — speculative
        // completions on dropped branches never really consumed anything.
        for (const auto& cg : tree_.front_root_completed_groups()) {
            std::uint64_t version = 0;
            for (const auto seq : cg->snapshot(version)) consumed_tail_.insert(seq);
        }
        WvPtr retired = tree_.retire_front_root();
        auto out = retired->take_output();
        metrics_.complex_events += out.size();
        // Egress point: only validated retirements reach here, so emission
        // order == window order == the sequential engine's output order
        // (DESIGN.md §8 ordering guarantee).
        for (auto& ce : out) {
            if (sink_)
                sink_(std::move(ce));
            else
                output_.push_back(std::move(ce));
        }
        --live_windows_;
        ++metrics_.windows_retired;
    }
}

void Splitter::discover_windows() {
    // A closed store implies a complete input; latch the flag so the operator
    // instances (which read it through a pointer) see it with one acquire.
    // Latch even when the assigner is exhausted — trailing windows finish at
    // end-of-stream only once the instances observe completeness.
    if (!input_complete_.load(std::memory_order_relaxed) && store_->closed())
        input_complete_.store(true, std::memory_order_release);
    const bool complete = input_complete_.load(std::memory_order_relaxed);
    const event::Seq frontier = store_->size();
    if (!assigner_.exhausted()) {
        const std::size_t before = windows_.size();
        assigner_.poll(*store_, frontier, complete, windows_);
        // The dependency definition requires window ends monotone in starts
        // (DESIGN.md §5); all our window kinds satisfy it, assert anyway.
        for (std::size_t i = before; i < windows_.size(); ++i) {
            SPECTRE_CHECK(windows_[i].last >= last_discovered_.last &&
                              windows_[i].first >= last_discovered_.first,
                          "window ends must be monotone in starts");
            last_discovered_ = windows_[i];
        }
    }
    last_polled_frontier_ = frontier;
    last_polled_complete_ = complete;
}

const query::WindowInfo* Splitter::oldest_window() const {
    if (const WindowVersion* root = tree_.front_root()) return &root->window();
    return windows_.empty() ? nullptr : &windows_.front();
}

event::Seq Splitter::processed() const {
    if (last_polled_frontier_ == UINT64_MAX) return 0;  // nothing polled yet
    const query::WindowInfo* w = oldest_window();
    // Window ends ascend: if the oldest pending window is still arriving,
    // so is every later one.
    if (w && (last_polled_complete_ || w->last < last_polled_frontier_)) return w->first;
    return last_polled_frontier_;
}

event::Seq Splitter::low_watermark() const {
    if (last_polled_frontier_ == UINT64_MAX) return 0;  // nothing polled yet
    const event::Seq wm = std::min(assigner_.low_watermark(), last_polled_frontier_);
    const query::WindowInfo* w = oldest_window();
    return w ? std::min(wm, w->first) : wm;
}

bool Splitter::needs_cycle() const {
    if (done_) return false;
    // Buffered instance feedback: groups to attach/resolve, finish marks,
    // rollbacks, statistics.
    if (!updates_.empty()) return true;
    // A finished root whose WindowFinished update was already drained is
    // eligible to retire (and retirement may cascade: child becomes root).
    if (const WindowVersion* root = tree_.front_root())
        if (root->retirable()) return true;
    // The input state or the frontier moved since the last discovery poll:
    // the end-of-stream latch must be taken / new windows may be determined.
    const bool complete =
        input_complete_.load(std::memory_order_relaxed) || store_->closed();
    if (complete != last_polled_complete_ || store_->size() != last_polled_frontier_)
        return true;
    // Discovered windows are waiting and there is capacity to open them.
    if (!windows_.empty() && live_windows_ < effective_lookahead() &&
        tree_.live_versions() < config_.max_tree_versions)
        return true;
    return false;
}

void Splitter::open_windows() {
    const std::size_t lookahead = effective_lookahead();
    std::size_t opened = 0;
    while (opened < windows_.size() && live_windows_ < lookahead &&
           tree_.live_versions() < config_.max_tree_versions) {
        const auto& w = windows_[opened];
        // Windows open in start order: nothing below w.first is read again.
        consumed_tail_.drop_below(w.first);
        // If the window starts a new independent tree it still has to
        // suppress consumptions from retired windows reaching into its range;
        // hand them over as a resolved "ghost" group.
        std::vector<CgPtr> root_suppressed;
        if (!consumed_tail_.empty()) {
            auto ghost = std::make_shared<ConsumptionGroup>(/*id=*/0, /*window_id=*/0,
                                                            /*owner_version_id=*/0,
                                                            /*initial_delta=*/0);
            consumed_tail_.for_each([&ghost](event::Seq seq) { ghost->add_event(seq); });
            ghost->resolve(CgOutcome::Completed);
            root_suppressed.push_back(std::move(ghost));
        }
        tree_.open_window(w, std::move(root_suppressed));
        ++opened;
        ++live_windows_;
        ++metrics_.windows_opened;
    }
    windows_.erase(windows_.begin(), windows_.begin() + static_cast<std::ptrdiff_t>(opened));
}

void Splitter::schedule() {
    const auto k = static_cast<std::size_t>(config_.instances);
    const auto topk = tree_.top_k(k, *model_);

    std::unordered_set<std::uint64_t> wanted;
    for (const auto& wv : topk) wanted.insert(wv->version_id());

    // First pass (Fig. 7 lines 7-13): instances keeping a top-k version are
    // not free; everything else is.
    std::unordered_set<std::uint64_t> already_scheduled;
    std::vector<OperatorInstance*> free_instances;
    for (auto& inst : instances_) {
        const WvPtr cur = inst->assignment();
        if (cur && !cur->dropped() && !cur->finished() &&
            wanted.count(cur->version_id()) &&
            !already_scheduled.count(cur->version_id())) {
            already_scheduled.insert(cur->version_id());
        } else {
            free_instances.push_back(inst.get());
        }
    }

    // Second pass (lines 14-17): hand each remaining top-k version to a free
    // instance.
    std::size_t fi = 0;
    for (const auto& wv : topk) {
        if (already_scheduled.count(wv->version_id())) continue;
        SPECTRE_CHECK(fi < free_instances.size(), "not enough free operator instances");
        free_instances[fi++]->assign(wv);
    }
    // Idle any leftover instances so they stop burning work on versions that
    // fell out of the top-k.
    for (; fi < free_instances.size(); ++fi) free_instances[fi]->assign(nullptr);
}

bool Splitter::run_cycle() {
    if (done_) return false;
    ++metrics_.cycles;

    apply_updates();
    retire_finished_roots();
    discover_windows();
    open_windows();
    model_->refresh();
    schedule();

    metrics_.max_tree_versions =
        std::max(metrics_.max_tree_versions, tree_.stats().max_versions);
    metrics_.versions_dropped = tree_.stats().versions_dropped;
    metrics_.copies_cloned = tree_.stats().copies_cloned;
    metrics_.copies_fresh = tree_.stats().copies_fresh;
    metrics_.speculation_wasted_events = tree_.stats().wasted_events;

    // Done only at quiescence on a complete input: no window still to be
    // discovered by arrivals, none waiting to open, none live in the tree.
    if (input_complete_.load(std::memory_order_relaxed) && assigner_.exhausted() &&
        windows_.empty() && tree_.empty()) {
        done_ = true;
        for (auto& inst : instances_) inst->assign(nullptr);
        return false;
    }
    return true;
}

}  // namespace spectre::core
