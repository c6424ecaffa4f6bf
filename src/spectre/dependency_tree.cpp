#include "spectre/dependency_tree.hpp"

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "util/assert.hpp"

namespace spectre::core {

namespace {

std::vector<CgPtr> with_group(std::vector<CgPtr> base, const CgPtr& cg) {
    base.push_back(cg);
    return base;
}

}  // namespace

DependencyTree::DependencyTree(VersionFactory factory) : factory_(std::move(factory)) {
    SPECTRE_REQUIRE(factory_ != nullptr, "DependencyTree needs a version factory");
}

TreeNode* DependencyTree::find_version(std::uint64_t version_id) const {
    const auto it = index_.find(version_id);
    return it == index_.end() ? nullptr : it->second;
}

void DependencyTree::register_subtree(TreeNode* node) {
    if (node == nullptr) return;
    if (node->kind == TreeNode::Kind::Version) {
        index_[node->wv->version_id()] = node;
        if (node->child) {
            node->child->parent = node;
            register_subtree(node->child.get());
        }
    } else {
        group_index_[node->cg->id()].push_back(node);
        if (node->completion) {
            node->completion->parent = node;
            register_subtree(node->completion.get());
        }
        if (node->abandon) {
            node->abandon->parent = node;
            register_subtree(node->abandon.get());
        }
    }
    stats_.max_versions = std::max(stats_.max_versions, index_.size());
}

void DependencyTree::drop_subtree(std::unique_ptr<TreeNode> node) {
    if (!node) return;
    if (node->kind == TreeNode::Kind::Version) {
        node->wv->mark_dropped();
        index_.erase(node->wv->version_id());
        ++stats_.versions_dropped;
        stats_.wasted_events += node->wv->progress();
        drop_subtree(std::move(node->child));
    } else {
        auto& vec = group_index_[node->cg->id()];
        vec.erase(std::remove(vec.begin(), vec.end(), node.get()), vec.end());
        if (vec.empty()) group_index_.erase(node->cg->id());
        drop_subtree(std::move(node->completion));
        drop_subtree(std::move(node->abandon));
    }
}

void DependencyTree::attach_at_leaves(TreeNode* node, const query::WindowInfo& w,
                                      std::vector<CgPtr> suppressed) {
    if (node->kind == TreeNode::Kind::Version) {
        // A version's own suppressed set is authoritative for its subtree —
        // plus the groups it completed whose vertices are already gone. The
        // new version keeps only the groups that reach its window.
        std::vector<CgPtr> base = node->wv->suppressed();
        base.insert(base.end(), node->completed_groups.begin(),
                    node->completed_groups.end());
        if (node->child) {
            attach_at_leaves(node->child.get(), w, std::move(base));
        } else {
            auto leaf = std::make_unique<TreeNode>();
            leaf->kind = TreeNode::Kind::Version;
            leaf->wv = factory_(w, std::move(base));
            leaf->parent = node;
            ++stats_.versions_created;
            node->child = std::move(leaf);
            register_subtree(node->child.get());
        }
        return;
    }
    // Group vertex: completion side additionally suppresses this group
    // (Fig. 4 lines 5-8: two versions are attached under a group leaf).
    const auto handle_edge = [&](std::unique_ptr<TreeNode>& edge, std::vector<CgPtr> supp) {
        if (edge) {
            attach_at_leaves(edge.get(), w, std::move(supp));
        } else {
            auto leaf = std::make_unique<TreeNode>();
            leaf->kind = TreeNode::Kind::Version;
            leaf->wv = factory_(w, std::move(supp));
            leaf->parent = node;
            ++stats_.versions_created;
            edge = std::move(leaf);
            register_subtree(edge.get());
        }
    };
    handle_edge(node->completion, with_group(suppressed, node->cg));
    handle_edge(node->abandon, std::move(suppressed));
}

void DependencyTree::open_window(const query::WindowInfo& w,
                                 std::vector<CgPtr> root_suppressed) {
    if (!roots_.empty()) {
        // Window ends are monotone in their starts (asserted by the splitter),
        // so overlapping the most recently opened window is the only way to
        // depend on any live window.
        SPECTRE_REQUIRE(w.first >= latest_opened_.first,
                        "windows must be opened in start order");
        if (w.first <= latest_opened_.last) {
            latest_opened_ = w;
            attach_at_leaves(roots_.back().get(), w, {});
            stats_.max_versions = std::max(stats_.max_versions, index_.size());
            return;
        }
    }
    // Independent window: new tree (§3.1: "an individual dependency tree for
    // each independent window").
    latest_opened_ = w;
    auto root = std::make_unique<TreeNode>();
    root->kind = TreeNode::Kind::Version;
    root->wv = factory_(w, std::move(root_suppressed));
    ++stats_.versions_created;
    root->wv->enable_stats();  // independent window: feeds the Markov model
    index_[root->wv->version_id()] = root.get();
    roots_.push_back(std::move(root));
    stats_.max_versions = std::max(stats_.max_versions, index_.size());
}

std::unique_ptr<TreeNode> DependencyTree::copy_subtree(const TreeNode* original,
                                                       std::vector<CgPtr> suppressed,
                                                       CopyContext& ctx, bool force_fresh) {
    if (original == nullptr) return nullptr;
    if (original->kind == TreeNode::Kind::Version) {
        auto node = std::make_unique<TreeNode>();
        node->kind = TreeNode::Kind::Version;
        // Prefer a state-preserving clone (the paper's "modified copy"); a
        // fresh restart is the fallback when the copied state would already
        // violate the new suppression set (or cloning is unavailable).
        if (!force_fresh && clone_factory_)
            node->wv = clone_factory_(original->wv->window(), suppressed, *original->wv,
                                      ctx.cg_map, /*allow_pending=*/!ctx.collapse);
        std::vector<CgPtr> deeper = suppressed;
        if (node->wv) {
            ++stats_.copies_cloned;
            // The clone keeps the original's completed matches; deeper copies
            // must keep suppressing those consumptions (the groups are frozen
            // and safely shared).
            node->completed_groups = original->completed_groups;
            deeper.insert(deeper.end(), original->completed_groups.begin(),
                          original->completed_groups.end());
        } else {
            node->wv = factory_(original->wv->window(), std::move(suppressed));
            ctx.fresh_owners.insert(original->wv->version_id());
            ++stats_.copies_fresh;
            // Deeper originals may have skipped events this version's (now
            // void) matches consumed; none of their state is trustworthy.
            force_fresh = true;
        }
        ++stats_.versions_created;
        node->child =
            copy_subtree(original->child.get(), std::move(deeper), ctx, force_fresh);
        return node;
    }

    if (original->cg->owner_version_id() == ctx.owner_version_id) {
        // Owned by the version that created the new group (outside the copy
        // region): preserved, sharing the underlying group — resolving it
        // prunes the original and the copied vertex together.
        auto node = std::make_unique<TreeNode>();
        node->kind = TreeNode::Kind::Group;
        node->cg = original->cg;
        node->completion = copy_subtree(original->completion.get(),
                                        with_group(suppressed, original->cg), ctx,
                                        force_fresh);
        node->abandon =
            copy_subtree(original->abandon.get(), std::move(suppressed), ctx, force_fresh);
        return node;
    }

    // Descendant-owned group. If the owner's copy kept its state, the pending
    // match lives on in the clone: preserve the vertex with the cloned group.
    const auto cloned = ctx.cg_map.find(original->cg->id());
    if (!force_fresh && cloned != ctx.cg_map.end() &&
        !ctx.fresh_owners.count(original->cg->owner_version_id())) {
        auto node = std::make_unique<TreeNode>();
        node->kind = TreeNode::Kind::Group;
        node->cg = cloned->second;
        node->completion = copy_subtree(original->completion.get(),
                                        with_group(suppressed, cloned->second), ctx,
                                        force_fresh);
        node->abandon =
            copy_subtree(original->abandon.get(), std::move(suppressed), ctx, force_fresh);
        return node;
    }
    // Owner restarted fresh (or the group is unknown): the copied world has
    // no such match yet — continue along the no-consumption structure.
    return copy_subtree(original->abandon.get(), std::move(suppressed), ctx, force_fresh);
}

bool DependencyTree::on_group_created(const CgPtr& cg) {
    SPECTRE_REQUIRE(cg != nullptr, "null consumption group");
    TreeNode* owner = find_version(cg->owner_version_id());
    if (owner == nullptr || owner->wv->dropped()) return false;  // stale update

    auto group = std::make_unique<TreeNode>();
    group->kind = TreeNode::Kind::Group;
    group->cg = cg;
    group->parent = owner;

    std::unique_ptr<TreeNode> old_subtree = std::move(owner->child);
    // Base suppression for the copies: everything the owner's path
    // assumes/knows consumed — including groups the owner already completed
    // (their vertices are gone but their consumptions bind) — plus the new
    // group itself.
    std::vector<CgPtr> base = owner->wv->suppressed();
    base.insert(base.end(), owner->completed_groups.begin(), owner->completed_groups.end());
    CopyContext ctx;
    ctx.owner_version_id = owner->wv->version_id();
    ctx.collapse = index_.size() > collapse_threshold_;
    group->completion =
        copy_subtree(old_subtree.get(), with_group(base, cg), ctx, /*force_fresh=*/false);
    group->abandon = std::move(old_subtree);

    owner->child = std::move(group);
    TreeNode* g = owner->child.get();
    // Register only the new vertices: the group itself and the fresh
    // completion copy. The abandon side was in the tree already.
    group_index_[cg->id()].push_back(g);
    if (g->completion) {
        g->completion->parent = g;
        register_subtree(g->completion.get());
    }
    if (g->abandon) g->abandon->parent = g;
    stats_.max_versions = std::max(stats_.max_versions, index_.size());
    ++stats_.groups_attached;
    return true;
}

void DependencyTree::on_group_resolved(const CgPtr& cg, bool completed) {
    // Remember completions on the owner vertex: once the group's vertices are
    // spliced out, this is the only trace windows opened later can inherit
    // the suppression from.
    if (completed) {
        if (TreeNode* owner = find_version(cg->owner_version_id()))
            owner->completed_groups.push_back(cg);
    }
    const auto it = group_index_.find(cg->id());
    if (it == group_index_.end()) return;  // never attached (owner was dropped)
    // Splicing mutates the index entry; work on a copy.
    std::vector<TreeNode*> vertices = it->second;
    for (TreeNode* g : vertices) {
        // The vertex may already have been dropped by an earlier splice in
        // this very loop (nested copies); re-check membership.
        const auto cur = group_index_.find(cg->id());
        if (cur == group_index_.end() ||
            std::find(cur->second.begin(), cur->second.end(), g) == cur->second.end())
            continue;

        std::unique_ptr<TreeNode> keep =
            completed ? std::move(g->completion) : std::move(g->abandon);
        std::unique_ptr<TreeNode> drop =
            completed ? std::move(g->abandon) : std::move(g->completion);
        drop_subtree(std::move(drop));

        TreeNode* parent = g->parent;
        SPECTRE_CHECK(parent != nullptr, "group vertex cannot be a root");
        auto& vec = group_index_[cg->id()];
        vec.erase(std::remove(vec.begin(), vec.end(), g), vec.end());
        if (vec.empty()) group_index_.erase(cg->id());

        // Splice: replace g with the kept subtree in g's parent slot.
        std::unique_ptr<TreeNode>* slot = nullptr;
        if (parent->kind == TreeNode::Kind::Version) {
            slot = &parent->child;
        } else {
            slot = parent->completion.get() == g ? &parent->completion : &parent->abandon;
        }
        SPECTRE_CHECK(slot->get() == g, "group vertex not found in its parent slot");
        if (keep) keep->parent = parent;
        *slot = std::move(keep);  // destroys g
    }
}

namespace {

void collect_windows(const TreeNode* node, std::vector<query::WindowInfo>& out) {
    if (node == nullptr) return;
    if (node->kind == TreeNode::Kind::Version) {
        if (out.empty() || out.back().id != node->wv->window().id)
            out.push_back(node->wv->window());
        collect_windows(node->child.get(), out);
    } else {
        // Both edges hold the same window chain; one traversal suffices, but
        // the chain can be deeper on either side after partial attachment —
        // walk both and dedupe by id.
        std::vector<query::WindowInfo> a, b;
        collect_windows(node->completion.get(), a);
        collect_windows(node->abandon.get(), b);
        for (const auto& w : (a.size() >= b.size() ? a : b))
            if (out.empty() || out.back().id != w.id) out.push_back(w);
    }
}

}  // namespace

void DependencyTree::rebuild_after_rollback(std::uint64_t version_id) {
    TreeNode* node = find_version(version_id);
    if (node == nullptr || node->wv->dropped()) return;
    // The invalid pass's completions are void along with everything else.
    node->completed_groups.clear();
    if (!node->child) return;  // nothing depended on it

    std::vector<query::WindowInfo> windows;
    collect_windows(node->child.get(), windows);
    drop_subtree(std::move(node->child));
    // Fresh single-version chain: the reprocessing owner has not detected
    // anything yet, so there is exactly one version per dependent window.
    for (const auto& w : windows) attach_at_leaves(node, w, {});
    stats_.max_versions = std::max(stats_.max_versions, index_.size());
}

WindowVersion* DependencyTree::find(std::uint64_t version_id) const {
    const TreeNode* node = find_version(version_id);
    return node == nullptr ? nullptr : node->wv.get();
}

WindowVersion* DependencyTree::front_root() const {
    if (roots_.empty()) return nullptr;
    SPECTRE_CHECK(roots_.front()->kind == TreeNode::Kind::Version,
                  "tree root must be a version vertex");
    return roots_.front()->wv.get();
}

const std::vector<CgPtr>& DependencyTree::front_root_completed_groups() const {
    SPECTRE_REQUIRE(!roots_.empty(), "no front root");
    return roots_.front()->completed_groups;
}

WvPtr DependencyTree::retire_front_root() {
    SPECTRE_REQUIRE(!roots_.empty(), "no root to retire");
    TreeNode* root = roots_.front().get();
    SPECTRE_REQUIRE(root->wv->finished(), "retiring an unfinished root");
    SPECTRE_CHECK(!root->child || root->child->kind == TreeNode::Kind::Version,
                  "finished root still has a pending group child");

    WvPtr retired = root->wv;
    index_.erase(retired->version_id());
    std::unique_ptr<TreeNode> child = std::move(root->child);
    if (child) {
        child->parent = nullptr;
        // The promoted version is now the valid version of an independent
        // window: it survives for sure and may feed the statistics (§3.2.1).
        child->wv->enable_stats();
        roots_.front() = std::move(child);
    } else {
        roots_.erase(roots_.begin());
    }
    return retired;
}

std::size_t DependencyTree::live_windows() const {
    std::unordered_set<std::uint64_t> ids;
    for (const auto& [vid, node] : index_) {
        (void)vid;
        ids.insert(node->wv->window().id);
    }
    return ids.size();
}

double DependencyTree::group_probability(const ConsumptionGroup& cg,
                                         const model::CompletionModel& model) const {
    switch (cg.outcome()) {
        case CgOutcome::Completed: return 1.0;
        case CgOutcome::Abandoned: return 0.0;
        case CgOutcome::Pending: break;
    }
    std::uint64_t events_left = 0;
    if (const TreeNode* owner = find_version(cg.owner_version_id()))
        events_left = owner->wv->events_left();
    return model.completion_probability(cg.delta(), events_left);
}

std::vector<WvPtr> DependencyTree::top_k(std::size_t k,
                                         const model::CompletionModel& model) const {
    struct Candidate {
        double prob;
        std::uint64_t order;  // deterministic tie-break: push order
        const TreeNode* node;
    };
    const auto cmp = [](const Candidate& a, const Candidate& b) {
        if (a.prob != b.prob) return a.prob < b.prob;  // max-heap on probability
        return a.order > b.order;
    };
    std::priority_queue<Candidate, std::vector<Candidate>, decltype(cmp)> queue(cmp);
    std::uint64_t order = 0;
    for (const auto& root : roots_) queue.push({1.0, order++, root.get()});

    std::vector<WvPtr> result;
    while (!queue.empty() && result.size() < k) {
        const Candidate c = queue.top();
        queue.pop();
        if (c.node->kind == TreeNode::Kind::Version) {
            // Finished versions need no instance; keep walking their subtree
            // at the same probability.
            if (!c.node->wv->finished() && !c.node->wv->dropped())
                result.push_back(c.node->wv);
            if (c.node->child) queue.push({c.prob, order++, c.node->child.get()});
        } else {
            const double p = group_probability(*c.node->cg, model);
            if (c.node->completion)
                queue.push({c.prob * p, order++, c.node->completion.get()});
            if (c.node->abandon)
                queue.push({c.prob * (1.0 - p), order++, c.node->abandon.get()});
        }
    }
    return result;
}

double DependencyTree::survival_probability(std::uint64_t version_id,
                                            const model::CompletionModel& model) const {
    const TreeNode* node = find_version(version_id);
    SPECTRE_REQUIRE(node != nullptr, "unknown version id");
    double prob = 1.0;
    const TreeNode* child = node;
    for (const TreeNode* p = node->parent; p != nullptr; child = p, p = p->parent) {
        if (p->kind != TreeNode::Kind::Group) continue;
        const double gp = group_probability(*p->cg, model);
        prob *= p->completion.get() == child ? gp : (1.0 - gp);
    }
    return prob;
}

namespace {

void check_node(const TreeNode* node, const TreeNode* parent,
                const std::unordered_map<std::uint64_t, TreeNode*>& index,
                std::uint64_t min_window_id) {
    SPECTRE_CHECK(node->parent == parent, "parent pointer mismatch");
    if (node->kind == TreeNode::Kind::Version) {
        SPECTRE_CHECK(node->wv != nullptr, "version vertex without version");
        SPECTRE_CHECK(node->wv->window().id >= min_window_id,
                      "window ids must increase along root paths");
        const auto it = index.find(node->wv->version_id());
        SPECTRE_CHECK(it != index.end() && it->second == node, "index entry missing");
        const auto& wv = *node->wv;
        for (std::size_t i = 0; i < wv.frozen_suppressed(); ++i)
            SPECTRE_CHECK(!wv.suppressed()[i]->completed_before(wv.window().first),
                          "version suppresses a completed group wholly before its window");
        if (node->child)
            check_node(node->child.get(), node, index, node->wv->window().id + 1);
    } else {
        SPECTRE_CHECK(node->cg != nullptr, "group vertex without group");
        if (node->completion) check_node(node->completion.get(), node, index, min_window_id);
        if (node->abandon) check_node(node->abandon.get(), node, index, min_window_id);
    }
}

}  // namespace

void DependencyTree::check_invariants() const {
    for (const auto& root : roots_) {
        SPECTRE_CHECK(root->kind == TreeNode::Kind::Version, "roots must be versions");
        check_node(root.get(), nullptr, index_, 0);
    }
}

std::size_t DependencyTree::max_suppressed() const {
    std::size_t most = 0;
    for (const auto& [vid, node] : index_) {
        (void)vid;
        most = std::max(most, node->wv->suppressed().size());
    }
    return most;
}

}  // namespace spectre::core
