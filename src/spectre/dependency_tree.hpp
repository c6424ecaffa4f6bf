// DependencyTree: window versions, consumption-group vertices and the
// completion/abandon edges between them (§3.1, Fig. 3/4), plus the top-k
// selection walk (§3.2.2, Fig. 6).
//
// Owned and mutated exclusively by the splitter. Structure:
//   * a forest of trees ordered by window id; each tree's root is the single
//     version of an independent window;
//   * a Version vertex has at most one child (a Group vertex for a pending
//     group created by that version, or the version of the next dependent
//     window);
//   * a Group vertex has a completion child (subtree assuming the group
//     completes — every version in it suppresses the group's events) and an
//     abandon child (subtree assuming it is abandoned).
//
// Copy semantics (§3.1's "modified copy", made precise in DESIGN.md §4):
// a new group's completion edge receives a copy of the owner's subtree whose
// versions *keep their processing state* (a clone) whenever that state is
// valid under the extra suppression — validated at copy time, guarded by the
// consistency checks afterwards — and restart fresh otherwise. Group
// vertices owned by the version that created the new group are preserved
// sharing the underlying group; pending groups of cloned descendants are
// preserved with cloned group objects; groups of fresh-restarted descendants
// are void (the restart re-detects them). Above a configurable version-count
// threshold, copies stop multiplying pending descendant branches entirely —
// the paper's doubling is exponential in the number of concurrently pending
// groups, and this is the memory/wasted-work trade the splitter makes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "model/completion_model.hpp"
#include "spectre/window_version.hpp"

namespace spectre::core {

struct TreeNode {
    enum class Kind { Version, Group };
    Kind kind = Kind::Version;

    // Version vertex:
    WvPtr wv;
    std::unique_ptr<TreeNode> child;
    // Groups this version completed whose vertices were already spliced out.
    // Windows opened later still need to suppress their events; the attach
    // path folds these into every new leaf under this vertex.
    std::vector<CgPtr> completed_groups;

    // Group vertex:
    CgPtr cg;
    std::unique_ptr<TreeNode> completion;
    std::unique_ptr<TreeNode> abandon;

    TreeNode* parent = nullptr;  // null for roots
};

struct TreeStats {
    std::uint64_t versions_created = 0;
    std::uint64_t versions_dropped = 0;
    std::uint64_t groups_attached = 0;
    std::uint64_t copies_cloned = 0;  // subtree copies that kept their progress
    std::uint64_t copies_fresh = 0;   // subtree copies restarted from scratch
    std::size_t max_versions = 0;  // peak live version count (Fig. 10(f))
    // Window positions processed by versions that were later dropped — the
    // speculation the scheduler wasted (lazily cancelled, never emitted).
    std::uint64_t wasted_events = 0;
};

class DependencyTree {
public:
    // `factory` creates a WindowVersion for (window, suppressed groups); the
    // splitter supplies it so version ids and detector wiring stay there.
    using VersionFactory =
        std::function<WvPtr(const query::WindowInfo&, std::vector<CgPtr>)>;

    // Optional state-cloning factory for subtree copies (see §3.1 copy
    // semantics): produces a version whose processing state continues from
    // `src`, with `src`'s pending groups cloned into fresh group objects
    // (recorded in `cg_map`, original group id → clone). Returns nullptr when
    // cloning is impossible right now (source mid-batch, copied state already
    // violates the new suppression set, or a pending group is not yet
    // attached) — the tree then falls back to a fresh version.
    // `allow_pending` = false restricts cloning to versions without pending
    // own groups (used under memory pressure, see set_collapse_threshold).
    using CloneFactory = std::function<WvPtr(
        const query::WindowInfo&, std::vector<CgPtr>, const WindowVersion& src,
        std::unordered_map<std::uint64_t, CgPtr>& cg_map, bool allow_pending)>;

    explicit DependencyTree(VersionFactory factory);

    void set_clone_factory(CloneFactory clone_factory) {
        clone_factory_ = std::move(clone_factory);
    }

    // Pressure valve for the exponential version doubling (§3.1: "each new
    // consumption group ... doubles the window versions in the subtree"):
    // once the tree holds more live versions than this, subtree copies stop
    // preserving descendant *pending* group branching — those copies restart
    // fresh and re-detect, trading some wasted work for bounded memory.
    void set_collapse_threshold(std::size_t versions) { collapse_threshold_ = versions; }

    // True iff a Group vertex for this group id is currently in the tree.
    bool group_attached(std::uint64_t cg_id) const {
        return group_index_.count(cg_id) > 0;
    }

    // --- structural updates (Fig. 4) ----------------------------------------
    // Opens `w`: if it overlaps the live chain, attaches new versions at every
    // leaf; otherwise starts a new independent tree whose root suppresses
    // `root_suppressed` (consumptions from already-retired windows whose
    // ranges still reach into `w` — the splitter's consumed tail).
    void open_window(const query::WindowInfo& w, std::vector<CgPtr> root_suppressed = {});

    // Attaches a Group vertex for `cg` under its owner version; the former
    // subtree becomes the abandon child and a fresh suppressed copy the
    // completion child. No-op (returns false) if the owner is no longer live.
    bool on_group_created(const CgPtr& cg);

    // Resolves a group: keeps the matching edge of every vertex referencing
    // it, drops the other side (marking all versions in it dropped).
    void on_group_resolved(const CgPtr& cg, bool completed);

    // Rollback recovery: the version reprocesses from scratch, so everything
    // that was derived from its invalid pass — group vertices it created and
    // version copies pruned/kept by its group resolutions — is stale. Drops
    // its dependent subtree and re-attaches one fresh version per window that
    // was in it. No-op if the version is no longer live.
    void rebuild_after_rollback(std::uint64_t version_id);

    // --- root retirement -----------------------------------------------------
    // The oldest live version: root of the first tree (never null while live
    // versions exist). Its survival probability is 1 by construction.
    WindowVersion* front_root() const;
    // Groups the front root completed (validated consumptions); the splitter
    // folds their events into the consumed tail at retirement.
    const std::vector<CgPtr>& front_root_completed_groups() const;
    // Pops the front root after it finished; its child becomes the new root
    // (or the tree is removed). Precondition: front root finished and has no
    // pending Group child.
    WvPtr retire_front_root();

    bool empty() const noexcept { return roots_.empty(); }
    std::size_t live_versions() const noexcept { return index_.size(); }
    std::size_t live_windows() const;
    // The live version with this id, or nullptr once it was dropped or
    // retired.
    WindowVersion* find(std::uint64_t version_id) const;

    // --- top-k selection (Fig. 6) --------------------------------------------
    // The k live, unfinished versions with the highest survival probability;
    // deterministic (ties resolve by creation order). `events_left_hint`
    // supplies n for the model query (Fig. 5 line 2).
    std::vector<WvPtr> top_k(std::size_t k, const model::CompletionModel& model) const;

    // Survival probability of a version currently in the tree (test hook).
    double survival_probability(std::uint64_t version_id,
                                const model::CompletionModel& model) const;

    const TreeStats& stats() const noexcept { return stats_; }

    // Validates structural invariants (tests / debug): parent pointers, index
    // consistency, one window per level along every path, and the
    // suppression-set bound — no version suppresses a group that had already
    // completed wholly before its window when the version was built.
    void check_invariants() const;

    // Largest suppressed-set size among live versions (test hook: bounded by
    // the live windows' groups, not by the stream's history).
    std::size_t max_suppressed() const;

private:
    TreeNode* find_version(std::uint64_t version_id) const;
    void register_subtree(TreeNode* node);
    void drop_subtree(std::unique_ptr<TreeNode> node);
    struct CopyContext {
        std::uint64_t owner_version_id = 0;  // version that created the new group
        bool collapse = false;  // over threshold: do not multiply pending branches
        // Original group id -> cloned group, for pending groups of cloned
        // descendant versions.
        std::unordered_map<std::uint64_t, CgPtr> cg_map;
        // Versions whose copy fell back to fresh: their (void) group vertices
        // are skipped via the abandon structure.
        std::unordered_set<std::uint64_t> fresh_owners;
    };
    // `force_fresh` propagates down a branch once an ancestor copy restarted
    // fresh: deeper originals' skips may depend on that ancestor's (now void)
    // consumptions, so their state cannot be trusted either.
    std::unique_ptr<TreeNode> copy_subtree(const TreeNode* original,
                                           std::vector<CgPtr> suppressed, CopyContext& ctx,
                                           bool force_fresh);
    void attach_at_leaves(TreeNode* node, const query::WindowInfo& w,
                          std::vector<CgPtr> suppressed);
    double group_probability(const ConsumptionGroup& cg,
                             const model::CompletionModel& model) const;

    VersionFactory factory_;
    CloneFactory clone_factory_;
    std::size_t collapse_threshold_ = 4096;
    std::vector<std::unique_ptr<TreeNode>> roots_;  // ordered by window id
    std::unordered_map<std::uint64_t, TreeNode*> index_;  // version id -> vertex
    std::unordered_map<std::uint64_t, std::vector<TreeNode*>> group_index_;  // cg id -> vertices
    query::WindowInfo latest_opened_{};  // most recently opened window
    TreeStats stats_;
};

}  // namespace spectre::core
