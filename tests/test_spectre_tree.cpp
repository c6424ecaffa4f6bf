#include <gtest/gtest.h>

#include <algorithm>

#include "model/fixed_model.hpp"
#include "spectre/dependency_tree.hpp"
#include "test_helpers.hpp"

using namespace spectre;
using namespace spectre::core;
using spectre::testing::TestEnv;

namespace {

struct TreeFixture {
    TestEnv env;
    detect::CompiledQuery cq;
    std::uint64_t next_id = 1;
    DependencyTree tree;

    TreeFixture()
        : cq(detect::CompiledQuery::compile(
              query::QueryBuilder(env.schema)
                  .single("A", env.is('A'))
                  .single("B", env.is('B'))
                  .window(query::WindowSpec::sliding_count(4, 2))
                  .consume_all()
                  .build())),
          tree([this](const query::WindowInfo& w, std::vector<CgPtr> suppressed) {
              return std::make_shared<WindowVersion>(next_id++, w, &cq,
                                                     std::move(suppressed));
          }) {}

    query::WindowInfo win(std::uint64_t id, event::Seq first, event::Seq last) {
        return query::WindowInfo{id, first, last};
    }

    CgPtr group(std::uint64_t cg_id, const WvPtr& owner, std::vector<event::Seq> events) {
        auto cg = std::make_shared<ConsumptionGroup>(cg_id, owner->window().id,
                                                     owner->version_id(), 1);
        for (const auto s : events) cg->add_event(s);
        return cg;
    }
};

model::FixedModel half(0.5);

}  // namespace

TEST(ConsumptionGroupTest, VersionBumpsOnAddAndSnapshotsAreConsistent) {
    ConsumptionGroup cg(7, 0, 1, 3);
    EXPECT_EQ(cg.version(), 0u);
    EXPECT_EQ(cg.delta(), 3);
    cg.add_event(10);
    cg.add_event(11);
    EXPECT_EQ(cg.version(), 2u);
    EXPECT_TRUE(cg.contains(10));
    EXPECT_FALSE(cg.contains(12));
    std::uint64_t v = 0;
    const auto snap = cg.snapshot(v);
    EXPECT_EQ(v, 2u);
    EXPECT_EQ(snap, (std::vector<event::Seq>{10, 11}));
    cg.resolve(CgOutcome::Completed);
    EXPECT_EQ(cg.outcome(), CgOutcome::Completed);
}

TEST(DependencyTreeTest, OverlappingWindowsFormAChain) {
    TreeFixture f;
    f.tree.open_window(f.win(0, 0, 3));
    f.tree.open_window(f.win(1, 2, 5));
    f.tree.open_window(f.win(2, 4, 7));
    EXPECT_EQ(f.tree.live_versions(), 3u);
    EXPECT_EQ(f.tree.live_windows(), 3u);
    f.tree.check_invariants();
    // One version per window: the top-3 are exactly the three versions.
    const auto top = f.tree.top_k(8, half);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0]->window().id, 0u);
    EXPECT_EQ(top[1]->window().id, 1u);
    EXPECT_EQ(top[2]->window().id, 2u);
}

TEST(DependencyTreeTest, NonOverlappingWindowStartsNewIndependentTree) {
    TreeFixture f;
    f.tree.open_window(f.win(0, 0, 3));
    f.tree.open_window(f.win(1, 10, 13));  // gap: independent
    f.tree.check_invariants();
    const auto top = f.tree.top_k(8, half);
    ASSERT_EQ(top.size(), 2u);
    // Both roots are non-speculative; stats enabled on both.
    EXPECT_TRUE(top[0]->stats_enabled());
    EXPECT_TRUE(top[1]->stats_enabled());
    EXPECT_TRUE(top[0]->suppressed().empty());
    EXPECT_TRUE(top[1]->suppressed().empty());
}

TEST(DependencyTreeTest, GroupCreationDoublesDependentVersions) {
    TreeFixture f;
    f.tree.open_window(f.win(0, 0, 3));
    f.tree.open_window(f.win(1, 2, 5));
    const auto root = f.tree.top_k(1, half)[0];
    const auto cg = f.group(100, root, {2});
    ASSERT_TRUE(f.tree.on_group_created(cg));
    f.tree.check_invariants();
    // w1 now has two versions: with and without suppression of event 2.
    EXPECT_EQ(f.tree.live_versions(), 3u);
    const auto top = f.tree.top_k(8, half);
    ASSERT_EQ(top.size(), 3u);
    int suppressing = 0;
    for (const auto& wv : top) {
        if (wv->window().id != 1) continue;
        if (!wv->suppressed().empty()) {
            ++suppressing;
            EXPECT_EQ(wv->suppressed()[0]->id(), 100u);
        }
    }
    EXPECT_EQ(suppressing, 1);
}

TEST(DependencyTreeTest, NewWindowUnderGroupLeafGetsTwoVersions) {
    TreeFixture f;
    f.tree.open_window(f.win(0, 0, 3));
    const auto root = f.tree.top_k(1, half)[0];
    const auto cg = f.group(100, root, {1});
    ASSERT_TRUE(f.tree.on_group_created(cg));
    // Group vertex is a leaf; opening w1 must attach a version on each edge
    // (Fig. 4 lines 5-8).
    f.tree.open_window(f.win(1, 2, 5));
    f.tree.check_invariants();
    EXPECT_EQ(f.tree.live_versions(), 3u);
}

TEST(DependencyTreeTest, CompletionPruningKeepsSuppressingSide) {
    TreeFixture f;
    f.tree.open_window(f.win(0, 0, 3));
    f.tree.open_window(f.win(1, 2, 5));
    const auto root = f.tree.top_k(1, half)[0];
    const auto cg = f.group(100, root, {2});
    ASSERT_TRUE(f.tree.on_group_created(cg));
    cg->resolve(CgOutcome::Completed);
    f.tree.on_group_resolved(cg, true);
    f.tree.check_invariants();
    EXPECT_EQ(f.tree.live_versions(), 2u);
    const auto top = f.tree.top_k(8, half);
    ASSERT_EQ(top.size(), 2u);
    // Surviving w1 version suppresses the completed group's events.
    EXPECT_EQ(top[1]->window().id, 1u);
    ASSERT_EQ(top[1]->suppressed().size(), 1u);
    EXPECT_EQ(top[1]->suppressed()[0]->id(), 100u);
}

TEST(DependencyTreeTest, AbandonPruningDropsSuppressingSide) {
    TreeFixture f;
    f.tree.open_window(f.win(0, 0, 3));
    f.tree.open_window(f.win(1, 2, 5));
    const auto root = f.tree.top_k(1, half)[0];
    const auto cg = f.group(100, root, {2});
    ASSERT_TRUE(f.tree.on_group_created(cg));
    const auto before = f.tree.top_k(8, half);
    WvPtr suppressing;
    for (const auto& wv : before)
        if (wv->window().id == 1 && !wv->suppressed().empty()) suppressing = wv;
    ASSERT_NE(suppressing, nullptr);

    f.tree.on_group_resolved(cg, false);
    f.tree.check_invariants();
    EXPECT_TRUE(suppressing->dropped());
    const auto after = f.tree.top_k(8, half);
    ASSERT_EQ(after.size(), 2u);
    EXPECT_TRUE(after[1]->suppressed().empty());
}

TEST(DependencyTreeTest, SurvivalProbabilityMultipliesAlongRootPath) {
    TreeFixture f;
    f.tree.open_window(f.win(0, 0, 3));
    f.tree.open_window(f.win(1, 2, 5));
    const auto root = f.tree.top_k(1, half)[0];
    const auto cg = f.group(100, root, {2});
    ASSERT_TRUE(f.tree.on_group_created(cg));
    const auto top = f.tree.top_k(8, half);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_DOUBLE_EQ(f.tree.survival_probability(top[0]->version_id(), half), 1.0);
    for (std::size_t i = 1; i < top.size(); ++i)
        EXPECT_DOUBLE_EQ(f.tree.survival_probability(top[i]->version_id(), half), 0.5);
}

TEST(DependencyTreeTest, TopKPrefersLikelySideWithSkewedModel) {
    TreeFixture f;
    f.tree.open_window(f.win(0, 0, 3));
    f.tree.open_window(f.win(1, 2, 5));
    const auto root = f.tree.top_k(1, half)[0];
    const auto cg = f.group(100, root, {2});
    ASSERT_TRUE(f.tree.on_group_created(cg));
    model::FixedModel likely(0.9);
    const auto top = f.tree.top_k(2, likely);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0]->window().id, 0u);
    // Second pick is w1's completion-assuming (suppressing) version.
    EXPECT_EQ(top[1]->window().id, 1u);
    EXPECT_FALSE(top[1]->suppressed().empty());
}

TEST(DependencyTreeTest, SecondGroupPreservesFirstGroupsVerticesInCopy) {
    TreeFixture f;
    f.tree.open_window(f.win(0, 0, 3));
    f.tree.open_window(f.win(1, 2, 5));
    const auto root = f.tree.top_k(1, half)[0];
    const auto cg1 = f.group(100, root, {2});
    ASSERT_TRUE(f.tree.on_group_created(cg1));
    const auto cg2 = f.group(101, root, {3});
    ASSERT_TRUE(f.tree.on_group_created(cg2));
    f.tree.check_invariants();
    // w1 versions: {} (a,a), {cg1} (a,c), {cg2} (c,a), {cg1,cg2} (c,c).
    EXPECT_EQ(f.tree.live_versions(), 5u);
    // Resolving cg1 must prune *both* its vertices (original + copy).
    f.tree.on_group_resolved(cg1, false);
    f.tree.check_invariants();
    EXPECT_EQ(f.tree.live_versions(), 3u);
    f.tree.on_group_resolved(cg2, true);
    f.tree.check_invariants();
    EXPECT_EQ(f.tree.live_versions(), 2u);
    const auto top = f.tree.top_k(8, half);
    ASSERT_EQ(top.size(), 2u);
    ASSERT_EQ(top[1]->suppressed().size(), 1u);
    EXPECT_EQ(top[1]->suppressed()[0]->id(), 101u);
}

TEST(DependencyTreeTest, RetireFrontRootPromotesChildAndEnablesStats) {
    TreeFixture f;
    f.tree.open_window(f.win(0, 0, 3));
    f.tree.open_window(f.win(1, 2, 5));
    auto top = f.tree.top_k(8, half);
    const auto root = top[0];
    const auto next = top[1];
    EXPECT_TRUE(root->stats_enabled());
    EXPECT_FALSE(next->stats_enabled());
    root->mark_finished();
    const auto retired = f.tree.retire_front_root();
    EXPECT_EQ(retired->version_id(), root->version_id());
    EXPECT_EQ(f.tree.front_root()->version_id(), next->version_id());
    EXPECT_TRUE(next->stats_enabled());
    EXPECT_EQ(f.tree.live_versions(), 1u);
}

TEST(DependencyTreeTest, RetireUnfinishedRootThrows) {
    TreeFixture f;
    f.tree.open_window(f.win(0, 0, 3));
    EXPECT_THROW(f.tree.retire_front_root(), std::invalid_argument);
}

TEST(DependencyTreeTest, StaleGroupFromDroppedVersionIgnored) {
    TreeFixture f;
    f.tree.open_window(f.win(0, 0, 3));
    f.tree.open_window(f.win(1, 2, 5));
    const auto root = f.tree.top_k(1, half)[0];
    const auto cg1 = f.group(100, root, {2});
    ASSERT_TRUE(f.tree.on_group_created(cg1));
    // Find the suppressing w1 version and let it "create" a group, then drop
    // it by abandoning cg1: the late group must be ignored.
    WvPtr suppressing;
    for (const auto& wv : f.tree.top_k(8, half))
        if (wv->window().id == 1 && !wv->suppressed().empty()) suppressing = wv;
    ASSERT_NE(suppressing, nullptr);
    const auto stale = f.group(200, suppressing, {4});
    f.tree.on_group_resolved(cg1, false);  // drops `suppressing`
    EXPECT_FALSE(f.tree.on_group_created(stale));
    EXPECT_NO_THROW(f.tree.on_group_resolved(stale, true));
    f.tree.check_invariants();
}

TEST(DependencyTreeTest, GroupProbabilityShortCircuitsResolvedGroups) {
    TreeFixture f;
    f.tree.open_window(f.win(0, 0, 3));
    f.tree.open_window(f.win(1, 2, 5));
    const auto root = f.tree.top_k(1, half)[0];
    const auto cg = f.group(100, root, {2});
    ASSERT_TRUE(f.tree.on_group_created(cg));
    cg->resolve(CgOutcome::Completed);
    // Not yet pruned, but the walk must already treat it as certain.
    WvPtr suppressing;
    for (const auto& wv : f.tree.top_k(8, half))
        if (wv->window().id == 1 && !wv->suppressed().empty()) suppressing = wv;
    ASSERT_NE(suppressing, nullptr);
    EXPECT_DOUBLE_EQ(f.tree.survival_probability(suppressing->version_id(), half), 1.0);
}

TEST(DependencyTreeTest, TopKSkipsFinishedVersionsButDescends) {
    TreeFixture f;
    f.tree.open_window(f.win(0, 0, 3));
    f.tree.open_window(f.win(1, 2, 5));
    const auto root = f.tree.top_k(1, half)[0];
    root->mark_finished();
    const auto top = f.tree.top_k(8, half);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0]->window().id, 1u);
}

TEST(DependencyTreeTest, WindowsOutOfOrderRejected) {
    TreeFixture f;
    f.tree.open_window(f.win(1, 4, 7));
    EXPECT_THROW(f.tree.open_window(f.win(0, 0, 3)), std::invalid_argument);
}

TEST(DependencyTreeTest, NewVersionDropsCompletedGroupsWhollyBeforeItsWindow) {
    TreeFixture f;
    // The root's ghost: a retired window's consumption reaching into w1.
    auto ghost = std::make_shared<ConsumptionGroup>(0, 0, 0, 0);
    ghost->add_event(2);
    ghost->resolve(CgOutcome::Completed);
    f.tree.open_window(f.win(0, 0, 3), {ghost});
    const auto root = f.tree.top_k(1, half)[0];
    const auto before = f.group(100, root, {0, 1});   // completes wholly before w1
    const auto reaching = f.group(101, root, {1, 3});  // completes inside w1
    const auto pending = f.group(102, root, {1});      // still pending at w1's open
    for (const auto& cg : {before, reaching, pending})
        ASSERT_TRUE(f.tree.on_group_created(cg));
    for (const auto& cg : {before, reaching}) {
        cg->resolve(CgOutcome::Completed);
        f.tree.on_group_resolved(cg, true);
    }
    EXPECT_TRUE(before->completed_before(2));
    EXPECT_FALSE(reaching->completed_before(2));
    EXPECT_FALSE(pending->completed_before(2));

    // w1 hangs under the pending group's vertex: one version per edge, each
    // handed {ghost, 100, 101} by the root (plus 102 on the completion edge).
    f.tree.open_window(f.win(1, 2, 5));
    f.tree.check_invariants();
    const auto ids = [](const WvPtr& wv) {
        std::vector<std::uint64_t> out;
        for (const auto& cg : wv->suppressed()) out.push_back(cg->id());
        return out;
    };
    std::vector<std::vector<std::uint64_t>> w1_sets;
    for (const auto& wv : f.tree.top_k(8, half)) {
        if (wv->window().id != 1) continue;
        EXPECT_EQ(wv->frozen_suppressed(), 2u);
        w1_sets.push_back(ids(wv));
    }
    std::sort(w1_sets.begin(), w1_sets.end());
    EXPECT_EQ(w1_sets, (std::vector<std::vector<std::uint64_t>>{{0, 101}, {0, 101, 102}}));
    EXPECT_EQ(f.tree.max_suppressed(), 3u);

    // The pending group now completes wholly before w1. The version built
    // while it was pending keeps it, and the invariant allows that.
    pending->resolve(CgOutcome::Completed);
    f.tree.on_group_resolved(pending, true);
    f.tree.check_invariants();
    EXPECT_EQ(f.tree.max_suppressed(), 3u);
}
