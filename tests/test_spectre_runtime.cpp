// End-to-end correctness of SPECTRE: for every query shape, window kind,
// instance count and random stream, the framework must deliver *exactly* the
// complex events of sequential processing — same instances, same payloads,
// same (window) order; no false positives, no false negatives (§2.3).
#include <gtest/gtest.h>

#include <algorithm>

#include "data/nyse_synth.hpp"
#include "model/fixed_model.hpp"
#include "obs/metrics.hpp"
#include "model/markov_model.hpp"
#include "spectre/runtime.hpp"
#include "spectre/sim_runtime.hpp"
#include "sequential/seq_engine.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

using namespace spectre;
using spectre::testing::TestEnv;

namespace {

// Random stream over the letters A..E.
event::EventStore random_store(TestEnv& env, std::size_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    event::EventStore store;
    for (std::size_t i = 0; i < n; ++i) {
        const char c = static_cast<char>('A' + rng.uniform_int(0, 4));
        store.append(env.ev(c, static_cast<double>(rng.uniform_int(0, 9)),
                            static_cast<event::Timestamp>(i)));
    }
    return store;
}

void expect_same_output(const std::vector<event::ComplexEvent>& expected,
                        const std::vector<event::ComplexEvent>& actual,
                        const std::string& label) {
    ASSERT_EQ(expected.size(), actual.size()) << label;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].window_id, actual[i].window_id) << label << " @" << i;
        EXPECT_EQ(expected[i].constituents, actual[i].constituents) << label << " @" << i;
        EXPECT_EQ(expected[i].payload, actual[i].payload) << label << " @" << i;
    }
}

std::unique_ptr<model::CompletionModel> make_markov(const detect::CompiledQuery& cq) {
    model::MarkovParams params;
    params.refresh_every = 200;
    return std::make_unique<model::MarkovModel>(cq.min_length(), params);
}

void check_sim_equivalence(const query::Query& q, const event::EventStore& store,
                           int instances, const std::string& label) {
    const auto cq = detect::CompiledQuery::compile(q);
    const auto expected = sequential::SequentialEngine(&cq).run(store);

    core::SimConfig cfg;
    cfg.splitter.instances = instances;
    cfg.splitter.instance.consistency_check_freq = 8;
    cfg.batch_events = 16;
    cfg.model_contention = false;
    core::SimRuntime sim(&store, &cq, cfg, make_markov(cq));
    const auto result = sim.run();
    expect_same_output(expected.complex_events, result.output, label);
}

}  // namespace

// ---------------------------------------------------------------------------
// Simulated runtime equivalence across query shapes.
// ---------------------------------------------------------------------------

TEST(SpectreEquivalence, SequenceConsumeAllOverlappingWindows) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::sliding_count(20, 5))
                 .consume_all()
                 .build();
    for (const std::uint64_t seed : {1u, 2u, 3u})
        check_sim_equivalence(q, random_store(env, 300, seed), 4,
                              "seq-consume-all seed=" + std::to_string(seed));
}

TEST(SpectreEquivalence, SubsetConsumption) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .single("C", env.is('C'))
                 .window(query::WindowSpec::sliding_count(24, 6))
                 .consume({"B"})
                 .build();
    for (const std::uint64_t seed : {7u, 8u})
        check_sim_equivalence(q, random_store(env, 300, seed), 4,
                              "subset-consume seed=" + std::to_string(seed));
}

TEST(SpectreEquivalence, NoConsumptionIsEmbarrassinglyParallel) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::sliding_count(20, 5))
                 .build();
    check_sim_equivalence(q, random_store(env, 400, 11), 8, "no-consumption");
}

TEST(SpectreEquivalence, KleenePlusPattern) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .plus("B", env.is('B'))
                 .single("C", env.is('C'))
                 .window(query::WindowSpec::sliding_count(30, 10))
                 .consume_all()
                 .build();
    for (const std::uint64_t seed : {21u, 22u})
        check_sim_equivalence(q, random_store(env, 300, seed), 4,
                              "kleene seed=" + std::to_string(seed));
}

TEST(SpectreEquivalence, SetPattern) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .set("S", {{"X", env.is('B')}, {"Y", env.is('C')}, {"Z", env.is('D')}})
                 .window(query::WindowSpec::sliding_count(25, 5))
                 .consume_all()
                 .build();
    check_sim_equivalence(q, random_store(env, 300, 31), 4, "set");
}

TEST(SpectreEquivalence, GuardedPattern) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .guard(env.is('E'))  // no E between A and B
                 .window(query::WindowSpec::sliding_count(20, 4))
                 .consume_all()
                 .build();
    check_sim_equivalence(q, random_store(env, 300, 41), 4, "guard");
}

TEST(SpectreEquivalence, SelectEachManyGroupsPerWindow) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::sliding_count(12, 4))
                 .select(query::SelectionPolicy::Each)
                 .consume_all()
                 .build();
    for (const std::uint64_t seed : {51u, 52u})
        check_sim_equivalence(q, random_store(env, 200, seed), 4,
                              "each seed=" + std::to_string(seed));
}

TEST(SpectreEquivalence, PredicateOpenWindowsWithSticky) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .sticky()
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::predicate_open_count(env.is('A'), 15))
                 .consume({"B"})
                 .build();
    check_sim_equivalence(q, random_store(env, 250, 61), 4, "sticky-predicate-open");
}

TEST(SpectreEquivalence, NonOverlappingWindows) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::sliding_count(10, 15))  // gaps
                 .consume_all()
                 .build();
    check_sim_equivalence(q, random_store(env, 300, 71), 4, "gaps");
}

TEST(SpectreEquivalence, InstanceCountSweep) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .single("C", env.is('C'))
                 .window(query::WindowSpec::sliding_count(25, 5))
                 .consume_all()
                 .build();
    const auto store = random_store(env, 400, 81);
    for (const int k : {1, 2, 3, 8, 16})
        check_sim_equivalence(q, store, k, "k=" + std::to_string(k));
}

TEST(SpectreEquivalence, FixedModelsAnyProbabilityStayCorrect) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::sliding_count(20, 5))
                 .consume_all()
                 .build();
    const auto cq = detect::CompiledQuery::compile(q);
    const auto store = random_store(env, 300, 91);
    const auto expected = sequential::SequentialEngine(&cq).run(store);
    // Wrong probability predictions cost throughput, never correctness.
    for (const double p : {0.0, 0.3, 0.7, 1.0}) {
        core::SimConfig cfg;
        cfg.splitter.instances = 4;
        cfg.model_contention = false;
        core::SimRuntime sim(&store, &cq, cfg, std::make_unique<model::FixedModel>(p));
        expect_same_output(expected.complex_events, sim.run().output,
                           "fixed p=" + std::to_string(p));
    }
}

TEST(SpectreEquivalence, TinyConsistencyCheckFrequency) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::sliding_count(16, 4))
                 .consume_all()
                 .build();
    const auto cq = detect::CompiledQuery::compile(q);
    const auto store = random_store(env, 200, 101);
    const auto expected = sequential::SequentialEngine(&cq).run(store);
    core::SimConfig cfg;
    cfg.splitter.instances = 4;
    cfg.splitter.instance.consistency_check_freq = 1;  // check every event
    cfg.model_contention = false;
    core::SimRuntime sim(&store, &cq, cfg, make_markov(cq));
    expect_same_output(expected.complex_events, sim.run().output, "check-freq-1");
}

TEST(SpectreEquivalence, SmallLookaheadStillCorrect) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::sliding_count(20, 5))
                 .consume_all()
                 .build();
    const auto cq = detect::CompiledQuery::compile(q);
    const auto store = random_store(env, 200, 111);
    const auto expected = sequential::SequentialEngine(&cq).run(store);
    core::SimConfig cfg;
    cfg.splitter.instances = 4;
    cfg.splitter.lookahead_windows = 2;
    cfg.model_contention = false;
    core::SimRuntime sim(&store, &cq, cfg, make_markov(cq));
    expect_same_output(expected.complex_events, sim.run().output, "lookahead-2");
}

TEST(SpectreEquivalence, EmptyStore) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .window(query::WindowSpec::sliding_count(10, 5))
                 .consume_all()
                 .build();
    const auto cq = detect::CompiledQuery::compile(q);
    event::EventStore store;
    core::SimConfig cfg;
    cfg.splitter.instances = 2;
    core::SimRuntime sim(&store, &cq, cfg, make_markov(cq));
    EXPECT_TRUE(sim.run().output.empty());
}

// Property sweep: seeds x stream lengths, Markov model, consumption on.
class EquivalenceSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EquivalenceSweep, RandomStreamsMatchSequential) {
    const auto [seed, length] = GetParam();
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .single("C", env.is('C'))
                 .window(query::WindowSpec::sliding_count(18, 6))
                 .consume_all()
                 .build();
    check_sim_equivalence(q, random_store(env, static_cast<std::size_t>(length),
                                          static_cast<std::uint64_t>(seed)),
                          4, "sweep");
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceSweep,
                         ::testing::Combine(::testing::Values(201, 202, 203, 204, 205),
                                            ::testing::Values(120, 350)));

// ---------------------------------------------------------------------------
// Blocking run(): the step() scheduler driven to completion, same
// equivalence guarantee.
// ---------------------------------------------------------------------------

TEST(SpectreBlockingRun, MatchesSequentialWithConsumption) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::sliding_count(20, 5))
                 .consume_all()
                 .build();
    const auto cq = detect::CompiledQuery::compile(q);
    const auto store = random_store(env, 500, 301);
    const auto expected = sequential::SequentialEngine(&cq).run(store);

    core::RuntimeConfig cfg;
    cfg.splitter.instances = 4;
    cfg.splitter.instance.consistency_check_freq = 16;
    cfg.batch_events = 32;
    core::SpectreRuntime rt(&store, &cq, cfg, make_markov(cq));
    const auto result = rt.run();
    expect_same_output(expected.complex_events, result.output, "blocking run");
    EXPECT_GT(result.throughput_eps, 0.0);
}

TEST(SpectreBlockingRun, RepeatedRunsAreStable) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .plus("B", env.is('B'))
                 .single("C", env.is('C'))
                 .window(query::WindowSpec::sliding_count(24, 8))
                 .consume_all()
                 .build();
    const auto cq = detect::CompiledQuery::compile(q);
    const auto store = random_store(env, 300, 302);
    const auto expected = sequential::SequentialEngine(&cq).run(store);
    for (int rep = 0; rep < 3; ++rep) {
        core::RuntimeConfig cfg;
        cfg.splitter.instances = 3;
        core::SpectreRuntime rt(&store, &cq, cfg, make_markov(cq));
        expect_same_output(expected.complex_events, rt.run().output,
                           "rep=" + std::to_string(rep));
    }
}

// ---------------------------------------------------------------------------
// Linear cost: what a window version carries is bounded by the live windows,
// not by how long the session has run (DESIGN.md §4.1).
// ---------------------------------------------------------------------------

namespace {

struct BoundRun {
    std::size_t peak_suppressed = 0;
    std::vector<event::ComplexEvent> output;
};

// Drives a k=3 splitter and its instances by hand over a complete store,
// checking the tree's invariants after every cycle.
BoundRun drive_splitter(const detect::CompiledQuery& cq, const event::EventStore& store) {
    core::SplitterConfig cfg;
    cfg.instances = 3;
    core::Splitter splitter(&store, &cq, cfg, make_markov(cq));
    splitter.mark_input_complete();
    BoundRun run;
    while (splitter.run_cycle()) {
        splitter.tree().check_invariants();
        run.peak_suppressed = std::max(run.peak_suppressed, splitter.tree().max_suppressed());
        for (auto& inst : splitter.instances()) inst->run_batch(64);
    }
    run.output = splitter.take_output();
    return run;
}

}  // namespace

TEST(SpectreLinearCost, SuppressedSetsStayBoundedOnLongStreams) {
    // The rising pair of the e2e spectre-overlap workload: four-fold
    // overlapping CONSUME ALL windows chain every window into one tree.
    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    data::NyseSynthConfig gen;
    gen.events = 20'000;
    gen.symbols = 50;
    gen.up_prob = 0.55;
    gen.seed = 5;
    const auto events = data::generate_nyse(vocab, gen);
    const auto rising = [&] {
        return query::binary(query::BinOp::Gt, query::attr(vocab.close_slot),
                             query::attr(vocab.open_slot));
    };
    auto q = query::QueryBuilder(vocab.schema)
                 .single("R1", rising())
                 .single("R2", rising())
                 .window(query::WindowSpec::sliding_count(40, 10))
                 .consume_all()
                 .build();
    const auto cq = detect::CompiledQuery::compile(q);

    std::vector<std::size_t> peaks;
    for (const std::size_t n : {std::size_t{2'000}, std::size_t{20'000}}) {
        event::EventStore store;
        for (std::size_t i = 0; i < n; ++i) store.append(events[i]);
        const auto run = drive_splitter(cq, store);
        expect_same_output(sequential::SequentialEngine(&cq).run(store).complex_events,
                           run.output, "rising pair n=" + std::to_string(n));
        EXPECT_GT(run.peak_suppressed, 0u);
        peaks.push_back(run.peak_suppressed);
    }
    EXPECT_EQ(peaks[0], peaks[1]) << "suppressed sets grow with the stream";
}

// ---------------------------------------------------------------------------
// Metrics plumbing.
// ---------------------------------------------------------------------------

TEST(SpectreMetrics, CountsGroupsWindowsAndTreeSize) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::sliding_count(20, 5))
                 .consume_all()
                 .build();
    const auto cq = detect::CompiledQuery::compile(q);
    const auto store = random_store(env, 300, 401);
    core::SimConfig cfg;
    cfg.splitter.instances = 4;
    cfg.model_contention = false;
    core::SimRuntime sim(&store, &cq, cfg, make_markov(cq));
    const auto result = sim.run();

    const auto seq = sequential::SequentialEngine(&cq).run(store);
    EXPECT_EQ(result.metrics.windows_retired, seq.stats.windows);
    EXPECT_EQ(result.metrics.complex_events, seq.stats.complex_events);
    EXPECT_GT(result.metrics.cycles, 0u);
    EXPECT_GE(result.metrics.max_tree_versions, seq.stats.windows > 0 ? 1u : 0u);
    EXPECT_GT(result.virtual_seconds, 0.0);
    std::uint64_t processed = 0;
    for (const auto& s : result.instance_stats) processed += s.events_processed;
    EXPECT_GT(processed, 0u);
}

TEST(SpectreMetrics, BlockingRunObservesEverySplitterCycle) {
    if (!obs::enabled()) GTEST_SKIP() << "SPECTRE_OBS_OFF=1 disables the clock reads";
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::sliding_count(20, 5))
                 .consume_all()
                 .build();
    const auto cq = detect::CompiledQuery::compile(q);
    const auto store = random_store(env, 300, 402);
    core::RuntimeConfig cfg;
    cfg.splitter.instances = 3;
    core::SpectreRuntime rt(&store, &cq, cfg, make_markov(cq));
    obs::Registry registry;
    const obs::ShardPtr shard = registry.make_shard();
    rt.bind_obs(shard.get());
    const auto result = rt.run();
    const auto samples = shard->hist_count(obs::Series{obs::sid::kSplitterCycleNs});
    EXPECT_GT(samples, 0u);
    EXPECT_EQ(samples, result.sched.cycles);
}

// Per-step publication (DESIGN.md §11/§12): every step() adds what its stats
// gained to the bound shard, so runtimes sharing one shard (a sharded
// session's lanes) sum there exactly, and the sum is current after every
// step rather than once the runtimes end. Counters publish even under
// SPECTRE_OBS_OFF.
TEST(SpectreMetrics, StepsPublishStatDeltasIntoTheBoundShard) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::sliding_count(20, 5))
                 .consume_all()
                 .build();
    const auto cq = detect::CompiledQuery::compile(q);
    auto store_a = random_store(env, 300, 403);
    auto store_b = random_store(env, 200, 404);
    store_a.close();
    store_b.close();
    core::RuntimeConfig cfg;
    cfg.splitter.instances = 3;
    cfg.quantum_budget = 16;  // many steps per run
    core::SpectreRuntime a(&store_a, &cq, cfg, make_markov(cq));
    core::SpectreRuntime b(&store_b, &cq, cfg, make_markov(cq));
    obs::Registry registry;
    const obs::ShardPtr shard = registry.make_shard();
    a.bind_obs(shard.get());
    b.bind_obs(shard.get());
    const auto value = [&](std::uint32_t id) { return shard->value(obs::Series{id}); };

    bool a_done = false;
    bool b_done = false;
    while (!a_done || !b_done) {
        if (!a_done) a_done = a.step().done;
        if (!b_done) b_done = b.step().done;
        const auto sa = a.sched_stats();
        const auto sb = b.sched_stats();
        const auto& ma = a.splitter_metrics();
        const auto& mb = b.splitter_metrics();
        ASSERT_EQ(value(obs::sid::kSchedSteps), sa.steps + sb.steps);
        ASSERT_EQ(value(obs::sid::kSchedBatchEvents), sa.batch_events + sb.batch_events);
        ASSERT_EQ(value(obs::sid::kSchedWastedEvents),
                  sa.speculation_wasted_events + sb.speculation_wasted_events);
        ASSERT_EQ(value(obs::sid::kSchedReadyDepthMax),
                  std::max(sa.ready_depth_max, sb.ready_depth_max));
        ASSERT_EQ(value(obs::sid::kWindowsOpened), ma.windows_opened + mb.windows_opened);
        ASSERT_EQ(value(obs::sid::kComplexEvents), ma.complex_events + mb.complex_events);
        ASSERT_EQ(value(obs::sid::kMaxTreeVersions),
                  std::max(ma.max_tree_versions, mb.max_tree_versions));
    }

    const auto sa = a.sched_stats();
    const auto sb = b.sched_stats();
    const auto& ma = a.splitter_metrics();
    const auto& mb = b.splitter_metrics();
    EXPECT_GT(ma.complex_events, 0u);
    EXPECT_GT(mb.complex_events, 0u);
    EXPECT_EQ(value(obs::sid::kSchedCycles), sa.cycles + sb.cycles);
    EXPECT_EQ(value(obs::sid::kSchedCyclesSkipped), sa.cycles_skipped + sb.cycles_skipped);
    EXPECT_EQ(value(obs::sid::kSchedBatches), sa.batches + sb.batches);
    EXPECT_EQ(value(obs::sid::kSchedInstancesRetired),
              sa.instances_retired + sb.instances_retired);
    EXPECT_EQ(value(obs::sid::kSchedInstancesCancelled),
              sa.instances_cancelled + sb.instances_cancelled);
    EXPECT_EQ(value(obs::sid::kSplitterCycles), ma.cycles + mb.cycles);
    EXPECT_EQ(value(obs::sid::kWindowsRetired), ma.windows_retired + mb.windows_retired);
    EXPECT_EQ(value(obs::sid::kGroupsCreated), ma.groups_created + mb.groups_created);
    EXPECT_EQ(value(obs::sid::kGroupsCompleted), ma.groups_completed + mb.groups_completed);
    EXPECT_EQ(value(obs::sid::kGroupsAbandoned), ma.groups_abandoned + mb.groups_abandoned);
    EXPECT_EQ(value(obs::sid::kRollbacks), ma.rollbacks + mb.rollbacks);
    EXPECT_EQ(value(obs::sid::kLateValidations), ma.late_validations + mb.late_validations);
    EXPECT_EQ(value(obs::sid::kVersionsDropped), ma.versions_dropped + mb.versions_dropped);
    EXPECT_EQ(value(obs::sid::kCopiesCloned), ma.copies_cloned + mb.copies_cloned);
    EXPECT_EQ(value(obs::sid::kCopiesFresh), ma.copies_fresh + mb.copies_fresh);
    EXPECT_EQ(value(obs::sid::kUpdatesApplied), ma.updates_applied + mb.updates_applied);
    EXPECT_EQ(value(obs::sid::kStatsSamples), ma.stats_samples + mb.stats_samples);
}

TEST(SimRuntimeTest, ContentionFactorModelsHyperThreading) {
    using core::SimRuntime;
    EXPECT_DOUBLE_EQ(SimRuntime::contention_factor(8, 20, 0.25), 1.0);
    EXPECT_DOUBLE_EQ(SimRuntime::contention_factor(20, 20, 0.25), 1.0);
    const double f33 = SimRuntime::contention_factor(33, 20, 0.25);
    EXPECT_GT(f33, 1.0);
    const double f40 = SimRuntime::contention_factor(40, 20, 0.25);
    EXPECT_GT(f40, f33);
}
