// Streaming ingestion (DESIGN.md §6): the arrival-driven window assigner
// that lets every engine detect over a store that is still growing. Polled
// event by event, it must emit exactly the batch assignment. Then the lane
// engine contract (§9) both engines keep under live appends: the ingest
// credit a lane parks on, the reclaim floor, and sequential output.
// Schedule-perturbing parity is in test_sched_differential (SPECTRE step()),
// test_pool_differential (pooled sessions) and test_server (TCP sessions).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "engine/lane_engine.hpp"
#include "query/window.hpp"
#include "sequential/seq_engine.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

using namespace spectre;
using spectre::testing::TestEnv;

namespace {

// Random event vector over the letters A..E.
std::vector<event::Event> random_events(TestEnv& env, std::size_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<event::Event> events;
    events.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const char c = static_cast<char>('A' + rng.uniform_int(0, 4));
        events.push_back(env.ev(c, static_cast<double>(rng.uniform_int(0, 9)),
                                static_cast<event::Timestamp>(i)));
    }
    return events;
}

}  // namespace

// ---------------------------------------------------------------------------
// Arrival-driven window assignment: event-by-event polling emits exactly the
// batch assignment (modulo the documented end-of-stream clamp).
// ---------------------------------------------------------------------------

namespace {

void check_assigner_equivalence(const query::WindowSpec& spec,
                                const std::vector<event::Event>& events,
                                const std::string& label) {
    event::EventStore batch;
    for (const auto& e : events) batch.append(e);
    const auto expected = query::assign_windows(batch, spec);

    event::EventStore store;
    query::WindowAssigner assigner(spec);
    std::vector<query::WindowInfo> got;
    for (const auto& e : events) {
        store.append(e);
        assigner.poll(store, store.size(), false, got);
        // Already-emitted windows must never be revised by later arrivals.
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].id, i) << label;
            EXPECT_EQ(got[i].first, expected[i].first) << label << " @" << i;
        }
    }
    store.close();
    assigner.poll(store, store.size(), true, got);
    EXPECT_TRUE(assigner.exhausted()) << label;

    ASSERT_EQ(got.size(), expected.size()) << label;
    const event::Seq max_last = events.empty() ? 0 : events.size() - 1;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, expected[i].first) << label << " @" << i;
        EXPECT_EQ(std::min(got[i].last, max_last), expected[i].last) << label << " @" << i;
        EXPECT_GE(got[i].last, expected[i].last) << label << " @" << i;
    }
}

}  // namespace

TEST(WindowAssignerIncremental, MatchesBatchForAllKinds) {
    TestEnv env;
    const auto events = random_events(env, 200, 303);
    check_assigner_equivalence(query::WindowSpec::sliding_count(20, 5), events,
                               "sliding-count");
    check_assigner_equivalence(query::WindowSpec::sliding_count(10, 15), events,
                               "sliding-count-gaps");
    check_assigner_equivalence(query::WindowSpec::sliding_time(25, 10), events,
                               "sliding-time");
    check_assigner_equivalence(query::WindowSpec::predicate_open_count(env.is('A'), 12),
                               events, "predicate-count");
    check_assigner_equivalence(query::WindowSpec::predicate_open_time(env.is('A'), 30),
                               events, "predicate-time");
}

TEST(WindowAssignerIncremental, EmptyAndClosedStream) {
    event::EventStore store;
    store.close();
    query::WindowAssigner assigner(query::WindowSpec::sliding_count(4, 2));
    std::vector<query::WindowInfo> got;
    EXPECT_EQ(assigner.poll(store, 0, true, got), 0u);
    EXPECT_TRUE(assigner.exhausted());
    EXPECT_TRUE(got.empty());
}

// ---------------------------------------------------------------------------
// engine::LaneEngine contract (DESIGN.md §9): after every step the credit
// stays at or below the frontier; an Idle step has caught up with it — the
// park predicate size() == credit relies on that, and a lane that broke it
// would spin instead of parking; stepping a closed store to Done leaves the
// credit at the final length; the reclaim floor never moves back, and the
// store frees every whole chunk below it after each step, as the server
// does, so a later read below the floor goes through a freed chunk and
// crashes (6,000 events span several chunks, so the release really frees);
// and the output is the sequential engine's, byte for byte.
// ---------------------------------------------------------------------------

namespace {

constexpr int kContractShapes = 4;

query::Query contract_shape(TestEnv& env, int shape) {
    switch (shape) {
        case 0:
            return query::QueryBuilder(env.schema)
                .single("A", env.is('A'))
                .single("B", env.is('B'))
                .window(query::WindowSpec::sliding_count(20, 5))
                .consume_all()
                .build();
        case 1:
            return query::QueryBuilder(env.schema)
                .single("A", env.is('A'))
                .plus("B", env.is('B'))
                .single("C", env.is('C'))
                .window(query::WindowSpec::sliding_count(30, 10))
                .consume({"B"})
                .build();
        case 2:
            return query::QueryBuilder(env.schema)
                .single("A", env.is('A'))
                .single("B", env.is('B'))
                .window(query::WindowSpec::predicate_open_count(env.is('A'), 15))
                .consume_all()
                .build();
        default:
            return query::QueryBuilder(env.schema)
                .single("A", env.is('A'))
                .single("B", env.is('B'))
                .window(query::WindowSpec::sliding_time(25, 10))
                .consume_all()
                .build();
    }
}

void check_lane_contract(std::uint32_t k, int shape, std::uint64_t seed) {
    TestEnv env;
    const auto cq = detect::CompiledQuery::compile(contract_shape(env, shape));
    const auto events = random_events(env, 6'000, seed);
    const std::string label =
        "k=" + std::to_string(k) + " shape " + std::to_string(shape) + " seed " +
        std::to_string(seed);

    event::EventStore whole;
    for (const auto& e : events) whole.append(e);
    whole.close();
    const auto expected = sequential::SequentialEngine(&cq).run(whole).complex_events;

    event::EventStore store;
    std::vector<event::ComplexEvent> got;
    engine::LaneEngine lane(&cq, &store, k, /*windows_per_step=*/2, /*batch_events=*/16,
                            [&got](event::ComplexEvent&& ce) { got.push_back(std::move(ce)); },
                            /*obs=*/nullptr);
    event::Seq floor = 0;
    const auto step = [&] {
        const auto st = lane.step();
        EXPECT_LE(lane.processed(), store.size()) << label;
        EXPECT_GE(lane.low_watermark(), floor) << label;
        floor = lane.low_watermark();
        store.release_chunks_below(floor);
        return st;
    };
    using Step = engine::LaneEngine::Step;
    util::Rng rng(seed * 7 + 1);
    for (std::size_t i = 0; i < events.size();) {
        const auto chunk = static_cast<std::size_t>(rng.uniform_int(1, 48));
        for (const std::size_t end = std::min(events.size(), i + chunk); i < end; ++i)
            store.append(events[i]);
        Step st;
        while ((st = step()) == Step::Busy) {
        }
        ASSERT_EQ(st, Step::Idle) << label << " @" << i;
        ASSERT_EQ(lane.processed(), store.size()) << label << " @" << i;
    }
    store.close();
    std::size_t steps = 0;
    while (step() != Step::Done) ASSERT_LT(++steps, 100'000u) << label;
    EXPECT_EQ(lane.processed(), store.size()) << label;

    ASSERT_EQ(expected.size(), got.size()) << label;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].window_id, got[i].window_id) << label << " @" << i;
        EXPECT_EQ(expected[i].constituents, got[i].constituents) << label << " @" << i;
        EXPECT_EQ(expected[i].payload, got[i].payload) << label << " @" << i;
    }
}

}  // namespace

TEST(LaneEngineContract, SequentialLane) {
    for (int shape = 0; shape < kContractShapes; ++shape)
        for (const std::uint64_t seed : {11u, 29u, 47u}) check_lane_contract(0, shape, seed);
}

TEST(LaneEngineContract, SpeculativeLane) {
    for (int shape = 0; shape < kContractShapes; ++shape)
        for (const std::uint64_t seed : {11u, 29u, 47u}) check_lane_contract(3, shape, seed);
}
