// Streaming ingestion (DESIGN.md §6): the arrival-driven window assigner
// that lets every engine detect over a store that is still growing. Polled
// event by event, it must emit exactly the batch assignment. Engine-level
// parity under live appends is in test_sched_differential (SPECTRE step()),
// test_pool_differential (SeqStepper) and test_server (TCP sessions).
#include <gtest/gtest.h>

#include "query/window.hpp"
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
