// Randomized differentials for the ready-instance scheduler (DESIGN.md §11),
// plus direct structural tests of the scheduler itself.
//
// The scheduler replaced step()'s round-robin with a ready queue over
// per-instance wait states; its correctness contract is unchanged: for
// every query shape, stream, instance count and *schedule* — i.e. however
// step() calls interleave with store appends, whatever the quantum budget —
// the output must stay byte-identical to the sequential engine (§2.3). The
// randomized suite below perturbs exactly those axes. The scheduler suite
// drives InstanceScheduler directly: no ready instance ever waits, stalled
// instances wake in stall order, retirement empties every list, and
// re-classifying a queued instance pulls it out of the queue.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "model/markov_model.hpp"
#include "sequential/seq_engine.hpp"
#include "spectre/runtime.hpp"
#include "spectre/instance_scheduler.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

using namespace spectre;
using spectre::testing::TestEnv;

namespace {

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

// The query-shape axis: seven shapes that exercise consumption groups,
// Kleene closure, subset consumption, disjoint (embarrassingly parallel)
// windows, predicate-opened windows and time-extent windows — the regimes
// where scheduling order could plausibly leak into the output if the
// suppression/rollback machinery mis-stepped, or where a window's extent is
// only known once later events arrive.
constexpr int kShapes = 7;

query::Query make_shape(TestEnv& env, int shape) {
    switch (shape % kShapes) {
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
                .single("B", env.is('B'))
                .single("C", env.is('C'))
                .window(query::WindowSpec::sliding_count(24, 6))
                .consume({"B"})
                .build();
        case 2:
            return query::QueryBuilder(env.schema)
                .single("A", env.is('A'))
                .plus("B", env.is('B'))
                .single("C", env.is('C'))
                .window(query::WindowSpec::sliding_count(30, 10))
                .consume_all()
                .build();
        case 3:
            return query::QueryBuilder(env.schema)
                .single("A", env.is('A'))
                .single("B", env.is('B'))
                .window(query::WindowSpec::sliding_count(20, 5))
                .build();  // no consumption
        case 4:
            return query::QueryBuilder(env.schema)
                .single("A", env.is('A'))
                .set("S", {{"X", env.is('B')}, {"Y", env.is('C')}, {"Z", env.is('D')}})
                .window(query::WindowSpec::sliding_count(25, 5))
                .consume_all()
                .build();
        case 5:
            return query::QueryBuilder(env.schema)
                .single("A", env.is('A'))
                .sticky()
                .single("B", env.is('B'))
                .window(query::WindowSpec::predicate_open_count(env.is('A'), 15))
                .consume({"B"})
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

// Drives one step()-scheduled run with a seeded schedule perturbation:
// appends arrive in random-sized chunks, a random number of step() calls
// runs between chunks, and the quantum budget itself is drawn per combo.
// Safeguard: a run that exceeds a generous step bound fails loudly instead
// of hanging the suite (the scheduler's termination argument, §11).
std::vector<event::ComplexEvent> run_stepped(const detect::CompiledQuery& cq,
                                             const std::vector<event::Event>& events,
                                             int instances, std::uint64_t schedule_seed,
                                             const std::string& label) {
    util::Rng rng(schedule_seed);
    event::EventStore store;
    core::RuntimeConfig cfg;
    cfg.splitter.instances = instances;
    cfg.splitter.instance.consistency_check_freq = 8;
    static const std::size_t kBatches[] = {5, 16, 64};
    static const std::size_t kBudgets[] = {7, 16, 64, 1024};
    cfg.batch_events = kBatches[rng.uniform_int(0, 2)];
    cfg.quantum_budget = kBudgets[rng.uniform_int(0, 3)];
    core::SpectreRuntime rt(&store, &cq, cfg, make_markov(cq));

    std::vector<event::ComplexEvent> out;
    rt.set_result_sink([&out](event::ComplexEvent&& ce) { out.push_back(std::move(ce)); });

    const std::size_t step_bound = 1000 + events.size() * 200;
    std::size_t steps = 0;
    std::size_t fed = 0;
    bool done = false;
    while (!done) {
        // Closing once everything is fed covers a zero-event input too.
        if (!store.closed()) {
            const std::size_t chunk =
                std::min<std::size_t>(static_cast<std::size_t>(rng.uniform_int(0, 17)),
                                      events.size() - fed);
            for (std::size_t i = 0; i < chunk; ++i) store.append(events[fed++]);
            if (fed == events.size()) store.close();
        }
        const int calls = static_cast<int>(rng.uniform_int(fed < events.size() ? 0 : 1, 3));
        for (int c = 0; c < calls && !done; ++c) {
            const auto p = rt.step();
            done = p.done;
            // Quiescence really is a fixed point: with no new appends, an
            // immediate re-step must not produce events out of thin air.
            if (p.quiescent && !done) {
                const auto q = rt.step();
                done = q.done;
                EXPECT_EQ(q.events_processed, 0u) << label << ": quiescent step moved";
            }
            if (++steps >= step_bound) {
                ADD_FAILURE() << label << ": step() did not terminate";
                return out;
            }
        }
    }
    // done implies everything retired; a further step stays done + quiescent.
    const auto p = rt.step();
    EXPECT_TRUE(p.done && p.quiescent) << label;
    return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Randomized differential: 85 (shape, stream, k, schedule) combos — 84 over
// seven shapes, four instance counts and three stream lengths, plus one
// empty stream — each byte-identical to the sequential engine.
// ---------------------------------------------------------------------------

TEST(SchedDifferential, RandomizedStepSchedulesMatchSequential) {
    TestEnv env;
    static const int kInstances[] = {1, 2, 4, 8};
    int combo = 0;
    for (int shape = 0; shape < kShapes; ++shape) {
        const auto q = make_shape(env, shape);
        const auto cq = detect::CompiledQuery::compile(q);
        for (const int k : kInstances) {
            for (int rep = 0; rep < 3; ++rep, ++combo) {
                const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(combo);
                const auto events =
                    random_events(env, 150 + 50 * static_cast<std::size_t>(rep), seed);
                event::EventStore batch;
                for (const auto& e : events) batch.append(e);
                const auto expected = sequential::SequentialEngine(&cq).run(batch);

                const std::string label = "combo " + std::to_string(combo) + " (shape=" +
                                          std::to_string(shape) + " k=" + std::to_string(k) +
                                          " rep=" + std::to_string(rep) + ")";
                const auto actual = run_stepped(cq, events, k, seed * 7919, label);
                expect_same_output(expected.complex_events, actual, label);
            }
        }
    }
    // An empty stream: the store closes before the first step and the run
    // ends with no output.
    {
        const auto cq = detect::CompiledQuery::compile(make_shape(env, 0));
        const std::string label = "combo " + std::to_string(combo) + " (empty)";
        EXPECT_TRUE(run_stepped(cq, {}, 4, 1000 + static_cast<std::uint64_t>(combo), label)
                        .empty())
            << label;
        ++combo;
    }
    ASSERT_EQ(combo, 85);  // the floor the suite promises
}

// ---------------------------------------------------------------------------
// Threaded leg: a producer thread appends into the store while this thread
// drives step() — the exact shape the worker pool's streaming sessions put
// the scheduler in, and the interleaving TSan needs to see.
// ---------------------------------------------------------------------------

TEST(SchedDifferential, ConcurrentProducerWithSteppedConsumer) {
    TestEnv env;
    for (const int k : {2, 4}) {
        const auto q = make_shape(env, 0);
        const auto cq = detect::CompiledQuery::compile(q);
        const auto events = random_events(env, 400, 77 + static_cast<std::uint64_t>(k));
        event::EventStore batch;
        for (const auto& e : events) batch.append(e);
        const auto expected = sequential::SequentialEngine(&cq).run(batch);

        event::EventStore store;
        core::RuntimeConfig cfg;
        cfg.splitter.instances = k;
        cfg.splitter.instance.consistency_check_freq = 8;
        cfg.batch_events = 16;
        cfg.quantum_budget = 32;
        core::SpectreRuntime rt(&store, &cq, cfg, make_markov(cq));
        std::vector<event::ComplexEvent> out;
        rt.set_result_sink(
            [&out](event::ComplexEvent&& ce) { out.push_back(std::move(ce)); });

        std::thread producer([&events, &store] {
            std::size_t i = 0;
            for (const auto& e : events) {
                store.append(e);
                if (++i % 64 == 0) std::this_thread::yield();
            }
            store.close();
        });
        while (!rt.step().done) {
        }
        producer.join();

        expect_same_output(expected.complex_events, out,
                           "concurrent producer k=" + std::to_string(k));
    }
}

// ---------------------------------------------------------------------------
// Scheduler invariants, driven directly.
// ---------------------------------------------------------------------------

TEST(SchedQueue, ReadyInstanceNeverWaits) {
    core::InstanceScheduler sched(4);
    sched.check_invariants();  // everyone starts waiting on the splitter
    EXPECT_EQ(sched.pop_ready(), -1);

    // A cycle hands 0 and 2 work; they are popped FIFO.
    sched.requeue_after_cycle([](int i) { return i == 0 || i == 2; });
    sched.check_invariants();
    EXPECT_EQ(sched.ready_depth(), 2u);
    EXPECT_EQ(sched.pop_ready(), 0);
    sched.check_invariants();
    EXPECT_EQ(sched.pop_ready(), 2);
    EXPECT_EQ(sched.pop_ready(), -1);

    // Both finish their batch differently: 0 stalls, 2 keeps work.
    sched.mark_stalled(0, 100);
    sched.mark_ready(2);
    sched.check_invariants();
    EXPECT_EQ(sched.pop_ready(), 2);
    sched.mark_waiting_assignment(2);
    sched.check_invariants();

    // Frontier below the awaited seq wakes nothing; past it wakes 0 only.
    sched.wake_frontier(100);
    sched.check_invariants();
    EXPECT_EQ(sched.pop_ready(), -1);
    sched.wake_frontier(101);
    sched.check_invariants();
    EXPECT_EQ(sched.pop_ready(), 0);
    sched.mark_waiting_assignment(0);
    sched.check_invariants();
}

TEST(SchedQueue, RequeueReclassifiesQueuedInstances) {
    // Regression: an instance already *in* the ready queue loses its slot
    // when a cycle decides it has no work — a queued instance must never be
    // waiting.
    core::InstanceScheduler sched(3);
    sched.requeue_after_cycle([](int) { return true; });
    EXPECT_EQ(sched.ready_depth(), 3u);
    sched.requeue_after_cycle([](int i) { return i == 1; });
    sched.check_invariants();
    EXPECT_EQ(sched.ready_depth(), 1u);
    EXPECT_EQ(sched.pop_ready(), 1);
    EXPECT_EQ(sched.pop_ready(), -1);
    sched.mark_ready(1);
    sched.check_invariants();
}

TEST(SchedQueue, StalledInstancesWakeInFifoOrderPastTheirSeqs) {
    core::InstanceScheduler sched(4);
    sched.requeue_after_cycle([](int) { return true; });
    while (sched.pop_ready() >= 0) {
    }
    sched.mark_stalled(3, 10);
    sched.mark_stalled(1, 20);
    sched.mark_stalled(2, 10);
    sched.mark_waiting_assignment(0);
    sched.check_invariants();

    sched.wake_frontier(11);  // releases 3 and 2 (wait_seq 10), not 1
    sched.check_invariants();
    EXPECT_EQ(sched.pop_ready(), 3);
    EXPECT_EQ(sched.pop_ready(), 2);
    EXPECT_EQ(sched.pop_ready(), -1);
    sched.mark_waiting_assignment(3);
    sched.mark_waiting_assignment(2);

    sched.wake_frontier(21);
    EXPECT_EQ(sched.pop_ready(), 1);
    sched.mark_waiting_assignment(1);
    sched.check_invariants();
}

TEST(SchedQueue, RetireAllEmptiesTheQueueAndTheWaitList) {
    core::InstanceScheduler sched(5);
    sched.requeue_after_cycle([](int i) { return i % 2 == 0; });
    sched.mark_stalled(1, 42);
    EXPECT_GT(sched.ready_depth(), 0u);
    sched.retire_all();
    sched.check_invariants();
    EXPECT_EQ(sched.ready_depth(), 0u);
    EXPECT_EQ(sched.pop_ready(), -1);
    // Retirement is not terminal for reuse: a later cycle can still requeue
    // (the runtime never does after done, but the scheduler allows it and
    // the invariants must hold either way).
    sched.requeue_after_cycle([](int) { return true; });
    sched.check_invariants();
    EXPECT_EQ(sched.ready_depth(), 5u);
}

TEST(SchedQueue, ReadyDepthStatsTrackPops) {
    core::InstanceScheduler sched(4);
    sched.requeue_after_cycle([](int) { return true; });
    EXPECT_EQ(sched.pop_ready(), 0);  // depth 4 at pop
    EXPECT_EQ(sched.pop_ready(), 1);  // depth 3
    EXPECT_EQ(sched.pop_ready(), 2);  // depth 2
    EXPECT_EQ(sched.pop_ready(), 3);  // depth 1
    EXPECT_EQ(sched.ready_max(), 4u);
    EXPECT_DOUBLE_EQ(sched.ready_p50(), 2.0);  // median of {4,3,2,1}
}
