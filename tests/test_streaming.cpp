// Streaming ingestion end-to-end (DESIGN.md §6): when the store is fed live
// *during* the run — through a LiveStream, a TCP connection, or an
// event-by-event poll — every engine must still deliver exactly the
// sequential batch output: same events, same payloads, same window order.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "data/nyse_synth.hpp"
#include "model/markov_model.hpp"
#include "net/tcp.hpp"
#include "sequential/seq_engine.hpp"
#include "spectre/runtime.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

using namespace spectre;
using spectre::testing::TestEnv;

namespace {

// Random event vector over the letters A..E (same shape as the batch
// equivalence suites in test_spectre_runtime.cpp).
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

event::EventStore store_from(const std::vector<event::Event>& events) {
    event::EventStore store;
    for (const auto& e : events) store.append(e);
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

// Feeds `events` through a LiveStream into a live SpectreRuntime run and
// checks the output against the sequential batch ground truth. `throttle`
// inserts producer pauses so detection genuinely overtakes ingestion and
// stalls at the frontier.
void check_live_equivalence(const query::Query& q, const std::vector<event::Event>& events,
                            int instances, bool throttle, const std::string& label) {
    const auto cq = detect::CompiledQuery::compile(q);
    const auto batch_store = store_from(events);
    const auto expected = sequential::SequentialEngine(&cq).run(batch_store);

    event::LiveStream live;
    std::thread producer([&events, &live, throttle] {
        std::size_t i = 0;
        for (const auto& e : events) {
            live.push(e);
            if (throttle && (++i % 50 == 0))
                std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        live.close();
    });

    event::EventStore store;
    core::RuntimeConfig cfg;
    cfg.splitter.instances = instances;
    cfg.splitter.instance.consistency_check_freq = 8;
    cfg.batch_events = 16;
    core::SpectreRuntime rt(&store, &cq, cfg, make_markov(cq));
    const auto result = rt.run(live);
    producer.join();

    ASSERT_EQ(store.size(), events.size()) << label;
    EXPECT_TRUE(store.closed()) << label;
    expect_same_output(expected.complex_events, result.output, label);
}

}  // namespace

// ---------------------------------------------------------------------------
// SPECTRE fed live during the run matches the sequential batch output.
// ---------------------------------------------------------------------------

TEST(StreamingSpectre, ConsumeAllOverlappingWindowsLiveFeed) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::sliding_count(20, 5))
                 .consume_all()
                 .build();
    for (const std::uint64_t seed : {1u, 2u, 3u})
        check_live_equivalence(q, random_events(env, 300, seed), 4, false,
                               "live seq-consume-all seed=" + std::to_string(seed));
}

TEST(StreamingSpectre, ThrottledProducerForcesFrontierStalls) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .single("C", env.is('C'))
                 .window(query::WindowSpec::sliding_count(24, 6))
                 .consume_all()
                 .build();
    for (const std::uint64_t seed : {7u, 8u})
        check_live_equivalence(q, random_events(env, 400, seed), 4, true,
                               "throttled seed=" + std::to_string(seed));
}

TEST(StreamingSpectre, KleenePlusLiveFeed) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .plus("B", env.is('B'))
                 .single("C", env.is('C'))
                 .window(query::WindowSpec::sliding_count(30, 10))
                 .consume_all()
                 .build();
    check_live_equivalence(q, random_events(env, 300, 21), 4, false, "live kleene");
}

TEST(StreamingSpectre, PredicateOpenWindowsLiveFeed) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .sticky()
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::predicate_open_count(env.is('A'), 15))
                 .consume({"B"})
                 .build();
    check_live_equivalence(q, random_events(env, 250, 61), 4, true,
                           "live sticky-predicate-open");
}

TEST(StreamingSpectre, SlidingTimeWindowsLiveFeed) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::sliding_time(25, 10))
                 .consume_all()
                 .build();
    check_live_equivalence(q, random_events(env, 300, 71), 4, false, "live sliding-time");
}

TEST(StreamingSpectre, InstanceCountSweepLiveFeed) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::sliding_count(20, 5))
                 .consume_all()
                 .build();
    const auto events = random_events(env, 300, 81);
    for (const int k : {1, 2, 8})
        check_live_equivalence(q, events, k, false, "live k=" + std::to_string(k));
}

TEST(StreamingSpectre, EmptyLiveStream) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .window(query::WindowSpec::sliding_count(10, 5))
                 .consume_all()
                 .build();
    const auto cq = detect::CompiledQuery::compile(q);
    event::LiveStream live;
    live.close();
    event::EventStore store;
    core::RuntimeConfig cfg;
    cfg.splitter.instances = 2;
    core::SpectreRuntime rt(&store, &cq, cfg, make_markov(cq));
    EXPECT_TRUE(rt.run(live).output.empty());
    EXPECT_TRUE(store.closed());
}

TEST(StreamingSpectre, SourceFailureClosesStoreAndPropagates) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .window(query::WindowSpec::sliding_count(10, 5))
                 .consume_all()
                 .build();
    const auto cq = detect::CompiledQuery::compile(q);
    // Yields a few events, then fails like a reset connection.
    class FailingStream final : public event::EventStream {
    public:
        explicit FailingStream(std::vector<event::Event> events) : events_(std::move(events)) {}
        std::optional<event::Event> next() override {
            if (pos_ == events_.size()) throw std::runtime_error("connection reset");
            return events_[pos_++];
        }

    private:
        std::vector<event::Event> events_;
        std::size_t pos_ = 0;
    };
    FailingStream live(random_events(env, 40, 91));
    event::EventStore store;
    core::RuntimeConfig cfg;
    cfg.splitter.instances = 2;
    cfg.batch_events = 16;
    core::SpectreRuntime rt(&store, &cq, cfg, make_markov(cq));
    EXPECT_THROW(rt.run(live), std::runtime_error);
    EXPECT_TRUE(store.closed());
    EXPECT_EQ(store.size(), 40u);
}

TEST(StreamingSpectre, StreamingRunRequiresMutableStore) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .window(query::WindowSpec::sliding_count(10, 5))
                 .build();
    const auto cq = detect::CompiledQuery::compile(q);
    const event::EventStore store;  // batch ctor: const store
    core::RuntimeConfig cfg;
    cfg.splitter.instances = 1;
    core::SpectreRuntime rt(&store, &cq, cfg, make_markov(cq));
    event::LiveStream live;
    live.close();
    EXPECT_THROW(rt.run(live), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Sequential engine: the streaming path is byte-identical to batch.
// ---------------------------------------------------------------------------

TEST(StreamingSequential, RunStreamMatchesBatchRun) {
    TestEnv env;
    auto q = query::QueryBuilder(env.schema)
                 .single("A", env.is('A'))
                 .single("B", env.is('B'))
                 .single("C", env.is('C'))
                 .window(query::WindowSpec::sliding_count(18, 6))
                 .consume_all()
                 .build();
    const auto cq = detect::CompiledQuery::compile(q);
    for (const std::uint64_t seed : {201u, 202u, 203u}) {
        const auto events = random_events(env, 350, seed);
        const auto expected = sequential::SequentialEngine(&cq).run(store_from(events));

        event::LiveStream live;
        live.push_all(events);
        live.close();
        event::EventStore store;
        const auto streamed = sequential::SequentialEngine(&cq).run_stream(live, store);

        expect_same_output(expected.complex_events, streamed.complex_events,
                           "seq-stream seed=" + std::to_string(seed));
        EXPECT_EQ(expected.stats.windows, streamed.stats.windows);
        EXPECT_EQ(expected.stats.events_processed, streamed.stats.events_processed);
        EXPECT_EQ(expected.stats.groups_completed, streamed.stats.groups_completed);
        EXPECT_TRUE(store.closed());
        EXPECT_EQ(store.size(), events.size());
    }
}

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
// TCP ingestion: detect while the client is still sending.
// ---------------------------------------------------------------------------

TEST(StreamingTcp, PipelineMatchesSequential) {
    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    data::NyseSynthConfig gen;
    gen.events = 3000;
    gen.symbols = 50;
    gen.up_prob = 0.6;
    const auto events = data::generate_nyse(vocab, gen);

    // Ground truth: sequential over the same events.
    event::EventStore batch;
    for (const auto& e : events) batch.append(e);

    // Q1-flavoured query on the quote stream: two consecutive rising quotes.
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
    const auto expected = sequential::SequentialEngine(&cq).run(batch);

    net::TcpSource source(0);
    std::thread client([&] {
        net::TcpClient c("127.0.0.1", source.port());
        c.send_all(events, vocab);
    });

    event::EventStore store;
    core::RuntimeConfig cfg;
    cfg.splitter.instances = 4;
    core::SpectreRuntime rt(&store, &cq, cfg, make_markov(cq));
    net::TcpStream stream(source, vocab);
    const auto result = rt.run(stream);
    client.join();

    ASSERT_EQ(store.size(), events.size());
    expect_same_output(expected.complex_events, result.output, "tcp-streaming");
}
