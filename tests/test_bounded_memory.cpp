// Bounded memory on unbounded streams (DESIGN.md §6): the consumed-seq ring,
// the sequential stepper's O(window span) state and its low watermark, the
// speculative runtime's watermark, the store's resumable chunk release, a
// server session whose private store frees chunks behind its lane's
// watermark while it streams (whichever k), the finish that releases any
// standalone session's store, the §9 ingest credit that holds any session's
// backlog to its cap, and the PARTITION BY key lanes (§10) whose mapped
// stores free chunks per lane (whichever k).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/stock.hpp"
#include "detect/compiled_query.hpp"
#include "event/consumed_seqs.hpp"
#include "model/markov_model.hpp"
#include "query/parser.hpp"
#include "sequential/seq_engine.hpp"
#include "server/cep_server.hpp"
#include "server/config.hpp"
#include "server_test_util.hpp"
#include "shard/sharded_engine.hpp"
#include "spectre/runtime.hpp"

using namespace spectre;
using namespace spectre::testing;

namespace {

std::vector<event::Seq> members(const event::ConsumedSeqs& s) {
    std::vector<event::Seq> out;
    s.for_each([&out](event::Seq seq) { out.push_back(seq); });
    return out;
}

// Parameter names for the suites instantiated over k.
std::string k_name(const ::testing::TestParamInfo<std::uint32_t>& info) {
    return std::string("k").append(std::to_string(info.param));
}

}  // namespace

// ---------------------------------------------------------------------------
// event::ConsumedSeqs
// ---------------------------------------------------------------------------

TEST(ConsumedSeqs, WordBoundaries) {
    event::ConsumedSeqs s;
    for (const event::Seq seq : {63, 64, 127, 128, 0}) s.insert(seq);
    s.insert(64);  // duplicate
    EXPECT_EQ(s.size(), 5u);
    for (const event::Seq seq : {0, 63, 64, 127, 128}) EXPECT_TRUE(s.contains(seq)) << seq;
    for (const event::Seq seq : {1, 62, 65, 126, 129, 191, 192})
        EXPECT_FALSE(s.contains(seq)) << seq;
    EXPECT_EQ(members(s), (std::vector<event::Seq>{0, 63, 64, 127, 128}));

    // A floor inside a word clears only the bits below it.
    s.drop_below(64);
    EXPECT_EQ(members(s), (std::vector<event::Seq>{64, 127, 128}));
    s.drop_below(65);
    EXPECT_FALSE(s.contains(64));
    EXPECT_EQ(members(s), (std::vector<event::Seq>{127, 128}));
    EXPECT_EQ(s.size(), 2u);
}

TEST(ConsumedSeqs, RingGrowsWithTheLiveSpanAndKeepsItsContents) {
    event::ConsumedSeqs s;
    std::set<event::Seq> ref;
    // Slide a 256-seq span across 64k seqs: the ring wraps many times but
    // never needs more than the span's words.
    std::size_t peak_words = 0;
    event::Seq base = 0;
    for (; base < 65536; base += 64) {
        s.drop_below(base);
        ref.erase(ref.begin(), ref.lower_bound(base));
        for (const event::Seq seq : {base + 3, base + 200}) {
            s.insert(seq);
            ref.insert(seq);
        }
        ASSERT_TRUE(s.contains(base + 3));
        ASSERT_TRUE(s.contains(base + 200));
        peak_words = std::max(peak_words, s.capacity_words());
    }
    EXPECT_LE(peak_words, 8u);

    // Widening the span while members sit in a wrapped ring grows it; the
    // members (and their order) survive the re-linearization.
    for (event::Seq off = 0; off < 64 * 40; off += 37) {
        s.insert(base + off);
        ref.insert(base + off);
    }
    EXPECT_GE(s.capacity_words(), 40u);
    EXPECT_EQ(members(s), std::vector<event::Seq>(ref.begin(), ref.end()));
    EXPECT_EQ(s.size(), ref.size());
}

TEST(ConsumedSeqs, JumpWiderThanTheRing) {
    event::ConsumedSeqs s;
    s.insert(10);
    const std::size_t small = s.capacity_words();
    // Live member far behind: the span really is that wide, so the ring grows.
    s.insert(10 + 64 * 1000);
    EXPECT_GE(s.capacity_words(), 1001u);
    EXPECT_EQ(members(s), (std::vector<event::Seq>{10, 10 + 64 * 1000}));

    // Nothing live: a far jump re-anchors instead of spanning the gap.
    event::ConsumedSeqs t;
    t.insert(10);
    t.drop_below(11);
    t.insert(1'000'000);
    EXPECT_EQ(t.capacity_words(), small);
    EXPECT_TRUE(t.contains(1'000'000));
    // Above the floor but below the re-anchored base: prepended, not lost.
    t.insert(500);
    EXPECT_TRUE(t.contains(500));
    EXPECT_FALSE(t.contains(501));
    EXPECT_EQ(members(t), (std::vector<event::Seq>{500, 1'000'000}));
}

TEST(ConsumedSeqs, DropBelowPastEveryEntryEmptiesTheSet) {
    event::ConsumedSeqs s;
    for (event::Seq seq = 100; seq < 1000; seq += 7) s.insert(seq);
    s.drop_below(5000);
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.size(), 0u);
    EXPECT_TRUE(members(s).empty());
    for (event::Seq seq = 100; seq < 1000; ++seq) ASSERT_FALSE(s.contains(seq));
    s.insert(5000);
    s.insert(5063);
    EXPECT_EQ(members(s), (std::vector<event::Seq>{5000, 5063}));
}

TEST(ConsumedSeqs, BelowTheFloorIsNeverAMember) {
    event::ConsumedSeqs s;
    s.insert(50);
    s.insert(150);
    s.drop_below(100);
    EXPECT_FALSE(s.contains(50));
    EXPECT_FALSE(s.contains(0));
    s.insert(60);  // below the floor: ignored
    EXPECT_FALSE(s.contains(60));
    EXPECT_EQ(members(s), (std::vector<event::Seq>{150}));
    s.drop_below(40);  // the floor never moves back
    EXPECT_FALSE(s.contains(60));
}

// Differential against std::set under the engines' usage: unordered inserts
// at or above a monotone floor, interleaved with drop_below.
TEST(ConsumedSeqs, MatchesAnOrderedSetUnderARandomizedWorkload) {
    std::mt19937_64 rng(7);
    event::ConsumedSeqs s;
    std::set<event::Seq> ref;
    event::Seq floor = 0;
    for (int step = 0; step < 20000; ++step) {
        const auto r = rng() % 100;
        if (r < 70) {
            const event::Seq seq = floor + rng() % (r < 5 ? 100000 : 300);
            s.insert(seq);
            ref.insert(seq);
        } else if (r < 90) {
            floor += rng() % 96;
            s.drop_below(floor);
            ref.erase(ref.begin(), ref.lower_bound(floor));
        } else {
            const event::Seq probe = floor >= 50 ? floor - 50 + rng() % 400 : rng() % 400;
            ASSERT_EQ(s.contains(probe), ref.count(probe) == 1) << probe;
        }
        ASSERT_EQ(s.size(), ref.size());
    }
    EXPECT_EQ(members(s), std::vector<event::Seq>(ref.begin(), ref.end()));
}

// ---------------------------------------------------------------------------
// EventStore::release_chunks_below resumes from its cursor
// ---------------------------------------------------------------------------

TEST(EventStoreRelease, FreesEachChunkOnceAndNeverThePartialOne) {
    event::EventStore store;
    constexpr std::size_t kChunk = event::EventStore::kChunkSize;
    for (std::size_t i = 0; i < 5 * kChunk + 10; ++i) store.append(event::Event{});
    EXPECT_EQ(store.release_chunks_below(kChunk - 1), 0u);  // partial chunk 0
    EXPECT_EQ(store.release_chunks_below(2 * kChunk), 2u);
    EXPECT_EQ(store.release_chunks_below(2 * kChunk), 0u);
    EXPECT_EQ(store.release_chunks_below(kChunk), 0u);  // behind the cursor
    EXPECT_EQ(store.at(2 * kChunk).seq, 2 * kChunk);
    // Clamped to the frontier: the chunk being appended to stays.
    EXPECT_EQ(store.release_chunks_below(100 * kChunk), 3u);
    EXPECT_EQ(store.at(5 * kChunk + 9).seq, 5 * kChunk + 9);
    for (std::size_t i = 0; i < kChunk; ++i) store.append(event::Event{});
    EXPECT_EQ(store.release_chunks_below(store.size()), 1u);
}

// ---------------------------------------------------------------------------
// SeqStepper: O(window span) state, and a watermark the store can free to
// ---------------------------------------------------------------------------

namespace {

struct RisingPairStream {
    data::StockVocab vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    event::SubjectId symbol = vocab.schema->intern_subject("AAPL");
    std::mt19937_64 rng{42};

    event::Event next(std::size_t i) {
        const double open = 100.0 + static_cast<double>(rng() % 50);
        const bool up = rng() % 10 < 6;
        return data::make_quote(vocab, static_cast<event::Timestamp>(i), symbol, open,
                                up ? open + 1.0 : open - 1.0, 10.0);
    }
};

// Order-sensitive digest of a result stream (window id, constituents,
// payload), so a million-event run compares without keeping its output.
struct Digest {
    std::uint64_t h = 1469598103934665603ull;
    std::size_t n = 0;
    void mix(std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    }
    void add(const event::ComplexEvent& ce) {
        ++n;
        mix(ce.window_id);
        mix(ce.constituents.size());
        for (const auto s : ce.constituents) mix(s);
        for (const auto& [name, value] : ce.payload) {
            for (const char c : name) mix(static_cast<unsigned char>(c));
            std::uint64_t bits = 0;
            static_assert(sizeof(bits) == sizeof(value));
            std::memcpy(&bits, &value, sizeof(bits));
            mix(bits);
        }
    }
    bool operator==(const Digest&) const = default;
};

struct StepperRun {
    Digest out;
    sequential::SeqStepper::Footprint footprint;
    std::size_t peak_resident_chunks = 0;
};

// Appends `n` events in ingest batches and drains in window quanta, the way a
// k = 0 server lane does, freeing store chunks behind the stepper's watermark.
StepperRun run_stepper(const detect::CompiledQuery& cq, std::size_t n) {
    RisingPairStream gen;
    event::EventStore store;
    StepperRun run;
    sequential::SeqStepper stepper(&cq, &store,
                                   [&run](event::ComplexEvent&& ce) { run.out.add(ce); });
    std::size_t released = 0;
    for (std::size_t i = 0; i < n;) {
        for (const std::size_t end = std::min(n, i + 64); i < end; ++i) store.append(gen.next(i));
        while (stepper.drain(4)) {
        }
        released += store.release_chunks_below(stepper.low_watermark());
        const std::size_t allocated =
            (store.size() + event::EventStore::kChunkSize - 1) >> event::EventStore::kChunkShift;
        run.peak_resident_chunks = std::max(run.peak_resident_chunks, allocated - released);
    }
    store.close();
    while (stepper.drain(4)) {
    }
    EXPECT_TRUE(stepper.finished());
    run.footprint = stepper.footprint();
    return run;
}

Digest oracle(const detect::CompiledQuery& cq, std::size_t n) {
    RisingPairStream gen;
    event::EventStore store;
    for (std::size_t i = 0; i < n; ++i) store.append(gen.next(i));
    store.close();
    Digest d;
    sequential::SequentialEngine(&cq).run(store, [&d](event::ComplexEvent&& ce) { d.add(ce); });
    return d;
}

}  // namespace

TEST(SeqStepperBound, StateAndResidentChunksDoNotGrowWithTheStream) {
    RisingPairStream vocab_source;
    const auto cq = detect::CompiledQuery::compile(
        query::parse_query(kRisingPairQuery, vocab_source.vocab.schema));
    const StepperRun small = run_stepper(cq, 10'000);
    const StepperRun large = run_stepper(cq, 1'000'000);

    EXPECT_EQ(small.out, oracle(cq, 10'000));
    EXPECT_EQ(large.out, oracle(cq, 1'000'000));
    EXPECT_GT(large.out.n, 10'000u);

    EXPECT_EQ(small.footprint.window_slots, large.footprint.window_slots);
    EXPECT_EQ(small.footprint.consumed_words, large.footprint.consumed_words);
    EXPECT_LE(large.footprint.window_slots, 64u);
    // The watermark trails the frontier by at most one window: the store
    // holds the chunk being read and the one being appended to.
    EXPECT_LE(large.peak_resident_chunks, 2u);
}

// ---------------------------------------------------------------------------
// SpectreRuntime: the speculative watermark (the front root's window) lets
// the store free behind a k > 0 runtime too
// ---------------------------------------------------------------------------

namespace {

struct RuntimeRun {
    Digest out;
    std::size_t peak_resident_chunks = 0;
};

// Appends `n` events in ingest batches and steps the k = 3 runtime to
// quiescence after each, the way a k > 0 server lane does, freeing store
// chunks behind its watermark after every step.
RuntimeRun run_runtime(const detect::CompiledQuery& cq, std::size_t n) {
    RisingPairStream gen;
    event::EventStore store;
    RuntimeRun run;
    core::RuntimeConfig cfg;
    cfg.splitter.instances = 3;
    core::SpectreRuntime runtime(
        &store, &cq, cfg,
        std::make_unique<model::MarkovModel>(cq.min_length(), model::MarkovParams{}));
    runtime.set_result_sink([&run](event::ComplexEvent&& ce) { run.out.add(ce); });
    std::size_t released = 0;
    const auto step = [&] {
        const auto p = runtime.step();
        released += store.release_chunks_below(runtime.low_watermark());
        const std::size_t appended =
            (store.size() + event::EventStore::kChunkSize - 1) >> event::EventStore::kChunkShift;
        run.peak_resident_chunks = std::max(run.peak_resident_chunks, appended - released);
        return p;
    };
    for (std::size_t i = 0; i < n;) {
        for (const std::size_t end = std::min(n, i + 64); i < end; ++i) store.append(gen.next(i));
        while (!step().quiescent) {
        }
    }
    store.close();
    while (!step().done) {
    }
    return run;
}

}  // namespace

TEST(SpectreRuntimeBound, ResidentChunksDoNotGrowWithTheStream) {
    RisingPairStream vocab_source;
    const auto cq = detect::CompiledQuery::compile(
        query::parse_query(kRisingPairQuery, vocab_source.vocab.schema));
    const RuntimeRun small = run_runtime(cq, 10'000);
    const RuntimeRun large = run_runtime(cq, 300'000);

    EXPECT_EQ(small.out, oracle(cq, 10'000));
    EXPECT_EQ(large.out, oracle(cq, 300'000));
    EXPECT_GT(large.out.n, 3'000u);

    // The front root trails the frontier by a few windows of 40 events: the
    // store holds the chunk being read and the one being appended to,
    // however long the stream. Where a 64-event batch ends within a chunk
    // decides whether a run ever sees both at once, so the longer run may
    // peak lower, never higher.
    EXPECT_LE(large.peak_resident_chunks, small.peak_resident_chunks);
    EXPECT_LE(small.peak_resident_chunks, 2u);
    EXPECT_LE(large.peak_resident_chunks, 2u);
}

// ---------------------------------------------------------------------------
// A standalone server session frees its private store behind its lane's
// watermark while it streams (DESIGN.md §6/§12), whichever k.
// ---------------------------------------------------------------------------

class StandaloneFlatMemory : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StandaloneFlatMemory, SessionStreamsInFlatMemory) {
    if (!obs::enabled()) GTEST_SKIP() << "metrics disabled via SPECTRE_OBS_OFF";
    const std::uint32_t k = GetParam();
    constexpr std::size_t kChunk = event::EventStore::kChunkSize;
    // Sized in events, not chunks: 262k events through a session that holds
    // at most 24k of them, whatever the chunk size.
    constexpr std::size_t kEvents = 64 * 4096;
    constexpr std::size_t kChunks = kEvents / kChunk;  // >= 10x the resident bound
    constexpr std::size_t kResidentBound = 6 * 4096 / kChunk;
    server::CepServer srv;
    srv.start();

    const auto wire = wire_events(kEvents, 5);
    auto spec = make_session(kRisingPairQuery, k, wire);
    spec.stats_after = wire.size() / 2;

    std::atomic<bool> done{false};
    harness::LoadGenOutcome out;
    std::thread client([&] {
        out = harness::LoadGenClient("127.0.0.1", srv.port()).run_one(spec);
        done.store(true, std::memory_order_release);
    });
    // Resident chunks = chunks appended - chunks reclaimed, sampled live.
    std::size_t peak_resident = 0;
    std::size_t samples = 0;
    while (!done.load(std::memory_order_acquire)) {
        const auto snap = srv.registry().snapshot();
        const auto ingested = counter(snap, obs::sid::kEventsIngested);
        const auto reclaimed = counter(snap, obs::sid::kStoreChunksReclaimed);
        const std::size_t appended = (ingested + kChunk - 1) / kChunk;
        if (appended > reclaimed) peak_resident = std::max(peak_resident, appended - reclaimed);
        ++samples;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    client.join();

    ASSERT_TRUE(out.error.empty()) << out.error;
    ASSERT_TRUE(out.completed);
    expect_byte_identical(sequential_ground_truth(kRisingPairQuery, wire), out.results,
                          "k=" + std::to_string(k) + " standalone");
    EXPECT_GT(samples, 0u);
    EXPECT_LE(peak_resident, kResidentBound);

    // Liveness (§12): the series moved mid-stream, in the session's own scope.
    ASSERT_EQ(out.stats_json.size(), 1u);
    const std::string& j = out.stats_json.front();
    const auto scope = j.find("\"session\":{");
    ASSERT_NE(scope, std::string::npos);
    const std::string key = "\"store_chunks_reclaimed\":";
    const auto at = j.find(key, scope);
    ASSERT_NE(at, std::string::npos) << j.substr(0, 200);
    EXPECT_GT(std::strtoull(j.c_str() + at + key.size(), nullptr, 10), 0u);

    srv.stop();
    EXPECT_GE(counter(srv.registry().snapshot(), obs::sid::kStoreChunksReclaimed),
              kChunks - kResidentBound);
}

INSTANTIATE_TEST_SUITE_P(ServerReclaim, StandaloneFlatMemory, ::testing::Values(0u, 3u),
                         k_name);

// k > 0 ingest credit follows processing too (DESIGN.md §9): the lane stores
// what speculation retired into the session's credit after every step, so a
// client that outruns speculation is paused at the ingest cap instead of
// growing the store. Each retired window of kRisingPairQuery releases its
// 10-event slide, so frontier − 10 × retired is what the session holds
// beyond the oldest unretired window; it may exceed the cap by at most the
// 40-event window still arriving.
TEST(ServerReclaim, SpeculativeCreditFollowsProcessing) {
    if (!obs::enabled()) GTEST_SKIP() << "metrics disabled via SPECTRE_OBS_OFF";
    constexpr std::size_t kCap = 1024;
    constexpr std::uint64_t kSlide = 10;
    constexpr std::uint64_t kSpan = 40;
    constexpr std::size_t kEvents = 100'000;
    server::CepServer srv(
        server::ServerConfigBuilder{}.pool_workers(1).ingest_queue_events(kCap).build());
    srv.start();

    const auto wire = wire_events(kEvents, 23);
    std::atomic<bool> done{false};
    harness::LoadGenOutcome out;
    std::thread client([&] {
        out = harness::LoadGenClient("127.0.0.1", srv.port())
                  .run_one(make_session(kRisingPairQuery, 3, wire));
        done.store(true, std::memory_order_release);
    });
    std::uint64_t peak_ahead = 0;
    std::size_t samples = 0;
    while (!done.load(std::memory_order_acquire)) {
        const auto snap = srv.registry().snapshot();
        const auto ingested = counter(snap, obs::sid::kEventsIngested);
        const auto retired = counter(snap, obs::sid::kWindowsRetired);
        if (ingested > kSlide * retired)
            peak_ahead = std::max(peak_ahead, ingested - kSlide * retired);
        ++samples;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    client.join();

    ASSERT_TRUE(out.error.empty()) << out.error;
    ASSERT_TRUE(out.completed);
    expect_byte_identical(sequential_ground_truth(kRisingPairQuery, wire), out.results,
                          "k=3 standalone");
    EXPECT_GT(samples, 0u);
    EXPECT_LE(peak_ahead, kCap + kSpan);
    srv.stop();
    EXPECT_EQ(srv.stats().sessions_failed, 0u);
}

// Ingest credit follows processing, not the watermark (DESIGN.md §9): a
// window wider than the ingest cap must still fill, whichever engine runs
// the lane. Both count a window that is still arriving as caught up, so the
// reactor keeps reading until the window is whole, pauses while it is
// processed, and resumes behind it — a watermark-gated credit would stall
// the first window forever.
class WideWindowCredit : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WideWindowCredit, WindowWiderThanTheIngestCapStillStreams) {
    const std::uint32_t k = GetParam();
    constexpr std::size_t kCap = 1024;
    const server::ServerConfig cfg =
        server::ServerConfigBuilder{}.ingest_queue_events(kCap).build();
    server::CepServer srv(cfg);
    srv.start();

    const char* kWide =
        "PATTERN (R1 R2) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open "
        "WITHIN 4096 EVENTS FROM EVERY 1024 EVENTS CONSUME ALL";
    const auto wire = wire_events(16 * 1024, 17);
    const auto out =
        harness::LoadGenClient("127.0.0.1", srv.port()).run_one(make_session(kWide, k, wire));
    ASSERT_TRUE(out.error.empty()) << out.error;
    ASSERT_TRUE(out.completed);
    expect_byte_identical(sequential_ground_truth(kWide, wire), out.results,
                          "k=" + std::to_string(k) + " window wider than the ingest cap");
    EXPECT_FALSE(out.results.empty());
    srv.stop();
    EXPECT_EQ(srv.stats().sessions_failed, 0u);
}

INSTANTIATE_TEST_SUITE_P(ServerReclaim, WideWindowCredit, ::testing::Values(0u, 3u),
                         k_name);

// Every engine's finish releases its store (DESIGN.md §6/§15): a standalone
// session is the only reader of its private stream entry, so when its engine
// finishes its pin rises to the frontier and every whole chunk goes —
// whichever k, including the tail behind the last watermark. The private
// entry never touches the hub's series.
class FinishReleasesStore : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FinishReleasesStore, StandaloneSessionFreesEveryWholeChunkByItsBye) {
    if (!obs::enabled()) GTEST_SKIP() << "metrics disabled via SPECTRE_OBS_OFF";
    const std::uint32_t k = GetParam();
    constexpr std::size_t kEvents = 12'000;
    server::CepServer srv;
    srv.start();

    const auto wire = wire_events(kEvents, 31);
    const auto out = harness::LoadGenClient("127.0.0.1", srv.port())
                         .run_one(make_session(kRisingPairQuery, k, wire));
    ASSERT_TRUE(out.error.empty()) << out.error;
    ASSERT_TRUE(out.completed);
    expect_byte_identical(sequential_ground_truth(kRisingPairQuery, wire), out.results,
                          "k=" + std::to_string(k) + " standalone");

    // The BYE is sealed after the final pin advance.
    const auto snap = srv.registry().snapshot();
    EXPECT_GE(counter(snap, obs::sid::kStoreChunksReclaimed),
              kEvents / event::EventStore::kChunkSize);
    EXPECT_EQ(counter(snap, obs::sid::kHubStreams), 0u);
    EXPECT_EQ(counter(snap, obs::sid::kHubSubscribersTotal), 0u);
    EXPECT_EQ(counter(snap, obs::sid::kHubChunksReclaimed), 0u);
    srv.stop();
    EXPECT_EQ(srv.stats().sessions_failed, 0u);
}

INSTANTIATE_TEST_SUITE_P(ServerReclaim, FinishReleasesStore, ::testing::Values(0u, 3u),
                         k_name);

// ---------------------------------------------------------------------------
// MappedStore::release_below: the lane's store chunks and mapping rows go,
// the rest of the mapping keeps translating, monotonicity still holds.
// ---------------------------------------------------------------------------

TEST(MappedStoreRelease, DropsRowsAndChunksBelowTheFloor) {
    constexpr std::size_t kChunk = event::EventStore::kChunkSize;
    constexpr std::size_t kN = 3 * kChunk + 10;
    event::MappedStore m;
    for (std::size_t i = 0; i < kN; ++i) m.append_mapped(event::Event{}, 2 * i + 1);
    EXPECT_EQ(m.parent_rows(), kN);

    EXPECT_EQ(m.release_below(kChunk + 5), 1u);  // chunk 0 only; chunk 1 is partial
    EXPECT_EQ(m.parent_rows(), kN - (kChunk + 5));
    EXPECT_EQ(m.to_parent(kChunk + 5), 2 * (kChunk + 5) + 1);
    std::vector<event::Seq> seqs{kChunk + 5, kChunk + 6, kN - 1};
    m.translate(seqs);
    EXPECT_EQ(seqs, (std::vector<event::Seq>{2 * (kChunk + 5) + 1, 2 * (kChunk + 6) + 1,
                                             2 * (kN - 1) + 1}));
    EXPECT_EQ(m.release_below(kChunk), 0u);  // behind the floor: no-op
    EXPECT_EQ(m.parent_rows(), kN - (kChunk + 5));

    // Past the frontier: every row goes, the frontier chunk stays.
    EXPECT_EQ(m.release_below(kN + 100), 2u);
    EXPECT_EQ(m.parent_rows(), 0u);
    // The monotonicity check survives the rows it used to read.
    EXPECT_THROW(m.append_mapped(event::Event{}, 2 * (kN - 1) + 1), std::invalid_argument);
    EXPECT_EQ(m.append_mapped(event::Event{}, 2 * kN + 1), kN);
    EXPECT_EQ(m.to_parent(kN), 2 * kN + 1);
}

// ---------------------------------------------------------------------------
// PARTITION BY key lanes (DESIGN.md §10): every lane, sequential or
// speculative, frees its mapped store behind its own watermark, so a hot key
// streams in flat memory.
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kRisingPairPerSymbol =
    "PATTERN (R1 R2) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open "
    "WITHIN 40 EVENTS FROM EVERY 10 EVENTS PARTITION BY SUBJECT CONSUME ALL";

constexpr std::size_t kHotLaneChunks = 110;  // >= 100 chunks through the hot lane
constexpr std::size_t kLaneSymbols = 4;      // the hot symbol plus three others

// A wire stream where every other event carries the first event's symbol:
// one key holds half the stream (more, counting its own draws).
std::vector<net::WireQuote> hot_key_wire(std::uint64_t seed) {
    auto wire = wire_events(2 * kHotLaneChunks * event::EventStore::kChunkSize, seed,
                            kLaneSymbols);
    const std::string hot = wire.front().symbol;
    for (std::size_t i = 0; i < wire.size(); i += 2) wire[i].symbol = hot;
    return wire;
}

std::size_t hot_events(const std::vector<net::WireQuote>& wire) {
    return static_cast<std::size_t>(std::count_if(
        wire.begin(), wire.end(),
        [&wire](const net::WireQuote& q) { return q.symbol == wire.front().symbol; }));
}

}  // namespace

class ShardedLaneBound : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShardedLaneBound, HotLaneStreamsInFlatMemory) {
    const std::uint32_t k = GetParam();
    const auto wire = hot_key_wire(9);
    ASSERT_GE(hot_events(wire), 100 * event::EventStore::kChunkSize);
    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    std::vector<event::Event> events;
    events.reserve(wire.size());
    for (const auto& q : wire) events.push_back(net::from_wire(q, vocab));
    const auto cq = detect::CompiledQuery::compile(query::parse_query(kRisingPairPerSymbol,
                                                                      vocab.schema));

    obs::Registry registry;
    const auto obs_shard = registry.make_shard();
    std::vector<event::ComplexEvent> out;
    shard::ShardedConfig cfg;
    cfg.shards = 3;
    cfg.instances = k;
    shard::ShardedEngine engine(&cq, cfg, [&out](event::ComplexEvent&& ce) {
        out.push_back(std::move(ce));
    });
    engine.bind_obs(obs_shard.get());

    // Inline schedule: feed a batch, give every shard one bounded quantum,
    // read the lanes' footprint while no shard runs.
    shard::ShardedEngine::LaneFootprint peak;
    std::size_t fed = 0;
    while (fed < events.size()) {
        for (const std::size_t end = std::min(events.size(), fed + 48); fed < end; ++fed)
            engine.ingest(events[fed]);
        for (std::uint32_t s = 0; s < engine.shards(); ++s) engine.step_shard(s, 64);
        const auto f = engine.lane_footprint();
        peak.lanes = std::max(peak.lanes, f.lanes);
        peak.resident_chunks = std::max(peak.resident_chunks, f.resident_chunks);
        peak.parent_rows = std::max(peak.parent_rows, f.parent_rows);
    }
    engine.close_input();
    while (!engine.finished())
        for (std::uint32_t s = 0; s < engine.shards(); ++s) engine.step_shard(s, 64);

    expect_byte_identical(shard::reference_partitioned_run(cq, events), out,
                          "k=" + std::to_string(k) + " S=3 hot-key lanes");
    EXPECT_EQ(peak.lanes, kLaneSymbols);
    // Each lane holds the chunk its engine reads and the one it appends to,
    // and one mapping row per event of the live window span (40 + slide).
    EXPECT_LE(peak.resident_chunks, 2 * kLaneSymbols);
    EXPECT_LE(peak.parent_rows, 64 * kLaneSymbols);
    // The freed chunks are counted in the bound metrics shard.
    EXPECT_GE(counter(registry.snapshot(), obs::sid::kShardChunksReclaimed),
              hot_events(wire) / event::EventStore::kChunkSize - 2);
}

INSTANTIATE_TEST_SUITE_P(Instances, ShardedLaneBound, ::testing::Values(0u, 3u), k_name);

// Many keys that each go idle after a few events: every lane keeps its
// store, so what one key's store costs — a directory page, the top array and
// one 128-event chunk — is what the stream pays per distinct key.
TEST(ShardedLaneBound, IdleKeyStoreCostsAtMost16KiB) {
    constexpr std::size_t kKeys = 2'000;
    constexpr std::size_t kPerKey = 5;
    auto wire = wire_events(kKeys * kPerKey, 13);
    for (std::size_t i = 0; i < wire.size(); ++i)
        wire[i].symbol = std::string("K").append(std::to_string(i % kKeys));
    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    std::vector<event::Event> events;
    events.reserve(wire.size());
    for (const auto& q : wire) events.push_back(net::from_wire(q, vocab));
    const auto cq = detect::CompiledQuery::compile(query::parse_query(kRisingPairPerSymbol,
                                                                      vocab.schema));

    std::vector<event::ComplexEvent> out;
    shard::ShardedConfig cfg;
    cfg.shards = 3;
    shard::ShardedEngine engine(&cq, cfg, [&out](event::ComplexEvent&& ce) {
        out.push_back(std::move(ce));
    });
    for (const auto& e : events) engine.ingest(e);
    // Every key's lane is built and idle once every shard has scanned it all.
    while (engine.processed() < events.size())
        for (std::uint32_t s = 0; s < engine.shards(); ++s) engine.step_shard(s, 64);
    const auto f = engine.lane_footprint();
    engine.close_input();
    while (!engine.finished())
        for (std::uint32_t s = 0; s < engine.shards(); ++s) engine.step_shard(s, 64);

    expect_byte_identical(shard::reference_partitioned_run(cq, events), out,
                          "S=3 2k idle keys");
    ASSERT_EQ(f.lanes, kKeys);
    EXPECT_LE(f.store_bytes / f.lanes, 16u * 1024);
}

// The same bound through a real sharded k = 0 server session: the lanes free
// behind their watermarks while the session streams, and so does the
// session's own store behind its shards' scan cursors (§10). Both show in
// the session's metrics scope mid-stream (§12), and the merged RESULT stream
// stays byte-identical to the partitioned oracle.
TEST(ServerReclaim, ShardedSequentialSessionStreamsInFlatMemory) {
    if (!obs::enabled()) GTEST_SKIP() << "metrics disabled via SPECTRE_OBS_OFF";
    constexpr std::size_t kChunk = event::EventStore::kChunkSize;
    server::CepServer srv(server::ServerConfigBuilder{}.pool_workers(3).build());
    srv.start();

    const auto wire = hot_key_wire(21);
    ASSERT_GE(hot_events(wire), 100 * kChunk);
    auto spec = make_session(kRisingPairPerSymbol, 0, wire);
    spec.shards = 3;
    spec.stats_after = wire.size() / 2;

    std::atomic<bool> done{false};
    harness::LoadGenOutcome out;
    std::thread client([&] {
        out = harness::LoadGenClient("127.0.0.1", srv.port()).run_one(spec);
        done.store(true, std::memory_order_release);
    });
    // Chunks the lanes can have appended, minus chunks reclaimed, sampled
    // live. Ingest runs at most one ingest queue (1024 events by default)
    // ahead of the lanes, and each lane has at most one partial chunk, so
    // this over-counts resident lane chunks by a constant.
    std::size_t peak_resident = 0;
    std::size_t samples = 0;
    while (!done.load(std::memory_order_acquire)) {
        const auto snap = srv.registry().snapshot();
        const auto ingested = counter(snap, obs::sid::kEventsIngested);
        const auto reclaimed = counter(snap, obs::sid::kShardChunksReclaimed);
        const std::size_t appended = ingested / kChunk + kLaneSymbols;
        if (appended > reclaimed) peak_resident = std::max(peak_resident, appended - reclaimed);
        ++samples;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    client.join();

    ASSERT_TRUE(out.error.empty()) << out.error;
    ASSERT_TRUE(out.completed);
    expect_byte_identical(harness::partitioned_oracle(kRisingPairPerSymbol, wire),
                          out.results, "k=0 sharded S=3");
    EXPECT_GT(samples, 0u);
    EXPECT_LE(peak_resident, 4 * kLaneSymbols + 4);

    // Liveness (§12): the series moved mid-stream, in the session's scope.
    ASSERT_EQ(out.stats_json.size(), 1u);
    const std::string& j = out.stats_json.front();
    const auto scope = j.find("\"session\":{");
    ASSERT_NE(scope, std::string::npos);
    for (const std::string series : {"shard_chunks_reclaimed", "store_chunks_reclaimed"}) {
        const std::string key = "\"" + series + "\":";
        const auto at = j.find(key, scope);
        ASSERT_NE(at, std::string::npos) << series << ": " << j.substr(0, 200);
        EXPECT_GT(std::strtoull(j.c_str() + at + key.size(), nullptr, 10), 0u) << series;
    }

    srv.stop();
    EXPECT_GE(counter(srv.registry().snapshot(), obs::sid::kShardChunksReclaimed),
              hot_events(wire) / kChunk - 2);
}
