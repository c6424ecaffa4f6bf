// Shard parity differential suite (DESIGN.md §10).
//
// The invariant every prior PR preserved, extended to partitioned queries:
// the sharded runtime's merged RESULT stream must be byte-identical to the
// unsharded sequential run of the same input — for every shard count, every
// engine kind per lane, every schedule (inline round-robin or a real worker
// pool), and every stream shape including total skew (every key hashing to
// one shard). The oracle is shard::reference_partitioned_run, which on a
// single-key stream is itself asserted byte-identical to a plain
// SequentialEngine::run over the whole input — chaining the partitioned
// semantics to the repo's original ground truth.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "data/nyse_synth.hpp"
#include "data/stock.hpp"
#include "harness/load_gen.hpp"
#include "harness/oracle.hpp"
#include "query/parser.hpp"
#include "server/cep_server.hpp"
#include "server/config.hpp"
#include "server/engine_pool.hpp"
#include "server_test_util.hpp"
#include "shard/shard_run.hpp"
#include "shard/sharded_engine.hpp"

using namespace spectre;

namespace {

// Partitioned text queries (PARTITION BY sits between the window clause and
// SELECT/CONSUME/EMIT). Windows, matches and consumption are all per key.
const char* kPartitionedQueries[] = {
    "PATTERN (R1 R2) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open "
    "WITHIN 12 EVENTS FROM EVERY 4 EVENTS PARTITION BY SUBJECT CONSUME ALL",
    "PATTERN (R1 R2 R3) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open, "
    "R3 AS R3.close > R3.open WITHIN 10 EVENTS FROM EVERY 3 EVENTS "
    "PARTITION BY SUBJECT CONSUME ALL EMIT gain = R3.close - R1.open",
    "PATTERN (F1 F2) DEFINE F1 AS F1.close < F1.open, F2 AS F2.close < F2.open "
    "WITHIN 8 EVENTS FROM EVERY 2 EVENTS PARTITION BY SUBJECT CONSUME (F1 F2)",
    "PATTERN (U1 U2) DEFINE U1 AS U1.close > U1.open, U2 AS U2.close > U2.open "
    "WITHIN 6 EVENTS FROM EVERY 2 EVENTS PARTITION BY SUBJECT "
    "EMIT jump = U2.close - U1.close",
    // Predicate-open window: one window per rising event of the key.
    "PATTERN (A B) DEFINE A AS A.close > A.open, B AS B.close < B.open "
    "WITHIN 9 EVENTS FROM A PARTITION BY SUBJECT CONSUME ALL",
};

std::vector<event::Event> make_stream(const data::StockVocab& vocab, std::uint64_t n,
                                      std::uint64_t seed, std::uint64_t symbols,
                                      double up_prob = 0.55) {
    data::NyseSynthConfig cfg;
    cfg.events = n;
    cfg.symbols = symbols;
    cfg.up_prob = up_prob;
    cfg.seed = seed;
    return data::generate_nyse(vocab, cfg);
}

detect::CompiledQuery compile(const std::string& text, const data::StockVocab& vocab) {
    return detect::CompiledQuery::compile(query::parse_query(text, vocab.schema));
}

void expect_identical(const std::vector<event::ComplexEvent>& expected,
                      const std::vector<event::ComplexEvent>& actual,
                      const std::string& label) {
    ASSERT_EQ(expected.size(), actual.size()) << label;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].window_id, actual[i].window_id) << label << " @" << i;
        EXPECT_EQ(expected[i].constituents, actual[i].constituents) << label << " @" << i;
        EXPECT_EQ(expected[i].payload, actual[i].payload) << label << " @" << i;
        if (expected[i] != actual[i]) return;  // one mismatch tells the story
    }
}

std::vector<event::ComplexEvent> run_pooled(const detect::CompiledQuery& cq,
                                            shard::ShardedConfig cfg,
                                            const std::vector<event::Event>& events,
                                            int workers) {
    server::EnginePool pool(workers);
    pool.start();
    std::vector<event::ComplexEvent> out;
    std::mutex out_mutex;  // merger may run on any worker
    shard::ShardedEngine engine(&cq, cfg, [&](event::ComplexEvent&& ce) {
        const std::lock_guard<std::mutex> lock(out_mutex);
        out.push_back(std::move(ce));
    });
    shard::PooledShardRun run(&engine, &pool, /*id_base=*/1000);
    run.start();
    for (const auto& e : events) run.ingest(e);
    run.close();
    run.wait();
    pool.stop();
    EXPECT_TRUE(engine.finished());
    return out;
}

}  // namespace

// The partitioned oracle degenerates to the plain sequential engine when the
// stream holds a single key: per-key semantics with one key is unpartitioned
// semantics. This pins reference_partitioned_run to the repo's ground truth.
TEST(ShardParity, ReferenceMatchesPlainSequentialOnSingleKeyStream) {
    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    const auto events = make_stream(vocab, 400, 11, /*symbols=*/1);
    for (const auto* text : kPartitionedQueries) {
        const auto cq = compile(text, vocab);
        event::EventStore store;
        for (const auto& e : events) store.append(e);
        store.close();
        const auto plain = sequential::SequentialEngine(&cq).run(store);
        const auto ref = shard::reference_partitioned_run(cq, events);
        expect_identical(plain.complex_events, ref, std::string("query: ") + text);
    }
}

// Randomized differential: query × stream × shard count × engine kind, all
// against the unsharded sequential reference, under the deterministic inline
// schedule. S ∈ {1, 2, 4, 8} on the same input must be byte-identical.
TEST(ShardParity, InlineShardedRunsMatchReferenceForEveryShardCount) {
    std::mt19937_64 rng(20260728);
    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    for (int combo = 0; combo < 12; ++combo) {
        const auto* text = kPartitionedQueries[rng() % std::size(kPartitionedQueries)];
        const std::uint64_t n = 150 + rng() % 250;
        const std::uint64_t symbols = 1 + rng() % 24;
        const auto events =
            make_stream(vocab, n, rng(), symbols, 0.4 + 0.1 * static_cast<double>(rng() % 3));
        const auto cq = compile(text, vocab);
        const auto ref = shard::reference_partitioned_run(cq, events);
        for (const std::uint32_t instances : {0u, 1u + static_cast<std::uint32_t>(rng() % 2)}) {
            for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
                shard::ShardedConfig cfg;
                cfg.shards = shards;
                cfg.instances = instances;
                const auto got = shard::run_sharded_inline(
                    cq, cfg, events, /*feed_chunk=*/1 + rng() % 9,
                    /*step_events=*/1 + rng() % 4);
                expect_identical(ref, got,
                                 "combo " + std::to_string(combo) + " S=" +
                                     std::to_string(shards) + " k=" +
                                     std::to_string(instances) + " n=" + std::to_string(n) +
                                     " syms=" + std::to_string(symbols));
            }
        }
    }
}

// The feed cadence is invisible (§10): appending N events to the store before
// the shards scan them — N = 1 is a step per event, N = 1000 more than the
// stream of some keys — must leave the merged stream byte-identical for every
// shard count and engine kind.
TEST(ShardParity, EveryPublishCadenceMatchesReference) {
    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    const auto events = make_stream(vocab, 1500, 64, /*symbols=*/10);
    for (const auto* text : kPartitionedQueries) {
        const auto cq = compile(text, vocab);
        const auto ref = shard::reference_partitioned_run(cq, events);
        for (const std::uint32_t instances : {0u, 2u}) {
            for (const std::uint32_t shards : {1u, 3u, 8u}) {
                for (const std::size_t every : {1u, 7u, 64u, 1000u}) {
                    shard::ShardedConfig cfg;
                    cfg.shards = shards;
                    cfg.instances = instances;
                    const auto got = shard::run_sharded_inline(
                        cq, cfg, events, /*feed_chunk=*/every, /*step_events=*/16);
                    expect_identical(ref, got,
                                     std::string(text) + " S=" + std::to_string(shards) +
                                         " k=" + std::to_string(instances) +
                                         " feed every " + std::to_string(every));
                }
            }
        }
    }
}

// The same differential over a real EnginePool: S shard tasks multiplexed on
// 1..4 workers, feeder racing the detection, merge running on whichever
// worker gets there — output must not depend on any of it.
TEST(ShardParity, PooledShardedRunsMatchReference) {
    std::mt19937_64 rng(7);
    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    const int worker_counts[] = {1, 2, 4};
    for (int combo = 0; combo < 6; ++combo) {
        const auto* text = kPartitionedQueries[rng() % std::size(kPartitionedQueries)];
        const auto events = make_stream(vocab, 200 + rng() % 200, rng(), 1 + rng() % 16);
        const auto cq = compile(text, vocab);
        const auto ref = shard::reference_partitioned_run(cq, events);
        for (const int workers : worker_counts) {
            shard::ShardedConfig cfg;
            cfg.shards = 1 + static_cast<std::uint32_t>(rng() % 8);
            cfg.instances = static_cast<std::uint32_t>(rng() % 3);
            const auto got = run_pooled(cq, cfg, events, workers);
            expect_identical(ref, got, "combo " + std::to_string(combo) + " workers=" +
                                           std::to_string(workers) + " S=" +
                                           std::to_string(cfg.shards) + " k=" +
                                           std::to_string(cfg.instances));
        }
    }
}

// End-to-end over TCP: sharded sessions (HELLO shard-count / partition-key
// fields, §10) against the multi-session server, concurrent with each other
// and with unsharded sessions, every RESULT stream byte-identical to its
// oracle. One session partitions via the HELLO field instead of query text.
TEST(ShardParity, ShardedServerSessionsMatchOracle) {
    const server::ServerConfig cfg = server::ServerConfigBuilder{}
                                         .pool_workers(4)
                                         .quantum_steps(4)  // shake the scheduler
                                         .build();
    server::CepServer srv(cfg);
    srv.start();

    const char* kPlainQuery =
        "PATTERN (R1 R2) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open "
        "WITHIN 12 EVENTS FROM EVERY 4 EVENTS CONSUME ALL";

    std::mt19937_64 rng(3);
    std::vector<harness::LoadGenSession> specs(8);
    std::vector<std::string> partition_fields(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto& spec = specs[i];
        if (i == 0) {
            // Partition key supplied by the HELLO field, not the query text.
            spec.query = kPlainQuery;
            spec.partition_by = "SUBJECT";
            partition_fields[i] = "SUBJECT";
        } else {
            spec.query = kPartitionedQueries[rng() % std::size(kPartitionedQueries)];
        }
        spec.instances = static_cast<std::uint32_t>(rng() % 3);
        spec.shards = 1u + static_cast<std::uint32_t>(rng() % 8);
        spec.events = spectre::testing::wire_events(150 + rng() % 200, rng(), 5 + rng() % 20);
    }
    // One unsharded session rides along: the two modes must coexist.
    specs.push_back({});
    specs.back().query = kPlainQuery;
    specs.back().instances = 2;
    specs.back().events = spectre::testing::wire_events(200, 77);

    harness::LoadGenClient client("127.0.0.1", srv.port());
    const auto outcomes = client.run(specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string label = "session " + std::to_string(i) + " (S=" +
                                  std::to_string(specs[i].shards) + " k=" +
                                  std::to_string(specs[i].instances) + ")";
        ASSERT_TRUE(outcomes[i].error.empty()) << label << ": " << outcomes[i].error;
        EXPECT_TRUE(outcomes[i].completed) << label;
        EXPECT_EQ(outcomes[i].server_reported_results, outcomes[i].results.size()) << label;
        const auto oracle =
            i + 1 == specs.size()
                ? harness::sequential_oracle(specs[i].query, specs[i].events)
                : harness::partitioned_oracle(specs[i].query, specs[i].events,
                                              partition_fields[i]);
        expect_identical(oracle, outcomes[i].results, label);
    }
    srv.stop();
    const auto stats = srv.stats();
    EXPECT_EQ(stats.sessions_completed, specs.size());
    EXPECT_EQ(stats.sessions_failed, 0u);
    EXPECT_EQ(stats.tasks_live, 0u);
    EXPECT_EQ(stats.tasks_added, stats.tasks_finished);
}

// Protocol validation: sharding without a partition key is a HELLO error
// that fails only the offending session.
TEST(ShardParity, ShardsWithoutPartitionKeyRejected) {
    server::CepServer srv{server::ServerConfig{}};
    srv.start();
    harness::LoadGenSession spec;
    spec.query =
        "PATTERN (R1 R2) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open "
        "WITHIN 12 EVENTS FROM EVERY 4 EVENTS CONSUME ALL";
    spec.shards = 4;  // no PARTITION BY anywhere
    spec.events = spectre::testing::wire_events(20, 1);
    harness::LoadGenClient client("127.0.0.1", srv.port());
    const auto outcomes = client.run({spec});
    EXPECT_FALSE(outcomes[0].completed);
    EXPECT_FALSE(outcomes[0].error.empty());
    srv.stop();
    EXPECT_EQ(srv.stats().sessions_failed, 1u);
}

// Shard skew: a single-key stream hashes every event to ONE shard — the
// other S-1 shard tasks spin up, find nothing, and must still take part in
// the EOS handshake without stalling the merge. Runs under the TSan label.
TEST(ShardParity, TotalSkewOneHotShardStaysCorrect) {
    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    const auto events = make_stream(vocab, 1500, 99, /*symbols=*/1);
    const auto cq = compile(kPartitionedQueries[0], vocab);
    const auto ref = shard::reference_partitioned_run(cq, events);
    ASSERT_FALSE(ref.empty());
    shard::ShardedConfig cfg;
    cfg.shards = 8;
    const auto got = run_pooled(cq, cfg, events, /*workers=*/4);
    expect_identical(ref, got, "total skew S=8 workers=4");
}
