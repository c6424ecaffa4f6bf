// E-shard — partition-parallel sharded detection: one hot session scaled
// across the engine pool (DESIGN.md §10).
//
// Fixed input (NYSE-like multi-symbol stream), fixed pool, shard count S ∈
// {1, 2, 4, 8}: measures end-to-end events/s from "feeder starts" to "all
// merged results emitted", with per-key sequential lanes (the throughput
// configuration). Every row re-checks the §10 parity invariant — merged
// output byte-identical to the unsharded per-key sequential reference — and
// the bench exits non-zero on any break, so CI can never ship a fast-but-
// wrong merge. Expected shape: eps grows with S on a multi-core box (each
// shard is an independent pool task); on one core the rows tie — the win is
// concurrency, not per-core speed.
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

#include "bench_workloads.hpp"
#include "harness/oracle.hpp"
#include "obs/metrics.hpp"
#include "queries/paper_queries.hpp"
#include "query/parser.hpp"
#include "server/engine_pool.hpp"
#include "shard/shard_run.hpp"

using namespace spectre;

int main() {
    harness::print_header("E-shard",
                          "one hot partitioned session: eps vs shard count on a fixed pool");

    const std::uint64_t events_n = bench::scaled(60'000);
    const int pool_workers = 4;
    const std::uint64_t seeds[] = {42, 43};

    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    // A per-key rising-pair query over a few hundred symbols: enough keys to
    // spread over every shard count tested.
    const char* kQueryText =
        "PATTERN (R1 R2 R3) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open, "
        "R3 AS R3.close > R3.open WITHIN 24 EVENTS FROM EVERY 6 EVENTS "
        "PARTITION BY SUBJECT CONSUME ALL EMIT gain = R3.close - R1.open";
    const auto cq = detect::CompiledQuery::compile(query::parse_query(kQueryText, vocab.schema));

    harness::Table table({"shards", "workers", "keys", "results", "throughput (candlestick)",
                          "speedup vs S=1", "parity"});
    std::vector<harness::JsonLine> json_rows;
    bool parity_ok = true;
    double base_eps = 0.0;

    for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
        std::vector<double> eps_samples;
        std::size_t results_n = 0;
        std::uint32_t keys = 0;
        // One metrics scope per row: both seeds' pools bind here, so the
        // queue-wait / quantum histograms below cover exactly this shard count.
        obs::Registry obs_registry;
        for (const auto seed : seeds) {
            data::NyseSynthConfig gen;
            gen.events = events_n;
            gen.symbols = 200;
            gen.up_prob = 0.55;
            gen.seed = seed;
            const auto events = data::generate_nyse(vocab, gen);

            server::EnginePool pool(pool_workers);
            pool.bind_obs(&obs_registry);
            pool.start();
            std::vector<event::ComplexEvent> out;
            std::mutex out_mutex;
            shard::ShardedConfig cfg;
            cfg.shards = shards;
            shard::ShardedEngine engine(&cq, cfg, [&](event::ComplexEvent&& ce) {
                const std::lock_guard<std::mutex> lock(out_mutex);
                out.push_back(std::move(ce));
            });
            shard::PooledShardRun run(&engine, &pool, /*id_base=*/1);

            const auto t0 = std::chrono::steady_clock::now();
            run.start();
            for (const auto& e : events) run.ingest(e);
            run.close();
            run.wait();
            const double secs =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
            pool.stop();

            eps_samples.push_back(static_cast<double>(events.size()) / secs);
            results_n = out.size();
            keys = engine.key_count();

            // Parity gate (§10): byte-identical to the unsharded reference.
            const auto ref = shard::reference_partitioned_run(cq, events);
            if (!harness::results_identical(ref, out)) {
                parity_ok = false;
                std::fprintf(stderr,
                             "PARITY BREAK: S=%u seed=%llu expected %zu results, got %zu\n",
                             shards, static_cast<unsigned long long>(seed), ref.size(),
                             out.size());
            }
        }
        const double eps = util::percentile(eps_samples, 50);
        if (shards == 1) base_eps = eps;
        table.row({std::to_string(shards), std::to_string(pool_workers), std::to_string(keys),
                   std::to_string(results_n), harness::fmt_candle(eps_samples),
                   harness::fmt_double(base_eps > 0 ? eps / base_eps : 0.0, 2) + "x",
                   parity_ok ? "ok" : "BROKEN"});
        json_rows.emplace_back(harness::JsonLine("E-shard")
                                   .field("shards", static_cast<int>(shards))
                                   .field("pool_workers", pool_workers)
                                   .field("events", events_n)
                                   .field("keys", static_cast<std::uint64_t>(keys))
                                   .field("results", static_cast<std::uint64_t>(results_n))
                                   .field("eps_p50", eps)
                                   .field("speedup_vs_s1", base_eps > 0 ? eps / base_eps : 0.0)
                                   // Registry histograms (§12), nanoseconds;
                                   // 0 when SPECTRE_OBS_OFF=1.
                                   .field("pool_queue_wait_ns_p50",
                                          obs_registry.snapshot().quantile(
                                              obs::Series{obs::sid::kPoolQueueWaitNs}, 0.50))
                                   .field("quantum_ns_p50",
                                          obs_registry.snapshot().quantile(
                                              obs::Series{obs::sid::kQuantumNs}, 0.50))
                                   .field("parity_ok", parity_ok ? 1 : 0));
    }

    table.print();
    std::printf("\n");
    for (const auto& row : json_rows) row.print();

    std::printf(
        "\nexpected shape: eps_p50 increases with shards on a multi-core pool —\n"
        "each shard is an independent cooperative task, so one hot session\n"
        "spreads over the workers. hardware threads here: %u. Parity is the\n"
        "hard gate: any break exits non-zero.\n",
        std::thread::hardware_concurrency());
    return parity_ok ? 0 : 1;
}
