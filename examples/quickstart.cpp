// Quickstart: define a query in the text language, stream synthetic quotes
// through the speculative SPECTRE runtime, and print the detected complex
// events.
//
//   $ ./quickstart [instances]
//
// The query looks for a quote of a leading symbol followed by three rising
// quotes within 50 events, consuming all constituents — so each rise streak
// is reported exactly once even though windows overlap.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "data/nyse_synth.hpp"
#include "model/markov_model.hpp"
#include "query/parser.hpp"
#include "spectre/runtime.hpp"

using namespace spectre;

int main(int argc, char** argv) {
    const int instances = argc > 1 ? std::atoi(argv[1]) : 4;

    // Shared schema: the dataset generator and the query agree on names.
    auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());

    // 1. A query in the MATCH-RECOGNIZE-style text language (README §query
    //    language). WITHIN ... FROM LEAD opens a window at every LEAD match.
    const auto query = query::parse_query(
        "PATTERN (LEAD R1 R2 R3) "
        "DEFINE LEAD AS SYMBOL IN ('AAPL','MSFT','IBM') AND LEAD.close > LEAD.open, "
        "       R1 AS R1.close > R1.open, "
        "       R2 AS R2.close > R2.open, "
        "       R3 AS R3.close > R3.open "
        "WITHIN 50 EVENTS FROM LEAD "
        "CONSUME ALL "
        "EMIT gain = R3.close - LEAD.open",
        vocab.schema);

    // 2. A synthetic intra-day quote stream (100 symbols, slight bull bias).
    data::NyseSynthConfig cfg;
    cfg.events = 5'000;
    cfg.symbols = 100;
    cfg.up_prob = 0.55;
    event::EventStore store;
    data::generate_nyse(vocab, cfg, store);

    // 3. Run the speculative engine: k operator instances stepped
    //    cooperatively on this thread (DESIGN.md §11).
    const auto compiled = detect::CompiledQuery::compile(query);
    core::RuntimeConfig rt_cfg;
    rt_cfg.splitter.instances = instances;
    core::SpectreRuntime runtime(
        &store, &compiled, rt_cfg,
        std::make_unique<model::MarkovModel>(compiled.min_length(), model::MarkovParams{}));
    const auto result = runtime.run();

    std::printf("processed %zu events on %d instances: %zu complex events, "
                "%.0f events/s\n",
                store.size(), instances, result.output.size(), result.throughput_eps);
    for (std::size_t i = 0; i < result.output.size() && i < 5; ++i)
        std::printf("  %s\n", event::to_string(result.output[i]).c_str());
    if (result.output.size() > 5)
        std::printf("  ... and %zu more\n", result.output.size() - 5);
    std::printf("speculation: %llu groups, %llu rollbacks, max tree %zu versions\n",
                static_cast<unsigned long long>(result.metrics.groups_created),
                static_cast<unsigned long long>(result.metrics.rollbacks),
                result.metrics.max_tree_versions);
    return 0;
}
