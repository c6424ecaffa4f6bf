// Multi-session CEP server demo (DESIGN.md §8): one CepServer hosting three
// concurrent clients, each subscribing its own query over its own TCP
// session — the middleware deployment shape of paper §4.1 scaled out from
// one hard-wired pipeline to many independent subscribers.
//
// Each client streams a synthetic NYSE day as DATA frames and receives its
// complex events back as RESULT frames *while still sending* — the demo
// prints, per session, how many results had already arrived before the
// client finished its stream. Every session's RESULT stream is then compared
// byte for byte with the sequential oracle over the same input; the demo
// exits non-zero on any mismatch.
#include <cstdio>
#include <memory>

#include "data/nyse_synth.hpp"
#include "harness/load_gen.hpp"
#include "harness/oracle.hpp"
#include "server/cep_server.hpp"

using namespace spectre;

namespace {

std::vector<net::WireQuote> day(std::uint64_t events, std::uint64_t seed, double up_prob) {
    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    data::NyseSynthConfig cfg;
    cfg.events = events;
    cfg.symbols = 50;
    cfg.up_prob = up_prob;
    cfg.seed = seed;
    std::vector<net::WireQuote> wire;
    for (const auto& e : data::generate_nyse(vocab, cfg)) wire.push_back(net::to_wire(e, vocab));
    return wire;
}

}  // namespace

int main() {
    server::CepServer srv;
    srv.start();
    std::printf("CEP server listening on 127.0.0.1:%u\n", srv.port());

    std::vector<harness::LoadGenSession> specs(3);
    // Momentum subscriber: two consecutive rising quotes, SPECTRE with k=2.
    specs[0].query =
        "PATTERN (R1 R2) "
        "DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open "
        "WITHIN 40 EVENTS FROM EVERY 10 EVENTS CONSUME ALL";
    specs[0].instances = 2;
    specs[0].events = day(4000, 1, 0.58);

    // Drawdown subscriber: falling pair on a bearish stream, sequential engine.
    specs[1].query =
        "PATTERN (F1 F2) "
        "DEFINE F1 AS F1.close < F1.open, F2 AS F2.close < F2.open "
        "WITHIN 30 EVENTS FROM EVERY 10 EVENTS CONSUME (F1 F2)";
    specs[1].instances = 0;
    specs[1].events = day(4000, 2, 0.42);

    // Leader-follow subscriber: a blue-chip rise followed by two rising
    // quotes of any symbol (Q1's shape), SPECTRE with k=2.
    specs[2].query =
        "PATTERN (MLE RE1 RE2) "
        "DEFINE MLE AS SYMBOL IN ('AAPL','IBM','MSFT') AND MLE.close > MLE.open, "
        "       RE1 AS RE1.close > RE1.open, RE2 AS RE2.close > RE2.open "
        "WITHIN 80 EVENTS FROM MLE CONSUME ALL "
        "EMIT gain = RE2.close - MLE.open";
    specs[2].instances = 2;
    specs[2].events = day(3000, 3, 0.55);

    // Pause each client mid-stream until its first RESULT arrives — making
    // the streaming egress visible: detection output comes back while the
    // bulk of the stream is still unsent.
    for (auto& spec : specs) spec.wait_result_after = spec.events.size() / 2;
    // The momentum subscriber also queries live metrics mid-stream (§12):
    // the STATS reply interleaves with its RESULT frames.
    specs[0].stats_after = specs[0].events.size() / 2;

    harness::LoadGenClient client("127.0.0.1", srv.port());
    const auto outcomes = client.run(specs);

    static const char* kNames[] = {"momentum(k=2)", "drawdown(seq)", "leader(k=2)"};
    bool ok = true;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const auto& out = outcomes[i];
        if (!out.completed) {
            std::printf("%-14s FAILED: %s\n", kNames[i], out.error.c_str());
            ok = false;
            continue;
        }
        const bool identical = harness::results_identical(
            harness::sequential_oracle(specs[i].query, specs[i].events), out.results);
        ok = ok && identical;
        std::printf(
            "%-14s sent %zu events, received %zu complex events "
            "(%zu before end-of-stream) in %.2fs, %s\n",
            kNames[i], out.events_sent, out.results.size(), out.results_before_bye,
            out.wall_seconds,
            identical ? "identical to sequential" : "MISMATCH vs sequential");
        if (!out.stats_json.empty())
            std::printf("%-14s mid-stream STATS reply: %.120s...\n", kNames[i],
                        out.stats_json.front().c_str());
    }

    srv.stop();
    const auto stats = srv.stats();
    std::printf("server: %llu sessions, %llu events in, %llu results out\n",
                static_cast<unsigned long long>(stats.sessions_accepted),
                static_cast<unsigned long long>(stats.events_ingested),
                static_cast<unsigned long long>(stats.results_emitted));
    return ok ? 0 : 1;
}
