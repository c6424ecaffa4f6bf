// Self-test of the benchmark's own rules (ctest -L e2e in the benchmark's
// build directory): span self-time arithmetic, the percentile and
// sample-count rule, the rung verdict, window-close attribution, and a 1 s
// loopback parity check of every workload against a real cep_host.
//
//   e2e_selftest PATH_TO_CEP_HOST
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "harness/oracle.hpp"
#include "loopback.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/stats.hpp"
#include "workload.hpp"

using namespace e2e;

namespace {

int failures = 0;

#define CHECK(cond)                                                             \
    do {                                                                        \
        if (!(cond)) {                                                          \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                         #cond);                                                \
            ++failures;                                                         \
        }                                                                       \
    } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

Span span(std::uint32_t id, std::uint32_t parent, double start, double end) {
    std::string name = "s";  // appended: see rung_name in main.cpp
    name += std::to_string(id);
    return Span{name, "w/p", id, parent, start, end};
}

void self_time_arithmetic() {
    // root [0,100] with children [10,30] and [20,50] (overlapping), [60,70],
    // and [90,120] (clipped to the root); [12,14] is a grandchild.
    const std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50),
                                     span(4, 1, 60, 70), span(5, 1, 90, 120), span(6, 2, 12, 14)};
    const auto self = self_times_us(spans);
    CHECK(near(self[0], 100 - 40 - 10 - 10));
    CHECK(near(self[1], 20 - 2));
    CHECK(near(self[2], 30));
    CHECK(near(self[5], 2));
    // A subset without the root: its children count only for themselves.
    const auto sub = self_times_us({spans[1], spans[5]});
    CHECK(near(sub[0], 18) && near(sub[1], 2));

    SpanLog log(true);
    log.set_request("w/ledger");
    const auto outer = log.begin("outer");
    { ScopedSpan inner(log, "inner"); }
    const auto dangling = log.begin("dangling");
    (void)dangling;
    log.end(outer);  // closes "dangling" too
    CHECK(log.spans().size() == 3);
    CHECK(log.spans()[1].parent == outer && log.spans()[2].parent == outer);
    CHECK(log.spans()[2].end_us <= log.spans()[0].end_us);
    const auto layers = layer_times(log.spans());
    CHECK(layers.size() == 3 && layers[0].name == "outer");
    CHECK(layers[0].self_us <= layers[0].total_us);

    SpanLog off(false);
    CHECK(off.begin("x") == 0 && off.spans().empty());
}

void percentile_rule() {
    // The benchmark's percentiles interpolate between ranks (util::percentile).
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) v.push_back(i);
    CHECK(near(spectre::util::percentile(v, 50), 50.5));
    CHECK(near(spectre::util::percentile(v, 99), 99.01));
    CHECK(!percentile_supported(999, 99));
    CHECK(percentile_supported(1000, 99));
    CHECK(percentile_supported(100, 90) && !percentile_supported(99, 90));
}

void rung_rule() {
    CHECK(rung_verdict(true, kRungP99LimitMs, kRungDrainLimitMs).pass);
    CHECK(!rung_verdict(true, kRungP99LimitMs + 0.01, 1).pass);
    CHECK(!rung_verdict(true, 1, kRungDrainLimitMs + 0.1).pass);
    CHECK(!rung_verdict(false, 0, 0).pass);
}

// Each RESULT is attributed to the event that closed its window: its last
// event when that arrived, else the stream's last event (end-of-stream).
void window_close_attribution() {
    const Workload& seq = *find_workload("ingest-seq");
    const Stream s = make_stream(seq, 3, 95);
    const auto quotes = s.quotes(95);
    const Expectation ex = expect(seq.sessions[0], quotes);
    CHECK(!ex.results.empty() && ex.results.size() == ex.close_seq.size());
    for (std::size_t i = 0; i < ex.results.size(); ++i)
        CHECK(ex.close_seq[i] == std::min<std::uint64_t>(ex.results[i].window_id * 10 + 39, 94));

    const Workload& skew = *find_workload("shard-skew");
    const Stream k = make_stream(skew, 3, 4000);
    const auto kq = k.quotes(4000);
    const Expectation kx = expect(skew.sessions[0], kq);
    CHECK(!kx.results.empty());
    for (std::size_t i = 0; i < kx.results.size(); ++i) {
        const auto& r = kx.results[i];
        CHECK(kx.close_seq[i] >= r.constituents.back());
        CHECK(kx.close_seq[i] == 3999 ||
              kq[kx.close_seq[i]].symbol == kq[r.constituents.front()].symbol);
    }
}

// One second of each workload at its first rung against a real host; every
// RESULT stream must equal the oracle.
void loopback_parity(const std::string& host) {
    SpanLog off(false);
    for (const Workload& w : workloads()) {
        const auto n = static_cast<std::size_t>(w.rung_eps[0]);
        const Stream s = make_stream(w, 11, n);
        const PhasePlan plan{"selftest", n, w.rung_eps[0], false};
        const PhaseResult r = run_phase(host, w, s, plan, off);
        CHECK(r.failure.empty());
        CHECK(r.completed);
        const auto quotes = s.quotes(n);
        for (std::size_t i = 0; i < w.sessions.size(); ++i) {
            if (!w.sessions[i].receives_results()) continue;
            const bool same = spectre::harness::results_identical(
                expect(w.sessions[i], quotes).results, r.sessions[i].results);
            CHECK(same);
            std::fprintf(stderr, "%s session %zu: %zu results, parity %s\n", w.name.c_str(), i,
                         r.sessions[i].results.size(), same ? "ok" : "BROKEN");
        }
    }
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 2) {
        std::fprintf(stderr, "usage: e2e_selftest PATH_TO_CEP_HOST\n");
        return 2;
    }
    try {
        self_time_arithmetic();
        percentile_rule();
        rung_rule();
        window_close_attribution();
        loopback_parity(argv[1]);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e_selftest: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "e2e_selftest: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}
