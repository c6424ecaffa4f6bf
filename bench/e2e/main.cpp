// e2e_bench: the loopback end-to-end benchmark's load generator and run orchestrator
// (README.md). One workload per invocation:
//
//   e2e_bench --workload W --seed N --trace 0|1
//   e2e_bench --describe        # run length, workloads, host config and metrics as JSON
//
// Prints "<workload> <metric> <value> <unit>" per metric, then, as the last
// line, {"correct", "attempted", "failed", "metrics"}. --trace 0 measures the
// end-to-end metrics; --trace 1 runs the in-process layer ledger and the
// scraped host counters and prints the per-layer metrics instead, and writes
// its span trace next to this binary as trace-<workload>.json. The host it
// spawns is the cep_host beside it.
// Exit codes: 0 ok, 1 a session failed or broke parity (the JSON line says
// correct=false), 2 usage or environment error, 3 a validity gate failed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/oracle.hpp"
#include "ledger.hpp"
#include "loopback.hpp"
#include "stats.hpp"
#include "util/stats.hpp"
#include "workload.hpp"

using namespace e2e;
using spectre::util::percentile;

namespace {

struct MetricDef {
    const char* name;
    const char* unit;
    const char* better;  // "higher" | "lower"
};

const std::vector<MetricDef> kEndToEnd = {
    {"sustainable_eps", "events/s", "higher"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MiB", "lower"},
};

// Replay throughput and the rung latencies lead the list: they are
// end-to-end quantities, but their run-to-run spread on a shared 4-vCPU
// machine exceeds any usable bound (README.md, "Seed measurements"), so they
// carry none.
const std::vector<MetricDef> kPerLayer = {
    {"replay_eps", "events/s", "higher"},
    {"lat_p50_ms.r1", "ms", "lower"},
    {"lat_p99_ms.r1", "ms", "lower"},
    {"lat_p50_ms.r2", "ms", "lower"},
    {"lat_p99_ms.r2", "ms", "lower"},
    {"net.decode_ns_per_event", "ns/event", "lower"},
    {"net.reads_per_kevent", "1/kevent", "lower"},
    {"net.staged_frame_ratio", "ratio", "lower"},
    {"net.copied_bytes_per_event", "B/event", "lower"},
    {"net.encode_ns_per_result", "ns/result", "lower"},
    {"net.flush_ns_per_kb", "ns/KiB", "lower"},
    {"net.writevs_per_kresult", "1/kresult", "lower"},
    {"event.append_ns_per_event", "ns/event", "lower"},
    {"event.rss_bytes_per_event", "B/event", "lower"},
    {"query.compile_us", "us", "lower"},
    {"detect.cache_hit_ratio", "ratio", "higher"},
    {"detect.windows_per_kevent", "1/kevent", "lower"},
    {"detect.matches_per_kevent", "1/kevent", "lower"},
    {"sequential.drain_ns_per_event", "ns/event", "lower"},
    {"spectre.step_ns_per_event.trickle", "ns/event", "lower"},
    {"spectre.step_ns_per_event.batch", "ns/event", "lower"},
    {"spectre.backlog_growth", "ratio", "lower"},
    {"spectre.useful_ratio", "ratio", "higher"},
    {"spectre.rollbacks_per_kwindow", "1/kwindow", "lower"},
    {"spectre.cycles_per_kevent", "1/kevent", "lower"},
    {"spectre.cycle_skip_ratio", "ratio", "higher"},
    {"spectre.ready_depth_max", "count", "lower"},
    {"spectre.max_tree_versions", "count", "lower"},
    {"shard.route_ns_per_event", "ns/event", "lower"},
    {"shard.step_ns_per_event", "ns/event", "lower"},
    {"shard.hot_share", "ratio", "lower"},
    {"shard.lane_depth_peak", "count", "lower"},
    {"shard.migrations", "count", "lower"},
    {"server.cpu_cores", "cores", "higher"},
    {"server.cpu_us_per_event", "us/event", "lower"},
    {"server.residual_ns_per_event", "ns/event", "lower"},
    {"server.quanta_per_kevent", "1/kevent", "lower"},
    {"server.parks_input_per_kevent", "1/kevent", "lower"},
    {"server.ingest_pauses_per_kevent", "1/kevent", "lower"},
    {"server.parks_egress", "count", "lower"},
    {"server.queue_wait_ns_p50", "ns", "lower"},
    {"server.handshake_ms", "ms", "lower"},
    {"server.hub_wire_ratio", "ratio", "lower"},
    {"gen.lag_ms_p99", "ms", "lower"},
    {"gen.cpu_cores", "cores", "lower"},
    {"trace.overhead", "ratio", "lower"},
};

// A run whose numbers cannot be trusted: reported with its reason, no result.
struct Invalid : std::runtime_error {
    using std::runtime_error::runtime_error;
};

// A session errored, never got its BYE, or broke parity: correct=false.
struct Incorrect : std::runtime_error {
    using std::runtime_error::runtime_error;
};

// The run length is fixed so that every run, on every commit, measures the
// same thing: four rungs of kRungSeconds. BENCHMARK.json's run_seconds names
// it, and run.sh refuses any other --seconds.
constexpr int kRunSeconds = static_cast<int>(4 * kRungSeconds);
constexpr double kMaxGenLagP99Ms = 1.0;
constexpr int kSetups = 31;  // set-up-only phases behind setup_s
// A busy neighbour on a shared machine can stall the generator for a while;
// an r1/r2 run whose generator fell behind its schedule is run again, at
// most this many times, before the run is declared invalid.
constexpr int kRetries = 2;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    bool trace = false;
    std::filesystem::path dir;  // where this binary and cep_host live
    bool describe = false;
};

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "e2e_bench: %s\nusage: e2e_bench --workload W --seed N --trace 0|1 | "
                 "--describe\n",
                 msg);
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    a.dir = std::filesystem::read_symlink("/proc/self/exe").parent_path();
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--describe") {
            a.describe = true;
            continue;
        }
        if (i + 1 >= argc) usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--trace") a.trace = v == "1";
        else usage(("unknown option " + k).c_str());
    }
    if (a.describe) return a;
    if (!find_workload(a.workload)) usage("unknown or missing --workload");
    return a;
}

// "r1".."r4", built by appending: GCC 12 falsely reports -Wrestrict on
// "r" + std::to_string(...).
std::string rung_name(std::size_t i) {
    std::string name = "r";
    name += std::to_string(i + 1);
    return name;
}

double percentile_or_0(const std::vector<double>& v, double q) {
    return v.empty() ? 0.0 : percentile(v, q);
}

// The oracle for every session of `w` over the first `n` events (empty for
// the publisher), one oracle run per distinct query. The first runs on this
// thread, any other beside it (hub-fanout has two); they are computed
// between phases, when no host runs.
std::vector<Expectation> expectations(const Workload& w, const Stream& s, std::size_t n) {
    const auto quotes = s.quotes(n);
    std::map<std::string, std::future<Expectation>> by_query;
    for (const SessionSpec& spec : w.sessions)
        if (spec.receives_results() && !by_query.count(spec.query))
            by_query.emplace(spec.query,
                             std::async(by_query.empty() ? std::launch::deferred
                                                         : std::launch::async,
                                        [&quotes, &spec] { return expect(spec, quotes); }));
    std::map<std::string, Expectation> done;
    for (auto& [query, f] : by_query) done.emplace(query, f.get());
    std::vector<Expectation> out(w.sessions.size());
    for (std::size_t i = 0; i < w.sessions.size(); ++i)
        if (w.sessions[i].receives_results()) out[i] = done.at(w.sessions[i].query);
    return out;
}

struct Tally {
    std::size_t attempted = 0;
    std::size_t failed = 0;
};

// Counts the phase's receiving sessions and rejects failures and parity
// breaks. A rung cut at the drain limit is not a failure: it was not
// sustained, and its partial RESULT stream is not compared.
void check_phase(const Workload& w, const PhaseResult& r, const PhasePlan& plan,
                 const std::vector<Expectation>& ex, Tally& tally) {
    for (std::size_t i = 0; i < w.sessions.size(); ++i)
        if (w.sessions[i].receives_results()) ++tally.attempted;
    if (!r.failure.empty()) {
        ++tally.failed;
        throw Incorrect(plan.name + ": " + r.failure);
    }
    if (!r.completed) return;
    for (std::size_t i = 0; i < w.sessions.size(); ++i) {
        if (!w.sessions[i].receives_results()) continue;
        if (!spectre::harness::results_identical(ex[i].results, r.sessions[i].results)) {
            ++tally.failed;
            throw Incorrect(plan.name + ": session " + std::to_string(i) +
                            " RESULT stream differs from the oracle");
        }
    }
}

// One open-loop rung run: its verdict and what it measured. A RESULT's
// latency is its receipt time minus the due time of the event that closed
// its window (event j is due j/rate after the first).
struct RungStats {
    bool completed = false;  // every session's BYE arrived within the drain limit
    std::size_t samples = 0;  // latencies over every receiving session
    double p50_ms = 0, p99_ms = 0;  // over every receiving session
    double worst_p99_ms = 0;        // the highest per-session p99
    std::vector<double> lag_ms;
    double drain_ms = 0, achieved_eps = 0;
    double gen_cpu_s = 0, data_s = 0;
    std::size_t events = 0;
    std::map<std::string, double> scrape;
    RungVerdict verdict;

    RungStats(const Workload& w, const PhaseResult& r, const PhasePlan& plan,
              const std::vector<Expectation>& oracle)
        : completed(r.completed),
          lag_ms(r.gen_lag_ms),
          gen_cpu_s(r.gen_cpu_s),
          data_s(r.completed ? r.done_s : r.last_due_s),
          events(plan.events),
          scrape(r.scrape) {
        if (r.completed) {
            std::vector<double> all, one;
            for (std::size_t i = 0; i < w.sessions.size(); ++i) {
                if (!w.sessions[i].receives_results()) continue;
                one.clear();
                for (std::size_t k = 0; k < oracle[i].close_seq.size(); ++k)
                    one.push_back((r.sessions[i].receipt_s[k] -
                                   static_cast<double>(oracle[i].close_seq[k]) / plan.rate_eps) *
                                  1e3);
                worst_p99_ms = std::max(worst_p99_ms, percentile_or_0(one, 99));
                all.insert(all.end(), one.begin(), one.end());
            }
            samples = all.size();
            p50_ms = percentile_or_0(all, 50);
            p99_ms = percentile_or_0(all, 99);
            drain_ms = std::max(0.0, r.done_s - r.last_due_s) * 1e3;
            achieved_eps = static_cast<double>(plan.events - 1) / r.sent_all_s;
        }
        verdict = rung_verdict(completed, worst_p99_ms, drain_ms);
    }

    double lag_p99_ms() const { return percentile_or_0(lag_ms, 99); }
};

// Runs the phases of one workload run: every phase on a fresh host, every
// RESULT stream checked against its oracle, set-up and memory accounted.
class Runner {
public:
    Runner(const Args& a, const Workload& w, std::size_t stream_events, SpanLog& log)
        : a_(a), w_(w), log_(log), stream_events_(stream_events) {}

    // The workload's input, generated on first use, so that set-up is
    // measured before the generator builds a stream of up to 350 MB.
    const Stream& stream() {
        if (!stream_) stream_ = make_stream(w_, a_.seed, stream_events_);
        return *stream_;
    }
    Tally& tally() { return tally_; }
    const std::vector<double>& handshake_ms() const { return handshake_ms_; }
    double peak_mib() const { return peak_kib_ / 1024.0; }
    const std::string& host_config() const { return host_config_; }
    const std::vector<double>& replay_eps() const { return replay_eps_; }

    // Set-up time, measured before anything heavy: each phase spawns a host,
    // completes every handshake and ends at once. Later phases set up slower
    // as the run's memory churn accumulates, which is noise, not set-up.
    double measure_setup_s() {
        const PhasePlan plan{"setup", 0, 0.0, false};
        const Stream empty;
        const auto none = expectations(w_, empty, 0);
        std::vector<double> s;
        for (int i = 0; i < kSetups; ++i) {
            const PhaseResult r = phase(plan, empty);
            check_phase(w_, r, plan, none, tally_);
            s.push_back(r.setup_s);
        }
        return percentile(s, 50);
    }

    // A closed-loop replay of the first N events; `counted` ones join the
    // median (the first of a run only warms the generator's allocator).
    PhaseResult replay(bool counted, bool scrape = false) {
        const PhasePlan plan{"replay", w_.replay_events, 0.0, scrape};
        if (replay_oracle_.empty()) replay_oracle_ = expectations(w_, stream(), plan.events);
        PhaseResult r = phase(plan, stream());
        check_phase(w_, r, plan, replay_oracle_, tally_);
        const double eps = static_cast<double>(plan.events) / r.done_s;
        if (counted) replay_eps_.push_back(eps);
        std::fprintf(stderr, "%s replay: %.0f events/s%s\n", w_.name.c_str(), eps,
                     counted ? "" : " (warm-up)");
        return r;
    }

    // Rung i on a fresh host. r1–r3 sit below the seed's capacity and r4
    // above it; a verdict against that placement stands only when a second
    // run repeats it. A busy neighbour can slow a run enough to fail a rung
    // the server holds, and the speculative runtime now and then runs far
    // faster than it usually does (one spectre-overlap run in about fifty
    // held r4): one run's luck must not move the result. An r1 or r2 run
    // whose generator fell behind is run again too (kRetries): its latencies
    // would be the generator's.
    RungStats rung(std::size_t i, bool scrape = false) {
        const PhasePlan plan{rung_name(i), w_.rung_events(i), w_.rung_eps[i], scrape};
        const bool placed_to_pass = i < 3;
        int lagging = 0;
        bool confirming = false;
        for (;;) {
            const PhaseResult r = phase(plan, stream());
            auto& oracle = rung_oracle_[i];
            if (r.completed && r.failure.empty() && oracle.empty())
                oracle = expectations(w_, stream(), plan.events);
            check_phase(w_, r, plan, oracle, tally_);
            RungStats st(w_, r, plan, oracle);
            if (i < 2 && st.lag_p99_ms() > kMaxGenLagP99Ms) {
                if (++lagging > kRetries)
                    throw Invalid("gen.lag_ms_p99 " + std::to_string(st.lag_p99_ms()) +
                                  " ms at " + plan.name + " exceeds 1 ms");
                std::fprintf(stderr, "%s %s: generator lag p99 %.3f ms; running it again\n",
                             w_.name.c_str(), plan.name.c_str(), st.lag_p99_ms());
                continue;
            }
            if (st.verdict.pass != placed_to_pass && !confirming) {
                confirming = true;
                std::fprintf(stderr,
                             "%s %s: %s (worst p99 %.3f ms, drain %.1f ms); running it again\n",
                             w_.name.c_str(), plan.name.c_str(), st.verdict.reason,
                             st.worst_p99_ms, st.drain_ms);
                continue;
            }
            // A rung past capacity holds a backlog no user would run with.
            if (st.verdict.pass) peak_kib_ = std::max(peak_kib_, r.host_hwm_kib);
            return st;
        }
    }

private:
    PhaseResult phase(const PhasePlan& plan, const Stream& s) {
        PhaseResult r = run_phase((a_.dir / "cep_host").string(), w_, s, plan, log_);
        for (const auto& s : r.sessions) handshake_ms_.push_back(s.handshake_ms);
        host_config_ = r.host_config;
        return r;
    }

    const Args& a_;
    const Workload& w_;
    SpanLog& log_;
    const std::size_t stream_events_;
    std::optional<Stream> stream_;
    std::vector<Expectation> replay_oracle_;
    std::vector<Expectation> rung_oracle_[4];
    Tally tally_;
    std::vector<double> handshake_ms_, replay_eps_;
    double peak_kib_ = 0;
    std::string host_config_;
};

// r1 and r2 report latencies: a sustained one needs the samples for a p99.
void require_samples(const RungStats& st, std::size_t i) {
    if (!percentile_supported(st.samples, 99))
        throw Invalid("fewer than 1000 latency samples at " + rung_name(i) + " (" +
                      std::to_string(st.samples) + ")");
}

void report_rung(const Workload& w, std::size_t i, const RungStats& st) {
    std::fprintf(stderr,
                 "%s r%zu: %.0f events/s for %.0f s, p50 %.3f ms p99 %.3f ms (worst session "
                 "%.3f ms) drain %.1f ms, %s\n",
                 w.name.c_str(), i + 1, w.rung_eps[i], kRungSeconds, st.p50_ms, st.p99_ms,
                 st.worst_p99_ms, st.drain_ms, st.verdict.reason);
}

void print_result(const Workload& w, const Tally& t, bool correct,
                  const std::vector<MetricDef>& defs, const std::map<std::string, double>& values) {
    for (const auto& d : defs)
        if (values.count(d.name))
            std::printf("%s %s %.6g %s\n", w.name.c_str(), d.name, values.at(d.name), d.unit);
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(std::max<std::size_t>(t.attempted, 1)) +
                       ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
    bool first = true;
    for (const auto& d : defs) {
        if (!values.count(d.name)) continue;
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", values.at(d.name));
        json += std::string(first ? "" : ", ") + "\"" + d.name + "\": {\"value\": " + num +
                ", \"unit\": \"" + d.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

// --- measured run (--trace 0) -------------------------------------------------

std::map<std::string, double> run_measured(Runner& run, const Workload& w) {
    const double setup_s = run.measure_setup_s();
    // The ladder climbs from r1 and stops at the first rung not sustained.
    // Nothing is sustained when r1 fails, which reads as 0.
    double sustainable = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
        const RungStats st = run.rung(i);
        report_rung(w, i, st);
        if (!st.verdict.pass) break;
        if (i < 2) require_samples(st, i);
        sustainable = st.achieved_eps;
    }
    return {
        {"sustainable_eps", sustainable},
        {"setup_s", setup_s},
        {"peak_rss_mb", run.peak_mib()},
    };
}

// --- traced run (--trace 1) ---------------------------------------------------

// Median-rank value of a scraped log2 histogram, interpolated inside its
// bucket ([2^(b-1), 2^b) for the bucket whose le is 2^b - 1).
double histogram_p50(const std::map<std::string, double>& scrape, const std::string& base) {
    const std::string prefix = base + "_bucket{le=\"";
    std::vector<std::pair<double, double>> cum;  // (le, cumulative count)
    for (const auto& [name, v] : scrape)
        if (name.compare(0, prefix.size(), prefix) == 0 && name.find("+Inf") == std::string::npos)
            cum.emplace_back(std::atof(name.c_str() + prefix.size()), v);
    std::sort(cum.begin(), cum.end());
    if (cum.empty()) return 0.0;
    const double target = cum.back().second / 2.0;
    double prev = 0.0;
    for (const auto& [le, c] : cum) {
        if (c >= target && c > prev) {
            const double lo = le == 0 ? 0.0 : (le + 1) / 2.0, hi = le + 1;
            return lo + (target - prev) / (c - prev) * (hi - lo);
        }
        prev = c;
    }
    return cum.back().first;
}

double series(const std::map<std::string, double>& scrape, const std::string& name) {
    const auto it = scrape.find(name);
    return it == scrape.end() ? 0.0 : it->second;
}

double series_max(const std::map<std::string, double>& scrape, const std::string& base) {
    double m = 0.0;
    for (const auto& [name, v] : scrape)
        if (name.compare(0, base.size() + 1, base + "{") == 0) m = std::max(m, v);
    return m;
}

std::map<std::string, double> run_traced(Runner& run, const Workload& w, SpanLog& log) {
    const Ledger ledger = run_ledger(w, run.stream(), log);
    std::map<std::string, double> m = ledger.metrics;
    m["trace.overhead"] = ledger.trace_overhead;

    // replay_eps: median of three replays after a warm-up; the last one is
    // scraped for the host counters.
    run.replay(false);
    run.replay(true);
    run.replay(true);
    const PhaseResult r = run.replay(true, true);
    m["replay_eps"] = percentile(run.replay_eps(), 50);
    const double nd = static_cast<double>(w.replay_events);
    const auto& sc = r.scrape;
    const double frames = series(sc, "ingest_frames_scatter") + series(sc, "ingest_frames_staged");
    m["net.reads_per_kevent"] = series(sc, "ingest_reads") * 1e3 / nd;
    m["net.staged_frame_ratio"] = frames > 0 ? series(sc, "ingest_frames_staged") / frames : 0.0;
    m["net.copied_bytes_per_event"] = series(sc, "ingest_copied_bytes") / nd;
    const double results = series(sc, "results_emitted");
    m["net.writevs_per_kresult"] = results > 0 ? series(sc, "egress_writevs") * 1e3 / results : 0.0;
    m["event.rss_bytes_per_event"] = (r.host_hwm_kib - r.host_hwm_ready_kib) * 1024.0 / nd;
    const double lookups = series(sc, "compile_cache_hits") + series(sc, "compile_cache_misses");
    m["detect.cache_hit_ratio"] = lookups > 0 ? series(sc, "compile_cache_hits") / lookups : 0.0;
    m["shard.lane_depth_peak"] = series_max(sc, "lane_depth_peak");
    m["shard.migrations"] = series(sc, "lane_migrations");
    m["server.cpu_cores"] = r.host_cpu_s / r.done_s;
    m["server.cpu_us_per_event"] = r.host_cpu_s * 1e6 / nd;
    m["server.residual_ns_per_event"] = r.done_s * 1e9 / nd - ledger.path_ns_per_event;
    m["server.hub_wire_ratio"] =
        series(sc, "ingest_wire_bytes") / static_cast<double>(run.stream().bytes(w.replay_events));

    // The latency rungs: both must be sustained to report latencies.
    const RungStats r1 = run.rung(0, true);
    const RungStats r2 = run.rung(1, true);
    for (std::size_t i = 0; i < 2; ++i) {
        const RungStats& st = i ? r2 : r1;
        report_rung(w, i, st);
        if (!st.verdict.pass)
            throw Invalid(rung_name(i) + " not sustained (" + st.verdict.reason + ")");
        require_samples(st, i);
    }
    m["lat_p50_ms.r1"] = r1.p50_ms;
    m["lat_p99_ms.r1"] = r1.p99_ms;
    m["lat_p50_ms.r2"] = r2.p50_ms;
    m["lat_p99_ms.r2"] = r2.p99_ms;
    const double k1 = static_cast<double>(r1.events) / 1e3;
    m["server.quanta_per_kevent"] = series(r1.scrape, "pool_quanta") / k1;
    m["server.parks_input_per_kevent"] = series(r1.scrape, "parks_input") / k1;
    m["server.ingest_pauses_per_kevent"] = series(r1.scrape, "ingest_pauses") / k1;
    m["server.parks_egress"] = series(r2.scrape, "parks_egress");
    m["server.queue_wait_ns_p50"] = histogram_p50(r2.scrape, "pool_queue_wait_ns");
    m["server.handshake_ms"] = percentile(run.handshake_ms(), 50);
    std::vector<double> lag_ms = r1.lag_ms;
    lag_ms.insert(lag_ms.end(), r2.lag_ms.begin(), r2.lag_ms.end());
    m["gen.lag_ms_p99"] = percentile(lag_ms, 99);
    m["gen.cpu_cores"] = (r1.gen_cpu_s + r2.gen_cpu_s) / (r1.data_s + r2.data_s);

    // Self time per span name over the whole run, for the reader.
    std::printf("%-32s %8s %12s %12s\n", "span", "count", "total ms", "self ms");
    for (const auto& l : layer_times(log.spans()))
        std::printf("%-32s %8zu %12.3f %12.3f\n", l.name.c_str(), l.spans, l.total_us / 1e3,
                    l.self_us / 1e3);
    return m;
}

void describe() {
    std::printf("{\"run_seconds\": %d, \"rung_seconds\": %g,\n \"host\": {\"binary\": "
                "\"cep_host\", \"pool_workers\": 3, \"io_backend\": \"printed by cep_host at "
                "start (epoll unless SPECTRE_IO_BACKEND overrides)\"},\n \"workloads\": [\n",
                kRunSeconds, kRungSeconds);
    const auto& all = workloads();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Workload& w = all[i];
        std::printf("  {\"name\": \"%s\", \"why\": \"%s\", \"symbols\": %d, \"hot_share\": %g, "
                    "\"replay_events\": %zu, \"rung_eps\": [%g, %g, %g, %g], "
                    "\"sessions\": [",
                    w.name.c_str(), w.why.c_str(), w.symbols, w.hot_share, w.replay_events,
                    w.rung_eps[0], w.rung_eps[1], w.rung_eps[2], w.rung_eps[3]);
        for (std::size_t j = 0; j < w.sessions.size(); ++j) {
            const SessionSpec& s = w.sessions[j];
            std::printf("%s{\"role\": \"%s\", \"query\": \"%s\", \"instances\": %u, \"shards\": %u}",
                        j ? ", " : "", s.role.c_str(), s.query.c_str(), s.instances,
                        s.shards);
        }
        std::printf("]}%s\n", i + 1 < all.size() ? "," : "");
    }
    std::printf(" ],\n \"end_to_end\": [");
    for (std::size_t i = 0; i < kEndToEnd.size(); ++i)
        std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}", i ? ", " : "",
                    kEndToEnd[i].name, kEndToEnd[i].unit, kEndToEnd[i].better);
    std::printf("],\n \"per_layer\": [");
    for (std::size_t i = 0; i < kPerLayer.size(); ++i)
        std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}", i ? ", " : "",
                    kPerLayer[i].name, kPerLayer[i].unit, kPerLayer[i].better);
    std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
    const Args a = parse_args(argc, argv);
    if (a.describe) {
        describe();
        return 0;
    }
    const Workload& w = *find_workload(a.workload);
    SpanLog log(a.trace);
    std::optional<Runner> run;
    try {
        // The traced run stops after r2; the measured run may climb to r4
        // and needs no replay. Rungs ascend, so r4 sends the most.
        const std::size_t events =
            a.trace ? std::max(w.replay_events, w.rung_events(1)) : w.rung_events(3);
        run.emplace(a, w, events, log);
        const auto values = a.trace ? run_traced(*run, w, log) : run_measured(*run, w);
        std::fprintf(stderr, "%s: cep_host ran with %s\n", w.name.c_str(),
                     run->host_config().c_str());
        if (a.trace) {
            const std::string path = (a.dir / ("trace-" + w.name + ".json")).string();
            log.write_chrome(path);
            std::fprintf(stderr, "%s: trace written to %s\n", w.name.c_str(), path.c_str());
        }
        print_result(w, run->tally(), true, a.trace ? kPerLayer : kEndToEnd, values);
        return 0;
    } catch (const Incorrect& e) {
        std::fprintf(stderr, "e2e: %s: %s\n", w.name.c_str(), e.what());
        print_result(w, run ? run->tally() : Tally{}, false, {}, {});
        return 1;
    } catch (const Invalid& e) {
        std::fprintf(stderr, "e2e: %s: invalid run: %s\n", w.name.c_str(), e.what());
        return 3;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e: %s: %s\n", w.name.c_str(), e.what());
        return 2;
    }
}
