#include "ledger.hpp"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "data/stock.hpp"
#include "detect/compiled_query.hpp"
#include "harness/oracle.hpp"
#include "model/markov_model.hpp"
#include "net/egress_ring.hpp"
#include "query/parser.hpp"
#include "query/window.hpp"
#include "sequential/seq_engine.hpp"
#include "server/session.hpp"
#include "shard/sharded_engine.hpp"
#include "spectre/runtime.hpp"
#include "util/stats.hpp"

namespace e2e {

using namespace spectre;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kBatch = 4096;             // events per ingest batch
constexpr std::size_t kSpectreEvents = 20'000;   // speculative probe prefix
constexpr std::size_t kTrickleEvents = 256;      // events per trickle append
constexpr std::uint32_t kSpectreInstances = 3;   // one per pool worker
constexpr std::size_t kShardEvents = 200'000;    // sharded probe prefix
constexpr std::uint32_t kShards = 3;
constexpr int kCompileRepeats = 100;

std::vector<const SessionSpec*> receivers(const Workload& w) {
    std::vector<const SessionSpec*> out;
    for (const auto& s : w.sessions)
        if (s.receives_results()) out.push_back(&s);
    return out;
}

std::unique_ptr<detect::CompiledQuery> compile(const std::string& text,
                                               const data::StockVocab& vocab,
                                               query::PartitionBy partition) {
    query::Query q = query::parse_query(text, vocab.schema);
    q.partition = partition;
    return std::make_unique<detect::CompiledQuery>(detect::CompiledQuery::compile(std::move(q)));
}

// Decode → append → sequential detection, batch by batch, the way the
// reactor and a k=0 engine task consume a session's input; one stepper per
// receiving session over the one store (the hub's decode-once shape).
struct Pipeline {
    data::StockVocab vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    event::EventStore store;
    std::vector<std::unique_ptr<detect::CompiledQuery>> cqs;
    std::vector<std::vector<event::ComplexEvent>> results;
};

double run_pipeline(Pipeline& p, const Workload& w, const Stream& s, std::size_t n,
                    SpanLog& log) {
    const auto t0 = Clock::now();
    ScopedSpan root(log, "pipeline");
    const auto recv = receivers(w);
    p.results.reserve(recv.size());  // the sinks below hold addresses into it
    std::vector<std::unique_ptr<sequential::SeqStepper>> steppers;
    for (const SessionSpec* r : recv) {
        p.cqs.push_back(compile(r->query, p.vocab, query::PartitionBy::none()));
        auto* out = &p.results.emplace_back();
        steppers.push_back(std::make_unique<sequential::SeqStepper>(
            p.cqs.back().get(), &p.store,
            [out](event::ComplexEvent&& ce) { out->push_back(std::move(ce)); }));
    }
    std::vector<net::DataFrameView> views(kBatch);
    std::vector<event::Event> events(kBatch);
    const std::size_t size = s.bytes(n);
    std::size_t pos = 0;
    for (std::size_t done = 0; done < n;) {
        ScopedSpan batch(log, "batch");
        const std::size_t m = std::min(kBatch, n - done);
        {
            ScopedSpan span(log, "net.scatter_data");
            for (std::size_t k = 0; k < m; ++k)
                if (net::scatter_data(s.frames.data(), size, pos, views[k]) !=
                    net::ScatterStatus::Data)
                    throw std::logic_error("ledger: stream is not all DATA frames");
        }
        // Interning stays in the batch's own time, as on the reactor.
        for (std::size_t k = 0; k < m; ++k)
            events[k] = data::make_quote(p.vocab, views[k].ts,
                                         p.vocab.schema->intern_subject(views[k].symbol_view()),
                                         views[k].open, views[k].close, views[k].volume);
        {
            ScopedSpan span(log, "event.append");
            for (std::size_t k = 0; k < m; ++k) {
                event::Event& slot = p.store.append_slot();
                events[k].seq = slot.seq;
                slot = events[k];
            }
            p.store.publish_appends();
        }
        for (auto& st : steppers) {
            ScopedSpan span(log, "sequential.drain");
            while (st->drain(~std::size_t{0})) {
            }
        }
        done += m;
    }
    p.store.close();
    for (auto& st : steppers) {
        ScopedSpan span(log, "sequential.drain");
        while (st->drain(~std::size_t{0})) {
        }
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// RESULT egress: encode every result, then push the same frames through an
// EgressRing into a socketpair, draining the peer between flushes.
std::size_t run_egress(const std::vector<std::vector<event::ComplexEvent>>& results,
                       SpanLog& log) {
    std::vector<std::uint8_t> wire;
    for (const auto& rs : results) {
        ScopedSpan span(log, "net.encode_frame");
        for (const auto& ce : rs) net::encode_frame(net::SessionFrame{net::to_result_frame(ce)}, wire);
    }
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, sv) != 0)
        throw std::runtime_error("ledger: socketpair failed");
    net::EgressRing ring;
    for (const auto& rs : results)
        for (const auto& ce : rs) ring.append(net::SessionFrame{net::to_result_frame(ce)});
    const net::EgressRing::SendvFn sendv = [fd = sv[0]](const iovec* iov, int cnt) {
        return ::writev(fd, iov, cnt);
    };
    std::vector<std::uint8_t> sink(1 << 16);
    bool failed = false;
    while (!ring.empty() && !failed) {
        net::EgressRing::FlushResult r;
        {
            ScopedSpan span(log, "net.egress_flush");
            r = ring.flush(sendv);
        }
        failed = r.status == net::EgressRing::FlushStatus::Error;
        while (::read(sv[1], sink.data(), sink.size()) > 0) {
        }
    }
    ::close(sv[0]);
    ::close(sv[1]);
    if (failed) throw std::runtime_error("ledger: egress flush failed");
    return wire.size();
}

std::unique_ptr<core::SpectreRuntime> make_runtime(event::EventStore* store,
                                                   const detect::CompiledQuery* cq,
                                                   std::vector<event::ComplexEvent>* out) {
    // The server's per-session shape (ServerSession::on_hello).
    const server::SessionLimits limits;
    core::RuntimeConfig cfg;
    cfg.splitter.instances = static_cast<int>(kSpectreInstances);
    cfg.batch_events = limits.batch_events;
    cfg.quantum_budget = limits.batch_events;
    auto rt = std::make_unique<core::SpectreRuntime>(
        store, cq, cfg,
        std::make_unique<model::MarkovModel>(cq->min_length(), model::MarkovParams{}));
    rt->set_result_sink([out](event::ComplexEvent&& ce) { out->push_back(std::move(ce)); });
    return rt;
}

struct SpectreProbe {
    core::SchedStats sched;        // trickle run
    core::SplitterMetrics splitter;  // trickle run
    double backlog_growth = 0.0;
};

// k=3 speculation over a prefix, two ways: trickle (256-event appends, each
// stepped to quiescence — arrivals as an open-loop session sees them) and
// batch (the whole prefix present up front — a replay's catch-up).
SpectreProbe run_spectre(const event::EventStore& src, std::size_t n,
                         const detect::CompiledQuery* cq, SpanLog& log) {
    SpectreProbe probe;
    std::vector<event::ComplexEvent> trickle_out;
    {
        event::EventStore st;
        auto rt = make_runtime(&st, cq, &trickle_out);
        ScopedSpan root(log, "spectre.trickle");
        for (std::size_t i = 0; i < n;) {
            const std::size_t m = std::min(kTrickleEvents, n - i);
            for (std::size_t k = 0; k < m; ++k) st.append(src.at(i + k));
            i += m;
            ScopedSpan span(log, "spectre.step.trickle");
            for (;;) {
                const auto progress = rt->step();
                if (progress.done || progress.quiescent) break;
            }
        }
        st.close();
        {
            ScopedSpan span(log, "spectre.step.trickle");
            while (!rt->step().done) {
            }
        }
        probe.sched = rt->sched_stats();
        probe.splitter = rt->splitter_metrics();
    }

    event::EventStore st;
    for (std::size_t i = 0; i < n; ++i) st.append(src.at(i));
    st.close();
    std::vector<event::ComplexEvent> batch_out;
    auto rt = make_runtime(&st, cq, &batch_out);
    std::vector<std::pair<double, std::size_t>> steps;  // (ns, window positions)
    {
        ScopedSpan root(log, "spectre.batch");
        for (bool done = false; !done;) {
            ScopedSpan span(log, "spectre.step.batch");
            const auto t = Clock::now();
            const auto progress = rt->step();
            steps.emplace_back(std::chrono::duration<double, std::nano>(Clock::now() - t).count(),
                               progress.events_processed);
            done = progress.done;
        }
    }
    // Cost per window position in the last tenth of the work over the first.
    std::size_t total = 0;
    for (const auto& step : steps) total += step.second;
    double first_ns = 0, last_ns = 0;
    std::size_t first_pos = 0, last_pos = 0, cum = 0;
    for (const auto& [ns, pos] : steps) {
        if (cum * 10 < total) {
            first_ns += ns;
            first_pos += pos;
        }
        cum += pos;
        if (cum * 10 > total * 9) {
            last_ns += ns;
            last_pos += pos;
        }
    }
    if (first_pos > 0 && last_pos > 0 && first_ns > 0)
        probe.backlog_growth = (last_ns / static_cast<double>(last_pos)) /
                               (first_ns / static_cast<double>(first_pos));

    const auto expected = sequential::SequentialEngine(cq).run(st).complex_events;
    if (!harness::results_identical(expected, trickle_out) ||
        !harness::results_identical(expected, batch_out))
        throw std::runtime_error("ledger: in-process speculative run broke parity");
    return probe;
}

// Partitioned detection over kShards shards, driven single-threaded: route a
// batch, then step every shard over it. Returns the hottest shard's share.
double run_shard(const event::EventStore& src, std::size_t n,
                 const detect::CompiledQuery* cq, SpanLog& log) {
    shard::ShardedConfig cfg;
    cfg.shards = kShards;
    cfg.batch_events = server::SessionLimits{}.batch_events;
    std::vector<event::ComplexEvent> out;
    shard::ShardedEngine eng(cq, cfg,
                             [&out](event::ComplexEvent&& ce) { out.push_back(std::move(ce)); });
    std::array<std::size_t, kShards> routed{};
    {
        ScopedSpan root(log, "shard");
        for (std::size_t i = 0; i < n;) {
            const std::size_t m = std::min(kBatch, n - i);
            {
                ScopedSpan span(log, "shard.ingest");
                for (std::size_t k = 0; k < m; ++k) ++routed[eng.ingest(src.at(i + k)).shard];
            }
            for (std::uint32_t sh = 0; sh < kShards; ++sh) {
                ScopedSpan span(log, "shard.step_shard");
                eng.step_shard(sh, m);
            }
            i += m;
        }
        eng.close_input();
        for (int round = 0; !eng.finished(); ++round) {
            if (round > 100'000) throw std::runtime_error("ledger: sharded engine did not finish");
            for (std::uint32_t sh = 0; sh < kShards; ++sh) {
                ScopedSpan span(log, "shard.step_shard");
                eng.step_shard(sh, kBatch);
            }
        }
    }
    std::vector<event::Event> events;
    events.reserve(n);
    for (std::size_t i = 0; i < n; ++i) events.push_back(src.at(i));
    if (!harness::results_identical(shard::reference_partitioned_run(*cq, events), out))
        throw std::runtime_error("ledger: in-process sharded run broke parity");
    return static_cast<double>(*std::max_element(routed.begin(), routed.end())) /
           static_cast<double>(n);
}

}  // namespace

Ledger run_ledger(const Workload& w, const Stream& s, SpanLog& log) {
    Ledger led;
    auto& m = led.metrics;
    const std::size_t n = std::min(w.replay_events, s.size());
    const auto recv = receivers(w);

    // Tracing overhead: traced over untraced time of the same pipeline, the
    // median of three runs of each, alternating, after one untraced run that
    // only warms the allocator. Single runs moved by up to 30% with the
    // allocator's state (fresh pages or reused ones), either way.
    const auto timed = [&](bool traced) {
        Pipeline p0;
        SpanLog spans(traced);
        return run_pipeline(p0, w, s, n, spans);
    };
    timed(false);
    std::vector<double> off, on;
    for (int i = 0; i < 3; ++i) {
        off.push_back(timed(false));
        on.push_back(timed(true));
    }
    led.trace_overhead = util::percentile(on, 50) / util::percentile(off, 50);

    const std::string request = w.name + "/ledger";
    log.set_request(request);
    ScopedSpan root(log, "ledger");
    Pipeline p;
    run_pipeline(p, w, s, n, log);
    const std::size_t wire_bytes = run_egress(p.results, log);

    {
        ScopedSpan span(log, "query.compile");
        for (int i = 0; i < kCompileRepeats; ++i)
            for (const SessionSpec* r : recv) compile(r->query, p.vocab, query::PartitionBy::none());
    }

    // Probes use the first receiving session's query, unpartitioned for the
    // speculative run and partitioned by symbol for the sharded one.
    const auto spec_cq = compile(recv.front()->query, p.vocab, query::PartitionBy::none());
    const std::size_t spec_n = std::min(kSpectreEvents, n);
    const SpectreProbe spec = run_spectre(p.store, spec_n, spec_cq.get(), log);
    const auto shard_cq = compile(recv.front()->query, p.vocab, query::PartitionBy::subject());
    const std::size_t shard_n = std::min(kShardEvents, n);
    m["shard.hot_share"] = run_shard(p.store, shard_n, shard_cq.get(), log);

    std::size_t windows = 0, results = 0;
    for (std::size_t i = 0; i < p.cqs.size(); ++i) {
        windows += query::assign_windows(p.store, p.cqs[i]->query().window).size();
        results += p.results[i].size();
    }

    // Self time per layer, this request's spans only.
    std::vector<Span> mine;
    for (const Span& span : log.spans())
        if (span.request == request) mine.push_back(span);
    const auto layers = layer_times(mine);
    const auto self_ns = [&layers](const char* name) {
        for (const auto& l : layers)
            if (l.name == name) return l.self_us * 1e3;
        return 0.0;
    };
    const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const double nd = static_cast<double>(n);
    m["net.decode_ns_per_event"] = per(self_ns("net.scatter_data"), nd);
    m["event.append_ns_per_event"] = per(self_ns("event.append"), nd);
    m["sequential.drain_ns_per_event"] = per(self_ns("sequential.drain"), nd);
    m["net.encode_ns_per_result"] = per(self_ns("net.encode_frame"), static_cast<double>(results));
    m["net.flush_ns_per_kb"] = per(self_ns("net.egress_flush"), wire_bytes / 1024.0);
    m["query.compile_us"] =
        per(self_ns("query.compile") / 1e3, static_cast<double>(kCompileRepeats * recv.size()));
    m["detect.windows_per_kevent"] = per(windows * 1e3, nd);
    m["detect.matches_per_kevent"] = per(results * 1e3, nd);
    m["spectre.step_ns_per_event.trickle"] =
        per(self_ns("spectre.step.trickle"), static_cast<double>(spec_n));
    m["spectre.step_ns_per_event.batch"] =
        per(self_ns("spectre.step.batch"), static_cast<double>(spec_n));
    m["spectre.backlog_growth"] = spec.backlog_growth;
    m["spectre.useful_ratio"] =
        1.0 - per(static_cast<double>(spec.sched.speculation_wasted_events),
                  static_cast<double>(spec.sched.batch_events));
    m["spectre.rollbacks_per_kwindow"] =
        per(spec.splitter.rollbacks * 1e3, static_cast<double>(spec.splitter.windows_retired));
    m["spectre.cycles_per_kevent"] = per(spec.sched.cycles * 1e3, static_cast<double>(spec_n));
    m["spectre.cycle_skip_ratio"] =
        per(static_cast<double>(spec.sched.cycles_skipped), static_cast<double>(spec.sched.steps));
    m["spectre.ready_depth_max"] = static_cast<double>(spec.sched.ready_depth_max);
    m["spectre.max_tree_versions"] = static_cast<double>(spec.splitter.max_tree_versions);
    m["shard.route_ns_per_event"] = per(self_ns("shard.ingest"), static_cast<double>(shard_n));
    m["shard.step_ns_per_event"] = per(self_ns("shard.step_shard"), static_cast<double>(shard_n));

    // The layers an event crosses on this workload's server path.
    const SessionSpec& first = *recv.front();
    const bool sharded = first.shards > 1;
    double path = m["net.decode_ns_per_event"];
    if (sharded)
        path += m["shard.route_ns_per_event"] + m["shard.step_ns_per_event"];
    else
        path += m["event.append_ns_per_event"] +
                (first.instances > 0 ? m["spectre.step_ns_per_event.trickle"]
                                     : m["sequential.drain_ns_per_event"]);
    path += m["net.encode_ns_per_result"] * per(static_cast<double>(results), nd) +
            m["net.flush_ns_per_kb"] * per(wire_bytes / 1024.0, nd);
    led.path_ns_per_event = path;
    return led;
}

}  // namespace e2e
