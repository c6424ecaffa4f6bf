#include "obs/metrics.hpp"

#include <cstdlib>
#include <ctime>
#include <stdexcept>

namespace spectre::obs {

bool enabled() noexcept {
    static const bool on = [] {
        const char* v = std::getenv("SPECTRE_OBS_OFF");
        return !(v && v[0] == '1' && v[1] == '\0');
    }();
    return on;
}

std::uint64_t now_ns() noexcept {
    if (!enabled()) return 0;
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

// --- Shard ------------------------------------------------------------------

Shard::Shard(const Registry* owner, std::size_t cells)
    : owner_(owner), cells_(cells) {}

std::atomic<std::uint64_t>* Shard::cell(Series s, std::size_t sub) noexcept {
    if (s.index >= kMaxSeries) return nullptr;
    // Histogram sub-cells only exist for histogram series; a stray observe()
    // on a scalar must not stomp the next series' cells.
    if (sub != 0 && !owner_->hist_[s.index]) return nullptr;
    const std::size_t at = owner_->offsets_[s.index] + sub;
    return at < cells_.size() ? &cells_[at] : nullptr;
}

// --- Registry ---------------------------------------------------------------

namespace {
struct BuiltinDef {
    const char* name;
    Kind kind;
    const char* help;
};
// Parallel to sid:: — same order, appended only.
constexpr BuiltinDef kBuiltins[] = {
    {"sessions_accepted", Kind::Counter, "connections accepted"},
    {"sessions_completed", Kind::Counter, "sessions whose engine finished (BYE buffered)"},
    {"sessions_failed", Kind::Counter, "sessions failed (corrupt frame / bad query / died)"},
    {"sessions_live", Kind::Gauge, "currently connected or draining sessions"},
    {"events_ingested", Kind::Counter, "DATA events decoded into ingest queues"},
    {"results_emitted", Kind::Counter, "RESULT frames buffered for delivery"},
    {"parks_input", Kind::Counter, "engine tasks parked awaiting ingest"},
    {"parks_egress", Kind::Counter, "engine tasks parked awaiting egress credit"},
    {"ingest_pauses", Kind::Counter, "reactor paused a socket's reads (TCP backpressure)"},
    {"egress_buffered_bytes", Kind::Gauge, "bytes buffered for slow result readers"},
    {"egress_peak_bytes", Kind::PeakGauge, "peak per-session egress buffer bytes"},
    {"pool_quanta", Kind::Counter, "engine quanta executed"},
    {"pool_tasks_added", Kind::Counter, "engine tasks registered"},
    {"pool_tasks_finished", Kind::Counter, "engine tasks that returned Done"},
    {"sched_sessions", Kind::Counter, "speculative sessions started"},
    {"sched_steps", Kind::Counter, "scheduler step() calls"},
    {"sched_cycles", Kind::Counter, "splitter cycles the dirty gate ran"},
    {"sched_cycles_skipped", Kind::Counter, "steps that skipped the cycle"},
    {"sched_batches", Kind::Counter, "instance batches scheduled"},
    {"sched_batch_events", Kind::Counter, "window positions advanced by batches"},
    {"sched_ready_depth_max", Kind::PeakGauge, "peak ready-queue depth at pop"},
    {"sched_instances_retired", Kind::Counter, "batches that finished their version"},
    {"sched_instances_cancelled", Kind::Counter, "batches that found dead speculation"},
    {"sched_wasted_events", Kind::Counter, "work on later-dropped versions"},
    {"splitter_cycles", Kind::Counter, "splitter maintenance+scheduling cycles"},
    {"windows_opened", Kind::Counter, "windows opened"},
    {"windows_retired", Kind::Counter, "windows retired"},
    {"groups_created", Kind::Counter, "consumption groups created"},
    {"groups_completed", Kind::Counter, "consumption groups completed"},
    {"groups_abandoned", Kind::Counter, "consumption groups abandoned"},
    {"rollbacks", Kind::Counter, "instance-detected inconsistencies"},
    {"late_validations", Kind::Counter, "inconsistencies caught at root retirement"},
    {"max_tree_versions", Kind::PeakGauge, "peak live dependency-tree versions"},
    {"versions_dropped", Kind::Counter, "window versions dropped"},
    {"copies_cloned", Kind::Counter, "subtree copies that kept progress"},
    {"copies_fresh", Kind::Counter, "subtree copies restarted"},
    {"updates_applied", Kind::Counter, "instance updates drained and applied"},
    {"stats_samples", Kind::Counter, "delta-transition samples folded into the model"},
    {"complex_events", Kind::Counter, "complex events emitted by splitters"},
    {"detector_events", Kind::Counter, "events fed to instrumented detectors"},
    {"detector_windows", Kind::Counter, "windows completed by instrumented detectors"},
    {"detector_matches", Kind::Counter, "pattern matches completed"},
    {"result_latency_ns", Kind::Histogram, "DATA arrival to RESULT buffered"},
    {"first_result_latency_ns", Kind::Histogram, "first DATA arrival to first RESULT, per session"},
    {"pool_queue_wait_ns", Kind::Histogram, "task runnable to quantum start"},
    {"quantum_ns", Kind::Histogram, "run_quantum duration"},
    {"splitter_cycle_ns", Kind::Histogram, "one splitter cycle"},
    {"egress_stall_ns", Kind::Histogram, "parked on egress credit to next quantum"},
    {"lane_depth", Kind::Histogram, "input events a shard has not scanned, per publish"},
    {"lane_skew", Kind::Histogram, "max-min unscanned input over shards, per publish"},
    {"detector_window_events", Kind::Histogram, "events fed per completed window"},
    {"ingest_wire_bytes", Kind::Counter, "DATA-path bytes read off session sockets"},
    {"ingest_copied_bytes", Kind::Counter, "ingest bytes staged through FrameReader"},
    {"ingest_reads", Kind::Counter, "reactor read() calls returning data"},
    {"ingest_frames_scatter", Kind::Counter, "DATA frames decoded in place"},
    {"ingest_frames_staged", Kind::Counter, "frames decoded via the staging path"},
    {"egress_writevs", Kind::Counter, "vectored egress flush syscalls"},
    {"egress_bytes_sent", Kind::Counter, "bytes written to session sockets"},
    {"hub_streams", Kind::Gauge, "published streams currently registered"},
    {"hub_subscribers", Kind::Gauge, "subscriber sessions currently attached"},
    {"hub_subscribers_total", Kind::Counter, "subscriber attaches, lifetime"},
    {"hub_chunks_reclaimed", Kind::Counter, "shared-store chunks freed behind all frontiers"},
    {"compile_cache_hits", Kind::Counter, "subscriber queries served a shared artifact"},
    {"compile_cache_misses", Kind::Counter, "subscriber queries compiled fresh"},
    {"store_chunks_reclaimed", Kind::Counter,
     "standalone-session store chunks freed behind the session's pin"},
    {"shard_chunks_reclaimed", Kind::Counter,
     "key-lane store chunks freed behind a sequential lane's low watermark"},
};
static_assert(sizeof(kBuiltins) / sizeof(kBuiltins[0]) == sid::kCount,
              "sid:: and kBuiltins must stay parallel");
}  // namespace

Registry::Registry() {
    for (const auto& b : kBuiltins) add(b.name, b.kind, b.help);
}

Series Registry::add(std::string name, Kind kind, std::string help) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < defs_.size(); ++i)
        if (defs_[i].name == name) return Series{static_cast<std::uint32_t>(i)};
    if (defs_.size() >= kMaxSeries)
        throw std::length_error("obs::Registry: series table full");
    const auto index = static_cast<std::uint32_t>(defs_.size());
    offsets_[index] = static_cast<std::uint32_t>(total_cells_);
    hist_[index] = kind == Kind::Histogram ? 1 : 0;
    total_cells_ += kind == Kind::Histogram ? kHistCells : 1;
    defs_.push_back(SeriesDef{std::move(name), kind, std::move(help)});
    return Series{index};
}

ShardPtr Registry::make_shard() {
    std::lock_guard<std::mutex> lock(mutex_);
    ShardPtr shard(new Shard(this, total_cells_));
    shards_.push_back(shard);
    return shard;
}

void Registry::retire(const ShardPtr& shard) {
    if (!shard) return;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (shards_[i] != shard) continue;
        if (!retained_)
            retained_ = std::unique_ptr<Shard>(new Shard(this, total_cells_));
        // Fold monotone state: counters and histogram cells sum, peaks max,
        // gauges drop (a retired scope has no "current" value).
        for (std::size_t d = 0; d < defs_.size(); ++d) {
            const Series s{static_cast<std::uint32_t>(d)};
            switch (defs_[d].kind) {
                case Kind::Counter:
                    retained_->add(s, shard->value(s));
                    break;
                case Kind::Gauge:
                    break;
                case Kind::PeakGauge:
                    retained_->set_peak(s, shard->value(s));
                    break;
                case Kind::Histogram:
                    for (std::size_t b = 0; b < kHistCells; ++b) {
                        const auto* c = shard->cell(s, b);
                        auto* r = retained_->cell(s, b);
                        if (c && r)
                            r->fetch_add(c->load(std::memory_order_relaxed),
                                         std::memory_order_relaxed);
                    }
                    break;
            }
        }
        shards_.erase(shards_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
    }
}

void Registry::accumulate(const Shard& shard, Snapshot& into, bool live) const {
    for (std::size_t d = 0; d < defs_.size(); ++d) {
        const Series s{static_cast<std::uint32_t>(d)};
        SnapshotEntry& e = into.entries[d];
        switch (defs_[d].kind) {
            case Kind::Counter:
                e.value += shard.value(s);
                break;
            case Kind::Gauge:
                if (live) e.value += shard.value(s);
                break;
            case Kind::PeakGauge: {
                const std::uint64_t v = shard.value(s);
                if (v > e.value) e.value = v;
                break;
            }
            case Kind::Histogram: {
                for (std::size_t b = 0; b < kHistBuckets; ++b) {
                    const auto* c = shard.cell(s, b);
                    if (c) e.buckets[b] += c->load(std::memory_order_relaxed);
                }
                e.count += shard.hist_count(s);
                const auto* sum = shard.cell(s, kHistBuckets + 1);
                if (sum) e.sum += sum->load(std::memory_order_relaxed);
                break;
            }
        }
    }
}

Snapshot Registry::snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    snap.entries.resize(defs_.size());
    for (std::size_t d = 0; d < defs_.size(); ++d) {
        snap.entries[d].name = defs_[d].name;
        snap.entries[d].kind = defs_[d].kind;
    }
    if (retained_) accumulate(*retained_, snap, /*live=*/false);
    for (const auto& shard : shards_) accumulate(*shard, snap, /*live=*/true);
    return snap;
}

Snapshot Registry::snapshot_of(const Shard& shard) const {
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    snap.entries.resize(defs_.size());
    for (std::size_t d = 0; d < defs_.size(); ++d) {
        snap.entries[d].name = defs_[d].name;
        snap.entries[d].kind = defs_[d].kind;
    }
    accumulate(shard, snap, /*live=*/true);
    return snap;
}

std::size_t Registry::series_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return defs_.size();
}

// --- Snapshot helpers -------------------------------------------------------

const SnapshotEntry* Snapshot::find(const std::string& name) const {
    for (const auto& e : entries)
        if (e.name == name) return &e;
    return nullptr;
}

std::uint64_t Snapshot::quantile(Series s, double q) const {
    if (s.index >= entries.size()) return 0;
    const SnapshotEntry& e = entries[s.index];
    if (e.count == 0) return 0;
    const double target = q * static_cast<double>(e.count);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
        seen += e.buckets[b];
        if (static_cast<double>(seen) >= target)
            return b == 0 ? 0 : (std::uint64_t{1} << b) - 1;  // bucket upper bound
    }
    return ~std::uint64_t{0};
}

// --- exposition -------------------------------------------------------------

namespace {
// "lane_depth{shard=\"3\"}" → base "lane_depth", labels "shard=\"3\"".
void split_name(const std::string& name, std::string& base, std::string& labels) {
    const auto brace = name.find('{');
    if (brace == std::string::npos) {
        base = name;
        labels.clear();
    } else {
        base = name.substr(0, brace);
        labels = name.substr(brace + 1, name.size() - brace - 2);
    }
}

const char* type_of(Kind kind) {
    switch (kind) {
        case Kind::Counter: return "counter";
        case Kind::Gauge:
        case Kind::PeakGauge: return "gauge";
        case Kind::Histogram: return "histogram";
    }
    return "untyped";
}

void append_labeled(std::string& out, const std::string& base,
                    const std::string& labels, const std::string& extra,
                    std::uint64_t v) {
    out += "spectre_";
    out += base;
    if (!labels.empty() || !extra.empty()) {
        out += '{';
        out += labels;
        if (!labels.empty() && !extra.empty()) out += ',';
        out += extra;
        out += '}';
    }
    out += ' ';
    out += std::to_string(v);
    out += '\n';
}
}  // namespace

std::string Registry::prometheus(const Snapshot& snap) {
    std::string out;
    out.reserve(snap.entries.size() * 64);
    std::string base, labels;
    for (const auto& e : snap.entries) {
        split_name(e.name, base, labels);
        out += "# TYPE spectre_" + base + " " + type_of(e.kind) + "\n";
        if (e.kind != Kind::Histogram) {
            append_labeled(out, base, labels, "", e.value);
            continue;
        }
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < kHistBuckets; ++b) {
            if (e.buckets[b] == 0) continue;  // sparse: emit touched buckets only
            cum += e.buckets[b];
            const std::uint64_t le = b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
            append_labeled(out, base + "_bucket", labels,
                           "le=\"" + std::to_string(le) + "\"", cum);
        }
        append_labeled(out, base + "_bucket", labels, "le=\"+Inf\"", e.count);
        append_labeled(out, base + "_sum", labels, "", e.sum);
        append_labeled(out, base + "_count", labels, "", e.count);
    }
    return out;
}

std::string Registry::json(const Snapshot& snap) {
    std::string out = "{";
    bool first = true;
    for (const auto& e : snap.entries) {
        if (!first) out += ',';
        first = false;
        out += '"';
        for (char c : e.name)  // names contain at most {}="; escape quotes
            if (c == '"') out += "\\\"";
            else out += c;
        out += "\":";
        if (e.kind != Kind::Histogram) {
            out += std::to_string(e.value);
            continue;
        }
        Snapshot one;  // quantile() over just this entry
        one.entries.push_back(e);
        out += "{\"count\":" + std::to_string(e.count) +
               ",\"sum\":" + std::to_string(e.sum) +
               ",\"p50\":" + std::to_string(one.quantile(Series{0}, 0.50)) +
               ",\"p99\":" + std::to_string(one.quantile(Series{0}, 0.99)) + "}";
    }
    out += '}';
    return out;
}

}  // namespace spectre::obs
