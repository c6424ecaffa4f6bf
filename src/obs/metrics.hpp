// obs: the unified metrics plane (DESIGN.md §12).
//
// Every server stat — lifecycle counters, the engines' scheduler and
// splitter counts, the latency histograms — lives in one obs::Registry. The
// design goal is a hot path that costs a handful of nanoseconds per update
// and a scraper that can read a *live* server without stopping any worker:
//
//   * A Registry holds the series definitions (name, kind, help) — a fixed
//     built-in schema (sid::) plus dynamically added series (bounded: the
//     only dynamic names are the per-shard-index lane series, capped by the
//     shard limit).
//   * Writers never touch the registry. Each writer scope — one server
//     session, one pool worker, the reactor — owns a Shard: a flat block of
//     relaxed std::atomic<uint64_t> cells, one (or 66, for a histogram) per
//     series. Relaxed single-word updates compile to plain loads/stores/adds
//     on x86; cells are partitioned per scope so cross-thread contention on
//     a cache line is the rare case, not the design.
//   * Engines keep their own SchedStats / SplitterMetrics structs for
//     in-process readers, and a bound SpectreRuntime adds each step's change
//     to its scope's cells. The scrape's sum over shards is the only place
//     engine stats from several runtimes (a sharded session's lanes, many
//     sessions) are combined — nothing folds them at teardown.
//   * The scraper aggregates at read time: sum for counters/gauges, max for
//     peak gauges, per-bucket sum for histograms, over every live shard plus
//     a retained block that retired shards folded into. Reads are relaxed
//     loads — no fence stalls a worker. The snapshot is torn-read tolerant
//     by contract: each individual cell is read atomically (never torn), but
//     cells are not read at one instant, so e.g. a histogram's count can be
//     one ahead of its sum. Counters remain monotone between scrapes because
//     retiring a shard folds counter cells into the retained block under the
//     same mutex the scraper holds (§12).
//
// Histograms are log2-bucketed: bucket 0 counts zero values, bucket i (1..63)
// counts values in [2^(i-1), 2^i). Latency series record nanoseconds.
//
// SPECTRE_OBS_OFF=1 disables the *added* instrumentation (timestamps and
// histogram observes on hot paths — the perf kill switch run_perf.sh's
// overhead row flips); counters, engine stat publication included, are
// always on.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace spectre::obs {

enum class Kind : std::uint8_t {
    Counter,    // monotone; aggregated by sum; folded on retire
    Gauge,      // current value; aggregated by sum over *live* shards only
    PeakGauge,  // high-water mark; aggregated by max; folded with max
    Histogram,  // log2 buckets + count + sum; aggregated per cell; folded
};

// Stable series handle: an index into the registry's definition table. The
// built-in schema (sid:: below) makes these compile-time constants.
struct Series {
    std::uint32_t index = 0;
};

inline constexpr std::size_t kHistBuckets = 64;
// Cells a histogram occupies: buckets, then count, then sum.
inline constexpr std::size_t kHistCells = kHistBuckets + 2;
// Fixed capacity of the definition table: lets writers index the offset
// table without synchronizing against later registrations (entries are
// written once, before the Series id is published to any writer).
inline constexpr std::size_t kMaxSeries = 320;

// log2 bucket of a value: 0 for 0, else floor(log2(v)) + 1 (clamped).
inline std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v == 0) return 0;
    const std::size_t b = 64 - static_cast<std::size_t>(__builtin_clzll(v));
    return b < kHistBuckets ? b : kHistBuckets - 1;
}

// Built-in schema ids (== Series::index). Order is the registration order in
// Registry's constructor; append only — benches and tests hold these.
namespace sid {
enum : std::uint32_t {
    // --- server / session lifecycle (was ServerCounters) -------------------
    kSessionsAccepted,
    kSessionsCompleted,
    kSessionsFailed,
    kSessionsLive,   // gauge
    kEventsIngested,
    kResultsEmitted,
    kParksInput,
    kParksEgress,
    kIngestPauses,
    kEgressBufferedBytes,  // gauge
    kEgressPeakBytes,      // peak
    // --- engine pool (was PoolStats counters) ------------------------------
    kPoolQuanta,
    kPoolTasksAdded,
    kPoolTasksFinished,
    // --- ready-instance scheduler (was SchedStats) -------------------------
    kSchedSessions,
    kSchedSteps,
    kSchedCycles,
    kSchedCyclesSkipped,
    kSchedBatches,
    kSchedBatchEvents,
    kSchedReadyDepthMax,  // peak
    kSchedInstancesRetired,
    kSchedInstancesCancelled,
    kSchedWastedEvents,
    // --- splitter (was SplitterMetrics) ------------------------------------
    kSplitterCycles,
    kWindowsOpened,
    kWindowsRetired,
    kGroupsCreated,
    kGroupsCompleted,
    kGroupsAbandoned,
    kRollbacks,
    kLateValidations,
    kMaxTreeVersions,  // peak
    kVersionsDropped,
    kCopiesCloned,
    kCopiesFresh,
    kUpdatesApplied,
    kStatsSamples,
    kComplexEvents,
    // --- detector (window-granularity hook, bench_detect_hot) --------------
    kDetectorEvents,
    kDetectorWindows,
    kDetectorMatches,
    // --- latency / depth histograms (this PR's lifecycle instrumentation) --
    kResultLatencyNs,       // DATA arrival → RESULT buffered for egress
    kFirstResultLatencyNs,  // first DATA arrival → first RESULT, per session
    kPoolQueueWaitNs,       // task runnable → quantum start
    kQuantumNs,             // run_quantum duration
    kSplitterCycleNs,       // one maintenance+scheduling cycle
    kEgressStallNs,         // parked-on-egress-credit → next quantum
    kLaneDepth,             // each shard's unscanned input events, per publish
    kLaneSkew,              // max-min lane depth over a session's shards, per publish
    kDetectorWindowEvents,  // events fed per completed window
    // --- zero-copy ingest / vectored egress (DESIGN.md §14) -----------------
    // The byte-accounting pair: wire bytes are every DATA-path byte read off
    // a session socket; copied bytes are the subset that took a staging copy
    // through FrameReader (control frames + partial frames at view tails).
    // copied ≪ wire is the "one copy off the socket" invariant, asserted by
    // the server tests.
    kIngestWireBytes,
    kIngestCopiedBytes,
    kIngestReads,          // reactor read() calls that returned data
    kIngestFramesScatter,  // DATA frames decoded in place from a read view
    kIngestFramesStaged,   // frames decoded via the FrameReader staging path
    kEgressWritevs,        // vectored egress flush syscalls
    kEgressBytesSent,      // bytes written to session sockets
    // --- shared multi-query ingest plane (DESIGN.md §15) --------------------
    kHubStreams,            // published streams currently registered
    kHubSubscribers,        // subscriber sessions currently attached
    kHubSubscribersTotal,   // subscriber attaches, lifetime
    kHubChunksReclaimed,    // shared-store chunks freed behind all frontiers
    kCompileCacheHits,      // subscriber queries served a shared artifact
    kCompileCacheMisses,    // subscriber queries compiled fresh
    // --- bounded memory (DESIGN.md §6) --------------------------------------
    kStoreChunksReclaimed,  // private-store chunks freed behind its one pin
    kShardChunksReclaimed,  // key-lane store chunks freed behind a lane watermark
    kCount
};
}  // namespace sid

struct SeriesDef {
    std::string name;  // exposition name; may carry a {label="x"} suffix
    Kind kind = Kind::Counter;
    std::string help;
};

// Aggregated value of one series at scrape time.
struct SnapshotEntry {
    std::string name;
    Kind kind = Kind::Counter;
    std::uint64_t value = 0;  // counter / gauge / peak
    std::array<std::uint64_t, kHistBuckets> buckets{};
    std::uint64_t count = 0;  // histogram observations
    std::uint64_t sum = 0;    // histogram Σ values
};

struct Snapshot {
    std::vector<SnapshotEntry> entries;  // indexed by Series::index

    const SnapshotEntry* find(const std::string& name) const;
    std::uint64_t value(Series s) const {
        return s.index < entries.size() ? entries[s.index].value : 0;
    }
    // Approximate histogram quantile from the log2 buckets (upper bound of
    // the bucket holding the q-th observation); 0 when empty.
    std::uint64_t quantile(Series s, double q) const;
};

class Registry;

// One writer scope's block of cells. Updates are relaxed atomic RMWs on
// private cells — never a fence, never a lock; safe to call from any thread
// the owner serializes (a session's cells see the reactor on ingest-side
// series and the session's current pool worker on engine-side series, which
// never write the same cell concurrently in the common case; when they can,
// relaxed fetch_add keeps the count exact anyway).
class Shard {
public:
    void add(Series s, std::uint64_t d) noexcept {
        if (auto* c = cell(s, 0)) c->fetch_add(d, std::memory_order_relaxed);
    }
    // Gauge decrement (cells are uint64; two's-complement wrap makes the
    // aggregated sum come out right as long as each shard's own gauge never
    // logically goes negative).
    void sub(Series s, std::uint64_t d) noexcept {
        if (auto* c = cell(s, 0)) c->fetch_sub(d, std::memory_order_relaxed);
    }
    void set(Series s, std::uint64_t v) noexcept {
        if (auto* c = cell(s, 0)) c->store(v, std::memory_order_relaxed);
    }
    void set_peak(Series s, std::uint64_t v) noexcept {
        auto* c = cell(s, 0);
        if (!c) return;
        std::uint64_t cur = c->load(std::memory_order_relaxed);
        while (v > cur &&
               !c->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    }
    void observe(Series s, std::uint64_t v) noexcept {
        auto* b = cell(s, bucket_of(v));
        if (!b) return;
        b->fetch_add(1, std::memory_order_relaxed);
        cell(s, kHistBuckets)->fetch_add(1, std::memory_order_relaxed);
        cell(s, kHistBuckets + 1)->fetch_add(v, std::memory_order_relaxed);
    }
    std::uint64_t value(Series s) const noexcept {
        const auto* c = cell(s, 0);
        return c ? c->load(std::memory_order_relaxed) : 0;
    }
    std::uint64_t hist_count(Series s) const noexcept {
        const auto* c = cell(s, kHistBuckets);
        return c ? c->load(std::memory_order_relaxed) : 0;
    }

private:
    friend class Registry;
    Shard(const Registry* owner, std::size_t cells);

    std::atomic<std::uint64_t>* cell(Series s, std::size_t sub) noexcept;
    const std::atomic<std::uint64_t>* cell(Series s, std::size_t sub) const noexcept {
        return const_cast<Shard*>(this)->cell(s, sub);
    }

    const Registry* owner_;
    std::vector<std::atomic<std::uint64_t>> cells_;  // fixed size at creation
};

using ShardPtr = std::shared_ptr<Shard>;

class Registry {
public:
    Registry();  // registers the built-in schema (sid::)

    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    // Registers (or finds, by exact name) a series. The id is stable for the
    // registry's lifetime; shards created afterwards carry its cells, shards
    // created before read as zero for it. Throws std::length_error past
    // kMaxSeries (the schema is static; dynamic names are the bounded
    // per-shard-index lane series).
    Series add(std::string name, Kind kind, std::string help = {});

    // New writer scope. The shard stays aggregated into scrapes until
    // retire()d; destroying the last ShardPtr without retiring simply drops
    // the scope's gauges and *loses* its counters — retire() is the
    // monotone-preserving path (counters/histograms/peaks fold into the
    // retained block, gauges drop: a dead scope's "current" value is gone).
    ShardPtr make_shard();
    void retire(const ShardPtr& shard);

    // Aggregate every live shard + the retained block. Torn-read tolerant
    // (header comment); safe concurrently with writers and retire().
    Snapshot snapshot() const;
    // One shard's own cells (per-session STATS view), same tolerance.
    Snapshot snapshot_of(const Shard& shard) const;

    // Prometheus text exposition (version 0.0.4), `spectre_` prefix.
    std::string prometheus() const { return prometheus(snapshot()); }
    static std::string prometheus(const Snapshot& snap);
    // Flat JSON object: scalars as numbers, histograms as
    // {"count":..,"sum":..,"p50":..,"p99":..}.
    static std::string json(const Snapshot& snap);

    std::size_t series_count() const;

private:
    friend class Shard;

    void accumulate(const Shard& shard, Snapshot& into, bool live) const;

    mutable std::mutex mutex_;
    std::vector<SeriesDef> defs_;            // size == series count
    // Writer-visible layout: offsets_[i] = first cell of series i. Entries
    // are written once (under mutex_) before the Series id escapes; readers
    // index without locks. Fixed capacity so growth never reallocates.
    std::array<std::uint32_t, kMaxSeries> offsets_{};
    std::array<std::uint8_t, kMaxSeries> hist_{};  // 1 = histogram series
    std::size_t total_cells_ = 0;
    std::vector<ShardPtr> shards_;           // live scopes
    std::unique_ptr<Shard> retained_;        // folded retired scopes
};

// Global kill switch: SPECTRE_OBS_OFF=1 (read once). Gates the added
// hot-path instrumentation (clock reads, histogram observes, the detector
// binding) — not counters: server sessions bind their runtimes regardless.
bool enabled() noexcept;

// Monotonic nanoseconds (CLOCK_MONOTONIC); 0 when obs is disabled so call
// sites can skip their observes with one branch.
std::uint64_t now_ns() noexcept;

}  // namespace spectre::obs
