#include "shard/sharded_engine.hpp"

#include <bit>
#include <iterator>

#include "util/assert.hpp"

namespace spectre::shard {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t key_bits(const event::Event& e, const query::PartitionBy& part) {
    if (part.kind == query::PartitionBy::Kind::Subject)
        return static_cast<std::uint64_t>(e.subject);
    // Attr keys group by exact bit pattern (query.hpp): distinct NaN payloads
    // or signed zeros are distinct keys, which keeps the grouping total.
    return std::bit_cast<std::uint64_t>(e.attr(part.slot));
}

}  // namespace

// One key's independent sub-stream and engine — the semantic unit of
// partitioned detection. Owned and driven by the one shard task its key
// hashes to. Pinned: its sink holds its address.
struct ShardedEngine::KeyLane {
    KeyLane(const detect::CompiledQuery* cq, const ShardedConfig& cfg, ShardState& owner,
            obs::Shard* obs);
    KeyLane(const KeyLane&) = delete;
    KeyLane& operator=(const KeyLane&) = delete;
    event::MappedStore store;
    engine::LaneEngine engine;
};

// One routed arrival: global seq, dense key, event.
struct ShardedEngine::Pending {
    event::Seq g = 0;
    std::uint32_t key = 0;
    event::Event e;
};

struct ShardedEngine::TaggedResult {
    MergeTag tag;
    event::ComplexEvent ce;
};

struct ShardedEngine::ShardState {
    // `mutex` guards the feeder↔task inbox, the merger-visible progress
    // fields and the task→merger result buffer.
    mutable std::mutex mutex;
    // Published arrivals in FIFO (= ascending g) order. publish() appends a
    // staged batch whole; the task takes all of it in one swap.
    std::vector<Pending> inbox;
    // Authoritative end-of-input gate for THIS shard's inbox: set under the
    // lock by close_input(), checked under the lock by publish() — so no
    // event can slip in behind the close, and the EOS drain can begin the
    // moment the inbox is observed empty with this set. (The engine-level
    // atomic is only the cheap unfenced pre-check.)
    bool input_closed = false;
    // Lower bound on every tag the task took but has not processed: the
    // first unprocessed batch entry's g, set at the swap and re-published at
    // the end of each step (kInfTag once the batch is done).
    MergeTag inflight = kInfTag;
    bool eos_started = false;
    bool eos_done = false;
    std::uint32_t eos_key = 0;  // lower bound on future EOS tags
    std::deque<TaggedResult> results;

    // Published-minus-processed arrivals: the feeder adds at publish, the
    // task subtracts at the end of each step (shard_queue_depth).
    std::atomic<std::size_t> depth{0};

    // Feeder-private: arrivals routed here since the last publish().
    std::vector<Pending> staged;

    // Task-private (only the owning shard task touches these; the lane sinks
    // run on the task thread during a drain).
    std::vector<Pending> batch;  // the inbox taken at the last swap
    std::size_t batch_pos = 0;   // first unprocessed entry of `batch`
    std::map<std::uint32_t, std::unique_ptr<KeyLane>> lanes;  // by key index
    std::uint32_t eos_next_key = 0;
    MergeTag current_tag;
};

// The sink runs on the owning shard task mid-drain: translate constituents
// back to global stream positions, tag with the trigger being processed.
ShardedEngine::KeyLane::KeyLane(const detect::CompiledQuery* cq, const ShardedConfig& cfg,
                                ShardState& owner, obs::Shard* obs)
    : engine(cq, &store.store(), cfg.instances, SIZE_MAX, cfg.batch_events,
             [this, sh = &owner](event::ComplexEvent&& ce) {
                 store.translate(ce.constituents);
                 const std::lock_guard<std::mutex> lock(sh->mutex);
                 sh->results.push_back(TaggedResult{sh->current_tag, std::move(ce)});
             },
             obs) {}

ShardedEngine::ShardedEngine(const detect::CompiledQuery* cq, ShardedConfig cfg,
                             event::ResultSink sink)
    : cq_(cq), cfg_(cfg), sink_(std::move(sink)) {
    SPECTRE_REQUIRE(cq_ != nullptr, "ShardedEngine needs a compiled query");
    SPECTRE_REQUIRE(cq_->query().partition.active(),
                    "ShardedEngine needs a query with PARTITION BY");
    SPECTRE_REQUIRE(cfg_.shards >= 1, "ShardedEngine needs at least one shard");
    SPECTRE_REQUIRE(static_cast<bool>(sink_), "ShardedEngine needs a result sink");
    shards_.reserve(cfg_.shards);
    for (std::uint32_t s = 0; s < cfg_.shards; ++s)
        shards_.push_back(std::make_unique<ShardState>());
    merge_scratch_.resize(cfg_.shards);
}

ShardedEngine::~ShardedEngine() = default;

ShardedEngine::IngestInfo ShardedEngine::route(event::Event e) {
    // A worker-side abort may close the input concurrently with the feeder
    // (server failure paths): a trailing event is dropped, never staged.
    // publish() re-checks each shard's gate under its lock, so one that
    // slips past this pre-check is dropped there.
    if (input_closed()) return IngestInfo{0, queued_total() + staged_, /*dropped=*/true};
    const auto bits = key_bits(e, cq_->query().partition);
    const auto [it, fresh] =
        key_index_.try_emplace(bits, static_cast<std::uint32_t>(key_index_.size()));
    const std::uint32_t key = it->second;
    if (fresh)
        key_shard_.push_back(static_cast<std::uint32_t>(splitmix64(bits) % cfg_.shards));
    const std::uint32_t shard = key_shard_[key];
    ShardState& sh = *shards_[shard];
    if (sh.staged.empty()) touched_.push_back(shard);
    sh.staged.push_back(Pending{next_g_++, key, std::move(e)});
    ++staged_;
    return IngestInfo{shard, queued_total() + staged_};
}

std::size_t ShardedEngine::publish() {
    if (touched_.empty()) return 0;
    // Count before the hand-off: a task that processes the batch at once
    // must never subtract below zero. Dropped batches give theirs back.
    queued_.fetch_add(staged_, std::memory_order_seq_cst);
    std::size_t handed = 0;
    for (const std::uint32_t s : touched_) {
        ShardState& sh = *shards_[s];
        const std::size_t n = sh.staged.size();
        sh.depth.fetch_add(n, std::memory_order_relaxed);
        bool dropped = false;
        {
            const std::lock_guard<std::mutex> lock(sh.mutex);
            // The per-shard gate makes the close race benign: a batch behind
            // the close would break merge-tag ordering against the EOS drain.
            dropped = sh.input_closed;
            if (!dropped && sh.inbox.empty())
                sh.inbox.swap(sh.staged);  // the common case: no copy
            else if (!dropped)
                sh.inbox.insert(sh.inbox.end(), std::make_move_iterator(sh.staged.begin()),
                                std::make_move_iterator(sh.staged.end()));
        }
        sh.staged.clear();
        if (dropped) {
            sh.depth.fetch_sub(n, std::memory_order_relaxed);
            queued_.fetch_sub(n, std::memory_order_seq_cst);
            continue;
        }
        handed += n;
        if (waker_) waker_(s);
    }
    touched_.clear();
    staged_ = 0;
    // Publish after the hand-off: a merger that reads frontier_ >= g+1 and
    // finds the shard's inbox empty knows event g was already taken.
    frontier_.store(next_g_, std::memory_order_release);
    return handed;
}

ShardedEngine::IngestInfo ShardedEngine::ingest(event::Event e) {
    IngestInfo info = route(std::move(e));
    if (!info.dropped) info.dropped = publish() == 0;
    return info;
}

void ShardedEngine::close_input() {
    // Engine-level flag first (the merger's bound logic and idle pre-checks
    // read it), then the authoritative per-shard gates: once a shard's gate
    // is set under its lock, no further publish can reach there, so an EOS
    // result can never be followed by a smaller arrival tag.
    closed_.store(true, std::memory_order_release);
    for (const auto& shp : shards_) {
        const std::lock_guard<std::mutex> lock(shp->mutex);
        shp->input_closed = true;
    }
}

bool ShardedEngine::shard_parkable(std::uint32_t s) const {
    // Called after an idle step, so the task's batch is exhausted.
    const ShardState& sh = *shards_[s];
    const std::lock_guard<std::mutex> lock(sh.mutex);
    if (!sh.inbox.empty()) return false;  // published since the step
    if (!sh.input_closed) return true;    // idle: publish/close will wake
    return sh.eos_done;  // EOS work remains → keep running
}

std::uint32_t ShardedEngine::key_count() const {
    return static_cast<std::uint32_t>(key_shard_.size());
}

ShardedEngine::LaneFootprint ShardedEngine::lane_footprint() const {
    LaneFootprint f;
    for (const auto& shp : shards_) {
        for (const auto& [key, lane] : shp->lanes) {
            const event::EventStore& store = lane->store.store();
            const std::size_t chunks =
                (store.size() + event::EventStore::kChunkSize - 1) >>
                event::EventStore::kChunkShift;
            ++f.lanes;
            f.resident_chunks += chunks - store.released_chunks();
            f.parent_rows += lane->store.parent_rows();
        }
    }
    return f;
}

std::size_t ShardedEngine::shard_queue_depth(std::uint32_t s) const {
    return shards_[s]->depth.load(std::memory_order_relaxed);
}

void ShardedEngine::process_event(ShardState& sh, Pending&& p) {
    std::unique_ptr<KeyLane>& slot = sh.lanes[p.key];
    if (!slot) slot = std::make_unique<KeyLane>(cq_, cfg_, sh, obs_);
    KeyLane& lane = *slot;
    sh.current_tag = MergeTag{p.g, p.key};
    lane.store.append_mapped(std::move(p.e), p.g);
    // Drain to quiescence, emitting every window this arrival completed.
    while (lane.engine.step() == engine::LaneEngine::Step::Busy) {
    }
    // Free what no later step can read (DESIGN.md §6): the sink translated
    // this drain's results already, and later ones name only seqs at or
    // above the watermark.
    const std::size_t freed = lane.store.release_below(lane.engine.low_watermark());
    if (freed > 0 && obs_) obs_->add(obs::Series{obs::sid::kShardChunksReclaimed}, freed);
}

void ShardedEngine::eos_step(ShardState& sh, std::size_t& budget) {
    while (budget > 0) {
        const auto it = sh.lanes.lower_bound(sh.eos_next_key);
        if (it == sh.lanes.end()) {
            const std::lock_guard<std::mutex> lock(sh.mutex);
            sh.eos_done = true;
            return;
        }
        KeyLane& lane = *it->second;
        {
            const std::lock_guard<std::mutex> lock(sh.mutex);
            sh.eos_key = it->first;
        }
        sh.current_tag = MergeTag{kEosG, it->first};
        if (!lane.store.closed()) lane.store.close();
        bool lane_done = false;
        while (budget > 0 && !lane_done) {
            --budget;
            lane_done = lane.engine.step() == engine::LaneEngine::Step::Done;
        }
        if (!lane_done) return;  // budget spent mid-lane
        sh.eos_next_key = it->first + 1;
        if (budget > 0) --budget;  // charge the lane switch
    }
}

bool ShardedEngine::take_inbox(ShardState& sh) {
    sh.batch.clear();
    sh.batch_pos = 0;
    const std::lock_guard<std::mutex> lock(sh.mutex);
    if (sh.inbox.empty()) return false;
    // The swap hands the inbox our spent batch's capacity: steady state
    // allocates nothing.
    sh.batch.swap(sh.inbox);
    // Visible to the merger in the same critical section the entries leave
    // the inbox: results for the batch stay pending until this advances.
    sh.inflight = MergeTag{sh.batch.front().g, 0};
    return true;
}

ShardedEngine::StepResult ShardedEngine::step_shard(std::uint32_t s,
                                                    std::size_t max_events) {
    StepResult r;
    ShardState& sh = *shards_[s];
    std::size_t budget = max_events > 0 ? max_events : 1;
    while (budget > 0) {
        if (sh.batch_pos < sh.batch.size() || take_inbox(sh)) {
            process_event(sh, std::move(sh.batch[sh.batch_pos]));
            ++sh.batch_pos;
            ++r.events;
            --budget;
            continue;
        }
        if (!input_closed()) {
            r.idle = true;
            break;
        }
        bool done = false;
        bool can_eos = false;
        bool inbox_empty = true;
        {
            const std::lock_guard<std::mutex> lock(sh.mutex);
            done = sh.eos_done;
            inbox_empty = sh.inbox.empty();
            // The per-shard gate, not the engine-level flag, authorizes the
            // EOS drain: once it is set (under this lock) no publish can
            // reach here, so an EOS tag can never be followed by a smaller
            // arrival tag.
            can_eos = sh.input_closed && inbox_empty;
            if (!done && can_eos) sh.eos_started = true;
        }
        if (done) break;
        if (!can_eos) {
            if (!inbox_empty) continue;  // raced-in work — go take it
            r.idle = true;  // close in flight, gate not set yet — re-run on notify
            break;
        }
        eos_step(sh, budget);
    }
    // Publish the step's progress once: the merger's bound for this shard
    // moves to the next unprocessed entry, and the backlog counters drop by
    // what the step processed.
    {
        const std::lock_guard<std::mutex> lock(sh.mutex);
        sh.inflight = sh.batch_pos < sh.batch.size()
                          ? MergeTag{sh.batch[sh.batch_pos].g, 0}
                          : kInfTag;
    }
    if (r.events > 0) {
        sh.depth.fetch_sub(r.events, std::memory_order_relaxed);
        queued_.fetch_sub(r.events, std::memory_order_seq_cst);
    }
    merge_locked(r);
    {
        const std::lock_guard<std::mutex> lock(sh.mutex);
        r.shard_finished = sh.eos_done;
    }
    return r;
}

void ShardedEngine::merge_locked(StepResult& r) {
    const std::lock_guard<std::mutex> merge_lock(merge_mutex_);
    // Frontier before inboxes: an event published before this load is
    // either still in an inbox or a batch (bounding below) or fully
    // processed (its results already pushed).
    const event::Seq frontier = frontier_.load(std::memory_order_acquire);
    const std::size_t span = shards_.size();
    const bool closed = input_closed();

    // One lock round per shard: compute its lower bound AND splice off the
    // releasable prefix of its result buffer (tags within a shard ascend, so
    // the prefix below the eventual min bound is contiguous). Splicing the
    // whole buffer here and merging locally keeps the release loop lock-free
    // — O(results) work under merge_mutex_ only, not O(results × shards)
    // lock traffic.
    auto& pending = merge_scratch_;
    MergeTag min_bound = kInfTag;
    bool eos_all_done = closed;
    for (std::size_t i = 0; i < span; ++i) {
        ShardState& t = *shards_[i];
        MergeTag b = kInfTag;
        const std::lock_guard<std::mutex> lock(t.mutex);
        if (t.eos_done) {
            b = kInfTag;
        } else if (t.eos_started) {
            // Sound only because eos_started is gated on the shard's
            // input_closed flag: no arrival tag can follow.
            b = MergeTag{kEosG, t.eos_key};
            eos_all_done = false;
        } else {
            if (!t.inbox.empty()) b = MergeTag{t.inbox.front().g, 0};
            if (t.inflight < b) b = t.inflight;
            // Even after close a not-yet-EOS shard is bounded by the
            // frontier, not by the EOS band — a trailing arrival may still
            // be racing the close gate.
            if (b == kInfTag) b = MergeTag{frontier, 0};
            eos_all_done = false;
        }
        if (b < min_bound) min_bound = b;
        pending[i].swap(t.results);
    }

    // K-way merge of the spliced buffers in ascending tag order; whatever is
    // not releasable yet goes back to its shard afterwards (prepend — the
    // owner may have pushed newer results meanwhile).
    for (;;) {
        std::size_t best = span;
        for (std::size_t i = 0; i < span; ++i)
            if (!pending[i].empty() &&
                (best == span || pending[i].front().tag < pending[best].front().tag))
                best = i;
        if (best == span || !(pending[best].front().tag < min_bound)) break;
        TaggedResult tr = std::move(pending[best].front());
        pending[best].pop_front();
        emitted_.fetch_add(1, std::memory_order_relaxed);
        sink_(std::move(tr.ce));
    }
    bool buffers_empty = true;
    for (std::size_t i = 0; i < span; ++i) {
        if (pending[i].empty()) continue;
        ShardState& t = *shards_[i];
        {
            const std::lock_guard<std::mutex> lock(t.mutex);
            t.results.insert(t.results.begin(),
                             std::make_move_iterator(pending[i].begin()),
                             std::make_move_iterator(pending[i].end()));
        }
        pending[i].clear();
        buffers_empty = false;
    }

    if (eos_all_done && buffers_empty) all_finished_.store(true, std::memory_order_release);
    r.all_finished = finished();
}

std::vector<event::ComplexEvent> reference_partitioned_run(
    const detect::CompiledQuery& cq, const std::vector<event::Event>& events) {
    SPECTRE_REQUIRE(cq.query().partition.active(),
                    "reference_partitioned_run needs a query with PARTITION BY");
    struct RefLane {
        event::MappedStore store;
        std::unique_ptr<sequential::SeqStepper> stepper;
    };
    std::vector<event::ComplexEvent> out;
    std::unordered_map<std::uint64_t, std::uint32_t> index;
    std::vector<std::unique_ptr<RefLane>> lanes;  // key-first-appearance order

    const auto lane_for = [&](const event::Event& e) -> RefLane& {
        const auto bits = key_bits(e, cq.query().partition);
        const auto [it, fresh] =
            index.try_emplace(bits, static_cast<std::uint32_t>(lanes.size()));
        if (fresh) {
            auto lane = std::make_unique<RefLane>();
            RefLane* lp = lane.get();
            lane->stepper = std::make_unique<sequential::SeqStepper>(
                &cq, &lp->store.store(), [&out, lp](event::ComplexEvent&& ce) {
                    lp->store.translate(ce.constituents);
                    out.push_back(std::move(ce));
                });
            lanes.push_back(std::move(lane));
        }
        return *lanes[it->second];
    };

    event::Seq g = 0;
    for (const auto& e : events) {
        RefLane& lane = lane_for(e);
        lane.store.append_mapped(e, g++);
        while (lane.stepper->drain(~std::size_t{0})) {
        }
    }
    for (const auto& lane : lanes) {
        lane->store.close();
        while (lane->stepper->drain(~std::size_t{0})) {
        }
    }
    return out;
}

}  // namespace spectre::shard
