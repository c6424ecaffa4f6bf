#include "shard/sharded_engine.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <map>
#include <unordered_map>

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
            obs::Shard* obs, event::Seq key_id);
    KeyLane(const KeyLane&) = delete;
    KeyLane& operator=(const KeyLane&) = delete;
    const event::Seq key;  // the key's first global seq
    event::MappedStore store;
    engine::LaneEngine engine;
};

struct ShardedEngine::TaggedResult {
    MergeTag tag;
    event::ComplexEvent ce;
};

struct ShardedEngine::ShardState {
    // `mutex` guards the merger-visible fields: the task→merger result
    // buffer, the published cursor and the end-of-stream progress.
    mutable std::mutex mutex;
    std::deque<TaggedResult> results;
    // Set once the input closed and this shard scanned all of it: no
    // arrival tag can follow, so the EOS drain may begin.
    bool eos_started = false;
    bool eos_done = false;
    event::Seq eos_key = 0;  // lower bound on future EOS tags
    // The scan cursor as of the end of the shard's last step: every input
    // event below it is processed (if the shard's) or skipped, so every
    // tag still to come from the scan is at or above it. Stored under
    // `mutex`; processed() and shard_queue_depth() read it without.
    std::atomic<event::Seq> scanned{0};

    // Task-private (only the owning shard task touches these; the lane sinks
    // run on the task thread during a drain).
    event::Seq next = 0;  // the scan cursor
    std::unordered_map<std::uint64_t, KeyLane*> by_bits;   // key bits → lane
    std::map<event::Seq, std::unique_ptr<KeyLane>> lanes;  // by key id
    event::Seq eos_next_key = 0;
    MergeTag current_tag;
};

// The sink runs on the owning shard task mid-drain: translate constituents
// back to global stream positions, tag with the trigger being processed.
ShardedEngine::KeyLane::KeyLane(const detect::CompiledQuery* cq, const ShardedConfig& cfg,
                                ShardState& owner, obs::Shard* obs, event::Seq key_id)
    : key(key_id),
      engine(cq, &store.store(), cfg.instances, SIZE_MAX, cfg.batch_events,
             [this, sh = &owner](event::ComplexEvent&& ce) {
                 store.translate(ce.constituents);
                 const std::lock_guard<std::mutex> lock(sh->mutex);
                 sh->results.push_back(TaggedResult{sh->current_tag, std::move(ce)});
             },
             obs) {}

ShardedEngine::ShardedEngine(const detect::CompiledQuery* cq, ShardedConfig cfg,
                             event::ResultSink sink, const event::EventStore* input)
    : cq_(cq), cfg_(cfg), sink_(std::move(sink)),
      owned_(input ? nullptr : std::make_unique<event::EventStore>()),
      input_(input ? input : owned_.get()) {
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

std::uint32_t ShardedEngine::shard_of(std::uint64_t bits) const {
    return static_cast<std::uint32_t>(splitmix64(bits) % cfg_.shards);
}

ShardedEngine::IngestInfo ShardedEngine::ingest(event::Event e) {
    SPECTRE_REQUIRE(owned_ != nullptr, "ShardedEngine::ingest needs an engine-owned store");
    const std::uint64_t bits = key_bits(e, cq_->query().partition);
    const event::Seq g = owned_->append(std::move(e));
    // The single writer frees behind the slowest shard, once per chunk (a
    // session's store frees through its pin instead).
    if ((g & (event::EventStore::kChunkSize - 1)) == 0)
        owned_->release_chunks_below(processed());
    return IngestInfo{shard_of(bits)};
}

void ShardedEngine::close_input() {
    SPECTRE_REQUIRE(owned_ != nullptr, "ShardedEngine::close_input needs an engine-owned store");
    owned_->close();
}

event::Seq ShardedEngine::processed() const noexcept {
    // seq_cst, like the cursor store: of two shards finishing concurrently,
    // at least one reads the other's new cursor (§9 credit).
    event::Seq lo = ~event::Seq{0};
    for (const auto& sh : shards_)
        lo = std::min(lo, sh->scanned.load(std::memory_order_seq_cst));
    return lo;
}

bool ShardedEngine::shard_parkable(std::uint32_t s) const {
    // Called after an idle step: the shard scanned everything it saw.
    const ShardState& sh = *shards_[s];
    if (sh.eos_started) return sh.eos_done;  // EOS work remains → keep running
    return !input_->closed() && input_->size() == sh.next;
}

std::uint32_t ShardedEngine::key_count() const {
    std::size_t keys = 0;
    for (const auto& shp : shards_) keys += shp->lanes.size();
    return static_cast<std::uint32_t>(keys);
}

ShardedEngine::LaneFootprint ShardedEngine::lane_footprint() const {
    LaneFootprint f;
    for (const auto& shp : shards_) {
        for (const auto& [key, lane] : shp->lanes) {
            const event::EventStore& store = lane->store.store();
            const std::size_t chunks =
                (store.size() + event::EventStore::kChunkSize - 1) >>
                event::EventStore::kChunkShift;
            const std::size_t resident = chunks - store.released_chunks();
            ++f.lanes;
            f.resident_chunks += resident;
            f.parent_rows += lane->store.parent_rows();
            f.store_bytes += store.directory_bytes() +
                             resident * event::EventStore::kChunkSize * sizeof(event::Event);
        }
    }
    return f;
}

std::size_t ShardedEngine::shard_queue_depth(std::uint32_t s) const {
    // Cursor first: the frontier read after it is at least as far.
    const event::Seq scanned = shards_[s]->scanned.load(std::memory_order_acquire);
    return input_->size() - scanned;
}

void ShardedEngine::process_event(ShardState& sh, const event::Event& e, std::uint64_t bits,
                                  event::Seq g) {
    KeyLane*& slot = sh.by_bits[bits];
    if (!slot) {
        // A key's id is its first global seq: ascending ids are the
        // first-appearance order the reference drains in at end-of-stream.
        auto lane = std::make_unique<KeyLane>(cq_, cfg_, sh, obs_, g);
        slot = lane.get();
        sh.lanes.emplace(g, std::move(lane));
    }
    KeyLane& lane = *slot;
    sh.current_tag = MergeTag{g, lane.key};
    lane.store.append_mapped(e, g);
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

ShardedEngine::StepResult ShardedEngine::step_shard(std::uint32_t s,
                                                    std::size_t max_events) {
    StepResult r;
    ShardState& sh = *shards_[s];
    std::size_t budget = std::max<std::size_t>(max_events, 1);
    if (!sh.eos_started) {
        // Closed before the frontier: once closed() is seen, the size read
        // after it is the stream's final length.
        const bool closed = input_->closed();
        const event::Seq frontier = input_->size();
        // Skipping another shard's event is cheap but not free: the scan
        // stops after S events per unit of budget.
        const event::Seq end = std::min<event::Seq>(frontier, sh.next + budget * cfg_.shards);
        if (sh.next < end) {
            const auto& part = cq_->query().partition;
            const event::Seq first = sh.next;
            const event::EventRange span = input_->range(first, end - 1);
            for (; sh.next < end && budget > 0; ++sh.next) {
                const event::Event& e = span[sh.next - first];
                const std::uint64_t bits = key_bits(e, part);
                if (shard_of(bits) != s) continue;
                process_event(sh, e, bits, sh.next);
                --budget;
            }
        }
        if (sh.next == frontier) {
            if (closed) {
                const std::lock_guard<std::mutex> lock(sh.mutex);
                sh.eos_started = true;
            } else {
                r.idle = true;
            }
        }
    }
    if (sh.eos_started) eos_step(sh, budget);
    // Publish the step's progress once: the merger's bound for this shard
    // and the engine's credit move to the cursor.
    {
        const std::lock_guard<std::mutex> lock(sh.mutex);
        sh.scanned.store(sh.next, std::memory_order_seq_cst);
    }
    r.shard_finished = sh.eos_done;
    merge_locked(r);
    return r;
}

void ShardedEngine::merge_locked(StepResult& r) {
    const std::lock_guard<std::mutex> merge_lock(merge_mutex_);
    const std::size_t span = shards_.size();

    // One lock round per shard: read its lower bound AND splice off its
    // result buffer (tags within a shard ascend, so the prefix below the
    // eventual min bound is contiguous). Splicing the whole buffer here and
    // merging locally keeps the release loop lock-free — O(results) work
    // under merge_mutex_ only, not O(results × shards) lock traffic.
    auto& pending = merge_scratch_;
    MergeTag min_bound = kInfTag;
    bool eos_all_done = true;
    for (std::size_t i = 0; i < span; ++i) {
        ShardState& t = *shards_[i];
        MergeTag b = kInfTag;
        const std::lock_guard<std::mutex> lock(t.mutex);
        if (!t.eos_done) {
            eos_all_done = false;
            // Results pushed before the cursor was published are in the
            // buffer; every later one is tagged at or above the cursor.
            b = t.eos_started ? MergeTag{kEosG, t.eos_key}
                              : MergeTag{t.scanned.load(std::memory_order_relaxed), 0};
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
