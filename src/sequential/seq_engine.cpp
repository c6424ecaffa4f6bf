#include "sequential/seq_engine.hpp"

#include <algorithm>

#include "event/consumed_seqs.hpp"
#include "util/assert.hpp"

namespace spectre::sequential {

SequentialEngine::SequentialEngine(const detect::CompiledQuery* cq, detect::EvalMode mode)
    : cq_(cq), mode_(mode) {
    SPECTRE_REQUIRE(cq != nullptr, "SequentialEngine needs a compiled query");
}

// Incremental sequential pass: windows are discovered from the arrival
// frontier and each is processed once the frontier covers it (or the stream
// closed — the end-of-stream clamp for trailing extent bounds). Backs both
// the batch run() below and the resumable SeqStepper.
//
// State is O(window span), not O(stream): processed windows are popped at
// the next drain, and the consumed set drops everything below the window
// being processed — windows run in start order, so no later window reaches
// below its first position.
struct SeqStepper::Impl {
    const detect::CompiledQuery* cq;
    const event::EventStore& store;
    const event::ResultSink* sink;  // nullptr = collect into result
    query::WindowAssigner assigner;
    // Discovered windows from the last drain's processed prefix on; `next`
    // indexes the first unprocessed one.
    std::vector<query::WindowInfo> windows;
    std::size_t next = 0;
    event::Seq frontier_seen = 0;  // frontier of the last drain
    bool closed_seen = false;      // the last drain saw end-of-stream
    event::ConsumedSeqs consumed;
    detect::Detector detector;
    detect::Feedback fb;
    SeqResult result;

    Impl(const detect::CompiledQuery* cq_in, const event::EventStore& store_in,
         const event::ResultSink* sink_in,
         detect::EvalMode mode = detect::EvalMode::Compiled)
        : cq(cq_in), store(store_in), sink(sink_in), assigner(cq_in->query().window),
          detector(cq_in, mode) {}

    // Processes at most `max_windows` fully-arrived windows at `frontier`;
    // returns true while another fully-arrived window is still pending.
    bool drain(event::Seq frontier, bool closed, std::size_t max_windows) {
        windows.erase(windows.begin(), windows.begin() + static_cast<std::ptrdiff_t>(next));
        next = 0;
        frontier_seen = frontier;
        closed_seen = closed;
        assigner.poll(store, frontier, closed, windows);
        std::size_t processed = 0;
        while (next < windows.size()) {
            const auto& w = windows[next];
            // Sequential semantics process a window to completion before the
            // next one starts, so it must have fully arrived (its extent
            // bound may reach past a closed stream's end).
            if (!closed && w.last >= frontier) return false;
            if (processed == max_windows) return true;  // quantum exhausted
            const event::Seq end = std::min<event::Seq>(w.last, frontier - 1);
            consumed.drop_below(w.first);
            detector.begin_window(w);
            for (event::Seq pos = w.first; pos <= end; ++pos) {
                if (consumed.contains(pos)) {
                    ++result.stats.events_suppressed;
                    continue;
                }
                fb.clear();
                detector.on_event(store.at(pos), fb);
                ++result.stats.events_processed;

                for (const auto& c : fb.created)
                    if (c.consumable) ++result.stats.groups_created;
                for (const auto& a : fb.abandoned) {
                    (void)a;
                    if (cq->consumes_anything()) ++result.stats.groups_abandoned;
                }
                for (auto& done : fb.completed) {
                    if (cq->consumes_anything()) ++result.stats.groups_completed;
                    for (const auto seq : done.consumed) consumed.insert(seq);
                    if (sink)
                        (*sink)(std::move(done.complex_event));
                    else
                        result.complex_events.push_back(std::move(done.complex_event));
                    ++result.stats.complex_events;
                }
            }
            fb.clear();
            detector.end_window(fb);
            for (const auto& a : fb.abandoned) {
                (void)a;
                if (cq->consumes_anything()) ++result.stats.groups_abandoned;
            }
            ++result.stats.windows;
            ++next;
            ++processed;
        }
        return false;
    }

    event::Seq low_watermark() const {
        event::Seq wm = std::min(assigner.low_watermark(), frontier_seen);
        if (next < windows.size()) wm = std::min(wm, windows[next].first);
        return wm;
    }

    event::Seq processed() const {
        if (next < windows.size() && (closed_seen || windows[next].last < frontier_seen))
            return windows[next].first;
        return frontier_seen;
    }

    SeqResult finish() { return std::move(result); }
};

SeqStepper::SeqStepper(const detect::CompiledQuery* cq, const event::EventStore* store,
                       event::ResultSink sink) {
    // Validate before Impl's initializers dereference either pointer.
    SPECTRE_REQUIRE(cq != nullptr && store != nullptr, "SeqStepper needs store and query");
    SPECTRE_REQUIRE(static_cast<bool>(sink), "SeqStepper needs a result sink");
    sink_holder_ = std::move(sink);
    impl_ = std::make_unique<Impl>(cq, *store, &sink_holder_);
}

SeqStepper::~SeqStepper() = default;

bool SeqStepper::drain(std::size_t max_windows) {
    // End-of-input latch before the frontier (DESIGN.md §6 ordering): a true
    // closed() implies the following size() read is the stream's final length.
    const bool closed = impl_->store.closed();
    return impl_->drain(impl_->store.size(), closed, max_windows);
}

bool SeqStepper::finished() const {
    return impl_->store.closed() && impl_->assigner.exhausted() &&
           impl_->next == impl_->windows.size();
}

event::Seq SeqStepper::low_watermark() const { return impl_->low_watermark(); }

event::Seq SeqStepper::processed() const { return impl_->processed(); }

SeqStepper::Footprint SeqStepper::footprint() const {
    return {impl_->windows.capacity(), impl_->consumed.capacity_words()};
}

SeqResult SequentialEngine::run_impl(const event::EventStore& store,
                                     const event::ResultSink* sink) const {
    SeqStepper::Impl pass(cq_, store, sink, mode_);
    pass.drain(store.size(), /*closed=*/true, SIZE_MAX);
    return pass.finish();
}

SeqResult SequentialEngine::run(const event::EventStore& store) const {
    return run_impl(store, nullptr);
}

SeqResult SequentialEngine::run(const event::EventStore& store,
                                const event::ResultSink& sink) const {
    return run_impl(store, &sink);
}

}  // namespace spectre::sequential
