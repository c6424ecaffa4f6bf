// Sequential reference engine.
//
// Processes windows to completion in start order; events consumed in window
// wᵢ are invisible to every later window. This is the paper's notion of
// "sequential processing" (§2.3: "wait with processing w2 until w1 is
// completely processed and hence, all consumptions in w1 are known") and
// therefore the ground truth SPECTRE must reproduce exactly — the
// integration tests compare complex-event streams wholesale.
//
// Windows are enumerated through the same arrival-driven WindowAssigner the
// SPECTRE splitter uses (DESIGN.md §6), so batch replay (run) and live
// ingestion (SeqStepper::drain between the caller's appends, processing each
// window as soon as it has fully arrived) produce the same byte-identical
// output by construction.
//
// The engine also records the statistics the paper derives from a sequential
// pass: the ground-truth consumption-group completion probability
// (#completed / #created, Fig. 10(d)/(e)) and per-event δ transition counts
// (used to validate the Markov model against reality).
#pragma once

#include <memory>
#include <vector>

#include "detect/detector.hpp"

namespace spectre::sequential {

struct SeqStats {
    std::uint64_t windows = 0;            // windows processed
    std::uint64_t events_processed = 0;   // window-events fed to detectors
    std::uint64_t events_suppressed = 0;  // skipped because already consumed
    std::uint64_t groups_created = 0;     // partial matches that opened a CG
    std::uint64_t groups_completed = 0;
    std::uint64_t groups_abandoned = 0;
    std::uint64_t complex_events = 0;

    // Ground truth completion probability of consumption groups (§4.2.1:
    // "the number of created consumption groups divided by the number of
    // produced complex events provides the ground truth value").
    double completion_probability() const {
        return groups_created ? static_cast<double>(groups_completed) /
                                    static_cast<double>(groups_created)
                              : 0.0;
    }
};

struct SeqResult {
    std::vector<event::ComplexEvent> complex_events;  // in window order
    SeqStats stats;
};

// Resumable sequential pass (DESIGN.md §9), the live counterpart of run(): a
// worker-pool engine task appends arrivals to the store itself and calls
// drain() with a bounded window quantum, parking the session between calls.
// Output through `sink` is byte-identical to SequentialEngine::run over the
// final store contents, for every interleaving of appends and drains (windows
// are processed in start order exactly when the frontier — or end-of-stream —
// determines them).
class SeqStepper {
public:
    // `store` is the session's ingestion frontier; the caller appends to it
    // between drain() calls (reads stay below the frontier). `sink` receives
    // complex events in window order.
    SeqStepper(const detect::CompiledQuery* cq, const event::EventStore* store,
               event::ResultSink sink);
    ~SeqStepper();

    SeqStepper(const SeqStepper&) = delete;
    SeqStepper& operator=(const SeqStepper&) = delete;

    // Processes fully-arrived windows at the store's current frontier, at
    // most `max_windows` of them (the scheduling quantum). Returns true while
    // another fully-arrived window is still pending — i.e. calling again
    // would make progress without new input.
    bool drain(std::size_t max_windows);

    // Quiescent on a complete input: store closed, every window processed.
    bool finished() const;

    // The lowest seq any later drain can read (DESIGN.md §6): the minimum of
    // the next unprocessed window's first position, the assigner's scan
    // position and the frontier the last drain saw. Monotone across drains.
    // Everything below it may be reclaimed by whoever owns the store.
    event::Seq low_watermark() const;

    // How far processing has caught up with arrival (DESIGN.md §9 ingest
    // credit): the first seq of the oldest fully-arrived window the last
    // drain left unprocessed, or the frontier it saw when none is pending.
    // Not the watermark: a window still arriving counts as caught up, so a
    // window wider than the ingest cap never withholds its own events.
    event::Seq processed() const;

    // Test hook: allocated state the pass keeps — window slots and consumed-
    // set bitmap words. Bounded by the window span, not the stream length.
    struct Footprint {
        std::size_t window_slots = 0;
        std::size_t consumed_words = 0;
    };
    Footprint footprint() const;

private:
    friend class SequentialEngine;  // batch run() reuses Impl
    struct Impl;
    std::unique_ptr<Impl> impl_;
    event::ResultSink sink_holder_;
};

class SequentialEngine {
public:
    // `mode` selects the detector's predicate evaluator (DESIGN.md §5.1):
    // Compiled bytecode by default; Tree keeps the reference tree-walking
    // evaluator alive for differential tests and the hot-path bench baseline.
    explicit SequentialEngine(const detect::CompiledQuery* cq,
                              detect::EvalMode mode = detect::EvalMode::Compiled);

    // Runs the full pass over `store`, treating its contents as the whole
    // input. Windows are assigned from the query's window spec; consumption
    // state starts empty. With a `sink`, complex events are emitted
    // incrementally as each window completes (in window order) and
    // SeqResult.complex_events stays empty — the collect-all vector is the
    // default sink (DESIGN.md §8).
    SeqResult run(const event::EventStore& store) const;
    SeqResult run(const event::EventStore& store, const event::ResultSink& sink) const;

private:
    SeqResult run_impl(const event::EventStore& store, const event::ResultSink* sink) const;
    const detect::CompiledQuery* cq_;
    detect::EvalMode mode_;
};

}  // namespace spectre::sequential
