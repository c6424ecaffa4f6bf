// LaneEngine: the one engine behind a lane (DESIGN.md §9) — a server
// session's unsharded lane or a PARTITION BY key lane (§10). It builds the
// sequential SeqStepper at k = 0 and the speculative SpectreRuntime at k > 0;
// both emit exactly the sequential output (§2.3), so no caller asks which.
// The contract, over a store the caller appends to and closes:
//   * step(): Busy (work is ready), Idle (nothing until the store grows or
//     closes) or Done (closed, every window processed and emitted);
//   * processed(): the §9 ingest credit, never above size() and equal to it
//     after an Idle or Done step — the park predicate relies on that;
//   * low_watermark(): the §6 reclaim floor, monotone — no later step reads
//     the store below it, whichever k (the stepper's next window, or the
//     speculative splitter's front root).
#pragma once

#include <memory>

#include "sequential/seq_engine.hpp"
#include "spectre/runtime.hpp"

namespace spectre::engine {

class LaneEngine {
public:
    enum class Step : std::uint8_t { Busy, Idle, Done };

    // k = `instances`. A k = 0 step processes at most `windows_per_step`
    // windows; a k > 0 runtime uses `batch_events` as its instance batch
    // and its per-step budget (§11). A non-null `obs` receives the
    // runtime's per-step stats (§12) and must outlive the engine.
    LaneEngine(const detect::CompiledQuery* cq, const event::EventStore* store,
               std::uint32_t instances, std::size_t windows_per_step,
               std::size_t batch_events, event::ResultSink sink, obs::Shard* obs);

    Step step();
    event::Seq processed() const;
    event::Seq low_watermark() const;

private:
    std::unique_ptr<sequential::SeqStepper> stepper_;  // k = 0
    std::unique_ptr<core::SpectreRuntime> runtime_;    // k > 0
    std::size_t windows_per_step_;
};

}  // namespace spectre::engine
