// SpectreRuntime: the speculative SPECTRE engine over one store (§2.2: a
// splitter plus k operator instances over shared memory). The paper pins
// each to its own core; here one scheduler (DESIGN.md §11) drives them all
// cooperatively, and every entry point is a loop over step().
//
// Input always arrives the same way: the caller appends to the EventStore.
// Two entry points read it:
//   * run() — batch replay over an already-materialized store;
//   * step() — cooperative driving (DESIGN.md §9): runs splitter cycles and
//     bounded operator-instance batches inline until the quantum budget is
//     spent or nothing is runnable. A worker pool multiplexing many sessions
//     calls step() in quanta, appending arrivals to the store itself between
//     calls, and parks the session when a step reports quiescence on an open
//     store; close() on the store ends the input.
//
// Both are byte-identical, including order, to the sequential engine's
// output (the framework's correctness goal, §2.3) — the interleaving of
// step() calls and appends never changes the output.
#pragma once

#include <memory>

#include "obs/metrics.hpp"
#include "spectre/instance_scheduler.hpp"
#include "spectre/splitter.hpp"

namespace spectre::core {

struct RuntimeConfig {
    SplitterConfig splitter{};
    // Events an instance processes per batch before re-checking its
    // assignment.
    std::size_t batch_events = 256;
    // Per-step work bound for the cooperative scheduler (DESIGN.md §11):
    // step() returns once it has advanced this many window positions, so a
    // pool quantum (quantum_steps × this) stays short enough that
    // co-scheduled sessions are never starved by one speculative session.
    // 0 falls back to batch_events.
    std::size_t quantum_budget = 1024;
};

// Observability of the ready-instance scheduler (DESIGN.md §11): what the
// step loop actually did.
struct SchedStats {
    std::uint64_t steps = 0;           // step() calls
    std::uint64_t cycles = 0;          // splitter cycles the dirty gate ran
    std::uint64_t cycles_skipped = 0;  // steps that skipped the cycle entirely
    std::uint64_t batches = 0;         // instance batches scheduled
    std::uint64_t batch_events = 0;    // window positions those batches advanced
    std::uint64_t ready_depth_max = 0; // peak ready-queue depth at pop time
    double ready_depth_p50 = 0.0;      // median ready-queue depth at pop time
    std::uint64_t instances_retired = 0;    // batches that finished their version
    std::uint64_t instances_cancelled = 0;  // batches that found dead speculation
    std::uint64_t speculation_wasted_events = 0;  // work on later-dropped versions
};

struct RunResult {
    std::vector<event::ComplexEvent> output;  // empty when a result sink is set
    SplitterMetrics metrics;
    std::vector<InstanceStats> instance_stats;
    double wall_seconds = 0.0;
    double throughput_eps = 0.0;  // source events per (real) second
    SchedStats sched;  // ready-instance scheduler observability
};

class SpectreRuntime {
public:
    // Runtime over `store`, which it only reads: the caller owns ingestion.
    SpectreRuntime(const event::EventStore* store, const detect::CompiledQuery* cq,
                   RuntimeConfig config, std::unique_ptr<model::CompletionModel> model);

    // Streaming result egress (DESIGN.md §8): emit each complex event the
    // moment its window retires instead of collecting into RunResult.output.
    // The sink runs on the stepping thread, in window order — byte-identical
    // to the collect-all vector. Install before run().
    void set_result_sink(event::ResultSink sink) {
        splitter_.set_result_sink(std::move(sink));
    }

    // Batch replay: treats the store's current contents as the whole input.
    RunResult run();

    // --- cooperative stepping (worker pool, DESIGN.md §9/§11) ---------------

    // What one step() accomplished; the pool's park decision hinges on
    // `quiescent`: a quiescent step has driven the scheduler to a fixed
    // point for the current frontier — no instance is ready, no
    // splitter cycle could make progress — so nothing changes until the
    // store grows or closes. (quiescent may hold even when events were
    // processed: the step did work and then ran dry before its budget.)
    struct StepProgress {
        std::size_t events_processed = 0;  // instance work done this step
        bool done = false;       // input complete + all windows retired
        bool quiescent = false;  // fixed point at the current frontier
    };

    // Ready-instance scheduling loop (DESIGN.md §11), inline on the calling
    // thread: runs the splitter cycle only when its dirty predicate says the
    // tree changed, then drains the ready queue in bounded batches until the
    // quantum budget (config.quantum_budget) is spent or nothing is
    // runnable. Input completeness is derived from EventStore::close() (or
    // mark via splitter). Callers must not mix step() with the blocking
    // run(), which drives it itself.
    StepProgress step();

    // Ingest credit (DESIGN.md §9), as SeqStepper::processed() defines it.
    event::Seq processed() const { return splitter_.processed(); }

    // Reclaim floor (DESIGN.md §6), as Splitter::low_watermark() defines it:
    // no later step() reads the store below it, so a caller may free there
    // between steps.
    event::Seq low_watermark() const { return splitter_.low_watermark(); }

    // Scheduler observability (current totals; valid during and after a
    // run).
    SchedStats sched_stats() const;

    // Live splitter metrics (same caveats as sched_stats: read from the
    // stepping thread, or after the run).
    const SplitterMetrics& splitter_metrics() const noexcept {
        return splitter_.metrics();
    }

    // Metrics plane (DESIGN.md §11/§12): when bound, every step() ends by
    // adding what its SchedStats and SplitterMetrics gained since the last
    // publication to the shard's counters (peaks via set_peak), and records
    // each splitter cycle's duration into splitter_cycle_ns. Runtimes bound
    // to one shard (a sharded session's lanes) therefore sum there, live.
    // The shard must outlive the runtime; nullptr (the default) costs one
    // branch per step.
    void bind_obs(obs::Shard* shard) noexcept { obs_ = shard; }

private:
    // Adds the stats' change since the previous call to obs_.
    void publish_obs();

    const event::EventStore* store_;
    RuntimeConfig config_;
    Splitter splitter_;
    InstanceScheduler sched_;
    SchedStats sched_stats_;
    obs::Shard* obs_ = nullptr;
    // Counter values publish_obs has already added to obs_.
    SchedStats published_sched_;
    SplitterMetrics published_splitter_;
};

}  // namespace spectre::core
