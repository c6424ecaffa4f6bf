#include "spectre/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace spectre::core {

SpectreRuntime::SpectreRuntime(const event::EventStore* store,
                               const detect::CompiledQuery* cq, RuntimeConfig config,
                               std::unique_ptr<model::CompletionModel> model)
    : store_(store), config_(config),
      splitter_(store, cq, config.splitter, std::move(model)),
      sched_(static_cast<std::size_t>(config.splitter.instances)) {}

SpectreRuntime::StepProgress SpectreRuntime::step() {
    StepProgress p;
    if (splitter_.done()) {
        p.done = true;
        p.quiescent = true;
        return p;
    }
    ++sched_stats_.steps;
    sched_.check_invariants();
    const std::size_t budget =
        config_.quantum_budget > 0 ? config_.quantum_budget : config_.batch_events;
    bool cycled = false;
    // Ready-instance scheduling loop (DESIGN.md §11): cycle only when the
    // splitter's dirty predicate fires, then drain the ready queue. Exits on
    // budget exhaustion, completion, or a fixed point (quiescence).
    for (;;) {
        if (splitter_.needs_cycle()) {
            const std::uint64_t cycle_t0 = obs_ ? obs::now_ns() : 0;
            splitter_.run_cycle();
            if (cycle_t0 != 0)
                obs_->observe(obs::Series{obs::sid::kSplitterCycleNs},
                              obs::now_ns() - cycle_t0);
            ++sched_stats_.cycles;
            cycled = true;
            if (splitter_.done()) {
                p.done = true;
                p.quiescent = true;
                sched_.retire_all();
                break;
            }
            // Assignments may have moved anywhere (top-k reshuffle, rollback
            // rebuilds): instances with a live version re-enter the queue.
            auto& insts = splitter_.instances();
            sched_.requeue_after_cycle([&](int i) {
                const WvPtr wv = insts[static_cast<std::size_t>(i)]->assignment();
                return wv && !wv->dropped() && !wv->finished();
            });
        }
        sched_.wake_frontier(store_->size());
        const int idx = sched_.pop_ready();
        if (idx < 0) {
            if (splitter_.needs_cycle()) continue;  // batches buffered updates
            p.quiescent = true;  // no ready instance, no cycle work: fixed point
            break;
        }
        auto& inst = *splitter_.instances()[static_cast<std::size_t>(idx)];
        const std::size_t want =
            std::min(config_.batch_events, budget - p.events_processed);
        const auto r = inst.run_batch(want);
        ++sched_stats_.batches;
        sched_stats_.batch_events += r.advanced;
        p.events_processed += r.advanced;
        switch (r.outcome) {
            case BatchResult::Outcome::Progress:
            case BatchResult::Outcome::RolledBack:
                // Mid-window (or restarting from the window start): events
                // below the frontier remain — immediately ready again.
                sched_.mark_ready(idx);
                break;
            case BatchResult::Outcome::Stalled:
                sched_.mark_stalled(idx, r.wait_seq);
                break;
            case BatchResult::Outcome::Finished:
                ++sched_stats_.instances_retired;
                sched_.mark_waiting_assignment(idx);
                break;
            case BatchResult::Outcome::Dropped:
                ++sched_stats_.instances_cancelled;
                sched_.mark_waiting_assignment(idx);
                break;
            case BatchResult::Outcome::NoAssignment:
            case BatchResult::Outcome::Busy:
                sched_.mark_waiting_assignment(idx);
                break;
        }
        if (p.events_processed >= budget) break;  // quantum spent — return
    }
    if (!cycled) ++sched_stats_.cycles_skipped;
    if (obs_) publish_obs();
    return p;
}

SchedStats SpectreRuntime::sched_stats() const {
    SchedStats s = sched_stats_;
    s.ready_depth_max = sched_.ready_max();
    s.ready_depth_p50 = sched_.ready_p50();
    s.speculation_wasted_events = splitter_.metrics().speculation_wasted_events;
    return s;
}

namespace {

template <typename Stats>
using Field = std::pair<std::uint32_t, std::uint64_t Stats::*>;

constexpr Field<SchedStats> kSchedCounters[] = {
    {obs::sid::kSchedSteps, &SchedStats::steps},
    {obs::sid::kSchedCycles, &SchedStats::cycles},
    {obs::sid::kSchedCyclesSkipped, &SchedStats::cycles_skipped},
    {obs::sid::kSchedBatches, &SchedStats::batches},
    {obs::sid::kSchedBatchEvents, &SchedStats::batch_events},
    {obs::sid::kSchedInstancesRetired, &SchedStats::instances_retired},
    {obs::sid::kSchedInstancesCancelled, &SchedStats::instances_cancelled},
};

constexpr Field<SplitterMetrics> kSplitterCounters[] = {
    {obs::sid::kSplitterCycles, &SplitterMetrics::cycles},
    {obs::sid::kWindowsOpened, &SplitterMetrics::windows_opened},
    {obs::sid::kWindowsRetired, &SplitterMetrics::windows_retired},
    {obs::sid::kGroupsCreated, &SplitterMetrics::groups_created},
    {obs::sid::kGroupsCompleted, &SplitterMetrics::groups_completed},
    {obs::sid::kGroupsAbandoned, &SplitterMetrics::groups_abandoned},
    {obs::sid::kRollbacks, &SplitterMetrics::rollbacks},
    {obs::sid::kLateValidations, &SplitterMetrics::late_validations},
    {obs::sid::kVersionsDropped, &SplitterMetrics::versions_dropped},
    {obs::sid::kCopiesCloned, &SplitterMetrics::copies_cloned},
    {obs::sid::kCopiesFresh, &SplitterMetrics::copies_fresh},
    {obs::sid::kUpdatesApplied, &SplitterMetrics::updates_applied},
    {obs::sid::kStatsSamples, &SplitterMetrics::stats_samples},
    {obs::sid::kComplexEvents, &SplitterMetrics::complex_events},
    // SchedStats::speculation_wasted_events is read from here too.
    {obs::sid::kSchedWastedEvents, &SplitterMetrics::speculation_wasted_events},
};

// Adds each counter's growth since `published` to `shard` and catches
// `published` up; unchanged counters cost a compare.
template <typename Stats, std::size_t N>
void publish_deltas(obs::Shard& shard, const Field<Stats> (&fields)[N],
                    const Stats& now, Stats& published) {
    for (const auto& [id, field] : fields) {
        if (now.*field == published.*field) continue;
        shard.add(obs::Series{id}, now.*field - published.*field);
        published.*field = now.*field;
    }
}

}  // namespace

void SpectreRuntime::publish_obs() {
    const SplitterMetrics& m = splitter_.metrics();
    publish_deltas(*obs_, kSchedCounters, sched_stats_, published_sched_);
    publish_deltas(*obs_, kSplitterCounters, m, published_splitter_);
    obs_->set_peak(obs::Series{obs::sid::kSchedReadyDepthMax}, sched_.ready_max());
    obs_->set_peak(obs::Series{obs::sid::kMaxTreeVersions}, m.max_tree_versions);
}

RunResult SpectreRuntime::run() {
    splitter_.mark_input_complete();
    const auto t0 = std::chrono::steady_clock::now();
    while (!step().done) {
    }
    RunResult result;
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    result.output = splitter_.take_output();
    result.metrics = splitter_.metrics();
    for (auto& inst : splitter_.instances()) result.instance_stats.push_back(inst->stats());
    result.throughput_eps =
        result.wall_seconds > 0 ? static_cast<double>(store_->size()) / result.wall_seconds
                                : 0.0;
    result.sched = sched_stats();
    return result;
}

}  // namespace spectre::core
