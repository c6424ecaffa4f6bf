// Splitter: the coordination thread of SPECTRE (Fig. 2, §3.2).
//
// One maintenance + scheduling cycle (run_cycle, the unit Fig. 10(c)
// measures) performs:
//   (a) maintenance — drain the operator instances' buffered updates and
//       apply them to the dependency tree (attach groups, prune resolved
//       ones, fold statistics into the prediction model), retire finished
//       roots (emitting their buffered complex events in window order),
//       discover windows newly determined by the ingestion frontier, and
//       open them;
//   (b) scheduling — select the top-k window versions by survival
//       probability (Fig. 6) and map them onto the k operator instances
//       without disturbing versions that stay scheduled (Fig. 7).
//
// Ingestion is arrival-driven (DESIGN.md §6): the splitter enumerates windows
// from the events seen so far — a window opens once its start event has
// arrived, exactly as in the paper — and operator instances process only up
// to the store's frontier. On a live stream this self-throttles speculation
// naturally; the lookahead cap remains as the batch-replay guard (DESIGN.md
// §7), and a version-count guard bounds speculative blow-up at 50% completion
// probability.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>

#include "event/consumed_seqs.hpp"
#include "query/window.hpp"
#include "spectre/dependency_tree.hpp"
#include "spectre/operator_instance.hpp"

namespace spectre::core {

struct SplitterConfig {
    int instances = 4;  // k
    // Max live (opened, unretired) windows; 0 = auto: max(natural overlap
    // degree, 2k).
    std::size_t lookahead_windows = 0;
    // Stop opening windows while the tree holds more versions than this.
    std::size_t max_tree_versions = 50'000;
    // Above this many live versions, subtree copies stop multiplying pending
    // branches (DependencyTree::set_collapse_threshold).
    std::size_t collapse_threshold = 4096;
    InstanceConfig instance{};
};

struct SplitterMetrics {
    std::uint64_t cycles = 0;
    std::uint64_t windows_opened = 0;
    std::uint64_t windows_retired = 0;
    std::uint64_t groups_created = 0;
    std::uint64_t groups_completed = 0;
    std::uint64_t groups_abandoned = 0;
    std::uint64_t stats_samples = 0;
    std::uint64_t complex_events = 0;
    std::uint64_t rollbacks = 0;            // instance-detected inconsistencies
    std::uint64_t late_validations = 0;     // caught at root retirement
    std::size_t max_tree_versions = 0;     // Fig. 10(f)
    std::uint64_t versions_dropped = 0;
    std::uint64_t copies_cloned = 0;   // subtree copies that kept progress
    std::uint64_t copies_fresh = 0;    // subtree copies restarted
    std::uint64_t updates_applied = 0; // instance updates drained and applied
    // Window positions processed on versions later dropped (dead speculation
    // cancelled lazily by the scheduler; mirrors TreeStats::wasted_events).
    std::uint64_t speculation_wasted_events = 0;
};

class Splitter {
public:
    // `model` is the completion-probability predictor (Markov or fixed);
    // ownership is shared with nobody — the splitter drives observe/refresh.
    Splitter(const event::EventStore* store, const detect::CompiledQuery* cq,
             SplitterConfig config, std::unique_ptr<model::CompletionModel> model);

    // One maintenance + scheduling cycle. Returns true while work remains (or
    // may still arrive — on a live store the splitter keeps cycling until the
    // input is complete and every window retired).
    bool run_cycle();

    bool done() const noexcept { return done_; }

    // Dirty predicate for the cooperative scheduler (DESIGN.md §11): true iff
    // a maintenance/scheduling cycle could make progress right now — buffered
    // instance updates to apply, a finished root eligible to retire, an
    // end-of-stream latch to take, arrivals the window discovery has not
    // polled yet, or discovered windows with open capacity. When it returns
    // false, a cycle would be a no-op walk: the step scheduler skips it and
    // runs ready instances instead.
    bool needs_cycle() const;

    // Declares the store's current contents to be the whole input. Batch
    // runtimes call this before their first cycle (the store was materialized
    // up front); on a live stream it is implied by EventStore::close().
    void mark_input_complete() noexcept {
        input_complete_.store(true, std::memory_order_release);
    }

    // SeqStepper::processed()'s definition (DESIGN.md §9): the first seq of
    // the oldest fully-arrived window not retired — the front root, else the
    // first one not opened — or else the frontier the last poll saw.
    event::Seq processed() const;

    // The §6 reclaim floor at k > 0: the lowest seq a later cycle or instance
    // batch can read — the minimum of the assigner's scan position, the
    // frontier the last poll saw, and the first seq of the front root's
    // window (else of the first window not opened). Windows open in start
    // order and retire in order, and clones and rollbacks re-read only inside
    // live windows, so nothing below it is read again. Monotone; 0 before the
    // first poll.
    event::Seq low_watermark() const;

    // The k operator instances (stable addresses; workers index into this).
    std::vector<std::unique_ptr<OperatorInstance>>& instances() noexcept {
        return instances_;
    }
    UpdateQueue& updates() noexcept { return updates_; }

    // Streaming egress (DESIGN.md §8): complex events are handed to `sink` as
    // their windows retire, in window order — the same order the collect-all
    // vector records. Install before the first run_cycle(); with a sink set,
    // output()/take_output() stay empty (the vector is the default sink).
    void set_result_sink(event::ResultSink sink) { sink_ = std::move(sink); }

    // Complex events emitted so far, in window order (identical to the
    // sequential engine's output). Only populated without a result sink.
    const std::vector<event::ComplexEvent>& output() const noexcept { return output_; }
    std::vector<event::ComplexEvent> take_output() { return std::move(output_); }

    const SplitterMetrics& metrics() const noexcept { return metrics_; }
    const DependencyTree& tree() const noexcept { return tree_; }
    const model::CompletionModel& model() const noexcept { return *model_; }

private:
    void apply_updates();
    void retire_finished_roots();
    void discover_windows();
    void open_windows();
    void schedule();
    std::size_t effective_lookahead() const;
    // The oldest window not retired: the front root's, else the first one
    // not opened; nullptr when neither exists.
    const query::WindowInfo* oldest_window() const;
    // State-preserving copy of `src` for the dependency tree's subtree
    // copies; nullptr when cloning is not possible right now.
    WvPtr make_clone(const query::WindowInfo& w, std::vector<CgPtr> suppressed,
                     const WindowVersion& src,
                     std::unordered_map<std::uint64_t, CgPtr>& cg_map, bool allow_pending);

    const event::EventStore* store_;
    const detect::CompiledQuery* cq_;
    const SplitterConfig config_;
    std::unique_ptr<model::CompletionModel> model_;

    // True once no further events will arrive (store closed, or a batch
    // runtime declared the materialized store complete). Operator instances
    // read this through a pointer to clamp trailing windows at end-of-stream.
    std::atomic<bool> input_complete_{false};
    query::WindowAssigner assigner_;
    // Windows the arrivals determined that are not opened yet, in id order;
    // open_windows() erases them as it opens them.
    std::vector<query::WindowInfo> windows_;
    query::WindowInfo last_discovered_{};  // monotonicity check across polls
    std::size_t live_windows_ = 0;  // opened, not yet retired
    // (frontier, completeness) the last discovery poll saw; needs_cycle()
    // compares against the store so steady-state steps skip the cycle.
    event::Seq last_polled_frontier_ = UINT64_MAX;
    bool last_polled_complete_ = false;
    // Consumed events from validated retirements that may fall into windows
    // not yet opened; its floor follows the next window to open.
    event::ConsumedSeqs consumed_tail_;

    DependencyTree tree_;
    UpdateQueue updates_;
    std::vector<std::unique_ptr<OperatorInstance>> instances_;
    std::vector<event::ComplexEvent> output_;
    event::ResultSink sink_;  // empty = collect into output_
    std::uint64_t next_version_id_ = 1;
    // Clone-side consumption-group ids live far above the instance-striped
    // ranges (operator instances stripe below 2^20 per instance).
    std::uint64_t next_clone_cg_id_ = 1ull << 40;
    bool done_ = false;
    SplitterMetrics metrics_;
};

}  // namespace spectre::core
