// Window specifications and window assignment.
//
// Three window kinds cover the paper's queries:
//   SlidingCount  — "WITHIN ws EVENTS FROM EVERY s EVENTS"   (Q2, Q3)
//   SlidingTime   — time-based sliding window
//   PredicateOpen — "WITHIN ws EVENTS FROM <pred>": a window opens at every
//                   event satisfying the open predicate (Q1's FROM MLE, QE's
//                   window per A event); extent is a count or a duration.
//
// WindowAssigner enumerates WindowInfo {id, first, last} *incrementally* from
// the events that have arrived so far (DESIGN.md §6): count-extent windows
// are emitted the moment their start event arrives — as in the paper, where
// the splitter opens a window when its start event shows up — while
// time-extent windows are emitted once their end position is determined by
// arrival. assign_windows is the batch wrapper over a complete store. Window
// IDs increase with the start event, which is the total order the dependency
// definition (§3.1) builds on. All kinds produce windows whose end position
// is monotone in their start position; overlapping predecessors of a window
// are therefore a contiguous id range — the dependency tree relies on this
// (DESIGN.md §7).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "event/stream.hpp"
#include "query/predicate.hpp"

namespace spectre::query {

enum class WindowKind { SlidingCount, SlidingTime, PredicateOpen };
enum class ExtentKind { Count, Time };

struct WindowSpec {
    WindowKind kind = WindowKind::SlidingCount;

    // SlidingCount: size/slide in events. PredicateOpen+Count: size in events.
    std::uint64_t size = 0;
    std::uint64_t slide = 0;

    // SlidingTime / PredicateOpen+Time: duration/slide in timestamp units.
    event::Timestamp duration = 0;
    event::Timestamp time_slide = 0;

    Expr open_pred;  // PredicateOpen only
    ExtentKind extent = ExtentKind::Count;

    void validate() const;

    static WindowSpec sliding_count(std::uint64_t size, std::uint64_t slide);
    static WindowSpec sliding_time(event::Timestamp duration, event::Timestamp slide);
    static WindowSpec predicate_open_count(Expr open_pred, std::uint64_t size);
    static WindowSpec predicate_open_time(Expr open_pred, event::Timestamp duration);
};

struct WindowInfo {
    std::uint64_t id = 0;
    event::Seq first = 0;  // inclusive
    event::Seq last = 0;   // inclusive

    std::uint64_t length() const noexcept { return last - first + 1; }
    bool overlaps(const WindowInfo& other) const noexcept {
        return first <= other.last && other.first <= last;
    }
    bool operator==(const WindowInfo&) const = default;
};

// Arrival-driven window enumeration (DESIGN.md §6). The caller polls with the
// store's current frontier; every window whose placement is determined by the
// arrived prefix is appended to `out`, in id order. Timestamps are assumed
// nondecreasing in stream order (DESIGN.md §2).
//
// Count-extent windows are emitted as soon as their start event arrives, with
// `last = first + size - 1` — an *extent bound*, not a promise that the
// stream reaches that far. A window cut short by end-of-stream keeps its
// bound; consumers finish it at the final frontier (the operator instances'
// end-of-stream clamp, the sequential engine's `pos < n` guard). Keeping the
// bound instead of clamping preserves "window ends monotone in starts" even
// when a trailing window is emitted after close (DESIGN.md §5).
//
// Time-extent windows are emitted once their last event is known: the first
// event at/after the closing timestamp arrived, or the stream closed.
class WindowAssigner {
public:
    explicit WindowAssigner(const WindowSpec& spec);

    // Scans arrived events [0, frontier) and appends every newly determined
    // window to `out`; `closed` marks end-of-stream. Returns the number of
    // windows appended. Frontier must be monotone across calls, and once
    // `closed` is passed as true the frontier must be final.
    std::size_t poll(const event::EventStore& store, event::Seq frontier, bool closed,
                     std::vector<WindowInfo>& out);

    // True once the stream closed and every window has been emitted.
    bool exhausted() const noexcept { return exhausted_; }

    // Lowest seq a later poll() can read or start a window at: the next
    // count-window start, the time-window scan position, or the predicate
    // scan / oldest undetermined time-extent start.
    event::Seq low_watermark() const noexcept {
        switch (spec_.kind) {
            case WindowKind::SlidingCount:
                return next_start_;
            case WindowKind::SlidingTime:
                return time_first_;
            case WindowKind::PredicateOpen:
                return pending_starts_.empty() ? scan_
                                               : std::min(scan_, pending_starts_.front());
        }
        return 0;
    }

private:
    WindowSpec spec_;
    std::uint64_t next_id_ = 0;
    bool exhausted_ = false;

    // SlidingCount: next window start position.
    event::Seq next_start_ = 0;

    // SlidingTime: next window start timestamp plus the monotone first/last
    // scan positions of the window currently being determined.
    bool have_origin_ = false;
    event::Timestamp next_start_ts_ = 0;
    event::Seq time_first_ = 0;
    event::Seq time_last_ = 0;
    bool time_last_valid_ = false;

    // PredicateOpen: next position to test the open predicate; time-extent
    // windows whose end is not yet determined wait in pending_starts_.
    event::Seq scan_ = 0;
    std::deque<event::Seq> pending_starts_;
    event::Seq pending_last_ = 0;
    bool pending_last_valid_ = false;
};

// Batch wrapper: materializes all windows over a complete store, in id order.
// Trailing windows are clamped to the end of the store (partial windows are
// still processed, as in the paper's streaming setting where the stream
// simply ends).
std::vector<WindowInfo> assign_windows(const event::EventStore& store, const WindowSpec& spec);

}  // namespace spectre::query
