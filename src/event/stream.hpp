// The event store: the one way into an engine.
//
// Every producer — a server session's reactor, a hub publisher, a bench or
// test loop — appends to an EventStore, and the engines read it: batch run()
// over a store that already holds the whole input, or cooperative step() /
// SeqStepper::drain() over one that is still growing. The engines address
// events through the store: windows are ranges over it, operator instances
// address events by position, and the consumption bookkeeping addresses them
// by seq — the shared-memory layout sketched in Fig. 2 ("events / windows"
// both live in shared memory).
//
// The store is an ingestion *frontier*, not a finished batch: one writer
// appends while detection is already running. Engines read `size()` (the
// frontier) to learn how far the stream has arrived and `closed()` to learn
// that it ended; events below the frontier are immutable and their addresses
// are stable until reclaimed. Two paths free whole chunks behind the readers:
// a server session's store through event::ChunkPins (every reader one pin —
// a standalone session's private store has one, a published stream's one
// per subscriber), and a PARTITION BY key lane's MappedStore behind its
// lane's watermark. The guarantee holds for the unreclaimed suffix. Batch
// replay is just the special case where the whole stream is appended before
// the engines start.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "event/event.hpp"

namespace spectre::event {

class EventStore;

// Read-only view of a contiguous seq range [first, last] of a store. Unlike a
// span, it stays valid across concurrent append() — elements are addressed
// through the store's chunk directory, never through a raw array.
class EventRange {
public:
    EventRange(const EventStore* store, Seq first, std::size_t count)
        : store_(store), first_(first), count_(count) {}

    std::size_t size() const noexcept { return count_; }
    bool empty() const noexcept { return count_ == 0; }
    const Event& operator[](std::size_t i) const;
    const Event& front() const { return (*this)[0]; }
    const Event& back() const { return (*this)[count_ - 1]; }

    class iterator {
    public:
        using value_type = Event;
        using reference = const Event&;
        using difference_type = std::ptrdiff_t;

        iterator(const EventRange* range, std::size_t i) : range_(range), i_(i) {}
        reference operator*() const { return (*range_)[i_]; }
        iterator& operator++() {
            ++i_;
            return *this;
        }
        bool operator==(const iterator& o) const { return i_ == o.i_; }
        bool operator!=(const iterator& o) const { return i_ != o.i_; }

    private:
        const EventRange* range_;
        std::size_t i_;
    };

    iterator begin() const { return iterator(this, 0); }
    iterator end() const { return iterator(this, count_); }

private:
    const EventStore* store_;
    Seq first_;
    std::size_t count_;
};

// Append-only store of the operator's in-order input; written by exactly one
// ingestion thread and read concurrently by the splitter and all operator
// instances. Position in the store == index; Event::seq is assigned densely
// on append, so store[e.seq] == e.
//
// Storage is a two-level directory of fixed-size chunks (DESIGN.md §6): an
// inline top array of kMaxPages page pointers, each page an array of
// kPageSize chunk pointers, each chunk kChunkSize events. The writer
// allocates a page and a chunk when the first event lands in it, so an empty
// store owns only its 2 KiB top array and a one-event store one 4 KiB page
// plus one 7 KiB chunk (~13 KiB). The top array is a ring: page p lives in
// slot p mod kMaxPages, and the writer reuses a slot once the releaser has
// freed the page that held it, so the kMaxChunks cap bounds the live span
// (oldest unreleased chunk to frontier), not the stream's length.
//
// Concurrency contract (single writer, many readers, no locks):
//   * append() never moves an already-published event, so `&at(seq)` is
//     stable until release_chunks_below() passes it;
//   * `size()` is the atomic arrival frontier, published with release
//     ordering after the page pointer, the chunk pointer and the event bytes
//     are written: a reader that observes size() > seq may freely read
//     at(seq)/range() up to that frontier;
//   * `close()` publishes end-of-stream; once a reader observes closed(),
//     the next size() it reads is the stream's final length.
class EventStore {
public:
    // 128-event chunks (7 KiB: a PARTITION BY key lane's store costs one,
    // and a freed chunk is recycled by the next allocation), 512 chunk
    // pointers per 4 KiB directory page, 256 pages in the ring: a store's
    // live span holds up to kMaxChunks * kChunkSize (~16.7M) events — loud
    // (SPECTRE_REQUIRE) when a reader lags that far behind the writer.
    static constexpr std::size_t kChunkShift = 7;
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
    static constexpr std::size_t kPageShift = 9;
    static constexpr std::size_t kPageSize = std::size_t{1} << kPageShift;
    static constexpr std::size_t kMaxPages = 256;
    static constexpr std::size_t kMaxChunks = kMaxPages * kPageSize;

    EventStore() = default;
    ~EventStore();

    EventStore(EventStore&& other) noexcept;
    EventStore& operator=(EventStore&& other) noexcept;
    EventStore(const EventStore&) = delete;
    EventStore& operator=(const EventStore&) = delete;

    // Appends, overwriting `e.seq` with the store position. Returns the seq.
    // Writer-side only; must not be called after close().
    Seq append(Event e);

    // In-place append for the scatter-decode ingest path (DESIGN.md §14):
    // returns the next slot with `seq` pre-assigned and the other fields
    // default-initialized; the caller fills it and later calls
    // publish_appends() to release-publish every slot taken since the last
    // publish in one frontier store. Until then readers cannot see the
    // pending slots — size() still returns the published frontier. Writer-
    // side only; must not be called after close(); do not interleave with
    // append() while slots are unpublished.
    Event& append_slot();
    std::size_t pending_appends() const noexcept { return pending_; }
    void publish_appends() noexcept {
        if (pending_ == 0) return;
        size_.store(size_.load(std::memory_order_relaxed) + pending_,
                    std::memory_order_release);
        pending_ = 0;
    }

    // Writer-side: publishes end-of-stream. No append() may follow.
    void close() noexcept { closed_.store(true, std::memory_order_release); }
    bool closed() const noexcept { return closed_.load(std::memory_order_acquire); }

    const Event& at(Seq seq) const;
    // Arrival frontier: number of events published so far.
    std::size_t size() const noexcept { return size_.load(std::memory_order_acquire); }
    bool empty() const noexcept { return size() == 0; }

    // Reclamation behind a reader low watermark (DESIGN.md §6/§15): frees
    // the chunk arrays whose entire seq range lies below min(seq, frontier),
    // and every directory page whose chunks are all freed. Returns the
    // number of chunks freed; resumes from the previous call's cursor, so
    // the cost is O(chunks freed). Caller contract (event::ChunkPins
    // enforces it for every session store, MappedStore::release_below for a
    // key lane's): calls are serialized, and no reader will ever again
    // address a seq below `seq` — the "addresses stable" guarantee narrows
    // to the unreclaimed suffix. The writer only touches the frontier chunk
    // and its page, which are never below the frontier, plus the ring slot
    // of a freed page, which it reuses once this call has nulled it.
    std::size_t release_chunks_below(Seq seq) noexcept;

    // Chunks freed so far (releaser side: the thread that calls
    // release_chunks_below, or any thread once it is quiescent).
    std::size_t released_chunks() const noexcept { return released_; }

    // Test hook: bytes of chunk directory this store owns — the inline top
    // array plus every allocated page. O(KiB) until the live span is long.
    std::size_t directory_bytes() const noexcept;

    // Range [first, last] inclusive; valid across concurrent append().
    EventRange range(Seq first, Seq last) const;

private:
    friend class EventRange;
    struct Page {
        std::atomic<Event*> chunks[kPageSize] = {};
    };

    const Event& slot(Seq seq) const noexcept {
        // Safe after a bounds check against size(): the acquire load of the
        // frontier ordered the page pointer, the chunk pointer and the
        // event bytes.
        const std::size_t chunk = seq >> kChunkShift;
        return pages_[page_slot(chunk)]
            .load(std::memory_order_relaxed)
            ->chunks[chunk & (kPageSize - 1)]
            .load(std::memory_order_relaxed)[seq & (kChunkSize - 1)];
    }
    // The top-array ring slot of the page holding chunk `chunk`.
    static constexpr std::size_t page_slot(std::size_t chunk) noexcept {
        return (chunk >> kPageShift) & (kMaxPages - 1);
    }
    void free_chunks() noexcept;
    void take(EventStore& other) noexcept;

    std::atomic<Page*> pages_[kMaxPages] = {};
    std::atomic<std::size_t> size_{0};
    std::size_t pending_ = 0;  // writer-thread only: slots taken, unpublished
    std::size_t released_ = 0;  // chunks below this index are freed (releaser only)
    std::atomic<bool> closed_{false};
};

inline const Event& EventRange::operator[](std::size_t i) const {
    return store_->slot(first_ + i);
}

// A sub-stream of a larger stream, materialized as its own EventStore with a
// record of where each local event sits in the parent stream. Engines running
// over the sub-store see dense local seqs (append() renumbers); results they
// emit are translated back into parent seqs before leaving the sub-stream —
// the key-partitioned lanes of DESIGN.md §10 are built on this.
//
// Memory follows the lane's engine (DESIGN.md §6/§10): release_below(floor)
// frees the store chunks and drops the parent-seq rows below a floor no
// reader will address again, so a k = 0 lane holds O(window span) however
// long its sub-stream runs.
//
// Concurrency: the wrapped store() keeps the full EventStore single-writer/
// multi-reader contract, but the seq MAPPING is owning-thread only — append,
// release_below and to_parent()/translate() must run on the same thread (a
// §10 lane's shard task does all three).
class MappedStore {
public:
    // Appends `e` (its seq is overwritten with the local position) and
    // records that it is event `parent_seq` of the parent stream.
    Seq append_mapped(Event e, Seq parent_seq);

    void close() noexcept { store_.close(); }
    bool closed() const noexcept { return store_.closed(); }

    EventStore& store() noexcept { return store_; }
    const EventStore& store() const noexcept { return store_; }

    // Parent seq of local event `local` (below the frontier, at or above
    // the last release_below floor).
    Seq to_parent(Seq local) const {
        return parent_of_[static_cast<std::size_t>(local - base_)];
    }

    // Rewrites a vector of local seqs (e.g. ComplexEvent::constituents) into
    // parent seqs in place. Local seqs ascending implies parent seqs
    // ascending — the mapping is strictly monotone by construction.
    void translate(std::vector<Seq>& seqs) const {
        for (auto& s : seqs) s = to_parent(s);
    }

    // Reclamation behind the lane engine's low watermark: frees the store
    // chunks wholly below `local` and drops the mapping rows below it. The
    // caller promises no reader addresses, and no translate() names, a
    // local seq below `local` again. Returns the store chunks freed.
    std::size_t release_below(Seq local);

    // Test hook: mapping rows held (one per unreleased local event).
    std::size_t parent_rows() const noexcept { return parent_of_.size(); }

private:
    EventStore store_;
    std::deque<Seq> parent_of_;  // row i maps local seq base_ + i
    Seq base_ = 0;               // first local seq still mapped
    Seq min_next_parent_ = 0;    // strict monotonicity, kept across releases
};

}  // namespace spectre::event
