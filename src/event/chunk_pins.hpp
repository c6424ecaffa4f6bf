// ChunkPins: refcounted read pins over one EventStore (DESIGN.md §6/§15).
//
// Every server session store frees memory through its pins. A published
// stream's store is written by one publisher session and read by many
// subscriber engines, each at its own pace; a standalone session's private
// store is read by that session alone, through one pin. The store's chunk
// directory makes reclamation natural — a 128-event chunk can be freed once every
// reader has moved past it — but the store itself must stay lock-free on the
// hot paths, so the bookkeeping lives here, in a sidecar beside the store
// (server::StreamEntry):
//
//   * attach() registers a reader cursor at seq 0 (readers always start at
//     the beginning of the stream — late subscribers replay history).
//   * advance(cursor, seq) is the reader's promise that it will never again
//     address any seq below `seq`. It is monotone per cursor; regressions
//     are ignored.
//   * detach(cursor) drops the cursor (the reader is gone).
//
// After every advance/detach the pins reclaim: chunks wholly below the
// minimum over all live cursors (and below the store frontier) are freed via
// EventStore::release_chunks_below. Two deliberate retention rules keep
// late-subscribe replay sound:
//
//   * With zero live cursors nothing is reclaimed — a stream with no
//     subscribers keeps its full history so a late subscriber can attach.
//   * Once any chunk HAS been reclaimed, attach() refuses (returns
//     kInvalidCursor): a reader that cannot start from seq 0 would violate
//     the parity invariant (its RESULT stream must be byte-identical to a
//     standalone run over the whole stream), so the hub turns that into a
//     subscribe-time error instead of silently wrong results.
//
// Thread safety: every method takes the internal mutex; attach/detach run on
// the server reactor, advance on whichever pool worker steps the reader's
// engine. The mutex also serializes release_chunks_below, satisfying the
// store's contract.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "event/stream.hpp"

namespace spectre::event {

class ChunkPins {
public:
    using Cursor = std::size_t;
    static constexpr Cursor kInvalidCursor = static_cast<Cursor>(-1);

    explicit ChunkPins(EventStore* store) : store_(store) {}

    ChunkPins(const ChunkPins&) = delete;
    ChunkPins& operator=(const ChunkPins&) = delete;

    // Registers a reader at seq 0. Returns kInvalidCursor when history has
    // already been reclaimed (the stream can no longer be replayed from the
    // start).
    Cursor attach();

    // Monotonically raises the cursor's low watermark: the reader guarantees
    // it will never again address a seq below `next_needed`. Returns the
    // number of store chunks this call freed (0 when another cursor still
    // pins them).
    std::size_t advance(Cursor cursor, Seq next_needed);

    // Drops the cursor. Returns chunks freed by its departure. With no other
    // live cursor nothing is freed — history is retained for late attachers.
    std::size_t detach(Cursor cursor);

    std::uint64_t chunks_reclaimed() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return chunks_reclaimed_;
    }

private:
    // Frees chunks below the min live watermark; returns chunks freed.
    // Requires mutex_ held and live_ > 0.
    std::size_t reclaim_locked();

    EventStore* store_;
    mutable std::mutex mutex_;
    // Per-cursor low watermark; kDetached marks a released slot (slots are
    // never reused — cursor count is bounded by subscriber churn per stream).
    static constexpr Seq kDetached = static_cast<Seq>(-1);
    std::vector<Seq> next_needed_;
    std::size_t live_ = 0;
    Seq reclaimed_until_ = 0;
    std::uint64_t chunks_reclaimed_ = 0;
};

}  // namespace spectre::event
