// StreamHub: the registry of named published streams (DESIGN.md §15).
//
// One publisher session owns the decoded event stream under a name; any
// number of subscriber sessions attach to that name and run independent
// queries over the SAME chunked EventStore — one decode, one copy of the
// stream bytes, N read frontiers. The hub is the rendezvous point:
//
//   * publish(name)    — claims the name, creates the shared StreamEntry
//                        (store + vocab + chunk pins). Fails on duplicates.
//   * find(name)       — resolves a subscriber's HELLO to the entry.
//   * subscribe/unsubscribe — maintains the entry's reader list so the
//                        publisher's ingest path can wake parked engines.
//   * publisher_gone() — the publisher died or finished. If the stream was
//                        never closed, the entry is poisoned (failed) and the
//                        current subscribers are handed back to the caller to
//                        be failed; a *closed* stream stays findable while
//                        any subscriber is still attached (late subscribers
//                        replay it), and is dropped once the last detaches.
//
// Ownership: entries are shared_ptr — the hub's map, the publisher session
// and every subscriber session hold references, so the store outlives
// whichever side disconnects first. The map slot itself is erased once the
// publisher is gone AND no subscriber remains (the name becomes reusable;
// sessions still holding the old entry are unaffected).
//
// Threading: the hub is reactor-thread-only, like the session map that feeds
// it. Cross-thread traffic goes through the entry's store (single-writer /
// multi-reader) and pins (internally locked), never through the hub.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/stock.hpp"
#include "event/chunk_pins.hpp"
#include "event/stream.hpp"
#include "obs/metrics.hpp"

namespace spectre::server {

class ServerSession;

// One decoded event stream and everything that reads it. The hub holds the
// named (published) entries; a standalone session holds a private, unnamed
// one that never enters the hub and whose only reader is that session.
struct StreamEntry {
    std::string name;
    data::StockVocab vocab;     // per-stream schema interning
    event::EventStore store;    // the one decoded stream
    event::ChunkPins pins{&store};
    std::uint64_t publisher_id = 0;
    bool publisher_live = true;
    bool failed = false;        // publisher died before closing the stream
    std::string fail_reason;
    // Sessions whose engines step `store`: the attached subscribers of a
    // published stream, or the standalone session itself. Every frontier
    // publish and the close wake each of them.
    std::vector<ServerSession*> readers;
};

// Creates an entry with a fresh schema and vocab: the hub's published
// streams and every standalone session's private stream come from here.
std::shared_ptr<StreamEntry> make_stream_entry(std::string name);

class StreamHub {
public:
    using EntryPtr = std::shared_ptr<StreamEntry>;

    // Observability scope for the hub gauges/counters (may stay null).
    void bind_obs(obs::Shard* shard) noexcept { shard_ = shard; }

    // Claims `name` for publisher session `publisher_id`; returns null when
    // the name is already published (live or still drained by subscribers).
    EntryPtr publish(const std::string& name, std::uint64_t publisher_id);

    // Resolves a stream name; null when unknown.
    EntryPtr find(const std::string& name) const;

    void subscribe(const EntryPtr& entry, ServerSession* session);
    void unsubscribe(const EntryPtr& entry, ServerSession* session);

    // Marks the publisher as gone. If the store was never closed the entry is
    // poisoned and the subscribers that must be failed are returned (the
    // caller owns delivering the error — the hub never calls into sessions).
    // A cleanly closed stream keeps its entry until the last subscriber
    // detaches.
    std::vector<ServerSession*> publisher_gone(const EntryPtr& entry);

private:
    void maybe_erase(const EntryPtr& entry);

    std::map<std::string, EntryPtr> streams_;
    obs::Shard* shard_ = nullptr;
};

}  // namespace spectre::server
