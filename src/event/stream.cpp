#include "event/stream.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/assert.hpp"

namespace spectre::event {

namespace {

// The message of the REQUIRE that stops the writer at event `n` when the
// ring slot it needs still holds the page kMaxPages behind.
std::string live_span_exceeded(std::size_t n) {
    constexpr std::size_t kPageEvents = EventStore::kPageSize * EventStore::kChunkSize;
    const std::size_t oldest = (n / kPageEvents - EventStore::kMaxPages) * kPageEvents;
    return std::string("EventStore live span exceeded: event ")
        .append(std::to_string(n))
        .append(" needs the directory slot of events [")
        .append(std::to_string(oldest))
        .append(", ")
        .append(std::to_string(oldest + kPageEvents))
        .append("), which are not yet released; a store holds at most ")
        .append(std::to_string(EventStore::kMaxChunks * EventStore::kChunkSize))
        .append(" events between its oldest unreleased chunk and its frontier");
}

}  // namespace

EventStore::~EventStore() { free_chunks(); }

void EventStore::free_chunks() noexcept {
    // Released chunks are nulled and fully released pages freed, so whatever
    // the directory still points to is live.
    for (auto& page_ptr : pages_) {
        Page* page = page_ptr.exchange(nullptr, std::memory_order_relaxed);
        if (page == nullptr) continue;
        for (auto& chunk : page->chunks) delete[] chunk.load(std::memory_order_relaxed);
        delete page;
    }
}

void EventStore::take(EventStore& other) noexcept {
    for (std::size_t p = 0; p < kMaxPages; ++p)
        pages_[p].store(other.pages_[p].exchange(nullptr, std::memory_order_relaxed),
                        std::memory_order_relaxed);
    size_.store(other.size_.exchange(0, std::memory_order_relaxed),
                std::memory_order_relaxed);
    pending_ = std::exchange(other.pending_, 0);
    released_ = std::exchange(other.released_, 0);
    closed_.store(other.closed_.exchange(false, std::memory_order_relaxed),
                  std::memory_order_relaxed);
}

EventStore::EventStore(EventStore&& other) noexcept { take(other); }

EventStore& EventStore::operator=(EventStore&& other) noexcept {
    if (this == &other) return *this;
    free_chunks();
    take(other);
    return *this;
}

std::size_t EventStore::directory_bytes() const noexcept {
    std::size_t bytes = sizeof(pages_);
    for (const auto& page : pages_)
        if (page.load(std::memory_order_relaxed) != nullptr) bytes += sizeof(Page);
    return bytes;
}

Event& EventStore::append_slot() {
    SPECTRE_REQUIRE(!closed(), "append on a closed EventStore");
    const std::size_t n = size_.load(std::memory_order_relaxed) + pending_;  // writer-owned
    const std::size_t chunk_index = n >> kChunkShift;
    const bool new_chunk = (n & (kChunkSize - 1)) == 0;
    std::atomic<Page*>& page_ptr = pages_[page_slot(chunk_index)];
    if (new_chunk && (chunk_index & (kPageSize - 1)) == 0) {
        // First event of a page: its ring slot is free again once the
        // releaser has freed the page kMaxPages behind.
        SPECTRE_REQUIRE(page_ptr.load(std::memory_order_relaxed) == nullptr,
                        live_span_exceeded(n));
        page_ptr.store(new Page{}, std::memory_order_relaxed);
    }
    std::atomic<Event*>& chunk_ptr =
        page_ptr.load(std::memory_order_relaxed)->chunks[chunk_index & (kPageSize - 1)];
    Event* chunk = chunk_ptr.load(std::memory_order_relaxed);
    if (new_chunk) {
        chunk = new Event[kChunkSize];
        chunk_ptr.store(chunk, std::memory_order_relaxed);
    }
    ++pending_;
    Event& slot = chunk[n & (kChunkSize - 1)];
    slot.seq = n;
    return slot;
}

Seq EventStore::append(Event e) {
    Event& slot = append_slot();
    const Seq n = slot.seq;
    e.seq = n;
    slot = e;
    // Release-publish the frontier: readers that acquire size() > n also see
    // the chunk pointer and the event bytes written above.
    publish_appends();
    return n;
}

std::size_t EventStore::release_chunks_below(Seq seq) noexcept {
    const std::size_t frontier = size_.load(std::memory_order_acquire);
    const std::size_t limit = std::min<std::size_t>(seq, frontier) >> kChunkShift;
    if (limit <= released_) return 0;
    // Resume at the cursor: a per-quantum call costs O(chunks freed), not
    // O(chunks ever appended). Every chunk below the frontier was allocated.
    for (std::size_t i = released_; i < limit; ++i) {
        std::atomic<Page*>& page_ptr = pages_[page_slot(i)];
        delete[] page_ptr.load(std::memory_order_relaxed)
            ->chunks[i & (kPageSize - 1)]
            .exchange(nullptr, std::memory_order_relaxed);
        // The page's last chunk just went: the page itself is below the
        // frontier page, so no reader touches it again, and nulling its slot
        // hands the slot to the writer's page kMaxPages ahead.
        if ((i & (kPageSize - 1)) == kPageSize - 1)
            delete page_ptr.exchange(nullptr, std::memory_order_relaxed);
    }
    const std::size_t freed = limit - released_;
    released_ = limit;
    return freed;
}

const Event& EventStore::at(Seq seq) const {
    SPECTRE_REQUIRE(seq < size(), "event seq out of range");
    return slot(seq);
}

EventRange EventStore::range(Seq first, Seq last) const {
    SPECTRE_REQUIRE(first <= last && last < size(), "invalid event range");
    return EventRange(this, first, last - first + 1);
}

Seq MappedStore::append_mapped(Event e, Seq parent_seq) {
    SPECTRE_REQUIRE(parent_seq >= min_next_parent_,
                    "MappedStore parent seqs must be strictly increasing");
    min_next_parent_ = parent_seq + 1;
    parent_of_.push_back(parent_seq);
    return store_.append(std::move(e));
}

std::size_t MappedStore::release_below(Seq local) {
    const Seq floor = std::min<Seq>(local, base_ + parent_of_.size());
    if (floor > base_) {
        parent_of_.erase(parent_of_.begin(),
                         parent_of_.begin() + static_cast<std::ptrdiff_t>(floor - base_));
        base_ = floor;
    }
    return store_.release_chunks_below(local);
}

}  // namespace spectre::event
