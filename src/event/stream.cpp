#include "event/stream.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace spectre::event {

VectorStream::VectorStream(std::vector<Event> events) : events_(std::move(events)) {}

std::optional<Event> VectorStream::next() {
    if (pos_ >= events_.size()) return std::nullopt;
    return events_[pos_++];
}

void LiveStream::push(Event e) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        SPECTRE_REQUIRE(!closed_, "push on a closed LiveStream");
        queue_.push_back(e);
    }
    cv_.notify_one();
}

void LiveStream::push_all(const std::vector<Event>& events) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        SPECTRE_REQUIRE(!closed_, "push on a closed LiveStream");
        queue_.insert(queue_.end(), events.begin(), events.end());
    }
    cv_.notify_one();
}

void LiveStream::close() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    cv_.notify_all();
}

std::optional<Event> LiveStream::next() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return std::nullopt;
    Event e = queue_.front();
    queue_.pop_front();
    return e;
}

EventStore::EventStore()
    : chunks_(std::make_unique<std::atomic<Event*>[]>(kMaxChunks)) {}

EventStore::~EventStore() { free_chunks(); }

void EventStore::free_chunks() noexcept {
    if (!chunks_) return;
    const std::size_t n = size_.load(std::memory_order_acquire) + pending_;
    const std::size_t used = (n + kChunkSize - 1) >> kChunkShift;
    for (std::size_t i = released_; i < used; ++i)
        delete[] chunks_[i].load(std::memory_order_relaxed);
}

EventStore::EventStore(EventStore&& other) noexcept
    : chunks_(std::move(other.chunks_)),
      size_(other.size_.load(std::memory_order_relaxed)),
      pending_(other.pending_),
      released_(other.released_),
      closed_(other.closed_.load(std::memory_order_relaxed)) {
    other.chunks_ = std::make_unique<std::atomic<Event*>[]>(kMaxChunks);
    other.size_.store(0, std::memory_order_relaxed);
    other.pending_ = 0;
    other.released_ = 0;
    other.closed_.store(false, std::memory_order_relaxed);
}

EventStore& EventStore::operator=(EventStore&& other) noexcept {
    if (this == &other) return *this;
    free_chunks();
    chunks_ = std::move(other.chunks_);
    size_.store(other.size_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    pending_ = other.pending_;
    released_ = other.released_;
    closed_.store(other.closed_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    other.chunks_ = std::make_unique<std::atomic<Event*>[]>(kMaxChunks);
    other.size_.store(0, std::memory_order_relaxed);
    other.pending_ = 0;
    other.released_ = 0;
    other.closed_.store(false, std::memory_order_relaxed);
    return *this;
}

Event& EventStore::append_slot() {
    SPECTRE_REQUIRE(!closed(), "append on a closed EventStore");
    const std::size_t n = size_.load(std::memory_order_relaxed) + pending_;  // writer-owned
    const std::size_t chunk_index = n >> kChunkShift;
    SPECTRE_REQUIRE(chunk_index < kMaxChunks, "EventStore capacity exceeded");
    Event* chunk = chunks_[chunk_index].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
        chunk = new Event[kChunkSize];
        chunks_[chunk_index].store(chunk, std::memory_order_relaxed);
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

void EventStore::append_all(EventStream& stream) {
    while (auto e = stream.next()) append(*e);
}

std::size_t EventStore::release_chunks_below(Seq seq) noexcept {
    const std::size_t frontier = size_.load(std::memory_order_acquire);
    const std::size_t limit = std::min<std::size_t>(seq, frontier) >> kChunkShift;
    if (limit <= released_) return 0;
    // Resume at the cursor: a per-quantum call costs O(chunks freed), not
    // O(chunks ever appended). Every chunk below the frontier was allocated.
    for (std::size_t i = released_; i < limit; ++i)
        delete[] chunks_[i].exchange(nullptr, std::memory_order_relaxed);
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
    SPECTRE_REQUIRE(parent_of_.empty() || parent_of_.back() < parent_seq,
                    "MappedStore parent seqs must be strictly increasing");
    parent_of_.push_back(parent_seq);
    return store_.append(std::move(e));
}

}  // namespace spectre::event
