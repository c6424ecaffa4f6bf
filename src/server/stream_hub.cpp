#include "server/stream_hub.hpp"

#include <algorithm>
#include <utility>

#include "event/event.hpp"

namespace spectre::server {

std::shared_ptr<StreamEntry> make_stream_entry(std::string name) {
    auto entry = std::make_shared<StreamEntry>();
    entry->name = std::move(name);
    entry->vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    return entry;
}

StreamHub::EntryPtr StreamHub::publish(const std::string& name,
                                       std::uint64_t publisher_id) {
    if (streams_.contains(name)) return nullptr;
    auto entry = make_stream_entry(name);
    entry->publisher_id = publisher_id;
    streams_.emplace(name, entry);
    if (shard_) shard_->add(obs::Series{obs::sid::kHubStreams}, 1);
    return entry;
}

StreamHub::EntryPtr StreamHub::find(const std::string& name) const {
    const auto it = streams_.find(name);
    return it == streams_.end() ? nullptr : it->second;
}

void StreamHub::subscribe(const EntryPtr& entry, ServerSession* session) {
    entry->readers.push_back(session);
    if (shard_) {
        shard_->add(obs::Series{obs::sid::kHubSubscribers}, 1);
        shard_->add(obs::Series{obs::sid::kHubSubscribersTotal}, 1);
    }
}

void StreamHub::unsubscribe(const EntryPtr& entry, ServerSession* session) {
    auto& subs = entry->readers;
    const auto it = std::find(subs.begin(), subs.end(), session);
    if (it == subs.end()) return;
    subs.erase(it);
    if (shard_) shard_->sub(obs::Series{obs::sid::kHubSubscribers}, 1);
    maybe_erase(entry);
}

std::vector<ServerSession*> StreamHub::publisher_gone(const EntryPtr& entry) {
    entry->publisher_live = false;
    std::vector<ServerSession*> to_fail;
    if (!entry->store.closed()) {
        // The stream ends mid-flight: no subscriber can ever reach a clean
        // end-of-stream, so they must all be failed — and any future
        // subscriber too (failed latch).
        entry->failed = true;
        entry->fail_reason =
            "publisher disconnected before closing stream '" + entry->name + "'";
        to_fail = entry->readers;
    }
    maybe_erase(entry);
    return to_fail;
}

void StreamHub::maybe_erase(const EntryPtr& entry) {
    if (entry->publisher_live || !entry->readers.empty()) return;
    const auto it = streams_.find(entry->name);
    if (it == streams_.end() || it->second != entry) return;
    streams_.erase(it);
    if (shard_) shard_->sub(obs::Series{obs::sid::kHubStreams}, 1);
}

}  // namespace spectre::server
