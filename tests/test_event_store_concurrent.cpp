// Concurrency contract of the chunked EventStore (DESIGN.md §6): one writer
// appends while many readers follow the frontier; published events are
// immutable with stable addresses; the closed flag hands the final length to
// readers. The stress tests are written to be clean under ThreadSanitizer
// (configure with -DSPECTRE_TSAN=ON): readers only touch seqs below an
// acquired frontier, so any racy access is a real bug, not test noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "event/stream.hpp"
#include "test_helpers.hpp"

using namespace spectre;
using spectre::testing::TestEnv;

TEST(EventStoreChunks, AddressesStableAcrossChunkBoundaries) {
    TestEnv env;
    event::EventStore store;
    const std::size_t n = event::EventStore::kChunkSize * 2 + 17;

    store.append(env.ev('A', 0.0, 0));
    const event::Event* first = &store.at(0);
    for (std::size_t i = 1; i < n; ++i)
        store.append(env.ev('A', static_cast<double>(i), static_cast<event::Timestamp>(i)));

    // No reallocation ever moves a published event.
    EXPECT_EQ(first, &store.at(0));
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(store.at(i).seq, i);
        EXPECT_EQ(store.at(i).ts, static_cast<event::Timestamp>(i));
    }
    EXPECT_EQ(store.size(), n);
}

TEST(EventStoreChunks, RangeSpansChunkBoundary) {
    TestEnv env;
    event::EventStore store;
    const std::size_t n = event::EventStore::kChunkSize + 10;
    for (std::size_t i = 0; i < n; ++i)
        store.append(env.ev('A', static_cast<double>(i), static_cast<event::Timestamp>(i)));

    const auto r = store.range(event::EventStore::kChunkSize - 5,
                               event::EventStore::kChunkSize + 4);
    ASSERT_EQ(r.size(), 10u);
    std::size_t i = 0;
    for (const auto& e : r) {
        EXPECT_EQ(e.seq, event::EventStore::kChunkSize - 5 + i);
        ++i;
    }
    EXPECT_EQ(r.front().seq, event::EventStore::kChunkSize - 5);
    EXPECT_EQ(r.back().seq, event::EventStore::kChunkSize + 4);
}

TEST(EventStoreChunks, CloseRejectsFurtherAppends) {
    TestEnv env;
    event::EventStore store;
    store.append(env.ev('A', 1, 0));
    EXPECT_FALSE(store.closed());
    store.close();
    EXPECT_TRUE(store.closed());
    EXPECT_THROW(store.append(env.ev('B', 2, 1)), std::invalid_argument);
    EXPECT_EQ(store.size(), 1u);
}

TEST(EventStoreChunks, MoveTransfersContentsAndLeavesSourceEmpty) {
    TestEnv env;
    event::EventStore a;
    for (int i = 0; i < 5; ++i)
        a.append(env.ev('A', static_cast<double>(i), static_cast<event::Timestamp>(i)));
    a.close();

    event::EventStore b = std::move(a);
    EXPECT_EQ(b.size(), 5u);
    EXPECT_TRUE(b.closed());
    EXPECT_EQ(b.at(3).ts, 3);
    EXPECT_EQ(a.size(), 0u);
    EXPECT_FALSE(a.closed());
    a.append(env.ev('B', 0, 0));  // moved-from store is reusable
    EXPECT_EQ(a.size(), 1u);
}

// ---------------------------------------------------------------------------
// Directory geometry: chunks hang off 4 KiB directory pages the writer
// allocates on demand; a page boundary every kPageEvents events.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kChunk = event::EventStore::kChunkSize;
constexpr std::size_t kPageEvents = event::EventStore::kPageSize * kChunk;
constexpr std::size_t kTopBytes =
    event::EventStore::kMaxPages * sizeof(std::atomic<event::Event*>);
constexpr std::size_t kPageBytes = event::EventStore::kPageSize * sizeof(std::atomic<event::Event*>);

void append_n(event::EventStore& store, std::size_t n) {
    for (std::size_t i = store.size(); n > 0; ++i, --n) {
        event::Event e;
        e.ts = static_cast<event::Timestamp>(i);
        store.append(e);
    }
}

}  // namespace

TEST(EventStoreDirectory, AppendAtAndRangeAcrossAPageBoundary) {
    event::EventStore store;
    append_n(store, kPageEvents + 10);
    EXPECT_EQ(store.directory_bytes(), kTopBytes + 2 * kPageBytes);
    for (std::size_t i = kPageEvents - kChunk - 3; i < store.size(); ++i) {
        ASSERT_EQ(store.at(i).seq, i);
        ASSERT_EQ(store.at(i).ts, static_cast<event::Timestamp>(i));
    }
    const auto r = store.range(kPageEvents - 5, kPageEvents + 4);
    ASSERT_EQ(r.size(), 10u);
    std::size_t i = kPageEvents - 5;
    for (const auto& e : r) EXPECT_EQ(e.seq, i++);
    EXPECT_EQ(&r.back(), &store.at(kPageEvents + 4));
}

TEST(EventStoreDirectory, ReleaseAcrossAPageBoundaryFreesThePage) {
    event::EventStore store;
    append_n(store, kPageEvents + 2 * kChunk + 7);
    // Everything but the first page's last chunk: the page stays.
    EXPECT_EQ(store.release_chunks_below(kPageEvents - 1),
              event::EventStore::kPageSize - 1);
    EXPECT_EQ(store.directory_bytes(), kTopBytes + 2 * kPageBytes);
    EXPECT_EQ(store.at(kPageEvents - 1).seq, kPageEvents - 1);
    // Across the boundary: the last chunk of page 0 and the first of page 1;
    // page 0 goes with its last chunk.
    EXPECT_EQ(store.release_chunks_below(kPageEvents + kChunk + 3), 2u);
    EXPECT_EQ(store.released_chunks(), event::EventStore::kPageSize + 1);
    EXPECT_EQ(store.directory_bytes(), kTopBytes + kPageBytes);
    EXPECT_EQ(store.at(kPageEvents + kChunk).seq, kPageEvents + kChunk);
    EXPECT_EQ(store.range(kPageEvents + kChunk, store.size() - 1).size(), kChunk + 7);
    // The writer keeps appending past the freed page.
    append_n(store, kChunk);
    EXPECT_EQ(store.at(store.size() - 1).seq, store.size() - 1);
}

TEST(EventStoreDirectory, EmptyStoreOwnsOnlyKilobytes) {
    event::EventStore store;
    EXPECT_EQ(store.directory_bytes(), kTopBytes);
    EXPECT_LE(store.directory_bytes(), 4u * 1024);
    // The first event brings one page and one chunk, not a whole directory.
    append_n(store, 1);
    EXPECT_EQ(store.directory_bytes(), kTopBytes + kPageBytes);
    EXPECT_LE(store.directory_bytes() + kChunk * sizeof(event::Event), 16u * 1024);
}

// The top array is a ring over live pages: a writer that frees behind itself
// streams past kMaxChunks chunks, the old lifetime cap, in a directory of at
// most two pages, and reads stay correct across the wrap.
TEST(EventStoreDirectory, StreamsPastTheOldLifetimeCapInFlatMemory) {
    constexpr std::size_t kOldCap = event::EventStore::kMaxChunks * kChunk;
    constexpr std::size_t kTotal = kOldCap + 2 * kPageEvents + 7;
    constexpr std::size_t kLag = 3 * kChunk + 5;  // live events kept behind the frontier
    event::EventStore store;
    while (store.size() < kTotal) {
        append_n(store, std::min(kChunk, kTotal - store.size()));
        const std::size_t floor = store.size() - std::min(store.size(), kLag);
        store.release_chunks_below(floor);
        ASSERT_EQ(store.released_chunks(), floor / kChunk) << "size " << store.size();
        ASSERT_LE(store.directory_bytes(), kTopBytes + 2 * kPageBytes) << "size " << store.size();
        std::size_t i = floor;
        for (const auto& e : store.range(floor, store.size() - 1)) {
            ASSERT_EQ(e.seq, i) << "size " << store.size();
            ASSERT_EQ(e.ts, static_cast<event::Timestamp>(i));
            ++i;
        }
        const std::size_t last = store.size() - 1;
        ASSERT_EQ(store.at(floor).ts, static_cast<event::Timestamp>(floor));
        ASSERT_EQ(store.at(last).seq, last);
    }
    EXPECT_EQ(store.size(), kTotal);
    EXPECT_EQ(store.released_chunks(), (kTotal - kLag) / kChunk);
}

TEST(EventStoreDirectory, MovedFromStoreIsEmptyAndCheap) {
    event::EventStore a;
    append_n(a, kChunk + 3);
    const event::Event* addr = &a.at(kChunk);
    event::EventStore b = std::move(a);
    EXPECT_EQ(b.size(), kChunk + 3);
    EXPECT_EQ(&b.at(kChunk), addr);  // chunks change owner, never move
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(a.directory_bytes(), kTopBytes);  // no page, no chunk left behind

    event::EventStore c;
    append_n(c, 2);
    c = std::move(b);  // frees c's own chunk and page, takes b's
    EXPECT_EQ(c.size(), kChunk + 3);
    EXPECT_EQ(b.directory_bytes(), kTopBytes);
    append_n(a, 1);  // the moved-from store is reusable
    EXPECT_EQ(a.at(0).seq, 0u);
}

// A reader chases the writer across a directory page boundary and frees the
// chunks it has passed (it is the store's only reader): the writer allocates
// pages and chunks while the releaser frees older ones. Under TSan every
// access must be ordered by the frontier's release/acquire pair.
TEST(EventStoreConcurrent, ChasingReleaserAcrossAPageBoundary) {
    event::EventStore store;
    constexpr std::size_t kTotal = kPageEvents + 3 * kChunk + 11;
    std::atomic<bool> failed{false};
    std::size_t freed = 0;
    std::thread reader([&store, &failed, &freed] {
        std::size_t seen = 0;
        while (seen < kTotal) {
            const std::size_t frontier = store.size();
            for (std::size_t i = seen; i < frontier; ++i) {
                const auto& e = store.at(i);
                if (e.seq != i || e.ts != static_cast<event::Timestamp>(i)) {
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
            }
            seen = frontier;
            // Keep one event behind: the last one read stays addressable.
            if (seen > 0) freed += store.release_chunks_below(seen - 1);
        }
    });
    append_n(store, kTotal);
    store.close();
    reader.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(freed, (kTotal - 1) / kChunk);
    EXPECT_EQ(store.directory_bytes(), kTopBytes + kPageBytes);
}

// The chasing reader/releaser of the page-boundary case, run past the ring's
// wrap: the writer reuses each top-array slot the releaser has just freed,
// and under TSan that slot hand-off is ordered by the store alone. The
// writer stays within a few pages of the reader, as a session's ingest
// credit keeps it, so the live span never nears the cap.
TEST(EventStoreConcurrent, ChasingReleaserAcrossTheRingWrap) {
    event::EventStore store;
    constexpr std::size_t kTotal =
        event::EventStore::kMaxChunks * kChunk + kPageEvents + 3 * kChunk + 11;
    constexpr std::size_t kMaxLead = 4 * kPageEvents;
    std::atomic<std::size_t> progress{0};
    std::atomic<bool> failed{false};
    std::size_t freed = 0;
    std::thread reader([&] {
        std::size_t seen = 0;
        while (seen < kTotal && !failed.load(std::memory_order_relaxed)) {
            const std::size_t frontier = store.size();
            if (frontier == seen) {
                std::this_thread::yield();
                continue;
            }
            // One frontier read per batch: the reader does not contend for
            // the writer's size_ line on every event.
            std::size_t i = seen;
            for (const auto& e : store.range(seen, frontier - 1)) {
                if (e.seq != i || e.ts != static_cast<event::Timestamp>(i)) {
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
                ++i;
            }
            seen = frontier;
            freed += store.release_chunks_below(seen - 1);
            progress.store(seen, std::memory_order_relaxed);
        }
    });
    std::string writer_error;  // a throwing append must not skip the join
    try {
        for (std::size_t i = 0; i < kTotal && !failed.load(std::memory_order_relaxed);) {
            if (i >= progress.load(std::memory_order_relaxed) + kMaxLead) {
                std::this_thread::yield();
                continue;
            }
            // One publish per chunk, as the scatter-decode ingest path batches.
            for (const std::size_t end = std::min(kTotal, i + kChunk); i < end; ++i)
                store.append_slot().ts = static_cast<event::Timestamp>(i);
            store.publish_appends();
        }
    } catch (const std::exception& e) {
        writer_error = e.what();
        failed.store(true, std::memory_order_relaxed);
    }
    store.close();
    reader.join();
    EXPECT_EQ(writer_error, "");
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(freed, (kTotal - 1) / kChunk);
    EXPECT_EQ(store.directory_bytes(), kTopBytes + kPageBytes);
}

// One writer, several readers chasing the frontier: every event a reader can
// see (seq < size()) must be fully published — seq assigned, payload intact —
// and its address must never change.
TEST(EventStoreConcurrent, WriterWithChasingReaders) {
    TestEnv env;
    event::EventStore store;
    constexpr std::size_t kTotal = 150'000;  // crosses many chunk boundaries
    constexpr int kReaders = 3;

    std::atomic<bool> failed{false};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&store, &failed] {
            std::size_t seen = 0;
            const event::Event* addr0 = nullptr;
            while (seen < kTotal && !failed.load(std::memory_order_relaxed)) {
                const std::size_t frontier = store.size();
                if (frontier == 0) continue;
                if (addr0 == nullptr) addr0 = &store.at(0);
                // Validate the newly visible suffix plus a stable-address probe.
                for (std::size_t i = seen; i < frontier; ++i) {
                    const auto& e = store.at(i);
                    if (e.seq != i || e.ts != static_cast<event::Timestamp>(i) ||
                        e.attr(0) != static_cast<double>(i % 1024)) {
                        failed.store(true, std::memory_order_relaxed);
                        return;
                    }
                }
                if (addr0 != &store.at(0)) {
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
                seen = frontier;
            }
        });
    }

    for (std::size_t i = 0; i < kTotal; ++i)
        store.append(env.ev('A', static_cast<double>(i % 1024),
                            static_cast<event::Timestamp>(i)));
    store.close();

    for (auto& t : readers) t.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(store.size(), kTotal);
}

// Range views taken below the frontier stay valid while the writer appends.
TEST(EventStoreConcurrent, RangesSurviveConcurrentAppend) {
    TestEnv env;
    event::EventStore store;
    constexpr std::size_t kTotal = 60'000;

    std::atomic<bool> failed{false};
    std::thread reader([&store, &failed] {
        while (store.size() < kTotal && !failed.load(std::memory_order_relaxed)) {
            const std::size_t frontier = store.size();
            if (frontier < 100) continue;
            const auto r = store.range(frontier - 100, frontier - 1);
            std::size_t expect = frontier - 100;
            for (const auto& e : r) {
                if (e.seq != expect++) {
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        }
    });

    for (std::size_t i = 0; i < kTotal; ++i)
        store.append(env.ev('A', 0.0, static_cast<event::Timestamp>(i)));
    reader.join();
    EXPECT_FALSE(failed.load());
}

// The closed flag publishes the final length: once a reader observes
// closed(), the very next size() read is the stream's end.
TEST(EventStoreConcurrent, CloseHandsOffFinalSize) {
    TestEnv env;
    for (int rep = 0; rep < 20; ++rep) {
        event::EventStore store;
        constexpr std::size_t kTotal = 5'000;
        std::size_t final_size = 0;
        std::thread reader([&store, &final_size] {
            while (!store.closed()) {
            }
            final_size = store.size();
        });
        for (std::size_t i = 0; i < kTotal; ++i)
            store.append(env.ev('A', 0.0, static_cast<event::Timestamp>(i)));
        store.close();
        reader.join();
        EXPECT_EQ(final_size, kTotal) << "rep=" << rep;
    }
}
