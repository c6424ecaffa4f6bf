// The unified metrics plane (DESIGN.md §12): registry/shard semantics the
// whole server observability stack leans on.
//
//   * aggregation rules per kind — counters/gauges sum, peaks max, histograms
//     sum per cell — across live shards and the retained (retired) block;
//   * monotonicity across retire(): a scope's counters must survive its
//     shard, gauges must not (a dead scope has no "current" value);
//   * late registration: a shard only carries cells for series known at its
//     creation — older shards read zero / no-op for newer series;
//   * the log2 bucket map and the quantile estimate built on it;
//   * both expositions (Prometheus text, flat JSON);
//   * a scrape-while-writing smoke (relaxed cells + snapshot mutex — the
//     TSan leg runs this suite).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

using namespace spectre;

namespace {

constexpr obs::Series kCtr{obs::sid::kEventsIngested};
constexpr obs::Series kGauge{obs::sid::kEgressBufferedBytes};
constexpr obs::Series kPeak{obs::sid::kEgressPeakBytes};
constexpr obs::Series kHist{obs::sid::kResultLatencyNs};

}  // namespace

TEST(ObsBuckets, Log2Map) {
    EXPECT_EQ(obs::bucket_of(0), 0u);
    EXPECT_EQ(obs::bucket_of(1), 1u);   // [1,2)
    EXPECT_EQ(obs::bucket_of(2), 2u);   // [2,4)
    EXPECT_EQ(obs::bucket_of(3), 2u);
    EXPECT_EQ(obs::bucket_of(4), 3u);   // [4,8)
    EXPECT_EQ(obs::bucket_of(1023), 10u);
    EXPECT_EQ(obs::bucket_of(1024), 11u);
    // Clamped at the top bucket.
    EXPECT_EQ(obs::bucket_of(~std::uint64_t{0}), obs::kHistBuckets - 1);
}

TEST(ObsRegistry, CountersSumAcrossShards) {
    obs::Registry reg;
    const auto a = reg.make_shard();
    const auto b = reg.make_shard();
    a->add(kCtr, 3);
    b->add(kCtr, 4);
    EXPECT_EQ(reg.snapshot().value(kCtr), 7u);
    // Per-shard view sees only its own cells.
    EXPECT_EQ(reg.snapshot_of(*a).value(kCtr), 3u);
}

TEST(ObsRegistry, RetireKeepsCountersDropsGauges) {
    obs::Registry reg;
    const auto a = reg.make_shard();
    a->add(kCtr, 10);
    a->set(kGauge, 512);
    a->set_peak(kPeak, 512);
    EXPECT_EQ(reg.snapshot().value(kGauge), 512u);

    reg.retire(a);
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.value(kCtr), 10u) << "counters must be monotone across retire";
    EXPECT_EQ(snap.value(kGauge), 0u) << "a retired scope has no current value";
    EXPECT_EQ(snap.value(kPeak), 512u) << "peaks fold with max";
}

TEST(ObsRegistry, PeakFoldsWithMaxNotSum) {
    obs::Registry reg;
    const auto a = reg.make_shard();
    const auto b = reg.make_shard();
    a->set_peak(kPeak, 100);
    b->set_peak(kPeak, 70);
    EXPECT_EQ(reg.snapshot().value(kPeak), 100u);
    reg.retire(a);
    reg.retire(b);
    EXPECT_EQ(reg.snapshot().value(kPeak), 100u);
    // A later, lower peak cannot shrink the fold.
    const auto c = reg.make_shard();
    c->set_peak(kPeak, 30);
    EXPECT_EQ(reg.snapshot().value(kPeak), 100u);
}

TEST(ObsRegistry, HistogramAggregatesAndFolds) {
    obs::Registry reg;
    const auto a = reg.make_shard();
    const auto b = reg.make_shard();
    a->observe(kHist, 5);
    a->observe(kHist, 100);
    b->observe(kHist, 7);

    auto snap = reg.snapshot();
    EXPECT_EQ(snap.entries[kHist.index].count, 3u);
    EXPECT_EQ(snap.entries[kHist.index].sum, 112u);

    reg.retire(a);
    snap = reg.snapshot();
    EXPECT_EQ(snap.entries[kHist.index].count, 3u) << "observations survive retire";
    EXPECT_EQ(snap.entries[kHist.index].sum, 112u);
}

TEST(ObsRegistry, QuantileUpperBoundsTheBucket) {
    obs::Registry reg;
    const auto s = reg.make_shard();
    for (int i = 0; i < 99; ++i) s->observe(kHist, 3);  // bucket [2,4)
    s->observe(kHist, 1000);                            // bucket [512,1024)
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.quantile(kHist, 0.50), 3u);  // upper bound of [2,4) is 2^2-1
    EXPECT_EQ(snap.quantile(kHist, 0.999), 1023u);
    EXPECT_EQ(snap.quantile(kGauge, 0.50), 0u) << "empty series quantile is 0";
}

TEST(ObsRegistry, LateRegisteredSeriesInvisibleToOlderShards) {
    obs::Registry reg;
    const auto old_shard = reg.make_shard();
    const auto late = reg.add("custom_counter", obs::Kind::Counter);
    old_shard->add(late, 5);  // must be a silent no-op, not a stomp
    EXPECT_EQ(reg.snapshot().value(late), 0u);
    EXPECT_EQ(reg.snapshot().value(kCtr), 0u) << "no neighbor cell was written";

    const auto fresh = reg.make_shard();
    fresh->add(late, 5);
    EXPECT_EQ(reg.snapshot().value(late), 5u);
}

TEST(ObsRegistry, AddIsIdempotentByName) {
    obs::Registry reg;
    const auto a = reg.add("lane_depth_peak{shard=\"0\"}", obs::Kind::PeakGauge);
    const auto b = reg.add("lane_depth_peak{shard=\"0\"}", obs::Kind::PeakGauge);
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(reg.series_count(), static_cast<std::size_t>(obs::sid::kCount) + 1);
}

TEST(ObsExposition, PrometheusCarriesTypesBucketsAndLabels) {
    obs::Registry reg;
    const auto lane = reg.add("lane_depth_peak{shard=\"2\"}", obs::Kind::PeakGauge);
    const auto s = reg.make_shard();
    s->add(kCtr, 42);
    s->set_peak(lane, 9);
    s->observe(kHist, 5);

    const std::string text = reg.prometheus();
    EXPECT_NE(text.find("# TYPE spectre_events_ingested counter"), std::string::npos);
    EXPECT_NE(text.find("spectre_events_ingested 42"), std::string::npos);
    // The {label} suffix splits into a real Prometheus label set.
    EXPECT_NE(text.find("spectre_lane_depth_peak{shard=\"2\"} 9"), std::string::npos);
    // Histogram exposition: cumulative buckets, +Inf, _sum, _count.
    EXPECT_NE(text.find("spectre_result_latency_ns_bucket{le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("spectre_result_latency_ns_sum 5"), std::string::npos);
    EXPECT_NE(text.find("spectre_result_latency_ns_count 1"), std::string::npos);
}

TEST(ObsExposition, JsonIsFlatWithHistogramSummaries) {
    obs::Registry reg;
    const auto s = reg.make_shard();
    s->add(kCtr, 7);
    s->observe(kHist, 3);
    const std::string j = obs::Registry::json(reg.snapshot());
    EXPECT_EQ(j.front(), '{');
    EXPECT_EQ(j.back(), '}');
    EXPECT_NE(j.find("\"events_ingested\":7"), std::string::npos);
    EXPECT_NE(j.find("\"count\":1"), std::string::npos);
    EXPECT_NE(j.find("\"p50\":3"), std::string::npos);
}

// Scrape-while-writing: writers hammer relaxed cells while a reader snapshots
// and a churn thread retires/creates scopes. Torn-read tolerance means no
// exact mid-flight assertion — the invariants are "no crash/race (TSan)" and
// "final counts exact once writers join".
TEST(ObsConcurrency, ScrapeWhileWritingAndRetiring) {
    obs::Registry reg;
    constexpr int kWriters = 4;
    constexpr std::uint64_t kPerWriter = 20'000;

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&reg] {
            const auto shard = reg.make_shard();
            for (std::uint64_t i = 0; i < kPerWriter; ++i) {
                shard->add(kCtr, 1);
                shard->observe(kHist, i & 1023);
                shard->set_peak(kPeak, i);
            }
            reg.retire(shard);
        });

    std::atomic<bool> done{false};
    std::thread scraper([&reg, &done] {
        std::uint64_t last = 0;
        while (!done.load(std::memory_order_acquire)) {
            const auto snap = reg.snapshot();
            const auto now = snap.value(kCtr);
            EXPECT_GE(now, last) << "counter went backwards between scrapes";
            last = now;
            (void)obs::Registry::prometheus(snap);
        }
    });

    for (auto& t : writers) t.join();
    done.store(true, std::memory_order_release);
    scraper.join();

    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.value(kCtr), kWriters * kPerWriter);
    EXPECT_EQ(snap.entries[kHist.index].count, kWriters * kPerWriter);
    EXPECT_EQ(snap.value(kPeak), kPerWriter - 1);
}
