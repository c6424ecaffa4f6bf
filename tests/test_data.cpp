#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "data/nyse_synth.hpp"
#include "data/rand_stream.hpp"

using namespace spectre;
using namespace spectre::data;

namespace {

StockVocab vocab() { return StockVocab::create(std::make_shared<event::Schema>()); }

}  // namespace

TEST(StockVocab, InternsQuoteVocabularyAndLeaders) {
    const auto v = vocab();
    EXPECT_EQ(v.schema->type_name(v.quote_type), "QUOTE");
    EXPECT_EQ(v.leaders.size(), 16u);
    EXPECT_EQ(v.schema->subject_name(v.leaders[0]), "AAPL");
    EXPECT_NE(v.open_slot, v.close_slot);
}

TEST(NyseSynth, DeterministicForSeed) {
    const auto v = vocab();
    NyseSynthConfig cfg;
    cfg.events = 1000;
    cfg.symbols = 50;
    const auto a = generate_nyse(v, cfg);
    const auto b = generate_nyse(v, cfg);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(NyseSynth, RoundRobinSymbolsOneQuotePerMinute) {
    const auto v = vocab();
    NyseSynthConfig cfg;
    cfg.events = 10;
    cfg.symbols = 5;
    cfg.shuffle_within_minute = false;
    const auto events = generate_nyse(v, cfg);
    ASSERT_EQ(events.size(), 10u);
    EXPECT_EQ(events[0].subject, events[5].subject);
    EXPECT_EQ(events[0].ts, 0);
    EXPECT_EQ(events[5].ts, 1);  // second minute
}

TEST(NyseSynth, ShuffledMinutesStillCoverEverySymbolOncePerMinute) {
    const auto v = vocab();
    NyseSynthConfig cfg;
    cfg.events = 40;
    cfg.symbols = 10;
    const auto events = generate_nyse(v, cfg);  // shuffle on by default
    for (int minute = 0; minute < 4; ++minute) {
        std::set<event::SubjectId> seen;
        for (int i = 0; i < 10; ++i) {
            const auto& e = events[static_cast<std::size_t>(minute * 10 + i)];
            EXPECT_EQ(e.ts, minute);
            seen.insert(e.subject);
        }
        EXPECT_EQ(seen.size(), 10u);  // each symbol exactly once per minute
    }
}

TEST(NyseSynth, UpProbControlsRisingShare) {
    const auto v = vocab();
    NyseSynthConfig cfg;
    cfg.events = 20000;
    cfg.symbols = 100;
    cfg.up_prob = 0.8;
    const auto events = generate_nyse(v, cfg);
    std::size_t rising = 0;
    for (const auto& e : events)
        if (e.attr(v.close_slot) > e.attr(v.open_slot)) ++rising;
    const double share = static_cast<double>(rising) / static_cast<double>(events.size());
    EXPECT_NEAR(share, 0.8, 0.02);
}

TEST(NyseSynth, PricesChainAcrossQuotes) {
    const auto v = vocab();
    NyseSynthConfig cfg;
    cfg.events = 20;
    cfg.symbols = 2;
    cfg.shuffle_within_minute = false;
    const auto events = generate_nyse(v, cfg);
    // Quote i+2 of the same symbol opens at quote i's close.
    EXPECT_DOUBLE_EQ(events[2].attr(v.open_slot), events[0].attr(v.close_slot));
}

TEST(NyseSynth, FlatQuotesAndMeanReversion) {
    const auto v = vocab();
    NyseSynthConfig cfg;
    cfg.events = 10000;
    cfg.symbols = 10;
    cfg.flat_prob = 0.4;
    cfg.mean_reversion = 0.05;
    const auto events = generate_nyse(v, cfg);
    std::size_t flat = 0;
    double max_dev = 0;
    for (const auto& e : events) {
        if (e.attr(v.close_slot) == e.attr(v.open_slot)) ++flat;
        max_dev = std::max(max_dev, std::abs(e.attr(v.close_slot) - cfg.start_price));
    }
    const double share = static_cast<double>(flat) / static_cast<double>(events.size());
    EXPECT_NEAR(share, 0.4, 0.03);
    // Mean reversion keeps prices near the anchor instead of drifting away.
    EXPECT_LT(max_dev, 30.0);
}

TEST(NyseSynth, PricesStayWithinBounds) {
    const auto v = vocab();
    NyseSynthConfig cfg;
    cfg.events = 50000;
    cfg.symbols = 3;
    cfg.up_prob = 0.0;  // relentless decline must clamp at min_price
    cfg.min_price = 5.0;
    const auto events = generate_nyse(v, cfg);
    for (const auto& e : events) EXPECT_GE(e.attr(v.close_slot), cfg.min_price);
}

TEST(RandStream, UniformSymbolDistribution) {
    const auto v = vocab();
    RandStreamConfig cfg;
    cfg.events = 30000;
    cfg.symbols = 30;
    const auto events = generate_rand(v, cfg);
    std::vector<int> counts(300, 0);
    for (const auto& e : events) counts[e.subject] += 1;
    int used = 0;
    for (int c : counts)
        if (c > 0) ++used;
    EXPECT_EQ(used, 30);
    // Each symbol should get roughly events/symbols = 1000 hits.
    for (int s = 0; s < 300; ++s) {
        if (counts[s] > 0) {
            EXPECT_NEAR(counts[s], 1000, 250);
        }
    }
}

TEST(RandStream, DeterministicForSeed) {
    const auto v = vocab();
    RandStreamConfig cfg;
    cfg.events = 500;
    const auto a = generate_rand(v, cfg);
    const auto b = generate_rand(v, cfg);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

