#include <gtest/gtest.h>

#include "model/fixed_model.hpp"
#include "model/markov_model.hpp"

using namespace spectre::model;

TEST(StateMap, IdentityWhenDeltaFitsStateCount) {
    StateMap m(5, 64);
    EXPECT_EQ(m.states(), 6);
    for (int d = 0; d <= 5; ++d) EXPECT_EQ(m.state_of(d), d);
    EXPECT_EQ(m.state_of(99), 5);   // clamped
    EXPECT_EQ(m.state_of(-3), 0);
}

TEST(StateMap, BucketsLargeDeltaMonotonically) {
    StateMap m(2560, 64);
    EXPECT_EQ(m.states(), 64);
    EXPECT_EQ(m.state_of(0), 0);
    EXPECT_GE(m.state_of(1), 1);  // any positive delta stays out of "done"
    EXPECT_EQ(m.state_of(2560), 63);
    int prev = 0;
    for (int d = 0; d <= 2560; d += 40) {
        const int s = m.state_of(d);
        EXPECT_GE(s, prev);
        prev = s;
    }
}

TEST(TransitionStats, EstimateIsRowStochasticWithSelfLoopFallback) {
    StateMap map(3, 64);
    TransitionStats stats(map);
    stats.observe(3, 2);
    stats.observe(3, 2);
    stats.observe(3, 3);
    const auto t = stats.estimate();
    EXPECT_TRUE(t.is_row_stochastic());
    EXPECT_NEAR(t(3, 2), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(t(3, 3), 1.0 / 3.0, 1e-12);
    // Unobserved rows self-loop.
    EXPECT_DOUBLE_EQ(t(2, 2), 1.0);
    EXPECT_EQ(stats.samples(), 3u);
}

TEST(TransitionStats, ObserveAndResetAccumulate) {
    StateMap map(2, 64);
    TransitionStats a(map);
    a.observe(2, 1);
    a.observe(2, 2);
    EXPECT_EQ(a.samples(), 2u);
    const auto t = a.estimate();
    EXPECT_NEAR(t(2, 1), 0.5, 1e-12);
    a.reset();
    EXPECT_EQ(a.samples(), 0u);
}

TEST(FixedModel, ConstantEverywhere) {
    FixedModel m(0.3);
    EXPECT_DOUBLE_EQ(m.completion_probability(1, 10), 0.3);
    EXPECT_DOUBLE_EQ(m.completion_probability(100, 1), 0.3);
    EXPECT_THROW(FixedModel(1.5), std::invalid_argument);
}

TEST(MarkovModel, PriorPredictsReasonablyBeforeStatistics) {
    MarkovParams p;
    p.initial_advance_prob = 0.5;
    MarkovModel m(3, p);
    // With plenty of events left the prior chain should nearly always finish.
    EXPECT_GT(m.completion_probability(3, 1000), 0.95);
    // With zero/one event left a 3-step pattern can't plausibly complete.
    EXPECT_LT(m.completion_probability(3, 1), 0.2);
    // Completed matches are certain.
    EXPECT_DOUBLE_EQ(m.completion_probability(0, 0), 1.0);
}

TEST(MarkovModel, LearnsAlwaysAdvanceChain) {
    MarkovParams p;
    p.refresh_every = 10;
    MarkovModel m(3, p);
    for (int i = 0; i < 100; ++i) {
        m.observe(3, 2);
        m.observe(2, 1);
        m.observe(1, 0);
    }
    m.refresh();
    // Deterministic advancement: completing within >=3 events is certain.
    EXPECT_NEAR(m.completion_probability(3, 30), 1.0, 1e-6);
}

TEST(MarkovModel, LearnsNeverAdvanceChain) {
    MarkovParams p;
    p.refresh_every = 10;
    MarkovModel m(3, p);
    for (int i = 0; i < 100; ++i) {
        m.observe(3, 3);
        m.observe(2, 2);
    }
    m.refresh();
    EXPECT_NEAR(m.completion_probability(3, 1000), 0.0, 1e-9);
}

TEST(MarkovModel, FastPathMatchesMatrixPowerReference) {
    MarkovParams p;
    p.refresh_every = 50;
    p.step = 10;
    MarkovModel m(8, p);
    // Noisy but biased statistics.
    for (int i = 0; i < 200; ++i) {
        for (int d = 8; d >= 1; --d) {
            m.observe(d, (i % 3 == 0) ? d : d - 1);
        }
    }
    m.refresh();
    for (const int delta : {1, 3, 5, 8}) {
        for (const std::uint64_t n : {10ull, 50ull, 200ull}) {
            // n multiples of the step size: table lookup must equal the
            // explicit matrix power exactly (no interpolation involved).
            EXPECT_NEAR(m.completion_probability(delta, n), m.reference_probability(delta, n),
                        1e-9)
                << "delta=" << delta << " n=" << n;
        }
    }
}

TEST(MarkovModel, InterpolationBetweenStepsIsLinear) {
    MarkovParams p;
    p.step = 10;
    MarkovModel m(4, p);
    const double p10 = m.completion_probability(4, 10);
    const double p20 = m.completion_probability(4, 20);
    const double p14 = m.completion_probability(4, 14);
    EXPECT_NEAR(p14, 0.6 * p10 + 0.4 * p20, 1e-12);  // Fig. 5 line 6 example
}

TEST(MarkovModel, ZeroEventsLeftClampedToOne) {
    MarkovParams p;
    MarkovModel m(2, p);
    // Fig. 5 lines 3-5: "At least 1 more event expected".
    EXPECT_DOUBLE_EQ(m.completion_probability(2, 0), m.completion_probability(2, 1));
}

TEST(MarkovModel, ExponentialSmoothingBlendsOldAndNew) {
    MarkovParams p;
    p.alpha = 0.5;
    p.refresh_every = 1000000;  // manual refresh only
    MarkovModel m(1, p);
    // First batch: always advance.
    for (int i = 0; i < 100; ++i) m.observe(1, 0);
    m.refresh();
    EXPECT_NEAR(m.transition_matrix()(1, 0), 1.0, 1e-12);
    // Second batch: never advance; alpha=0.5 blends to 0.5.
    for (int i = 0; i < 100; ++i) m.observe(1, 1);
    m.refresh();
    EXPECT_NEAR(m.transition_matrix()(1, 0), 0.5, 1e-12);
    EXPECT_NEAR(m.transition_matrix()(1, 1), 0.5, 1e-12);
}

TEST(MarkovModel, ObservedTransitionsCountAsSamples) {
    MarkovParams p;
    p.refresh_every = 1000000;
    MarkovModel m(2, p);
    for (int i = 0; i < 10; ++i) {
        m.observe(2, 1);
        m.observe(1, 0);
    }
    EXPECT_EQ(m.total_samples(), 20u);
    m.refresh();
    EXPECT_NEAR(m.completion_probability(2, 20), 1.0, 1e-9);
}

TEST(MarkovModel, RejectsBadParameters) {
    MarkovParams bad;
    bad.alpha = 2.0;
    EXPECT_THROW(MarkovModel(3, bad), std::invalid_argument);
    MarkovParams bad2;
    bad2.step = 0;
    EXPECT_THROW(MarkovModel(3, bad2), std::invalid_argument);
}
