#include "model/markov_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace spectre::model {

namespace {

// Forces state 0 absorbing: once a pattern completes it stays completed.
util::Matrix make_absorbing(util::Matrix t) {
    for (std::size_t c = 0; c < t.cols(); ++c) t(0, c) = 0.0;
    t(0, 0) = 1.0;
    return t;
}

util::Matrix matrix_power(const util::Matrix& m, std::uint64_t n) {
    util::Matrix result = util::Matrix::identity(m.rows());
    util::Matrix base = m;
    while (n > 0) {
        if (n & 1) result = result.multiply(base);
        base = base.multiply(base);
        n >>= 1;
    }
    return result;
}

}  // namespace

MarkovModel::MarkovModel(int max_delta, MarkovParams params)
    : map_(max_delta, params.state_count), params_(params), pending_(map_) {
    SPECTRE_REQUIRE(params.alpha >= 0.0 && params.alpha <= 1.0, "alpha out of [0,1]");
    SPECTRE_REQUIRE(params.step >= 1, "step size must be >= 1");
    SPECTRE_REQUIRE(params.initial_advance_prob >= 0.0 && params.initial_advance_prob <= 1.0,
                    "initial advance probability out of [0,1]");

    // Seed T1 with the prior: advance one state with probability p, hold
    // otherwise. This keeps early predictions sane until statistics arrive.
    const auto s = static_cast<std::size_t>(map_.states());
    t1_ = util::Matrix(s, s);
    for (std::size_t r = 0; r < s; ++r) {
        if (r == 0) {
            t1_(0, 0) = 1.0;
        } else {
            t1_(r, r - 1) = params.initial_advance_prob;
            t1_(r, r) = 1.0 - params.initial_advance_prob;
        }
    }
    rebuild_tables();
}

void MarkovModel::observe(int delta_from, int delta_to) {
    pending_.observe(delta_from, delta_to);
    ++total_samples_;
    if (pending_.samples() >= params_.refresh_every) refresh();
}

void MarkovModel::refresh() {
    if (pending_.samples() == 0) return;
    const util::Matrix t_new = pending_.estimate();
    // First real statistics replace the synthetic prior outright; afterwards
    // exponential smoothing (§3.2.1): T1 = (1-α)·T1_old + α·T1_new.
    t1_ = seeded_ ? t1_.blend(1.0 - params_.alpha, t_new, params_.alpha) : t_new;
    seeded_ = true;
    pending_.reset();
    rebuild_tables();
}

void MarkovModel::rebuild_tables() {
    step_matrix_ = matrix_power(make_absorbing(t1_), static_cast<std::uint64_t>(params_.step));
    completion_.clear();
    // c_0: complete within 0 steps iff already in state 0.
    std::vector<double> c0(static_cast<std::size_t>(map_.states()), 0.0);
    c0[0] = 1.0;
    completion_.push_back(std::move(c0));
}

void MarkovModel::ensure_horizon(std::size_t j) const {
    while (completion_.size() <= j) {
        // c_{j} = A · c_{j-1}: one more ℓ-step block of look-ahead.
        completion_.push_back(step_matrix_.right_multiply(completion_.back()));
    }
}

double MarkovModel::completion_probability(int delta, std::uint64_t events_left) const {
    const int state = map_.state_of(delta);
    if (state == 0) return 1.0;
    // Fig. 5 lines 3–5: at least one more event is expected.
    const std::uint64_t n = std::max<std::uint64_t>(events_left, 1);

    const auto step = static_cast<std::uint64_t>(params_.step);
    const std::size_t j_lo = n / step;
    const std::size_t j_hi = (n + step - 1) / step;
    ensure_horizon(j_hi);
    // Clamp away accumulated floating-point drift from the power iteration.
    const auto as_probability = [](double p) { return std::clamp(p, 0.0, 1.0); };
    const double lo = completion_[j_lo][static_cast<std::size_t>(state)];
    if (j_lo == j_hi) return as_probability(lo);
    const double hi = completion_[j_hi][static_cast<std::size_t>(state)];
    // Fig. 5 line 6: linear interpolation between the precomputed steps.
    const double frac = static_cast<double>(n - j_lo * step) / static_cast<double>(step);
    return as_probability((1.0 - frac) * lo + frac * hi);
}

double MarkovModel::reference_probability(int delta, std::uint64_t steps) const {
    const int state = map_.state_of(delta);
    if (state == 0) return 1.0;
    const util::Matrix tn = matrix_power(make_absorbing(t1_), steps);
    return tn(static_cast<std::size_t>(state), 0);
}

}  // namespace spectre::model
