#include "model/transition_stats.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace spectre::model {

StateMap::StateMap(int max_delta, int state_count)
    : max_delta_(std::max(1, max_delta)), states_(state_count) {
    SPECTRE_REQUIRE(state_count >= 2, "state map needs at least 2 states");
    states_ = std::min(states_, max_delta_ + 1);
}

int StateMap::state_of(int delta) const {
    if (delta <= 0) return 0;
    const int d = std::min(delta, max_delta_);
    // Affine map (0, max_delta] -> (0, states-1]; rounding up keeps every
    // positive delta out of the absorbing state 0.
    const int s = (d * (states_ - 1) + max_delta_ - 1) / max_delta_;
    return std::max(1, std::min(s, states_ - 1));
}

TransitionStats::TransitionStats(const StateMap& map)
    : map_(map),
      counts_(static_cast<std::size_t>(map.states()), static_cast<std::size_t>(map.states())) {}

void TransitionStats::observe(int delta_from, int delta_to) {
    const auto from = static_cast<std::size_t>(map_.state_of(delta_from));
    const auto to = static_cast<std::size_t>(map_.state_of(delta_to));
    counts_(from, to) += 1.0;
    ++samples_;
}

void TransitionStats::reset() {
    counts_ = util::Matrix(counts_.rows(), counts_.cols());
    samples_ = 0;
}

util::Matrix TransitionStats::estimate() const {
    util::Matrix t = counts_;
    for (std::size_t r = 0; r < t.rows(); ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < t.cols(); ++c) sum += t(r, c);
        if (sum <= 0.0) {
            // No evidence: assume the state holds (self-loop), which is the
            // conservative "no progress" prior.
            for (std::size_t c = 0; c < t.cols(); ++c) t(r, c) = 0.0;
            t(r, r) = 1.0;
        } else {
            for (std::size_t c = 0; c < t.cols(); ++c) t(r, c) /= sum;
        }
    }
    return t;
}

}  // namespace spectre::model
