// TransitionStats: run-time δ-transition counts feeding the Markov model.
//
// Operator instances collect transitions locally while processing
// independent windows and flush them to the splitter in batches; the
// splitter feeds them into the model one by one. δ values are bucketed into a capped state space
// (DESIGN.md §4.5): the paper's chain has one state per δ, which is
// infeasible for patterns thousands of events long (Q1 with q=2560), so δ is
// mapped affinely onto `state_count` states with state 0 = completed.
#pragma once

#include <cstdint>

#include "util/matrix.hpp"

namespace spectre::model {

// Affine δ→state bucketing shared by stats and model.
class StateMap {
public:
    // `max_delta` is the pattern's minimum length (initial δ);
    // `state_count` caps the chain (>= 2).
    StateMap(int max_delta, int state_count);

    int state_of(int delta) const;
    int states() const noexcept { return states_; }
    int max_delta() const noexcept { return max_delta_; }

private:
    int max_delta_;
    int states_;
};

class TransitionStats {
public:
    explicit TransitionStats(const StateMap& map);

    void observe(int delta_from, int delta_to);
    void reset();

    std::uint64_t samples() const noexcept { return samples_; }

    // Row-stochastic estimate from the accumulated counts. Rows without
    // samples become self-loops (no evidence of progress).
    util::Matrix estimate() const;

    const StateMap& map() const noexcept { return map_; }

private:
    StateMap map_;
    util::Matrix counts_;
    std::uint64_t samples_ = 0;
};

}  // namespace spectre::model
