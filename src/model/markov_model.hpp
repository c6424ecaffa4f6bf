// MarkovModel: the paper's completion-probability predictor (§3.2.1, Fig. 5).
//
// Pattern completion is modeled as a discrete-time Markov chain over δ
// (events still needed), with state 0 = completed. A transition matrix T1 is
// estimated from run-time statistics; after every ρ new samples the estimate
// is folded in with exponential smoothing, T1 = (1-α)·T1_old + α·T1_new.
// Predictions for "complete within n more events" use precomputed step
// tables at multiples of the step size ℓ with linear interpolation in
// between — exactly Fig. 5 line 6 — with one implementation refinement
// (DESIGN.md §4.5): instead of materializing full matrix powers T^{jℓ}
// (O(S³) each), we keep only the completion-probability column
//   c_j[s] = P(reach state 0 within j·ℓ steps | start s)
// via the vector recurrence c_j = A·c_{j-1}, A = T1^ℓ with state 0 made
// absorbing. That is O(S²) per step and gives bit-identical predictions to
// the matrix-power formulation (asserted in tests).
#pragma once

#include <cstdint>
#include <vector>

#include "model/completion_model.hpp"
#include "model/transition_stats.hpp"

namespace spectre::model {

struct MarkovParams {
    double alpha = 0.7;        // smoothing weight of new statistics (paper: 0.7)
    int step = 10;             // ℓ, precomputed step size (paper: 10)
    int state_count = 64;      // state-space cap (DESIGN.md substitution 5)
    std::uint64_t refresh_every = 2000;  // ρ, samples between refreshes
    // Prior probability that one event advances the pattern by one state;
    // used to seed T1 before any statistics exist.
    double initial_advance_prob = 0.5;
};

class MarkovModel final : public CompletionModel {
public:
    // `max_delta` is the pattern's minimum length (the initial δ).
    MarkovModel(int max_delta, MarkovParams params);

    double completion_probability(int delta, std::uint64_t events_left) const override;
    void observe(int delta_from, int delta_to) override;
    void refresh() override;

    const StateMap& state_map() const noexcept { return map_; }
    const util::Matrix& transition_matrix() const noexcept { return t1_; }
    std::uint64_t total_samples() const noexcept { return total_samples_; }

    // Test hook: P(complete within `steps` events | δ) computed from the
    // current T1 by explicit matrix powers — the reference the table-based
    // fast path must match.
    double reference_probability(int delta, std::uint64_t steps) const;

private:
    void rebuild_tables();
    void ensure_horizon(std::size_t j) const;

    StateMap map_;
    MarkovParams params_;
    TransitionStats pending_;
    util::Matrix t1_;            // current smoothed transition matrix
    util::Matrix step_matrix_;   // A = T1^ℓ with state 0 absorbing
    // completion_[j][s] = P(complete within j·ℓ steps | state s); grown
    // lazily as larger horizons are queried (mutable for the const API).
    mutable std::vector<std::vector<double>> completion_;
    std::uint64_t total_samples_ = 0;
    bool seeded_ = false;  // true once real statistics entered t1_
};

}  // namespace spectre::model
