// Seeded, splittable pseudo-random generator used by all dataset generators
// and the simulated runtime. Every randomized component takes an explicit
// seed so that experiments are reproducible run-to-run (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <random>

namespace spectre::util {

class Rng {
public:
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    // Uniform integer in [lo, hi] (inclusive).
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
    }

    // Uniform double in [lo, hi).
    double uniform(double lo = 0.0, double hi = 1.0) {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    // Bernoulli trial with success probability p.
    bool flip(double p) { return uniform() < p; }

    // Derives an independent child generator; used to give each stream /
    // symbol its own deterministic randomness regardless of draw order.
    Rng split() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

    std::mt19937_64& engine() noexcept { return engine_; }

private:
    std::mt19937_64 engine_;
};

}  // namespace spectre::util
