// The sample-count rule and the rung rule, shared by the benchmark and its
// self-test so the rule that is tested is the rule that runs. Percentiles
// come from spectre::util::percentile (linear interpolation).
#pragma once

#include <cstddef>

namespace e2e {

// A percentile is reported only when at least ten samples lie beyond it, so
// p99 needs 1000 samples: below that the "tail" is one or two samples.
inline bool percentile_supported(std::size_t samples, double p) {
    return static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0 - 1e-9;
}

// Open-loop rung limits: every session's results must stay within 50 ms of
// the event that closed their window (p99), and the server must finish
// within 250 ms of the last event's due time. Above the sustainable rate the
// backlog grows for as long as the rung runs, so both limits fail together.
inline constexpr double kRungP99LimitMs = 50.0;
inline constexpr double kRungDrainLimitMs = 250.0;

struct RungVerdict {
    bool pass = false;
    const char* reason = "";
};

// `completed`: every session's BYE arrived before the drain limit cut it.
// `worst_p99_ms`: the highest per-session p99, so each client is held to the
// limit on its own and a busy session cannot hide a late one.
inline RungVerdict rung_verdict(bool completed, double worst_p99_ms, double drain_ms) {
    if (!completed || drain_ms > kRungDrainLimitMs) return {false, "drain over limit"};
    if (worst_p99_ms > kRungP99LimitMs) return {false, "p99 over limit"};
    return {true, "sustained"};
}

}  // namespace e2e
