// The traced run's in-process layer ledger (README.md, "Per-layer metrics").
//
// The workload's own input is pushed single-threaded through each layer's
// public functions, with a span around every call: wire decode, store append,
// sequential detection, speculative step(), sharded routing and stepping,
// RESULT encode and vectored egress flush. Every layer is measured on every
// workload — a layer's cost on an input it is not deployed for is the
// what-if that tells whether moving the workload there would pay — and the
// layers on the workload's own server path add up to `path_ns_per_event`.
#pragma once

#include <map>
#include <string>

#include "trace.hpp"
#include "workload.hpp"

namespace e2e {

struct Ledger {
    std::map<std::string, double> metrics;  // per-layer metric name → value
    double path_ns_per_event = 0.0;  // Σ layer self ns/event on the server path
    double trace_overhead = 0.0;     // traced ÷ untraced time of the same replay
};

// Records into `log` (which must be enabled) under request "<workload>/ledger".
// Throws if any in-process engine disagrees with the sequential oracle.
Ledger run_ledger(const Workload& w, const Stream& s, SpanLog& log);

}  // namespace e2e
