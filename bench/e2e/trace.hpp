// In-memory span log for the traced run (README.md, "Tracing").
//
// Spans are recorded from the benchmark's own code around calls into each
// layer's public functions; nothing inside the library is instrumented. They
// stay in memory until the run ends and are then written out as Chrome
// trace-event JSON. A disabled log records nothing, so the untraced runs pay
// one branch per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct Span {
    std::string name;
    std::string request;  // "<workload>/<phase>", shared by the spans of one request
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = a root span
    double start_us = 0.0;
    double end_us = 0.0;
};

class SpanLog {
public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const noexcept { return enabled_; }

    // Spans opened from now on carry this request id.
    void set_request(std::string request) { request_ = std::move(request); }

    // Opens a span nested in the innermost open one; returns its id (0 when
    // disabled). end() also closes any span still open inside `id`.
    std::uint32_t begin(const char* name);
    void end(std::uint32_t id);

    const std::vector<Span>& spans() const noexcept { return spans_; }

    // Chrome trace-event JSON ("X" events, microseconds). Throws on I/O error.
    void write_chrome(const std::string& path) const;

private:
    using Clock = std::chrono::steady_clock;

    bool enabled_;
    Clock::time_point t0_ = Clock::now();
    std::string request_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;
};

class ScopedSpan {
public:
    ScopedSpan(SpanLog& log, const char* name) : log_(log), id_(log.begin(name)) {}
    ~ScopedSpan() { log_.end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanLog& log_;
    std::uint32_t id_;
};

// Self time of every span (same order as `spans`): its duration minus the
// part of its interval that its child spans cover.
std::vector<double> self_times_us(const std::vector<Span>& spans);

struct LayerTime {
    std::string name;
    std::size_t spans = 0;
    double total_us = 0.0;
    double self_us = 0.0;
};

// Totals per span name, in first-appearance order.
std::vector<LayerTime> layer_times(const std::vector<Span>& spans);

}  // namespace e2e
