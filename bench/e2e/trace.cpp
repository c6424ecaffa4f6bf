#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace e2e {

std::uint32_t SpanLog::begin(const char* name) {
    if (!enabled_) return 0;
    Span s;
    s.name = name;
    s.request = request_;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = open_.empty() ? 0 : open_.back();
    s.start_us = std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
}

void SpanLog::end(std::uint32_t id) {
    if (!enabled_ || id == 0 || std::find(open_.begin(), open_.end(), id) == open_.end())
        return;
    // Closing a span closes whatever is still open inside it (an exception
    // unwound past their ends).
    const double now = std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
    for (;;) {
        const std::uint32_t top = open_.back();
        open_.pop_back();
        spans_[top - 1].end_us = now;
        if (top == id) return;
    }
}

void SpanLog::write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) throw std::runtime_error("cannot write trace file " + path);
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        // Names and request ids are benchmark-chosen identifiers: no escaping.
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                     "\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,\"request\":\"%s\"}}\n",
                     i ? "," : "", s.name.c_str(), s.start_us, s.end_us - s.start_us, s.id,
                     s.parent, s.request.c_str());
    }
    std::fputs("]}\n", f);
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write trace file " + path);
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
    // By id, so any subset of a log (one request's spans) works; a child
    // whose parent is not in the subset only counts for itself.
    std::unordered_map<std::uint32_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
    std::vector<std::vector<std::pair<double, double>>> children(spans.size());
    for (const Span& s : spans)
        if (const auto it = index.find(s.parent); it != index.end())
            children[it->second].emplace_back(s.start_us, s.end_us);
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the parent's.
        double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
        for (const auto& [lo0, hi0] : kids) {
            const double lo = std::max(lo0, s.start_us), hi = std::min(hi0, s.end_us);
            if (hi <= lo) continue;
            if (lo > cur_hi) {
                if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        self[i] = (s.end_us - s.start_us) - covered;
    }
    return self;
}

std::vector<LayerTime> layer_times(const std::vector<Span>& spans) {
    const auto self = self_times_us(spans);
    std::vector<LayerTime> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto it = std::find_if(out.begin(), out.end(),
                               [&](const LayerTime& l) { return l.name == spans[i].name; });
        if (it == out.end()) {
            out.push_back(LayerTime{spans[i].name});
            it = out.end() - 1;
        }
        ++it->spans;
        it->total_us += spans[i].end_us - spans[i].start_us;
        it->self_us += self[i];
    }
    return out;
}

}  // namespace e2e
