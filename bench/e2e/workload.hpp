// The benchmark's workloads (README.md, "Workloads"): what each sends, which
// sessions receive it, and the oracle its RESULT streams are checked against.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "event/event.hpp"
#include "net/session.hpp"

namespace e2e {

// One client session of a workload, as its HELLO v2 describes it.
struct SessionSpec {
    std::string role;   // "standalone" | "publish" | "subscribe"
    std::string query;  // query::parse_query text; empty for a publisher
    std::uint32_t instances = 0;  // k; 0 = sequential engine
    std::uint32_t shards = 0;     // 0 = unsharded (or as the query text says)

    bool receives_results() const { return role != "publish"; }
};

// Every rung runs this long: long enough for a backlog above the sustainable
// rate to stand clear of noise, short enough that a whole run of four rungs,
// oracles included, stays under 35 s (README.md, "Design decisions").
inline constexpr double kRungSeconds = 5.0;

struct Workload {
    std::string name;
    std::string why;
    // Stream: the NYSE synth over `symbols` symbols (up_prob 0.55); with
    // hot_share > 0 that share of events is re-labelled to one hot symbol.
    int symbols = 100;
    double hot_share = 0.0;
    // sessions[0] carries the DATA (a standalone session or the publisher);
    // the others attach to its published stream.
    std::vector<SessionSpec> sessions;
    std::size_t replay_events = 0;     // N of each closed-loop replay
    std::array<double, 4> rung_eps{};  // open-loop rates r1..r4, ascending

    std::size_t rung_events(std::size_t i) const {
        return static_cast<std::size_t>(rung_eps[i] * kRungSeconds + 0.5);
    }
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// A workload's input, generated from the seed and pre-encoded as DATA frames.
struct Stream {
    std::vector<std::uint8_t> frames;     // DATA frames back to back
    std::vector<std::size_t> frame_end;   // bytes of the first i+1 events

    std::size_t size() const { return frame_end.size(); }
    std::size_t bytes(std::size_t events) const { return events ? frame_end[events - 1] : 0; }
    // Decodes the first `n` events back into wire quotes (oracle input).
    std::vector<spectre::net::WireQuote> quotes(std::size_t n) const;
};

Stream make_stream(const Workload& w, std::uint64_t seed, std::size_t events);

// What one receiving session must produce for an input prefix: the oracle's
// RESULT stream and, per result, the seq of the event that closed its window
// (window length excluded from latency; end-of-stream windows close at the
// last event).
struct Expectation {
    std::vector<spectre::event::ComplexEvent> results;
    std::vector<spectre::event::Seq> close_seq;
};

Expectation expect(const SessionSpec& s, const std::vector<spectre::net::WireQuote>& input);

// The HELLO v2 frame a session opens with; `stream` names the published
// stream of the hub sessions.
spectre::net::Hello2Frame hello_for(const SessionSpec& s, const std::string& stream);

}  // namespace e2e
