#include "workload.hpp"

#include <algorithm>
#include <future>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "data/nyse_synth.hpp"
#include "harness/oracle.hpp"
#include "query/parser.hpp"
#include "query/window.hpp"
#include "util/rng.hpp"

namespace e2e {

using namespace spectre;

namespace {

// The E-server rising pair: cheap to detect, about one match per window.
// Four-fold overlapping windows under CONSUME ALL make every window depend on
// its three predecessors — the speculation SPECTRE exists for.
const char* const kRisingPair =
    "PATTERN (R1 R2) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open "
    "WITHIN 40 EVENTS FROM EVERY 10 EVENTS CONSUME ALL";
const char* const kRisingPairPerSymbol =
    "PATTERN (R1 R2) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open "
    "WITHIN 40 EVENTS FROM EVERY 10 EVENTS PARTITION BY SUBJECT CONSUME ALL";
// Egress-heavy: every tumbling window of four events matches (prices are
// >= 1) and carries a two-field payload, so one RESULT leaves per four
// events, 2.5 times the rising pair's rate.
const char* const kEveryPair =
    "PATTERN (A B) DEFINE A AS A.close > 0, B AS B.close > 0 "
    "WITHIN 4 EVENTS FROM EVERY 4 EVENTS CONSUME NONE "
    "EMIT move = B.close - A.open, turnover = A.volume + B.volume";

}  // namespace

// Ladders, from probes on the seed (README.md, "Rung placement"): r3 is the
// highest rate every seed sustains with a wide margin, r4 the lowest rate
// above it that every seed fails, r2 about half of r3 and r1 light load. No
// verdict depends on the seed. spectre-overlap's r1 and r2 sit higher: at
// one RESULT per ten events, a 5 s rung needs 2k events/s for the 1000
// latency samples a p99 takes.
const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = {
        {"ingest-seq",
         "k=0 standalone session with cheap detection: wire decode, store append and egress "
         "set the numbers; the single-threaded baseline",
         100, 0.0,
         {{"standalone", kRisingPair, 0, 0}},
         1'000'000,
         {100e3, 300e3, 600e3, 1.6e6}},
        {"spectre-overlap",
         "same query and stream at k=3: four-fold overlapping CONSUME ALL windows put the work "
         "in speculation, on one worker",
         100, 0.0,
         {{"standalone", kRisingPair, 3, 0}},
         10'000,
         {2.2e3, 2.6e3, 3e3, 6e3}},
        {"shard-skew",
         "PARTITION BY SUBJECT over 3 shards, one symbol carrying half the events: router, "
         "lanes, merger and pool scheduling do the work",
         200, 0.5,
         {{"standalone", kRisingPairPerSymbol, 0, 3}},
         500'000,
         {100e3, 300e3, 600e3, 1.2e6}},
        {"hub-fanout",
         "1 publisher and 3 subscribers on one published stream: decode once, detect and "
         "egress three times, shared compile cache",
         100, 0.0,
         {{"publish", "", 0, 0},
          {"subscribe", kRisingPair, 0, 0},
          {"subscribe", kRisingPair, 0, 0},
          {"subscribe", kEveryPair, 0, 0}},
         500'000,
         {100e3, 300e3, 600e3, 1.6e6}},
    };
    return all;
}

const Workload* find_workload(const std::string& name) {
    for (const auto& w : workloads())
        if (w.name == name) return &w;
    return nullptr;
}

std::vector<net::WireQuote> Stream::quotes(std::size_t n) const {
    std::vector<net::WireQuote> out;
    out.reserve(n);
    std::size_t off = 0;
    while (out.size() < n) {
        auto f = net::decode_frame(frames, off);
        if (!f) throw std::logic_error("Stream: truncated frame buffer");
        out.push_back(std::get<net::WireQuote>(std::move(*f)));
    }
    return out;
}

Stream make_stream(const Workload& w, std::uint64_t seed, std::size_t events) {
    // Generated in chunks, each from a seed of its own, so that chunks can be
    // generated side by side; only the encoding is kept (about 44 bytes per
    // event), never the whole stream as Event objects.
    static constexpr std::size_t kChunk = std::size_t{1} << 16;
    constexpr std::size_t kThreads = 3;  // beside the caller, which waits
    struct Chunk {
        std::vector<std::uint8_t> frames;
        std::vector<std::size_t> frame_end;
    };
    const auto encode_chunk = [&w, seed, events](std::size_t c) {
        const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
        const std::string& hot = data::leader_symbol_names().front();
        data::NyseSynthConfig cfg;
        cfg.events = std::min(kChunk, events - c * kChunk);
        cfg.symbols = w.symbols;
        cfg.up_prob = 0.55;
        cfg.seed = seed * 1'000'003 + c;
        util::Rng relabel(cfg.seed ^ 0x9e3779b97f4a7c15ULL);
        const auto ts_base = static_cast<event::Timestamp>(c * kChunk);  // minutes ascend
        Chunk out;
        out.frames.reserve(cfg.events * 44);
        for (const auto& e : data::generate_nyse(vocab, cfg)) {
            net::WireQuote q = net::to_wire(e, vocab);
            q.ts += ts_base;
            if (w.hot_share > 0 && relabel.flip(w.hot_share)) q.symbol = hot;
            net::encode_frame(net::SessionFrame{std::move(q)}, out.frames);
            out.frame_end.push_back(out.frames.size());
        }
        return out;
    };
    Stream s;
    s.frames.reserve(events * 44);
    s.frame_end.reserve(events);
    const std::size_t chunks = (events + kChunk - 1) / kChunk;
    for (std::size_t first = 0; first < chunks; first += kThreads) {
        std::vector<std::future<Chunk>> batch;
        for (std::size_t c = first; c < std::min(chunks, first + kThreads); ++c)
            batch.push_back(std::async(std::launch::async, encode_chunk, c));
        for (auto& f : batch) {
            const Chunk c = f.get();
            const std::size_t base = s.frames.size();
            s.frames.insert(s.frames.end(), c.frames.begin(), c.frames.end());
            for (const std::size_t end : c.frame_end) s.frame_end.push_back(base + end);
        }
    }
    return s;
}

Expectation expect(const SessionSpec& s, const std::vector<net::WireQuote>& input) {
    Expectation ex;
    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    const query::Query q = query::parse_query(s.query, vocab.schema);
    const bool partitioned = q.partition.active();
    if (partitioned && q.partition.kind != query::PartitionBy::Kind::Subject)
        throw std::invalid_argument("benchmark lanes support PARTITION BY SUBJECT only");
    // The oracle runs on a thread of its own while this one finds each
    // window's closing event; neither touches the other's data.
    auto oracle = std::async(std::launch::async, [&] {
        return partitioned ? harness::partitioned_oracle(s.query, input)
                           : harness::sequential_oracle(s.query, input);
    });
    if (input.empty()) {
        ex.results = oracle.get();
        return ex;
    }

    // One lane per key (one lane in all when unpartitioned), as the engines
    // see the stream: window ids are per lane.
    struct Lane {
        event::EventStore store;
        std::vector<event::Seq> global;  // lane position → stream seq
        std::vector<event::Seq> close;   // window id → closing stream seq
    };
    std::vector<Lane> lanes;
    std::unordered_map<std::string, std::size_t> lane_of;
    std::vector<std::size_t> lane_of_seq(input.size());
    for (std::size_t g = 0; g < input.size(); ++g) {
        const std::string key = partitioned ? input[g].symbol : std::string();
        const auto [it, fresh] = lane_of.try_emplace(key, lanes.size());
        if (fresh) lanes.emplace_back();
        Lane& lane = lanes[it->second];
        lane.store.append(net::from_wire(input[g], vocab));
        lane.global.push_back(g);
        lane_of_seq[g] = it->second;
    }
    const event::Seq last = input.size() - 1;
    for (Lane& lane : lanes) {
        // Windows placed before end-of-stream carry their extent bound: one
        // that ends inside the lane closes with its last event; the rest
        // (bound past the lane's end, or placed only at close) close with
        // the stream's last event, after which the client sends BYE.
        query::WindowAssigner assigner(q.window);
        std::vector<query::WindowInfo> wins;
        const event::Seq n = lane.store.size();
        assigner.poll(lane.store, n, false, wins);
        const std::size_t placed_open = wins.size();
        lane.store.close();
        assigner.poll(lane.store, n, true, wins);
        lane.close.assign(wins.size(), last);
        for (std::size_t i = 0; i < placed_open; ++i)
            if (wins[i].last < n) lane.close[wins[i].id] = lane.global[wins[i].last];
    }
    ex.results = oracle.get();
    ex.close_seq.reserve(ex.results.size());
    for (const auto& r : ex.results) {
        const Lane& lane = lanes[r.constituents.empty() ? 0 : lane_of_seq[r.constituents.front()]];
        ex.close_seq.push_back(r.window_id < lane.close.size() ? lane.close[r.window_id] : last);
    }
    return ex;
}

net::Hello2Frame hello_for(const SessionSpec& s, const std::string& stream) {
    net::Hello2Frame h;
    h.set("role", s.role);
    if (s.role != "standalone") h.set("stream", stream);
    if (!s.query.empty()) h.set("query", s.query);
    if (s.instances > 0) h.set("instances", std::to_string(s.instances));
    if (s.shards > 0) h.set("shards", std::to_string(s.shards));
    return h;
}

}  // namespace e2e
