// Session control protocol for the multi-session CEP server (DESIGN.md §8).
//
// net/frame encodes bare quote events — enough for the single hard-wired
// pipeline of §4.1's deployment sketch. A middleware server hosting many
// independent clients needs a control layer on top: each message on a session
// connection is a *typed frame* — one tag byte followed by a type-specific
// body reusing the little-endian primitives of net/frame:
//
//   HELLO  (client → server)  query text (query::parse_query grammar) plus
//                             the session's engine parameters (k operator
//                             instances; 0 selects the sequential reference
//                             engine).
//   DATA   (client → server)  one quote event, encoded exactly as the
//                             pre-session wire format (net::encode).
//   RESULT (server → client)  one complex event as it retires — window id,
//                             constituent seqs, computed payload. Sent in
//                             window order while the client is still sending
//                             DATA (streaming egress).
//   BYE    (both directions)  client: end-of-stream for its DATA; server:
//                             all results delivered, carries the final count.
//   ERROR  (server → client)  the session failed (bad query, corrupt frame,
//                             protocol violation); the server closes only
//                             this session afterwards.
//   STATS  (both directions)  client: requests a metrics snapshot (empty
//                             body payload); server: replies with a JSON
//                             object — server-wide registry series plus this
//                             session's live counters and latency histograms
//                             (DESIGN.md §12). May be interleaved with DATA;
//                             the reply rides the ordinary egress stream.
//
// encode_frame/decode_frame are pure functions like net::encode/decode, so
// the protocol is unit-testable without sockets; FrameReader is the
// incremental decode buffer both the server reactor and the client driver
// feed raw bytes into.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "event/event.hpp"
#include "net/frame.hpp"

namespace spectre::net {

// Frame tag bytes on the wire. Values are part of the protocol; never renumber
// and never reuse — protocol evolution appends new tags (see DESIGN.md §8,
// "wire versioning rule"). Hello2 is the versioned successor of Hello: v1
// clients keep speaking tag 1 unchanged, v2-aware peers use tag 7.
enum class FrameType : std::uint8_t {
    Hello = 1,
    Data = 2,
    Result = 3,
    Bye = 4,
    Error = 5,
    Stats = 6,
    Hello2 = 7,
};

struct HelloFrame {
    std::string query;            // query::parse_query text
    std::uint32_t instances = 0;  // k operator instances; 0 = sequential engine

    // Partition-parallel sharding (DESIGN.md §10): with shards > 1 the
    // session runs the partitioned query as that many shard tasks on the
    // server's engine pool — a per-session deployment knob, no rebuild. The
    // query must declare a partition key: either PARTITION BY in the query
    // text or `partition_by` here ("SUBJECT" or an attribute name, resolved
    // against the session schema; overrides the text declaration when set).
    // shards == 0 means unsharded unless the query text itself partitions.
    std::uint32_t shards = 0;
    std::string partition_by;

    bool operator==(const HelloFrame&) const = default;
};

// HELLO v2 (DESIGN.md §15): an extensible key-value handshake replacing the
// closed positional HelloFrame. The body is an ordered list of string pairs;
// unknown keys are ignored by both sides, so either end can add keys without
// a protocol bump. Defined keys (client → server):
//
//   role         "standalone" (default) | "publish" | "subscribe"
//   stream       published stream name (publish/subscribe roles)
//   query        query::parse_query text (standalone/subscribe)
//   instances    k operator instances; "0"/absent = sequential engine
//   shards       shard count (standalone role only, DESIGN.md §10)
//   partition_by partition key override (standalone role only)
//
// The server replies to an accepted v2 HELLO with its own Hello2 frame — the
// capability echo: proto=2, role (as resolved), stream, max_instances,
// max_shards. A v1 HelloFrame gets no echo (v1 clients don't read one); the
// server maps it to role=standalone internally (compat shim).
struct Hello2Frame {
    std::vector<std::pair<std::string, std::string>> kv;

    // First value for `key`, or "" when absent (absent and empty-valued keys
    // are deliberately indistinguishable: defaults apply to both).
    std::string_view get(std::string_view key) const noexcept {
        for (const auto& [k, v] : kv)
            if (k == key) return v;
        return {};
    }
    bool has(std::string_view key) const noexcept {
        for (const auto& [k, v] : kv)
            if (k == key) return true;
        return false;
    }
    void set(std::string key, std::string value) {
        kv.emplace_back(std::move(key), std::move(value));
    }

    bool operator==(const Hello2Frame&) const = default;
};

// One complex event streamed back to the owning client. Mirrors
// event::ComplexEvent field-for-field so the RESULT stream can be compared
// byte-identically against an engine's output.
struct ResultFrame {
    std::uint64_t window_id = 0;
    std::vector<std::uint64_t> constituents;
    std::vector<std::pair<std::string, double>> payload;

    bool operator==(const ResultFrame&) const = default;
};

struct ByeFrame {
    std::uint64_t results = 0;  // server → client: RESULT frames sent

    bool operator==(const ByeFrame&) const = default;
};

struct ErrorFrame {
    std::string message;

    bool operator==(const ErrorFrame&) const = default;
};

// Metrics snapshot exchange (DESIGN.md §12). As a request (client → server)
// `json` is empty; as a response it carries one flat JSON object of series
// name → value (histograms as {count, sum, p50, p99} sub-objects).
struct StatsFrame {
    std::string json;

    bool operator==(const StatsFrame&) const = default;
};

// DATA frames reuse WireQuote as their body.
using SessionFrame = std::variant<HelloFrame, WireQuote, ResultFrame, ByeFrame,
                                  ErrorFrame, StatsFrame, Hello2Frame>;

// Sanity bounds; decode throws std::runtime_error beyond them (corrupt frame).
inline constexpr std::size_t kMaxQueryLength = 1 << 16;
inline constexpr std::size_t kMaxErrorLength = 1 << 16;
inline constexpr std::size_t kMaxPartitionKeyLength = 256;
inline constexpr std::size_t kMaxHelloPairs = 64;
inline constexpr std::size_t kMaxHelloKeyLength = 64;
inline constexpr std::size_t kMaxResultConstituents = 1 << 20;
inline constexpr std::size_t kMaxResultPayload = 1 << 10;
inline constexpr std::size_t kMaxPayloadNameLength = 256;
inline constexpr std::size_t kMaxStatsLength = 1 << 20;

// Appends the typed encoding of `f` to `out`.
void encode_frame(const SessionFrame& f, std::vector<std::uint8_t>& out);

// Attempts to decode one typed frame starting at `offset`. On success returns
// the frame and advances `offset`; returns nullopt on an incomplete buffer.
// Throws std::runtime_error on a corrupt frame (unknown tag, length beyond
// the sanity bounds above).
std::optional<SessionFrame> decode_frame(const std::vector<std::uint8_t>& buffer,
                                         std::size_t& offset);

// Conversions between the egress frame and the engine representation.
ResultFrame to_result_frame(const event::ComplexEvent& ce);
event::ComplexEvent from_result_frame(const ResultFrame& r);

// Incremental frame decoder: feed() raw bytes as they arrive, poll() decoded
// frames until nullopt (read more). Consumed bytes are compacted away
// periodically so the buffer stays bounded by one frame plus one read chunk.
//
// Scatter mode (DESIGN.md §14): the reader is also the *staging* half of the
// zero-copy ingest path. While empty(), the caller decodes DATA frames in
// place from its reactor-owned read view with scatter_data() below; only
// control frames and the partial frame at a view's tail are fed here. The
// invariant that keeps the two paths equivalent: bytes enter the reader in
// wire order and the caller never scatters while empty() is false, so frame
// boundaries are identical whichever path decodes them.
class FrameReader {
public:
    void feed(const std::uint8_t* data, std::size_t n);

    // Next complete frame, or nullopt if more bytes are needed. Throws
    // std::runtime_error on a corrupt frame (the session is unrecoverable —
    // framing is lost).
    std::optional<SessionFrame> poll();

    // True when undecoded bytes are pending — an end-of-stream here means the
    // peer died mid-frame (truncated frame, a stream error).
    bool mid_frame() const noexcept { return offset_ < buffer_.size(); }

    // True when no undecoded bytes are staged: the caller may scatter-decode
    // directly from its own buffer without reordering the stream.
    bool empty() const noexcept { return offset_ == buffer_.size(); }

    // Bytes missing for the staged partial frame's next decode step (a lower
    // bound; 0 when nothing is staged or the frame looks complete). Lets the
    // §14 ingest loop feed exactly what finishes the split frame and return
    // to the scatter path, instead of staging whole chunks of the view.
    std::size_t tail_need() const;

private:
    std::vector<std::uint8_t> buffer_;
    std::size_t offset_ = 0;
};

// In-place view of one DATA frame's payload (scatter decode): numeric fields
// are decoded into the struct, the symbol stays a pointer into the caller's
// buffer — valid only until the buffer is recycled, i.e. consume immediately.
struct DataFrameView {
    std::int64_t ts = 0;
    double open = 0, close = 0, volume = 0;
    const char* symbol = nullptr;
    std::uint32_t symbol_len = 0;

    std::string_view symbol_view() const noexcept { return {symbol, symbol_len}; }
};

enum class ScatterStatus {
    Data,      // `dv` filled; `pos` advanced past the frame
    Control,   // not a DATA frame: stage the rest of the view for poll()
    NeedMore,  // DATA frame truncated by the view: stage the tail, read more
};

// Examines the frame starting at data[pos] (requires pos < size). On Data the
// view is filled and pos advances past the frame; Control/NeedMore leave pos
// untouched. Throws std::runtime_error on a corrupt DATA frame (symbol length
// beyond kMaxSymbolLength), exactly like decode() on the staged path.
ScatterStatus scatter_data(const std::uint8_t* data, std::size_t size, std::size_t& pos,
                           DataFrameView& dv);

}  // namespace spectre::net
