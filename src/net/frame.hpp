// Wire framing for quote events.
//
// The paper's deployment feeds SPECTRE from "a client program that reads
// events from a source file and sends them to SPECTRE over a TCP connection"
// (§4.1). This module defines the byte format both ends speak: a fixed
// little-endian header per event (timestamp, prices, volume, symbol length)
// followed by the symbol name. Length-prefixed strings keep the protocol
// self-describing; encode/decode are pure functions so they are unit-testable
// without sockets.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "data/stock.hpp"

namespace spectre::net {

// A decoded wire event (schema-independent; symbols travel by name).
struct WireQuote {
    std::int64_t ts = 0;
    double open = 0, close = 0, volume = 0;
    std::string symbol;

    bool operator==(const WireQuote&) const = default;
};

// Appends the encoding of `q` to `out`.
void encode(const WireQuote& q, std::vector<std::uint8_t>& out);

// Attempts to decode one event starting at `offset`. On success returns the
// event and advances `offset` past it; returns nullopt if the buffer holds an
// incomplete frame (read more). Throws std::runtime_error on a corrupt frame
// (symbol length exceeding kMaxSymbolLength).
std::optional<WireQuote> decode(const std::vector<std::uint8_t>& buffer, std::size_t& offset);

inline constexpr std::size_t kMaxSymbolLength = 64;

// Fixed-size prefix of an encoded WireQuote: ts + open + close + volume +
// symbol length (the symbol bytes follow). Shared by decode() and the §14
// scatter path, which parses the same layout from a raw pointer.
inline constexpr std::size_t kWireQuoteHeaderBytes = 8 + 8 + 8 + 8 + 4;

// Conversions to/from the engine representation.
WireQuote to_wire(const event::Event& e, const data::StockVocab& vocab);
event::Event from_wire(const WireQuote& q, const data::StockVocab& vocab);

// Little-endian wire primitives, shared with the session control protocol
// (net/session.hpp) so every frame type speaks the same byte order. `get`
// assumes the caller bounds-checked `off + sizeof(T) <= buf.size()`.
namespace detail {

template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
    // Serialize little-endian regardless of host order.
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<std::uint8_t>((bits >> (8 * i)) & 0xff));
}

inline void put_double(std::vector<std::uint8_t>& out, double value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    put(out, bits);
}

template <typename T>
T get(const std::vector<std::uint8_t>& buf, std::size_t& off) {
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        bits |= static_cast<std::uint64_t>(buf[off + i]) << (8 * i);
    off += sizeof(T);
    T value;
    std::memcpy(&value, &bits, sizeof(T));
    return value;
}

inline double get_double(const std::vector<std::uint8_t>& buf, std::size_t& off) {
    const auto bits = get<std::uint64_t>(buf, off);
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

// Raw-pointer variants for the scatter-decode path (DESIGN.md §14), which
// parses frames in place from a reactor-owned read view rather than from a
// staged vector. The caller bounds-checks `p + sizeof(T)`.
template <typename T>
T get_raw(const std::uint8_t* p) {
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        bits |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    T value;
    std::memcpy(&value, &bits, sizeof(T));
    return value;
}

inline double get_double_raw(const std::uint8_t* p) {
    const auto bits = get_raw<std::uint64_t>(p);
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

}  // namespace detail

}  // namespace spectre::net
