#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <random>
#include <string>
#include <thread>

#include "net/egress_ring.hpp"
#include "net/reactor.hpp"
#include "net/session.hpp"
#include "net/tcp.hpp"

using namespace spectre;
using namespace spectre::net;

namespace {

data::StockVocab vocab() {
    return data::StockVocab::create(std::make_shared<event::Schema>());
}

}  // namespace

TEST(Frame, EncodeDecodeRoundTrip) {
    WireQuote q;
    q.ts = 1234567;
    q.open = 100.25;
    q.close = 101.5;
    q.volume = 42;
    q.symbol = "AAPL";
    std::vector<std::uint8_t> buf;
    encode(q, buf);
    std::size_t off = 0;
    const auto back = decode(buf, off);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, q);
    EXPECT_EQ(off, buf.size());
}

TEST(Frame, PartialFrameReturnsNullopt) {
    WireQuote q;
    q.symbol = "MSFT";
    std::vector<std::uint8_t> buf;
    encode(q, buf);
    for (std::size_t cut = 1; cut < buf.size(); ++cut) {
        std::vector<std::uint8_t> partial(buf.begin(),
                                          buf.begin() + static_cast<std::ptrdiff_t>(cut));
        std::size_t off = 0;
        EXPECT_EQ(decode(partial, off), std::nullopt) << "cut=" << cut;
        EXPECT_EQ(off, 0u);
    }
}

TEST(Frame, MultipleFramesDecodeSequentially) {
    std::vector<std::uint8_t> buf;
    for (int i = 0; i < 5; ++i) {
        WireQuote q;
        q.ts = i;
        q.symbol = "S" + std::to_string(i);
        encode(q, buf);
    }
    std::size_t off = 0;
    for (int i = 0; i < 5; ++i) {
        const auto q = decode(buf, off);
        ASSERT_TRUE(q.has_value());
        EXPECT_EQ(q->ts, i);
        EXPECT_EQ(q->symbol, "S" + std::to_string(i));
    }
    EXPECT_EQ(decode(buf, off), std::nullopt);
}

TEST(Frame, CorruptSymbolLengthThrows) {
    WireQuote q;
    q.symbol = "OK";
    std::vector<std::uint8_t> buf;
    encode(q, buf);
    // Symbol length field sits after ts + 3 doubles = 32 bytes.
    buf[32] = 0xff;
    buf[33] = 0xff;
    std::size_t off = 0;
    EXPECT_THROW(decode(buf, off), std::runtime_error);
}

TEST(Frame, WireConversionsPreserveEvent) {
    const auto v = vocab();
    const auto e =
        data::make_quote(v, 42, v.schema->intern_subject("IBM"), 10.5, 11.25, 300);
    const auto wire = to_wire(e, v);
    EXPECT_EQ(wire.symbol, "IBM");
    const auto back = from_wire(wire, v);
    EXPECT_EQ(back.ts, e.ts);
    EXPECT_EQ(back.subject, e.subject);
    EXPECT_DOUBLE_EQ(back.attr(v.open_slot), e.attr(v.open_slot));
}

TEST(Frame, ZeroLengthSymbolRoundTrips) {
    WireQuote q;
    q.ts = 7;
    q.open = 1.5;
    q.symbol = "";  // legal: symbols travel by (possibly empty) name
    std::vector<std::uint8_t> buf;
    encode(q, buf);
    std::size_t off = 0;
    const auto back = decode(buf, off);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->symbol, "");
    EXPECT_EQ(*back, q);
    EXPECT_EQ(off, buf.size());
}

TEST(Frame, IncrementalDecodeAcrossOneByteFeeds) {
    // Feed a multi-frame buffer one byte at a time through a FrameReader:
    // every prefix must decode to exactly the frames whose bytes are
    // complete, with no byte lost or duplicated at any split point.
    std::vector<WireQuote> quotes;
    for (int i = 0; i < 4; ++i) {
        WireQuote q;
        q.ts = 100 + i;
        q.open = 1.0 + i;
        q.symbol = i % 2 ? "" : "SYM" + std::to_string(i);
        quotes.push_back(q);
    }
    std::vector<std::uint8_t> wire;
    for (const auto& q : quotes) encode_frame(SessionFrame{q}, wire);

    FrameReader reader;
    std::vector<WireQuote> got;
    for (const auto byte : wire) {
        reader.feed(&byte, 1);
        while (auto f = reader.poll()) got.push_back(std::get<WireQuote>(*f));
    }
    EXPECT_FALSE(reader.mid_frame());
    ASSERT_EQ(got.size(), quotes.size());
    for (std::size_t i = 0; i < quotes.size(); ++i) EXPECT_EQ(got[i], quotes[i]);
}

// ---------------------------------------------------------------------------
// Session control frames (net/session.hpp).
// ---------------------------------------------------------------------------

namespace {

SessionFrame round_trip(const SessionFrame& f) {
    std::vector<std::uint8_t> buf;
    encode_frame(f, buf);
    std::size_t off = 0;
    const auto back = decode_frame(buf, off);
    EXPECT_TRUE(back.has_value());
    EXPECT_EQ(off, buf.size());
    return *back;
}

}  // namespace

TEST(SessionFrame, ControlFramesRoundTrip) {
    HelloFrame hello{"PATTERN (A B) DEFINE ...", 4, 0, ""};
    EXPECT_EQ(std::get<HelloFrame>(round_trip(SessionFrame{hello})), hello);

    // Sharded HELLO (DESIGN.md §10): shard count and partition key survive.
    HelloFrame sharded{"PATTERN (A B) DEFINE ...", 2, 8, "SUBJECT"};
    EXPECT_EQ(std::get<HelloFrame>(round_trip(SessionFrame{sharded})), sharded);

    ResultFrame result;
    result.window_id = 42;
    result.constituents = {3, 7, 19};
    result.payload = {{"gain", 1.25}, {"", -3.5}};
    EXPECT_EQ(std::get<ResultFrame>(round_trip(SessionFrame{result})), result);

    ResultFrame empty_result;  // zero constituents, zero payload
    EXPECT_EQ(std::get<ResultFrame>(round_trip(SessionFrame{empty_result})), empty_result);

    ByeFrame bye{12345};
    EXPECT_EQ(std::get<ByeFrame>(round_trip(SessionFrame{bye})), bye);

    ErrorFrame error{"corrupt frame: symbol too long"};
    EXPECT_EQ(std::get<ErrorFrame>(round_trip(SessionFrame{error})), error);

    WireQuote data;
    data.ts = 9;
    data.symbol = "IBM";
    EXPECT_EQ(std::get<WireQuote>(round_trip(SessionFrame{data})), data);
}

TEST(SessionFrame, PartialControlFramesReturnNullopt) {
    ResultFrame result;
    result.window_id = 1;
    result.constituents = {1, 2, 3};
    result.payload = {{"x", 1.0}};
    for (const auto& frame :
         {SessionFrame{HelloFrame{"PATTERN (A)", 2, 0, ""}}, SessionFrame{result},
          SessionFrame{ByeFrame{7}}, SessionFrame{ErrorFrame{"oops"}}}) {
        std::vector<std::uint8_t> buf;
        encode_frame(frame, buf);
        for (std::size_t cut = 1; cut < buf.size(); ++cut) {
            std::vector<std::uint8_t> partial(
                buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(cut));
            std::size_t off = 0;
            EXPECT_EQ(decode_frame(partial, off), std::nullopt) << "cut=" << cut;
            EXPECT_EQ(off, 0u);
        }
    }
}

TEST(SessionFrame, UnknownTagThrows) {
    const std::vector<std::uint8_t> buf = {0xff, 0x00, 0x01};
    std::size_t off = 0;
    EXPECT_THROW(decode_frame(buf, off), std::runtime_error);
}

TEST(SessionFrame, CorruptLengthsThrow) {
    // HELLO whose query length exceeds the sanity bound.
    std::vector<std::uint8_t> hello;
    encode_frame(SessionFrame{HelloFrame{"q", 1, 0, ""}}, hello);
    hello[1] = 0xff;  // query length bytes sit right after the tag
    hello[2] = 0xff;
    hello[3] = 0xff;
    std::size_t off = 0;
    EXPECT_THROW(decode_frame(hello, off), std::runtime_error);

    // RESULT whose constituent count exceeds the sanity bound.
    std::vector<std::uint8_t> result;
    encode_frame(SessionFrame{ResultFrame{}}, result);
    result[9] = 0xff;  // constituent count sits after tag + window id
    result[10] = 0xff;
    result[11] = 0xff;
    result[12] = 0xff;
    off = 0;
    EXPECT_THROW(decode_frame(result, off), std::runtime_error);

    // DATA wrapping a corrupt quote (symbol length beyond kMaxSymbolLength)
    // propagates the inner corruption.
    WireQuote q;
    q.symbol = "OK";
    std::vector<std::uint8_t> data;
    encode_frame(SessionFrame{q}, data);
    data[33] = 0xff;  // symbol length field: tag byte + 32-byte quote header
    data[34] = 0xff;
    off = 0;
    EXPECT_THROW(decode_frame(data, off), std::runtime_error);
}

TEST(SessionFrame, StatsFrameRoundTrips) {
    // Response shape: a JSON body.
    StatsFrame reply{"{\"server\":{\"events_ingested\":42},\"session\":{}}"};
    EXPECT_EQ(std::get<StatsFrame>(round_trip(SessionFrame{reply})), reply);

    // Request shape: zero-length body (the client asks, the server fills).
    StatsFrame request{};
    const auto back = std::get<StatsFrame>(round_trip(SessionFrame{request}));
    EXPECT_EQ(back, request);
    EXPECT_TRUE(back.json.empty());
}

TEST(SessionFrame, TruncatedStatsFrameReturnsNullopt) {
    std::vector<std::uint8_t> buf;
    encode_frame(SessionFrame{StatsFrame{"{\"events_ingested\":7}"}}, buf);
    for (std::size_t cut = 1; cut < buf.size(); ++cut) {
        std::vector<std::uint8_t> partial(
            buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(cut));
        std::size_t off = 0;
        EXPECT_EQ(decode_frame(partial, off), std::nullopt) << "cut=" << cut;
        EXPECT_EQ(off, 0u);
    }
}

TEST(SessionFrame, CorruptStatsLengthThrows) {
    // STATS whose body length exceeds kMaxStatsLength is corrupt, not
    // incomplete: decode must throw, never wait for more bytes.
    std::vector<std::uint8_t> buf;
    encode_frame(SessionFrame{StatsFrame{"{}"}}, buf);
    buf[1] = 0xff;  // length bytes sit right after the tag
    buf[2] = 0xff;
    buf[3] = 0xff;
    buf[4] = 0x7f;
    std::size_t off = 0;
    EXPECT_THROW(decode_frame(buf, off), std::runtime_error);
}

TEST(SessionFrame, DecodeAdvancesAcrossMixedFrames) {
    std::vector<std::uint8_t> buf;
    encode_frame(SessionFrame{HelloFrame{"PATTERN (A)", 0, 0, ""}}, buf);
    WireQuote q;
    q.ts = 1;
    q.symbol = "A";
    encode_frame(SessionFrame{q}, buf);
    encode_frame(SessionFrame{ByeFrame{0}}, buf);

    std::size_t off = 0;
    EXPECT_TRUE(std::holds_alternative<HelloFrame>(*decode_frame(buf, off)));
    EXPECT_TRUE(std::holds_alternative<WireQuote>(*decode_frame(buf, off)));
    EXPECT_TRUE(std::holds_alternative<ByeFrame>(*decode_frame(buf, off)));
    EXPECT_EQ(off, buf.size());
    EXPECT_EQ(decode_frame(buf, off), std::nullopt);
}

// ---------------------------------------------------------------------------
// TcpClient: the connecting side.
// ---------------------------------------------------------------------------

TEST(Tcp, ClientDisablesNagle) {
    std::uint16_t port = 0;
    const int listen_fd = listen_loopback(0, /*backlog=*/1, port);
    TcpClient c("127.0.0.1", port);
    int nodelay = 0;
    socklen_t len = sizeof(nodelay);
    ASSERT_EQ(::getsockopt(c.fd(), IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
    EXPECT_EQ(nodelay, 1);
    ::close(listen_fd);
}

TEST(Tcp, FailedConnectClosesItsSocket) {
    // A port that was just listening and no longer is: connect() is refused.
    std::uint16_t port = 0;
    ::close(listen_loopback(0, /*backlog=*/1, port));
    const auto open_fds = [] {
        return std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                             std::filesystem::directory_iterator{});
    };
    const auto before = open_fds();
    for (int i = 0; i < 64; ++i)
        EXPECT_THROW(TcpClient("127.0.0.1", port), std::runtime_error);
    EXPECT_EQ(open_fds(), before);
}

// ---------------------------------------------------------------------------
// EgressRing (DESIGN.md §14): batched vectored egress. Every test here checks
// the invariant the server's parity guarantee rests on — the byte stream a
// flush schedule produces equals concatenating encode_frame() over the
// appended frames, no matter how sends split, coalesce, block or die.

namespace {

std::vector<SessionFrame> result_burst(int n) {
    std::vector<SessionFrame> frames;
    for (int i = 0; i < n; ++i) {
        ResultFrame r;
        r.window_id = static_cast<std::uint64_t>(i);
        r.constituents = {static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(i) + 1,
                          static_cast<std::uint64_t>(i) + 2};
        r.payload = {{"gain", 0.25 * i}, {"lane", static_cast<double>(i % 7)}};
        frames.push_back(SessionFrame{std::move(r)});
    }
    return frames;
}

std::vector<std::uint8_t> encode_all(const std::vector<SessionFrame>& frames) {
    std::vector<std::uint8_t> out;
    for (const auto& f : frames) encode_frame(f, out);
    return out;
}

// A sendv that accepts at most `cap` bytes per call into `got` — the
// partial-write schedule knob.
EgressRing::SendvFn capped_sink(std::vector<std::uint8_t>& got, std::size_t cap) {
    return [&got, cap](const struct iovec* iov, int cnt) -> ssize_t {
        std::size_t budget = cap, wrote = 0;
        for (int i = 0; i < cnt && budget > 0; ++i) {
            const auto* base = static_cast<const std::uint8_t*>(iov[i].iov_base);
            const std::size_t take = std::min(iov[i].iov_len, budget);
            got.insert(got.end(), base, base + take);
            wrote += take;
            budget -= take;
        }
        return static_cast<ssize_t>(wrote);
    };
}

}  // namespace

TEST(EgressRing, FlushIsByteIdenticalAcrossPartialWriteSchedules) {
    const auto frames = result_burst(200);
    const auto expect = encode_all(frames);
    for (const std::size_t cap : {std::size_t{1}, std::size_t{3}, std::size_t{17},
                                  std::size_t{64}, std::size_t{1000}, expect.size()}) {
        EgressRing ring;
        for (const auto& f : frames) ring.append(f);
        ASSERT_EQ(ring.bytes(), expect.size());
        std::vector<std::uint8_t> got;
        const auto r = ring.flush(capped_sink(got, cap));
        EXPECT_EQ(r.status, EgressRing::FlushStatus::Drained) << "cap=" << cap;
        EXPECT_EQ(r.sent, expect.size());
        EXPECT_TRUE(ring.empty());
        EXPECT_EQ(got, expect) << "cap=" << cap;
    }
}

TEST(EgressRing, SmallBlocksForceMultiRoundGatherAndStayByteIdentical) {
    // 64-byte blocks: 200 frames span far more blocks than kMaxIov, so one
    // flush takes several gather rounds; coalescing must not reorder bytes.
    const auto frames = result_burst(200);
    const auto expect = encode_all(frames);
    EgressRing ring(64);
    for (const auto& f : frames) ring.append(f);
    std::vector<std::uint8_t> got;
    const auto r = ring.flush(capped_sink(got, expect.size()));
    EXPECT_EQ(r.status, EgressRing::FlushStatus::Drained);
    EXPECT_EQ(got, expect);
}

TEST(EgressRing, EintrRetriesUntilDrained) {
    const auto frames = result_burst(50);
    const auto expect = encode_all(frames);
    EgressRing ring;
    for (const auto& f : frames) ring.append(f);
    std::vector<std::uint8_t> got;
    int calls = 0;
    const auto inner = capped_sink(got, 128);
    const auto r = ring.flush([&](const struct iovec* iov, int cnt) -> ssize_t {
        if (++calls % 2 == 1) {  // every other send is interrupted
            errno = EINTR;
            return -1;
        }
        return inner(iov, cnt);
    });
    EXPECT_EQ(r.status, EgressRing::FlushStatus::Drained);
    EXPECT_EQ(got, expect);
    EXPECT_GT(calls, 2);
}

TEST(EgressRing, EagainBlocksThenResumesWithoutLosingBytes) {
    const auto frames = result_burst(80);
    const auto expect = encode_all(frames);
    EgressRing ring;
    for (const auto& f : frames) ring.append(f);
    std::vector<std::uint8_t> got;
    std::size_t sent_first = 0;
    {
        const auto inner = capped_sink(got, 96);
        int calls = 0;
        const auto r = ring.flush([&](const struct iovec* iov, int cnt) -> ssize_t {
            if (++calls > 3) {  // the socket buffer "fills" after three sends
                errno = EAGAIN;
                return -1;
            }
            return inner(iov, cnt);
        });
        EXPECT_EQ(r.status, EgressRing::FlushStatus::Blocked);
        sent_first = r.sent;
        EXPECT_EQ(ring.bytes(), expect.size() - sent_first);
    }
    // Appending while blocked must keep append order on the wire.
    const auto more = result_burst(5);
    for (const auto& f : more) ring.append(f);
    auto full_expect = expect;
    {
        const auto tail = encode_all(more);
        full_expect.insert(full_expect.end(), tail.begin(), tail.end());
    }
    const auto r2 = ring.flush(capped_sink(got, full_expect.size()));
    EXPECT_EQ(r2.status, EgressRing::FlushStatus::Drained);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(got, full_expect);
}

TEST(EgressRing, MidIovecConnectionDeathReportsError) {
    const auto frames = result_burst(40);
    const auto expect = encode_all(frames);
    EgressRing ring;
    for (const auto& f : frames) ring.append(f);
    std::vector<std::uint8_t> got;
    int calls = 0;
    const auto inner = capped_sink(got, 100);
    const auto r = ring.flush([&](const struct iovec* iov, int cnt) -> ssize_t {
        if (++calls > 2) {  // the peer died after two partial writes
            errno = EPIPE;
            return -1;
        }
        return inner(iov, cnt);
    });
    EXPECT_EQ(r.status, EgressRing::FlushStatus::Error);
    EXPECT_EQ(r.error, EPIPE);
    EXPECT_EQ(r.sent, 200u);
    // What did reach the wire is a clean prefix — never torn or reordered.
    ASSERT_LE(got.size(), expect.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin()));
    ring.clear();  // what the session does when it poisons egress
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.bytes(), 0u);
}

// ---------------------------------------------------------------------------
// scatter_data (§14): the zero-copy DATA decode the reactor runs directly on
// the backend's read views.

namespace {

// Mimics the session's ingest loop: scatter while the reader is empty, stage
// the rest of the view otherwise, poll staged frames out. The frames it
// collects must match the all-staged FrameReader decode for any view split.
struct MiniScatterConsumer {
    FrameReader reader;
    std::vector<SessionFrame> frames;

    void consume(const std::uint8_t* data, std::size_t size) {
        std::size_t pos = 0;
        while (pos < size && reader.empty()) {
            DataFrameView dv;
            const auto st = scatter_data(data, size, pos, dv);
            if (st == ScatterStatus::Data) {
                WireQuote q;
                q.ts = dv.ts;
                q.open = dv.open;
                q.close = dv.close;
                q.volume = dv.volume;
                q.symbol = std::string(dv.symbol_view());
                frames.push_back(SessionFrame{std::move(q)});
                continue;
            }
            break;  // Control or NeedMore: stage the tail
        }
        if (pos < size) reader.feed(data + pos, size - pos);
        while (auto f = reader.poll()) frames.push_back(std::move(*f));
    }
};

}  // namespace

TEST(Scatter, StatusPerFrameKind) {
    WireQuote q;
    q.ts = 7;
    q.open = 1;
    q.close = 2;
    q.volume = 3;
    q.symbol = "IBM";
    std::vector<std::uint8_t> buf;
    encode_frame(SessionFrame{q}, buf);

    std::size_t pos = 0;
    DataFrameView dv;
    ASSERT_EQ(scatter_data(buf.data(), buf.size(), pos, dv), ScatterStatus::Data);
    EXPECT_EQ(pos, buf.size());
    EXPECT_EQ(dv.ts, 7);
    EXPECT_EQ(dv.symbol_view(), "IBM");
    EXPECT_DOUBLE_EQ(dv.open, 1);
    EXPECT_DOUBLE_EQ(dv.close, 2);
    EXPECT_DOUBLE_EQ(dv.volume, 3);

    // Truncated DATA: NeedMore at every cut, pos untouched.
    for (std::size_t cut = 1; cut < buf.size(); ++cut) {
        pos = 0;
        EXPECT_EQ(scatter_data(buf.data(), cut, pos, dv), ScatterStatus::NeedMore) << cut;
        EXPECT_EQ(pos, 0u);
    }

    // Control frame: left untouched for the staged path.
    std::vector<std::uint8_t> ctl;
    encode_frame(SessionFrame{ByeFrame{}}, ctl);
    pos = 0;
    EXPECT_EQ(scatter_data(ctl.data(), ctl.size(), pos, dv), ScatterStatus::Control);
    EXPECT_EQ(pos, 0u);
}

TEST(Scatter, CorruptSymbolLengthThrowsLikeStagedDecode) {
    WireQuote q;
    q.ts = 1;
    q.symbol = "OK";
    std::vector<std::uint8_t> buf;
    encode_frame(SessionFrame{q}, buf);
    // Patch the symbol-length field (tag byte + ts/open/close/volume = 33).
    for (std::size_t i = 0; i < 4; ++i) buf[1 + 32 + i] = 0xff;
    std::size_t pos = 0;
    DataFrameView dv;
    EXPECT_THROW(scatter_data(buf.data(), buf.size(), pos, dv), std::runtime_error);
    // The staged path agrees that the stream is corrupt.
    FrameReader r;
    r.feed(buf.data(), buf.size());
    EXPECT_THROW(r.poll(), std::runtime_error);
}

TEST(Scatter, SplitAtEveryBoundaryMatchesStagedDecode) {
    WireQuote a;
    a.ts = 1;
    a.open = 1;
    a.close = 2;
    a.volume = 3;
    a.symbol = "AAPL";
    WireQuote b;
    b.ts = 2;
    b.open = -1;
    b.close = 0.5;
    b.volume = 1e9;
    b.symbol = "";  // empty symbol is legal on the wire
    WireQuote c;
    c.ts = 3;
    c.symbol = "A_VERY_LONG_SYMBOL_NAME_FOR_TESTS";

    std::vector<SessionFrame> frames;
    frames.push_back(SessionFrame{a});
    frames.push_back(SessionFrame{b});
    frames.push_back(SessionFrame{StatsFrame{}});  // control mid-stream
    frames.push_back(SessionFrame{c});
    frames.push_back(SessionFrame{ResultFrame{9, {1, 2}, {{"x", 1.5}}}});
    frames.push_back(SessionFrame{a});
    frames.push_back(SessionFrame{ByeFrame{7}});

    std::vector<std::uint8_t> stream;
    for (const auto& f : frames) encode_frame(f, stream);

    // Ground truth: the all-staged decode.
    std::vector<SessionFrame> expect;
    {
        FrameReader r;
        r.feed(stream.data(), stream.size());
        while (auto f = r.poll()) expect.push_back(std::move(*f));
        EXPECT_TRUE(r.empty());
    }
    ASSERT_EQ(expect.size(), frames.size());

    for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
        MiniScatterConsumer mc;
        mc.consume(stream.data(), cut);
        mc.consume(stream.data() + cut, stream.size() - cut);
        EXPECT_EQ(mc.frames, expect) << "cut=" << cut;
    }

    // One byte at a time: everything funnels through NeedMore + staging.
    MiniScatterConsumer mc;
    for (std::size_t i = 0; i < stream.size(); ++i) mc.consume(stream.data() + i, 1);
    EXPECT_EQ(mc.frames, expect);
}

// ---------------------------------------------------------------------------
// Reactor (§14): the stream lifecycle — bytes in order, clean EOF,
// cross-thread wake — and fd reuse.

namespace {

void exercise_stream(Reactor& io) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
    const int rfd = sv[0], wfd = sv[1];
    ASSERT_TRUE(io.add(rfd, 7, Reactor::kRead));

    std::vector<std::uint8_t> pattern(256 * 1024);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 8));

    std::vector<std::uint8_t> got;
    std::size_t written = 0;
    bool writer_closed = false;
    bool saw_eof = false;
    bool toggled = false;
    int spins = 0;
    while (!saw_eof && ++spins < 100000) {
        // Feed the writer until its socket buffer fills (or all is written),
        // then close it so the reader side sees EOF.
        while (written < pattern.size()) {
            const ssize_t w = ::send(wfd, pattern.data() + written, pattern.size() - written,
                                     MSG_NOSIGNAL | MSG_DONTWAIT);
            if (w > 0) {
                written += static_cast<std::size_t>(w);
                continue;
            }
            if (w < 0 && errno == EINTR) continue;
            ASSERT_TRUE(w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                << "send: " << std::strerror(errno);
            break;
        }
        if (written == pattern.size() && !writer_closed) {
            ::close(wfd);
            writer_closed = true;
        }
        IoEvent events[8];
        const int n = io.wait(events, 8);
        ASSERT_GE(n, 0);
        for (int i = 0; i < n; ++i) {
            if (events[i].tag != 7) continue;
            for (;;) {
                Reactor::ReadView view;
                const auto rs = io.read(rfd, view);
                if (rs == Reactor::ReadStatus::Data) {
                    got.insert(got.end(), view.data, view.data + view.size);
                    continue;
                }
                if (rs == Reactor::ReadStatus::Eof) saw_eof = true;
                ASSERT_NE(rs, Reactor::ReadStatus::Error)
                    << std::strerror(io.read_error());
                break;
            }
        }
        // Once, mid-stream: pause + resume read interest (the ingest
        // backpressure path the server drives on every watermark crossing).
        if (!toggled && got.size() > pattern.size() / 2) {
            toggled = true;
            ASSERT_TRUE(io.mod(rfd, 7, 0));
            ASSERT_TRUE(io.mod(rfd, 7, Reactor::kRead));
        }
    }
    ASSERT_TRUE(saw_eof) << "stream never reached EOF";
    ASSERT_EQ(got.size(), pattern.size());
    EXPECT_EQ(got, pattern);
    EXPECT_TRUE(toggled);

    // wake() from another thread surfaces as a kWakeTag event. Deregister the
    // (EOF-readable, level-triggered) stream fd first so wait() genuinely
    // blocks: on one core a bounded spin of instant wait() returns could
    // exhaust itself before the waker thread is ever scheduled.
    io.del(rfd);
    ::close(rfd);
    if (!writer_closed) ::close(wfd);
    std::thread waker([&io] { io.wake(); });
    bool woke = false;
    while (!woke) {
        IoEvent events[8];
        const int n = io.wait(events, 8);  // blocks; 0 only on EINTR
        ASSERT_GE(n, 0);
        for (int i = 0; i < n; ++i)
            if (events[i].tag == Reactor::kWakeTag) woke = true;
    }
    waker.join();
    EXPECT_TRUE(woke);
}

// Reads everything `tag` has ready once wait() reports it; false on EOF or
// error, or when it never became readable.
bool read_ready(Reactor& io, int fd, std::uint64_t tag, std::string& got) {
    for (int spin = 0; spin < 1000; ++spin) {
        IoEvent events[8];
        const int n = io.wait(events, 8);
        if (n < 0) return false;
        for (int i = 0; i < n; ++i) {
            if (events[i].tag != tag) continue;
            Reactor::ReadView view;
            Reactor::ReadStatus rs;
            while ((rs = io.read(fd, view)) == Reactor::ReadStatus::Data)
                got.append(reinterpret_cast<const char*>(view.data), view.size);
            return rs == Reactor::ReadStatus::Again;
        }
    }
    return false;
}

// A closed fd's number comes straight back from the next socket: the new
// registration must see only its own bytes, and tearing it down must release
// the socket (the peer sees EOF) — nothing the old registration left in
// flight may attach to it.
void exercise_fd_reuse(Reactor& io) {
    int first[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, first), 0);
    const int fd = first[0];
    ASSERT_TRUE(io.add(fd, 1, Reactor::kRead));
    ASSERT_EQ(::send(first[1], "x", 1, MSG_NOSIGNAL), 1);
    std::string got;
    ASSERT_TRUE(read_ready(io, fd, 1, got));
    EXPECT_EQ(got, "x");
    io.del(fd);
    ::close(fd);
    ::close(first[1]);

    int second[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, second), 0);
    if (second[0] != fd) {  // same number, new socket
        ASSERT_EQ(::dup2(second[0], fd), fd);
        ::close(second[0]);
    }
    ASSERT_TRUE(io.add(fd, 2, Reactor::kRead));
    ASSERT_EQ(::send(second[1], "yz", 2, MSG_NOSIGNAL), 2);
    got.clear();
    ASSERT_TRUE(read_ready(io, fd, 2, got)) << "reused fd reported EOF or error";
    EXPECT_EQ(got, "yz");
    io.del(fd);
    ::close(fd);

    pollfd pfd{second[1], POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 5000), 1) << "reused socket still held open";
    char c = 0;
    EXPECT_EQ(::recv(second[1], &c, 1, 0), 0);
    ::close(second[1]);
}

}  // namespace

TEST(Reactor, FdReuseSeesOnlyTheNewSocket) {
    Reactor io;
    exercise_fd_reuse(io);
}

TEST(Reactor, StreamsBytesInOrder) {
    Reactor io;
    exercise_stream(io);
}

TEST(FrameReader, TailNeedNamesExactCompletionBytes) {
    std::vector<SessionFrame> frames;
    frames.push_back(SessionFrame{HelloFrame{"PATTERN (A B)", 2, 0, "SUBJECT"}});
    WireQuote q;
    q.ts = 5;
    q.symbol = "AAPL";
    frames.push_back(SessionFrame{q});
    frames.push_back(SessionFrame{ResultFrame{3, {1, 2, 3}, {{"gain", 1.0}, {"x", 2.0}}}});
    frames.push_back(SessionFrame{StatsFrame{"{\"a\":1}"}});
    frames.push_back(SessionFrame{ErrorFrame{"boom"}});
    frames.push_back(SessionFrame{ByeFrame{9}});
    for (std::size_t fi = 0; fi < frames.size(); ++fi) {
        std::vector<std::uint8_t> buf;
        encode_frame(frames[fi], buf);
        FrameReader r;
        r.feed(buf.data(), 1);  // the tag byte alone
        std::size_t fed = 1;
        int steps = 0;
        while (fed < buf.size()) {
            ASSERT_LT(++steps, 16) << "frame " << fi << " did not converge";
            const auto need = r.tail_need();
            ASSERT_GT(need, 0u) << "frame " << fi;
            // A lower bound: never asks past the actual frame end.
            ASSERT_LE(need, buf.size() - fed) << "frame " << fi;
            r.feed(buf.data() + fed, need);
            fed += need;
        }
        EXPECT_EQ(r.tail_need(), 0u) << "frame " << fi;
        EXPECT_TRUE(r.poll().has_value()) << "frame " << fi;
        EXPECT_TRUE(r.empty()) << "frame " << fi;
        EXPECT_EQ(r.tail_need(), 0u) << "frame " << fi;
    }
}

// ---------------------------------------------------------------------------
// HELLO v2 (DESIGN.md §15): the versioned key-value handshake frame, and the
// fuzz-style sweep over the whole frame catalogue that the append-only wire
// versioning rule is pinned by.
// ---------------------------------------------------------------------------

TEST(SessionFrame, Hello2RoundTrips) {
    Hello2Frame hello;
    hello.set("role", "subscribe");
    hello.set("stream", "nyse");
    hello.set("query", "PATTERN (A B) DEFINE A AS A.close > A.open");
    hello.set("instances", "4");
    hello.set("empty", "");  // empty values survive
    EXPECT_EQ(std::get<Hello2Frame>(round_trip(SessionFrame{hello})), hello);

    Hello2Frame none;  // zero pairs is a valid (if useless) v2 HELLO
    EXPECT_EQ(std::get<Hello2Frame>(round_trip(SessionFrame{none})), none);

    // Unknown keys ride along untouched — that's the extensibility contract.
    Hello2Frame future;
    future.set("role", "publish");
    future.set("stream", "s");
    future.set("some_future_knob", "whatever");
    const auto back = std::get<Hello2Frame>(round_trip(SessionFrame{future}));
    EXPECT_EQ(back.get("some_future_knob"), "whatever");
}

TEST(SessionFrame, Hello2PartialReturnsNulloptAndBoundsReject) {
    Hello2Frame hello;
    hello.set("role", "subscribe");
    hello.set("stream", "nyse");
    std::vector<std::uint8_t> buf;
    encode_frame(SessionFrame{hello}, buf);
    for (std::size_t cut = 1; cut < buf.size(); ++cut) {
        std::size_t off = 0;
        const std::vector<std::uint8_t> partial(
            buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(cut));
        EXPECT_EQ(decode_frame(partial, off), std::nullopt) << "cut=" << cut;
        EXPECT_EQ(off, 0u);
    }

    // Pair count beyond the sanity bound throws (framing is lost). Patched
    // at the byte level — the encoder refuses to produce such a frame.
    auto fat = buf;
    fat[1] = 0xff;  // pair count sits right after the tag
    fat[2] = 0xff;
    fat[3] = 0xff;
    fat[4] = 0xff;
    std::size_t off = 0;
    EXPECT_THROW(decode_frame(fat, off), std::runtime_error);

    // So does a key length beyond its bound.
    auto long_key = buf;
    long_key[5] = 0xff;  // first key's length field
    long_key[6] = 0xff;
    off = 0;
    EXPECT_THROW(decode_frame(long_key, off), std::runtime_error);
}

namespace {

// One of each catalogued frame kind (tags 1..7), with representative payloads.
std::vector<SessionFrame> frame_catalogue() {
    std::vector<SessionFrame> frames;
    frames.push_back(SessionFrame{HelloFrame{"PATTERN (A B) DEFINE ...", 2, 4, "SUBJECT"}});
    WireQuote q;
    q.ts = 77;
    q.symbol = "MSFT";
    frames.push_back(SessionFrame{q});
    frames.push_back(SessionFrame{ResultFrame{9, {4, 5, 6}, {{"gain", 0.5}}}});
    frames.push_back(SessionFrame{ByeFrame{123}});
    frames.push_back(SessionFrame{ErrorFrame{"bad things"}});
    frames.push_back(SessionFrame{StatsFrame{"{\"x\":1}"}});
    Hello2Frame h2;
    h2.set("role", "subscribe");
    h2.set("stream", "nyse");
    h2.set("query", "PATTERN (A)");
    frames.push_back(SessionFrame{h2});
    return frames;
}

}  // namespace

// Fuzz-style sweep: random interleavings of every frame kind, fed to a
// FrameReader in random-size slices, must decode to exactly the encoded
// sequence; random single-byte corruptions of the same stream must either
// decode, stall awaiting more bytes, or throw — never mis-frame silently
// into a *different* valid frame sequence of equal length.
TEST(FrameReader, FuzzedSplitsAndCorruptionsNeverSilentlyMisframe) {
    std::mt19937 rng(20260808);
    const auto kinds = frame_catalogue();
    for (int iter = 0; iter < 200; ++iter) {
        // A random message sequence over the full catalogue.
        std::vector<SessionFrame> sent;
        std::vector<std::uint8_t> wire;
        const std::size_t count = 1 + rng() % 12;
        for (std::size_t i = 0; i < count; ++i) {
            sent.push_back(kinds[rng() % kinds.size()]);
            encode_frame(sent.back(), wire);
        }

        // Random split schedule: any slicing decodes to the same frames.
        FrameReader r;
        std::vector<SessionFrame> got;
        std::size_t fed = 0;
        while (fed < wire.size()) {
            const std::size_t n =
                std::min<std::size_t>(1 + rng() % 23, wire.size() - fed);
            r.feed(wire.data() + fed, n);
            fed += n;
            while (auto f = r.poll()) got.push_back(std::move(*f));
        }
        ASSERT_EQ(got.size(), sent.size()) << "iter=" << iter;
        for (std::size_t i = 0; i < sent.size(); ++i)
            EXPECT_EQ(got[i], sent[i]) << "iter=" << iter << " frame=" << i;
        EXPECT_TRUE(r.empty()) << "iter=" << iter;

        // Single-byte corruption: whatever still decodes must be a prefix
        // that re-encodes into the bytes it was decoded from (no silent
        // misframing); everything else throws or stalls.
        auto mutated = wire;
        const std::size_t at = rng() % mutated.size();
        mutated[at] ^= static_cast<std::uint8_t>(1 + rng() % 255);
        FrameReader m;
        m.feed(mutated.data(), mutated.size());
        std::vector<std::uint8_t> reencoded;
        try {
            while (auto f = m.poll()) encode_frame(*f, reencoded);
        } catch (const std::runtime_error&) {
            continue;  // corruption detected — the desired outcome
        }
        ASSERT_LE(reencoded.size(), mutated.size()) << "iter=" << iter;
        EXPECT_TRUE(std::equal(reencoded.begin(), reencoded.end(), mutated.begin()))
            << "iter=" << iter << ": decoded frames disagree with their own bytes";
    }
}
