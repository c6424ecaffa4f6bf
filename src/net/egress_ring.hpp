// EgressRing: block-chained egress buffer flushed with vectored writes
// (DESIGN.md §14).
//
// RESULT egress used to be one contiguous std::vector per session: every
// frame was encoded into a temporary vector, copied into the big buffer, and
// flushed with plain ::send — with a head-offset compaction memmove on top.
// The ring removes both copies and the memmove:
//
//   * append() hands encode_frame the ring's tail block directly, so frame
//     bytes are written exactly once, in wire order, into storage that is
//     never relocated while unsent;
//   * flush() gathers up to kMaxIov block tails into an iovec and issues one
//     vectored send, so many small RESULT frames coalesce into one syscall;
//   * fully-sent blocks recycle onto a bounded free list instead of being
//     compacted — consuming is pointer arithmetic, not memmove.
//
// Byte order on the wire is exactly append order, whatever the coalescing
// schedule: a flush boundary never lands inside the stream in a way the peer
// can observe (TCP is a byte stream; the iovec only changes how many bytes
// one syscall carries). That is why the §10 byte-identical RESULT parity
// gates hold over every flush schedule.
//
// Thread-safety: none here — the owner serializes (ServerSession holds its
// egress mutex, matching the pre-§14 buffer). The send function is injected
// so tests can fault-inject partial writes, EINTR, EAGAIN, and mid-iovec
// connection death without a socket.
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/session.hpp"

namespace spectre::net {

class EgressRing {
public:
    static constexpr int kMaxIov = 64;

    explicit EgressRing(std::size_t block_bytes = 16 * 1024) : block_bytes_(block_bytes) {}

    bool empty() const noexcept { return bytes_ == 0; }
    // Unsent bytes buffered — the §9 egress credit quantity.
    std::size_t bytes() const noexcept { return bytes_; }

    // Encodes `f` directly into the tail block (no staging copy).
    void append(const SessionFrame& f);

    // Drops all buffered bytes (dead connection); keeps recycled storage.
    void clear();

    enum class FlushStatus {
        Drained,  // everything buffered has been written
        Blocked,  // kernel buffer full (EAGAIN); bytes remain
        Error,    // transport error; remaining bytes dropped by the caller
    };
    struct FlushResult {
        FlushStatus status = FlushStatus::Drained;
        std::size_t sent = 0;  // bytes written by this flush call
        int error = 0;         // errno when status == Error
    };

    // One vectored non-blocking send per loop iteration until drained,
    // blocked, or dead. Handles partial writes (mid-block and mid-iovec) and
    // EINTR internally. `sendv` has writev semantics: bytes written or -1
    // with errno set.
    using SendvFn = std::function<ssize_t(const struct iovec*, int)>;
    FlushResult flush(const SendvFn& sendv);

private:
    struct Block {
        std::vector<std::uint8_t> data;
        std::size_t head = 0;  // bytes of `data` already sent
    };

    std::vector<std::uint8_t>& tail_for_append();
    void consume(std::size_t n);
    int gather(struct iovec* iov, int cap) const;

    std::size_t block_bytes_;
    std::size_t bytes_ = 0;
    std::deque<Block> blocks_;
    std::vector<std::vector<std::uint8_t>> free_;  // bounded recycle list
};

}  // namespace spectre::net
