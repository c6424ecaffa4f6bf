// Reactor: the server's I/O loop over level-triggered epoll (DESIGN.md §14).
//
// add/mod/del are epoll_ctl, wait() is epoll_wait, read() is one recv() into
// a reactor-owned 64 KiB buffer. The buffer is sized so one wakeup usually
// drains a whole burst; callers loop read() until Again, so syscalls per
// event follow the recv count, not the wakeup count. The wake eventfd lives
// inside the reactor, which registers and drains it and reports kWakeTag.
//
// The contract CepServer and ServerSession assume:
//   * Level-triggered: while the interest includes kRead/kWrite and the fd
//     is ready, wait() keeps reporting it.
//   * read() returns a view into the one reactor-owned buffer (see read()).
//     Nothing is allocated per call.
//   * wake() is callable from any thread; wait() then reports one event
//     with tag kWakeTag.
//   * One reactor thread: every method except wake() must be called from
//     the thread that calls wait().
#pragma once

#include <sys/epoll.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spectre::net {

struct IoEvent {
    std::uint64_t tag = 0;
    bool readable = false;
    bool writable = false;
    bool err_hup = false;
};

class Reactor {
public:
    // Interest mask bits for add()/mod().
    static constexpr std::uint32_t kRead = 1u << 0;
    static constexpr std::uint32_t kWrite = 1u << 1;

    // Reserved tag wait() reports after a wake() (never a caller fd's tag).
    static constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};

    Reactor();
    ~Reactor();

    Reactor(const Reactor&) = delete;
    Reactor& operator=(const Reactor&) = delete;

    // Registers `fd` under `tag`. Returns false on failure (caller drops the
    // connection; the reactor must survive).
    bool add(int fd, std::uint64_t tag, std::uint32_t interest);
    // Updates the interest mask. May fail after the peer hung up — harmless,
    // the fd delivers nothing further.
    bool mod(int fd, std::uint64_t tag, std::uint32_t interest);
    void del(int fd);

    // Blocks until at least one event (or a wake). Returns events written to
    // `out` (≤ cap), 0 on EINTR. Negative means epoll is unusable.
    int wait(IoEvent* out, int cap);

    // Any-thread: make wait() return with a kWakeTag event.
    void wake();

    enum class ReadStatus { Data, Again, Eof, Error };
    struct ReadView {
        const std::uint8_t* data = nullptr;
        std::size_t size = 0;
    };
    // Next burst of bytes from `fd`. Data: `view` points into the reactor's
    // one read buffer and stays valid until the next read() on ANY fd.
    // Again: nothing readable now. Error: transport error (errno in
    // read_error()).
    ReadStatus read(int fd, ReadView& view);
    // errno of the last ReadStatus::Error from read().
    int read_error() const noexcept { return read_errno_; }

private:
    static constexpr std::size_t kReadBufferBytes = 64 * 1024;

    int epoll_fd_ = -1;
    int wake_fd_ = -1;
    int read_errno_ = 0;
    std::vector<std::uint8_t> buffer_;
    std::vector<struct epoll_event> scratch_;
};

}  // namespace spectre::net
