// UringBackend: io_uring data plane behind the IoBackend interface
// (DESIGN.md §14), written against the raw kernel UAPI — the container has
// <linux/io_uring.h> but no liburing, so ring setup/mmap/submission are done
// by hand with __atomic builtins for the ring barriers.
//
// Layout of the plane:
//   * kStream fds (session connections) run a multishot IORING_OP_RECV with
//     IOSQE_BUFFER_SELECT over one provided-buffer ring (group 0): the
//     kernel copies socket bytes straight into backend-owned slab buffers
//     and posts one CQE per burst; read() pops completed segments without a
//     syscall and recycles each buffer once the caller moves to the next.
//   * Everything else (listen, admin, write interest, the wake eventfd) is
//     oneshot IORING_OP_POLL_ADD. Oneshot polls + multishot terminations are
//     reconciled against the *desired* interest at the top of every wait(),
//     which is what makes the backend look level-triggered to CepServer:
//     interest persists ⇒ the op is re-armed before the reactor blocks.
//   * Pausing a stream read (mod() without kRead) submits ASYNC_CANCEL — a
//     paused session must stop consuming shared slab buffers, not merely be
//     ignored; already-completed segments stay queued and a resume "kicks"
//     the fd so wait() reports it readable without new kernel traffic.
//
// Feature gating: compiled when CMake found the UAPI header
// (SPECTRE_HAVE_IO_URING); at runtime uring_supported() probes one throwaway
// ring including IORING_REGISTER_PBUF_RING, so a kernel or seccomp policy
// that refuses io_uring makes make_uring_backend() return nullptr and the
// factory falls back to epoll.
#include "net/io_backend.hpp"

#if defined(__linux__) && defined(SPECTRE_HAVE_IO_URING)

#include <linux/io_uring.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <vector>

namespace spectre::net {

namespace {

int sys_io_uring_setup(unsigned entries, struct io_uring_params* p) {
    return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete, unsigned flags) {
    return static_cast<int>(
        ::syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags, nullptr, 0));
}

int sys_io_uring_register(int fd, unsigned opcode, void* arg, unsigned nr_args) {
    return static_cast<int>(::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

// user_data encoding: low byte = op kind, next 32 bits = fd, top 24 bits =
// the fd's registration generation. A closed fd's number is reused by the
// next socket while ops of the old registration are still in flight; the
// generation is what tells their completions apart from the new one's.
enum Ud : std::uint64_t { kUdRecv = 1, kUdPollRead = 2, kUdPollWrite = 3, kUdWake = 4, kUdCancel = 5 };
constexpr std::uint32_t kGenMask = (std::uint32_t{1} << 24) - 1;

std::uint64_t ud_make(Ud kind, int fd, std::uint32_t gen) {
    return static_cast<std::uint64_t>(kind) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(fd)) << 8) |
           (static_cast<std::uint64_t>(gen & kGenMask) << 40);
}

class UringBackend final : public IoBackend {
public:
    // Provided-buffer slab: 64 × 32 KiB = 2 MiB. Bounded regardless of the
    // session count — a paused session is cancelled off the shared pool, so
    // slow consumers cannot pin the slab (see header comment).
    static constexpr unsigned kBufCount = 64;  // power of two (ring entries)
    static constexpr std::size_t kBufBytes = 32 * 1024;
    static constexpr unsigned kSqEntries = 512;
    static constexpr unsigned kCqEntries = 4096;
    static constexpr std::uint16_t kBufGroup = 0;

    static std::unique_ptr<UringBackend> create() {
        auto backend = std::unique_ptr<UringBackend>(new UringBackend());
        if (!backend->init()) return nullptr;
        return backend;
    }

    ~UringBackend() override {
        if (buf_ring_ != MAP_FAILED && buf_ring_ != nullptr) {
            if (ring_fd_ >= 0) {
                struct io_uring_buf_reg reg {};
                reg.bgid = kBufGroup;
                sys_io_uring_register(ring_fd_, IORING_UNREGISTER_PBUF_RING, &reg, 1);
            }
            ::munmap(buf_ring_, buf_ring_bytes_);
        }
        if (sqes_ != nullptr && sqes_ != MAP_FAILED) ::munmap(sqes_, sqes_bytes_);
        if (cq_ring_ptr_ != nullptr && cq_ring_ptr_ != MAP_FAILED && cq_ring_ptr_ != sq_ring_ptr_)
            ::munmap(cq_ring_ptr_, cq_ring_bytes_);
        if (sq_ring_ptr_ != nullptr && sq_ring_ptr_ != MAP_FAILED)
            ::munmap(sq_ring_ptr_, sq_ring_bytes_);
        if (ring_fd_ >= 0) ::close(ring_fd_);
        if (wake_fd_ >= 0) ::close(wake_fd_);
    }

    const char* name() const noexcept override { return "io_uring"; }

    bool add(int fd, std::uint64_t tag, std::uint32_t interest) override {
        auto [it, inserted] = fds_.try_emplace(fd);
        if (!inserted) return false;
        FdState& st = it->second;
        st.gen = ++next_gen_ & kGenMask;
        st.tag = tag;
        st.interest = interest;
        st.stream = (interest & kStream) != 0;
        mark_dirty(fd, st);
        return true;
    }

    bool mod(int fd, std::uint64_t tag, std::uint32_t interest) override {
        auto it = fds_.find(fd);
        if (it == fds_.end()) return false;
        FdState& st = it->second;
        st.tag = tag;
        const bool read_resumed = (interest & kRead) && !(st.interest & kRead);
        st.interest = (interest & (kRead | kWrite)) | (st.stream ? kStream : 0u);
        mark_dirty(fd, st);
        // Resuming reads with segments already buffered: no CQE will arrive
        // for them, so queue a synthetic readable event ("kick").
        if (read_resumed && st.stream && (!st.segs.empty() || st.eof || st.err != 0))
            mark_evented(fd, st);
        return true;
    }

    void del(int fd) override {
        auto it = fds_.find(fd);
        if (it == fds_.end()) return;
        FdState& st = it->second;
        if (st.recv_armed && !st.cancel_pending) submit_cancel(kUdRecv, fd, st.gen);
        if (st.rpoll_armed) submit_cancel(kUdPollRead, fd, st.gen);
        if (st.wpoll_armed) submit_cancel(kUdPollWrite, fd, st.gen);
        if (st.cur_bid >= 0) recycle_buffer(static_cast<std::uint16_t>(st.cur_bid));
        for (const Seg& s : st.segs) recycle_buffer(s.bid);
        fds_.erase(it);
        // Stale entries in evented_ are skipped at emit time (lookup miss).
    }

    int wait(IoEvent* out, int cap) override {
        if (cap <= 0) return 0;
        for (;;) {
            reconcile();
            process_completions();
            if (!evented_.empty() || wake_signalled_) {
                flush_submissions();  // re-arms must reach the kernel first
                return emit(out, cap);
            }
            // Block. Pending submissions ride the same enter(); on failure
            // they stay accounted and are retried on the next pass.
            const int rc =
                sys_io_uring_enter(ring_fd_, pending_submit_, 1, IORING_ENTER_GETEVENTS);
            if (rc < 0) {
                if (errno == EINTR) return 0;
                if (errno == EBUSY) {  // CQ overflow backlog: drain and retry
                    process_completions();
                    continue;
                }
                return -1;
            }
            pending_submit_ -= std::min(static_cast<unsigned>(rc), pending_submit_);
        }
    }

    void wake() override {
        const std::uint64_t one = 1;
        [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
    }

    ReadStatus read(int fd, ReadView& view) override {
        auto it = fds_.find(fd);
        if (it == fds_.end()) return ReadStatus::Again;
        FdState& st = it->second;
        if (st.cur_bid >= 0) {
            recycle_buffer(static_cast<std::uint16_t>(st.cur_bid));
            st.cur_bid = -1;
        }
        if (!st.segs.empty()) {
            const Seg seg = st.segs.front();
            st.segs.pop_front();
            st.cur_bid = seg.bid;
            view = ReadView{slab_.data() + std::size_t{seg.bid} * kBufBytes, seg.len};
            return ReadStatus::Data;
        }
        if (st.err != 0) {
            read_errno_ = st.err;
            return ReadStatus::Error;
        }
        if (st.eof) return ReadStatus::Eof;
        return ReadStatus::Again;
    }

    int read_error() const noexcept override { return read_errno_; }

private:
    struct Seg {
        std::uint16_t bid;
        std::uint32_t len;
    };

    struct FdState {
        std::uint64_t tag = 0;
        std::uint32_t gen = 0;  // registration generation (user_data top bits)
        std::uint32_t interest = 0;
        bool stream = false;
        bool recv_armed = false;
        bool cancel_pending = false;
        bool rpoll_armed = false;
        bool wpoll_armed = false;
        bool dirty = false;
        bool evented = false;
        bool eof = false;
        int err = 0;
        int cur_bid = -1;  // buffer handed to the caller via read()
        bool pend_readable = false, pend_writable = false, pend_err_hup = false;
        std::deque<Seg> segs;
    };

    UringBackend() = default;

    bool init() {
        wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
        if (wake_fd_ < 0) return false;

        struct io_uring_params params {};
        params.flags = IORING_SETUP_CQSIZE;
        params.cq_entries = kCqEntries;
        ring_fd_ = sys_io_uring_setup(kSqEntries, &params);
        if (ring_fd_ < 0) return false;
        if (!(params.features & IORING_FEAT_NODROP)) return false;  // too old

        sq_ring_bytes_ = params.sq_off.array + params.sq_entries * sizeof(std::uint32_t);
        cq_ring_bytes_ = params.cq_off.cqes + params.cq_entries * sizeof(struct io_uring_cqe);
        if (params.features & IORING_FEAT_SINGLE_MMAP) {
            sq_ring_bytes_ = cq_ring_bytes_ = std::max(sq_ring_bytes_, cq_ring_bytes_);
        }
        sq_ring_ptr_ = ::mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
                              MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
        if (sq_ring_ptr_ == MAP_FAILED) return false;
        if (params.features & IORING_FEAT_SINGLE_MMAP) {
            cq_ring_ptr_ = sq_ring_ptr_;
        } else {
            cq_ring_ptr_ = ::mmap(nullptr, cq_ring_bytes_, PROT_READ | PROT_WRITE,
                                  MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_CQ_RING);
            if (cq_ring_ptr_ == MAP_FAILED) return false;
        }
        sqes_bytes_ = params.sq_entries * sizeof(struct io_uring_sqe);
        sqes_ = static_cast<struct io_uring_sqe*>(::mmap(nullptr, sqes_bytes_,
                                                         PROT_READ | PROT_WRITE,
                                                         MAP_SHARED | MAP_POPULATE, ring_fd_,
                                                         IORING_OFF_SQES));
        if (sqes_ == MAP_FAILED) return false;

        auto* sq_base = static_cast<std::uint8_t*>(sq_ring_ptr_);
        sq_head_ = reinterpret_cast<std::uint32_t*>(sq_base + params.sq_off.head);
        sq_tail_ = reinterpret_cast<std::uint32_t*>(sq_base + params.sq_off.tail);
        sq_mask_ = *reinterpret_cast<std::uint32_t*>(sq_base + params.sq_off.ring_mask);
        sq_array_ = reinterpret_cast<std::uint32_t*>(sq_base + params.sq_off.array);
        sq_entries_ = params.sq_entries;
        // Identity-map the indirection array once; slot i holds sqe i.
        for (std::uint32_t i = 0; i < sq_entries_; ++i) sq_array_[i] = i;
        local_sq_tail_ = *sq_tail_;

        auto* cq_base = static_cast<std::uint8_t*>(cq_ring_ptr_);
        cq_head_ = reinterpret_cast<std::uint32_t*>(cq_base + params.cq_off.head);
        cq_tail_ = reinterpret_cast<std::uint32_t*>(cq_base + params.cq_off.tail);
        cq_mask_ = *reinterpret_cast<std::uint32_t*>(cq_base + params.cq_off.ring_mask);
        cqes_ = reinterpret_cast<struct io_uring_cqe*>(cq_base + params.cq_off.cqes);

        // Provided-buffer ring + slab.
        buf_ring_bytes_ = kBufCount * sizeof(struct io_uring_buf);
        buf_ring_ = ::mmap(nullptr, buf_ring_bytes_, PROT_READ | PROT_WRITE,
                           MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
        if (buf_ring_ == MAP_FAILED) return false;
        std::memset(buf_ring_, 0, buf_ring_bytes_);
        struct io_uring_buf_reg reg {};
        reg.ring_addr = reinterpret_cast<std::uint64_t>(buf_ring_);
        reg.ring_entries = kBufCount;
        reg.bgid = kBufGroup;
        if (sys_io_uring_register(ring_fd_, IORING_REGISTER_PBUF_RING, &reg, 1) < 0)
            return false;
        slab_.resize(std::size_t{kBufCount} * kBufBytes);
        for (std::uint16_t bid = 0; bid < kBufCount; ++bid) publish_buffer(bid);
        return true;
    }

    // --- provided buffer ring ----------------------------------------------

    struct io_uring_buf* buf_slot(std::uint32_t idx) noexcept {
        return reinterpret_cast<struct io_uring_buf*>(buf_ring_) + (idx & (kBufCount - 1));
    }

    void publish_buffer(std::uint16_t bid) {
        struct io_uring_buf* slot = buf_slot(buf_ring_tail_);
        slot->addr = reinterpret_cast<std::uint64_t>(slab_.data() + std::size_t{bid} * kBufBytes);
        slot->len = kBufBytes;
        slot->bid = bid;
        // Never write slot->resv: entry 0's resv field overlays the ring tail.
        ++buf_ring_tail_;
        auto* ring = reinterpret_cast<struct io_uring_buf_ring*>(buf_ring_);
        __atomic_store_n(&ring->tail, static_cast<std::uint16_t>(buf_ring_tail_),
                         __ATOMIC_RELEASE);
    }

    void recycle_buffer(std::uint16_t bid) {
        publish_buffer(bid);
        --outstanding_bufs_;
        if (buf_starved_) {
            // Multishot recvs that died with ENOBUFS can be re-armed now.
            buf_starved_ = false;
            for (auto& [fd, st] : fds_)
                if (st.stream && (st.interest & kRead) && !st.recv_armed) mark_dirty(fd, st);
        }
    }

    // --- submission --------------------------------------------------------

    struct io_uring_sqe* get_sqe() {
        if (local_sq_tail_ - __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE) >= sq_entries_)
            flush_submissions();
        struct io_uring_sqe* sqe = &sqes_[local_sq_tail_ & sq_mask_];
        std::memset(sqe, 0, sizeof(*sqe));
        ++local_sq_tail_;
        __atomic_store_n(sq_tail_, local_sq_tail_, __ATOMIC_RELEASE);
        ++pending_submit_;
        return sqe;
    }

    void flush_submissions() {
        while (pending_submit_ > 0) {
            const int rc = sys_io_uring_enter(ring_fd_, pending_submit_, 0, 0);
            if (rc >= 0) {
                pending_submit_ -= static_cast<unsigned>(rc) < pending_submit_
                                       ? static_cast<unsigned>(rc)
                                       : pending_submit_;
                if (rc == 0) break;  // defensive: avoid spinning
                continue;
            }
            if (errno == EINTR) continue;
            if (errno == EBUSY) {  // CQ overflow: make room, then retry
                process_completions();
                continue;
            }
            pending_submit_ = 0;  // unsubmittable; ops are lost, fds will stall
            break;
        }
    }

    void submit_recv_multishot(int fd, std::uint32_t gen) {
        struct io_uring_sqe* sqe = get_sqe();
        sqe->opcode = IORING_OP_RECV;
        sqe->fd = fd;
        sqe->ioprio = IORING_RECV_MULTISHOT;
        sqe->flags = IOSQE_BUFFER_SELECT;
        sqe->buf_group = kBufGroup;
        sqe->user_data = ud_make(kUdRecv, fd, gen);
    }

    void submit_poll(int fd, Ud kind, std::uint32_t poll_mask, std::uint32_t gen) {
        struct io_uring_sqe* sqe = get_sqe();
        sqe->opcode = IORING_OP_POLL_ADD;
        sqe->fd = fd;
        sqe->poll32_events = poll_mask;  // little-endian host: no word swap
        sqe->user_data = ud_make(kind, fd, gen);
    }

    void submit_cancel(Ud target, int fd, std::uint32_t gen) {
        struct io_uring_sqe* sqe = get_sqe();
        sqe->opcode = IORING_OP_ASYNC_CANCEL;
        sqe->fd = -1;
        sqe->addr = ud_make(target, fd, gen);
        sqe->user_data = ud_make(kUdCancel, fd, gen);
    }

    // --- interest reconciliation (the level-trigger emulation) -------------

    void mark_dirty(int fd, FdState& st) {
        if (st.dirty) return;
        st.dirty = true;
        dirty_.push_back(fd);
    }

    void mark_evented(int fd, FdState& st) {
        if (st.evented) return;
        st.evented = true;
        evented_.push_back(fd);
    }

    void reconcile() {
        if (!wake_armed_) {
            submit_poll(wake_fd_, kUdWake, POLLIN, 0);
            wake_armed_ = true;
        }
        for (std::size_t i = 0; i < dirty_.size(); ++i) {  // may grow via flush→process
            const int fd = dirty_[i];
            auto it = fds_.find(fd);
            if (it == fds_.end()) continue;
            FdState& st = it->second;
            st.dirty = false;
            if (st.stream) {
                const bool want = (st.interest & kRead) && !st.eof && st.err == 0;
                if (want && !st.recv_armed && !st.cancel_pending) {
                    if (outstanding_bufs_ >= kBufCount) {
                        buf_starved_ = true;  // re-marked dirty on recycle
                    } else {
                        submit_recv_multishot(fd, st.gen);
                        st.recv_armed = true;
                    }
                } else if (!want && st.recv_armed && !st.cancel_pending) {
                    submit_cancel(kUdRecv, fd, st.gen);
                    st.cancel_pending = true;
                }
            } else if ((st.interest & kRead) && !st.rpoll_armed) {
                submit_poll(fd, kUdPollRead, POLLIN, st.gen);
                st.rpoll_armed = true;
            }
            if ((st.interest & kWrite) && !st.wpoll_armed) {
                submit_poll(fd, kUdPollWrite, POLLOUT, st.gen);
                st.wpoll_armed = true;
            }
        }
        dirty_.clear();
    }

    // --- completion processing ---------------------------------------------

    void process_completions() {
        std::uint32_t head = *cq_head_;
        const std::uint32_t tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
        while (head != tail) {
            const struct io_uring_cqe* cqe = &cqes_[head & cq_mask_];
            handle_cqe(cqe);
            ++head;
        }
        __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
    }

    void handle_cqe(const struct io_uring_cqe* cqe) {
        const auto kind = static_cast<Ud>(cqe->user_data & 0xff);
        const int fd = static_cast<int>(static_cast<std::uint32_t>(cqe->user_data >> 8));
        const auto gen = static_cast<std::uint32_t>(cqe->user_data >> 40);
        if (kind == kUdWake) {
            wake_armed_ = false;
            std::uint64_t token = 0;
            while (::read(wake_fd_, &token, sizeof(token)) > 0) {
            }
            if (cqe->res > 0) wake_signalled_ = true;
            return;
        }
        auto it = fds_.find(fd);
        if (it != fds_.end() && it->second.gen != gen) it = fds_.end();  // old registration
        if (kind == kUdCancel) {
            // A cancel that found nothing (-ENOENT) means the target op
            // already reached a terminal CQE; clear the latch so reconcile
            // can re-arm.
            if (cqe->res < 0) {
                if (it != fds_.end()) {
                    it->second.cancel_pending = false;
                    mark_dirty(fd, it->second);
                }
            }
            return;
        }
        if (kind == kUdRecv) {
            const bool has_buf = (cqe->flags & IORING_CQE_F_BUFFER) != 0;
            const auto bid =
                static_cast<std::uint16_t>(cqe->flags >> IORING_CQE_BUFFER_SHIFT);
            if (has_buf) ++outstanding_bufs_;
            if (it == fds_.end()) {  // registration del()'d with this CQE in flight
                if (has_buf) recycle_buffer(bid);
                return;
            }
            FdState& st = it->second;
            if (cqe->res > 0 && has_buf) {
                st.segs.push_back(Seg{bid, static_cast<std::uint32_t>(cqe->res)});
                if (st.interest & kRead) mark_evented(fd, st);
            } else if (has_buf) {
                recycle_buffer(bid);  // zero-length or error CQE with a buffer
            }
            if (cqe->res == 0) {
                st.eof = true;
                if (st.interest & kRead) mark_evented(fd, st);
            } else if (cqe->res < 0) {
                if (cqe->res == -ENOBUFS) {
                    buf_starved_ = true;
                } else if (cqe->res != -ECANCELED) {
                    st.err = -cqe->res;
                    if (st.interest & kRead) mark_evented(fd, st);
                }
            }
            if (!(cqe->flags & IORING_CQE_F_MORE)) {
                st.recv_armed = false;
                st.cancel_pending = false;
                mark_dirty(fd, st);  // re-armed iff interest persists
            }
            return;
        }
        // Oneshot polls (kUdPollRead / kUdPollWrite).
        if (it == fds_.end()) return;
        FdState& st = it->second;
        if (kind == kUdPollRead) st.rpoll_armed = false;
        if (kind == kUdPollWrite) st.wpoll_armed = false;
        mark_dirty(fd, st);  // level-trigger: re-arm while interest persists
        if (cqe->res <= 0) return;  // cancelled or error-free spurious wake
        const auto revents = static_cast<std::uint32_t>(cqe->res);
        if (revents & POLLIN) st.pend_readable = true;
        if (revents & POLLOUT) st.pend_writable = true;
        if (revents & (POLLERR | POLLHUP)) st.pend_err_hup = true;
        mark_evented(fd, st);
    }

    int emit(IoEvent* out, int cap) {
        int produced = 0;
        if (wake_signalled_ && produced < cap) {
            wake_signalled_ = false;
            out[produced++] = IoEvent{kWakeTag, false, false, false};
        }
        std::size_t taken = 0;
        while (taken < evented_.size() && produced < cap) {
            const int fd = evented_[taken++];
            auto it = fds_.find(fd);
            if (it == fds_.end()) continue;
            FdState& st = it->second;
            st.evented = false;
            IoEvent e;
            e.tag = st.tag;
            const bool stream_readable =
                st.stream && (st.interest & kRead) &&
                (!st.segs.empty() || st.cur_bid >= 0 || st.eof || st.err != 0);
            e.readable = st.pend_readable || stream_readable;
            e.writable = st.pend_writable;
            e.err_hup = st.pend_err_hup;
            st.pend_readable = st.pend_writable = st.pend_err_hup = false;
            if (e.readable || e.writable || e.err_hup) out[produced++] = e;
        }
        evented_.erase(evented_.begin(),
                       evented_.begin() + static_cast<std::ptrdiff_t>(taken));
        return produced;
    }

    int ring_fd_ = -1;
    int wake_fd_ = -1;
    int read_errno_ = 0;

    void* sq_ring_ptr_ = nullptr;
    void* cq_ring_ptr_ = nullptr;
    std::size_t sq_ring_bytes_ = 0, cq_ring_bytes_ = 0;
    struct io_uring_sqe* sqes_ = nullptr;
    std::size_t sqes_bytes_ = 0;

    std::uint32_t* sq_head_ = nullptr;
    std::uint32_t* sq_tail_ = nullptr;
    std::uint32_t* sq_array_ = nullptr;
    std::uint32_t sq_mask_ = 0, sq_entries_ = 0;
    std::uint32_t local_sq_tail_ = 0;
    unsigned pending_submit_ = 0;

    std::uint32_t* cq_head_ = nullptr;
    std::uint32_t* cq_tail_ = nullptr;
    std::uint32_t cq_mask_ = 0;
    struct io_uring_cqe* cqes_ = nullptr;

    void* buf_ring_ = nullptr;
    std::size_t buf_ring_bytes_ = 0;
    std::vector<std::uint8_t> slab_;
    std::uint32_t buf_ring_tail_ = 0;
    unsigned outstanding_bufs_ = 0;
    bool buf_starved_ = false;

    bool wake_armed_ = false;
    bool wake_signalled_ = false;

    std::unordered_map<int, FdState> fds_;
    std::uint32_t next_gen_ = 0;
    std::vector<int> dirty_;
    std::vector<int> evented_;
};

}  // namespace

std::unique_ptr<IoBackend> make_uring_backend() {
    if (!uring_supported()) return nullptr;
    return UringBackend::create();
}

bool uring_supported() noexcept {
    // Probe once: full ring construction including the pbuf-ring registration
    // (a kernel can have io_uring but lack IORING_REGISTER_PBUF_RING, and a
    // seccomp sandbox can refuse the setup syscall outright).
    static const bool supported = [] {
        try {
            return UringBackend::create() != nullptr;
        } catch (...) {
            return false;
        }
    }();
    return supported;
}

}  // namespace spectre::net

#else  // !SPECTRE_HAVE_IO_URING

namespace spectre::net {

std::unique_ptr<IoBackend> make_uring_backend() { return nullptr; }
bool uring_supported() noexcept { return false; }

}  // namespace spectre::net

#endif
