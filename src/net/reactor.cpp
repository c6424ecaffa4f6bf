#include "net/reactor.hpp"

#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "util/assert.hpp"

namespace spectre::net {

namespace {

std::uint32_t translate(std::uint32_t interest) noexcept {
    std::uint32_t events = 0;
    if (interest & Reactor::kRead) events |= EPOLLIN;
    if (interest & Reactor::kWrite) events |= EPOLLOUT;
    return events;
}

}  // namespace

Reactor::Reactor() : buffer_(kReadBufferBytes) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    SPECTRE_REQUIRE(epoll_fd_ >= 0, "epoll_create1 failed");
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    SPECTRE_REQUIRE(wake_fd_ >= 0, "eventfd failed");
    struct epoll_event ev {};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    SPECTRE_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0,
                    "epoll_ctl(wake) failed");
}

Reactor::~Reactor() {
    ::close(wake_fd_);
    ::close(epoll_fd_);
}

bool Reactor::add(int fd, std::uint64_t tag, std::uint32_t interest) {
    struct epoll_event ev {};
    ev.events = translate(interest);
    ev.data.u64 = tag;
    return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool Reactor::mod(int fd, std::uint64_t tag, std::uint32_t interest) {
    struct epoll_event ev {};
    ev.events = translate(interest);
    ev.data.u64 = tag;
    return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void Reactor::del(int fd) { ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr); }

int Reactor::wait(IoEvent* out, int cap) {
    if (static_cast<int>(scratch_.size()) < cap) scratch_.resize(static_cast<std::size_t>(cap));
    const int n = ::epoll_wait(epoll_fd_, scratch_.data(), cap, -1);
    if (n < 0) return errno == EINTR ? 0 : -1;
    for (int i = 0; i < n; ++i) {
        const auto& ev = scratch_[static_cast<std::size_t>(i)];
        if (ev.data.u64 == kWakeTag) {
            std::uint64_t token = 0;
            while (::read(wake_fd_, &token, sizeof(token)) > 0) {
            }
            out[i] = IoEvent{kWakeTag, false, false, false};
            continue;
        }
        out[i] = IoEvent{ev.data.u64, (ev.events & EPOLLIN) != 0, (ev.events & EPOLLOUT) != 0,
                         (ev.events & (EPOLLERR | EPOLLHUP)) != 0};
    }
    return n;
}

void Reactor::wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

Reactor::ReadStatus Reactor::read(int fd, ReadView& view) {
    for (;;) {
        const ssize_t n = ::recv(fd, buffer_.data(), buffer_.size(), 0);
        if (n > 0) {
            view = ReadView{buffer_.data(), static_cast<std::size_t>(n)};
            return ReadStatus::Data;
        }
        if (n == 0) return ReadStatus::Eof;
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadStatus::Again;
        read_errno_ = errno;
        return ReadStatus::Error;
    }
}

}  // namespace spectre::net
