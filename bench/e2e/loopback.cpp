#include "loopback.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "stats.hpp"

extern char** environ;

namespace e2e {

using namespace spectre;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

std::runtime_error sys_error(const std::string& what) {
    return std::runtime_error(what + ": " + std::strerror(errno));
}

class Fd {
public:
    explicit Fd(int fd = -1) : fd_(fd) {}
    ~Fd() { reset(); }
    Fd(Fd&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
    Fd& operator=(Fd&& o) noexcept {
        if (this != &o) {
            reset();
            fd_ = std::exchange(o.fd_, -1);
        }
        return *this;
    }
    int get() const { return fd_; }
    void reset() {
        if (fd_ >= 0) ::close(fd_);
        fd_ = -1;
    }

private:
    int fd_;
};

Fd connect_loopback(std::uint16_t port) {
    Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (fd.get() < 0) throw sys_error("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
        throw sys_error("connect");
    return fd;
}

double read_proc_field(pid_t pid, const char* file, const std::string& key) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/" + file);
    std::string line;
    while (std::getline(in, line))
        if (line.compare(0, key.size(), key) == 0) return std::atof(line.c_str() + key.size());
    return 0.0;
}

}  // namespace

// --- Host --------------------------------------------------------------------

Host::Host(const std::string& path) {
    int in[2], out[2];
    if (::pipe2(in, O_CLOEXEC) != 0) throw sys_error("pipe");
    if (::pipe2(out, O_CLOEXEC) != 0) {
        ::close(in[0]);
        ::close(in[1]);
        throw sys_error("pipe");
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&fa, out[1], STDOUT_FILENO);
    char* argv[] = {const_cast<char*>(path.c_str()), nullptr};
    const int rc = ::posix_spawn(&pid_, path.c_str(), &fa, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(in[0]);
    ::close(out[1]);
    Fd from_host(out[0]);
    stdin_fd_ = in[1];
    if (rc != 0) {
        pid_ = -1;
        ::close(stdin_fd_);
        throw std::runtime_error("cannot start " + path + ": " + std::strerror(rc));
    }
    // The ready line: "cep_host port=<p> admin=<a> io=<backend> workers=<n>".
    std::string line;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (line.find('\n') == std::string::npos) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - Clock::now())
                              .count();
        pollfd p{from_host.get(), POLLIN, 0};
        char buf[256];
        ssize_t n = -1;
        if (left > 0 && ::poll(&p, 1, static_cast<int>(left)) > 0)
            n = ::read(from_host.get(), buf, sizeof(buf));
        if (n <= 0) {
            stop();
            throw std::runtime_error("cep_host did not report its ports");
        }
        line.append(buf, static_cast<std::size_t>(n));
    }
    char io[32] = {0};
    unsigned port = 0, admin = 0;
    if (std::sscanf(line.c_str(), "cep_host port=%u admin=%u io=%31s workers=%d", &port,
                    &admin, io, &workers_) != 4) {
        stop();
        throw std::runtime_error("cep_host: unexpected ready line: " + line);
    }
    port_ = static_cast<std::uint16_t>(port);
    admin_port_ = static_cast<std::uint16_t>(admin);
    io_ = io;
}

Host::~Host() { stop(); }

void Host::stop() noexcept {
    if (stdin_fd_ >= 0) ::close(stdin_fd_);
    stdin_fd_ = -1;
    if (pid_ <= 0) return;
    // Closing stdin stops the server; give it a bounded grace period.
    for (int i = 0; i < 2000; ++i) {
        if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
            pid_ = -1;
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
}

bool Host::alive() {
    if (pid_ <= 0) return false;
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
    }
    return true;
}

double Host::vm_hwm_kib() const { return read_proc_field(pid_, "status", "VmHWM:"); }

double Host::cpu_seconds() const {
    // Every thread's on-CPU nanoseconds (schedstat's first field): /proc/<pid>/stat
    // counts in 10 ms ticks, too coarse for a half-second replay.
    double ns = 0;
    std::error_code ec;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/" + std::to_string(pid_) + "/task", ec)) {
        std::ifstream in(task.path() / "schedstat");
        double run_ns = 0;
        if (in >> run_ns) ns += run_ns;
    }
    return ns * 1e-9;
}

std::map<std::string, double> Host::scrape() const {
    Fd fd = connect_loopback(admin_port_);
    const timeval tv{5, 0};
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
    if (::send(fd.get(), req, sizeof(req) - 1, MSG_NOSIGNAL) != sizeof(req) - 1)
        throw sys_error("scrape send");
    std::string body;
    char buf[16384];
    for (;;) {
        const ssize_t n = ::recv(fd.get(), buf, sizeof(buf), 0);
        if (n > 0) {
            body.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) break;
        if (errno == EINTR) continue;
        throw sys_error("scrape recv");
    }
    std::map<std::string, double> out;
    const auto start = body.find("\r\n\r\n");
    std::istringstream lines(start == std::string::npos ? body : body.substr(start + 4));
    const std::string prefix = "spectre_";
    for (std::string line; std::getline(lines, line);) {
        if (line.empty() || line[0] == '#') continue;
        const auto sp = line.rfind(' ');
        if (sp == std::string::npos) continue;
        std::string name = line.substr(0, sp);
        if (name.compare(0, prefix.size(), prefix) == 0) name.erase(0, prefix.size());
        out[name] = std::atof(line.c_str() + sp + 1);
    }
    return out;
}

// --- phase runner ------------------------------------------------------------

namespace {

struct Conn {
    Fd fd;
    net::FrameReader reader;
    SessionRecord rec;
    bool echoed = false;
    bool closed = false;  // EOF or transport error seen
    Clock::time_point connect_at;
    std::vector<std::uint8_t> control;  // queued HELLO / BYE bytes
    std::size_t control_sent = 0;
    // Filled while the phase runs: deques, because a growing vector's
    // reallocation would stall the generator for milliseconds and show up
    // as server latency. Moved into `rec` afterwards.
    std::deque<event::ComplexEvent> results;
    std::deque<double> receipt_s;
};

// Nonblocking send; returns the bytes written (0 when the socket is full).
std::size_t send_some(Conn& c, const std::uint8_t* p, std::size_t n) {
    for (;;) {
        const ssize_t w = ::send(c.fd.get(), p, n, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w >= 0) return static_cast<std::size_t>(w);
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
        throw sys_error("send");
    }
}

// True once every queued control byte is on the wire.
bool flush_control(Conn& c) {
    while (c.control_sent < c.control.size()) {
        const std::size_t w = send_some(c, c.control.data() + c.control_sent,
                                        c.control.size() - c.control_sent);
        if (w == 0) return false;
        c.control_sent += w;
    }
    return true;
}

void queue_frame(Conn& c, const net::SessionFrame& f) { net::encode_frame(f, c.control); }

// Decodes every complete frame fed so far; `now_s` stamps the RESULTs.
void decode_frames(Conn& c, double now_s, Clock::time_point now) {
    for (;;) {
        std::optional<net::SessionFrame> f;
        try {
            f = c.reader.poll();
        } catch (const std::exception& e) {
            c.rec.error = std::string("corrupt frame from the host: ") + e.what();
            c.closed = true;
            return;
        }
        if (!f) return;
        if (auto* r = std::get_if<net::ResultFrame>(&*f)) {
            c.results.push_back(net::from_result_frame(*r));
            c.receipt_s.push_back(now_s);
        } else if (std::get_if<net::ByeFrame>(&*f)) {
            c.rec.bye = true;
            c.rec.bye_s = now_s;
        } else if (std::get_if<net::Hello2Frame>(&*f) && !c.echoed) {
            c.echoed = true;
            c.rec.handshake_ms = seconds_between(c.connect_at, now) * 1e3;
        } else if (auto* e = std::get_if<net::ErrorFrame>(&*f)) {
            c.rec.error = "ERROR frame: " + e->message;
        } else {
            c.rec.error = "unexpected frame from the host";
        }
    }
}

// Drains the socket, decoding as it goes, so a BYE read just before EOF
// counts before the EOF does.
void pump(Conn& c, std::vector<std::uint8_t>& buf, double now_s, Clock::time_point now) {
    while (!c.closed) {
        const ssize_t n = ::recv(c.fd.get(), buf.data(), buf.size(), MSG_DONTWAIT);
        if (n > 0) {
            c.reader.feed(buf.data(), static_cast<std::size_t>(n));
            decode_frames(c, now_s, now);
            continue;
        }
        if (n == 0) {
            c.closed = true;
            if (!c.rec.bye && c.rec.error.empty()) c.rec.error = "connection closed by the host";
            break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        c.closed = true;
        if (c.rec.error.empty()) c.rec.error = std::string("recv: ") + std::strerror(errno);
    }
}

double cpu_self_seconds() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// Waits for readiness on every connection (plus writability of `want_out`,
// if any) for at most `timeout_s`, then pumps whatever arrived.
void wait_and_pump(std::vector<Conn>& conns, Conn* want_out, double timeout_s,
                   std::vector<std::uint8_t>& buf, Clock::time_point t0) {
    pollfd fds[kMaxConnections];
    nfds_t nfds = 0;
    for (auto& c : conns) {
        if (c.closed) continue;
        fds[nfds++] = pollfd{c.fd.get(),
                             static_cast<short>(POLLIN | (&c == want_out ? POLLOUT : 0)), 0};
    }
    timeout_s = std::max(0.0, timeout_s);
    timespec ts{static_cast<time_t>(timeout_s),
                static_cast<long>((timeout_s - std::floor(timeout_s)) * 1e9)};
    if (::ppoll(fds, nfds, &ts, nullptr) < 0 && errno != EINTR) throw sys_error("ppoll");
    const auto now = Clock::now();
    const double now_s = seconds_between(t0, now);
    for (nfds_t i = 0, j = 0; i < nfds; ++j) {
        if (conns[j].closed) continue;
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) pump(conns[j], buf, now_s, now);
        ++i;
    }
}

}  // namespace

PhaseResult run_phase(const std::string& host_path, const Workload& w, const Stream& s,
                      const PhasePlan& plan, SpanLog& log) {
    constexpr double kHandshakeTimeout = 10.0;
    constexpr double kReplayTimeout = 60.0;
    if (w.sessions.size() > kMaxConnections)
        throw std::invalid_argument("a workload drives at most 4 connections");
    PhaseResult out;
    log.set_request(w.name + "/" + plan.name);
    ScopedSpan phase_span(log, "phase");

    const std::uint32_t setup_span = log.begin("host.setup");
    const auto spawn_at = Clock::now();
    Host host(host_path);
    out.host_config = std::to_string(host.workers()) + " pool workers, " + host.io_backend();
    std::vector<Conn> conns(w.sessions.size());
    std::vector<std::uint8_t> buf(256 * 1024);

    // The sender registers its stream before any subscriber attaches.
    const auto handshake = [&](std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
            Conn& c = conns[i];
            c.connect_at = Clock::now();
            c.fd = connect_loopback(host.port());
            // Nagle would hold each small write until the previous one is
            // ACKed, and loopback delayed ACKs made that 22 ms of p50 result
            // latency at 2k events/s; the benchmark measures the server.
            const int one = 1;
            ::setsockopt(c.fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            if (::fcntl(c.fd.get(), F_SETFL, O_NONBLOCK) != 0) throw sys_error("fcntl");
            queue_frame(c, net::SessionFrame{hello_for(w.sessions[i], "e2e")});
            if (!flush_control(c)) throw std::runtime_error("HELLO did not fit the socket");
        }
        for (;;) {
            bool all = true;
            for (std::size_t i = first; i < last; ++i) {
                if (!conns[i].rec.error.empty())
                    throw std::runtime_error("handshake: " + conns[i].rec.error);
                all = all && conns[i].echoed;
            }
            if (all) return;
            if (seconds_between(spawn_at, Clock::now()) > kHandshakeTimeout)
                throw std::runtime_error("handshake timed out");
            wait_and_pump(conns, nullptr, 0.1, buf, spawn_at);
        }
    };
    handshake(0, 1);
    handshake(1, conns.size());
    out.setup_s = seconds_between(spawn_at, Clock::now());
    out.host_hwm_ready_kib = host.vm_hwm_kib();
    log.end(setup_span);

    // ppoll wake-ups within ~1 us of the tick instead of the default 50 us
    // slack; reset before the next phase spawns a host, which would inherit it.
    struct TimerSlack {
        TimerSlack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }
        ~TimerSlack() { ::prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL); }
    } slack;
    const std::uint32_t data_span = log.begin("host.data");
    const std::size_t n = plan.events;
    const std::size_t total = s.bytes(n);
    const double rate = plan.rate_eps;
    out.last_due_s = rate > 0 ? static_cast<double>(n - 1) / rate : 0.0;
    const double host_cpu0 = host.cpu_seconds();
    const double gen_cpu0 = cpu_self_seconds();
    Conn& sender = conns[0];
    std::size_t sent = 0;
    bool bye_queued = false;
    double next_tick = 0.0;
    const auto t0 = Clock::now();
    for (;;) {
        const double now_s = seconds_between(t0, Clock::now());
        std::size_t allowed = total;
        if (rate > 0) {
            if (now_s >= next_tick) {
                out.gen_lag_ms.push_back((now_s - next_tick) * 1e3);
                next_tick = (std::floor(now_s / kTickSeconds) + 1.0) * kTickSeconds;
            }
            const auto due = static_cast<std::size_t>(now_s * rate) + 1;
            allowed = s.bytes(std::min(due, n));
        }
        bool blocked = false;
        try {
            while (sent < allowed && !blocked) {
                const std::size_t chunk = std::min<std::size_t>(allowed - sent, 256 * 1024);
                const std::size_t w_bytes = send_some(sender, s.frames.data() + sent, chunk);
                sent += w_bytes;
                blocked = w_bytes == 0;
            }
            if (sent == total && !bye_queued) {
                out.sent_all_s = seconds_between(t0, Clock::now());
                queue_frame(sender, net::SessionFrame{net::ByeFrame{}});
                bye_queued = true;
            }
            if (bye_queued && !flush_control(sender)) blocked = true;
        } catch (const std::exception& e) {
            sender.rec.error = e.what();
        }

        bool all_bye = true;
        double last_bye_s = 0.0;
        for (const auto& c : conns) {
            if (!c.rec.error.empty() && out.failure.empty())
                out.failure = host.alive() ? "session failed: " + c.rec.error : "host died";
            all_bye = all_bye && c.rec.bye;
            last_bye_s = std::max(last_bye_s, c.rec.bye_s);
        }
        if (!out.failure.empty()) break;
        if (all_bye) {
            out.completed = true;
            out.done_s = last_bye_s;
            break;
        }
        if (rate > 0 && now_s > out.last_due_s + kRungDrainLimitMs / 1e3) break;  // cut
        if (rate == 0 && now_s > kReplayTimeout) {
            out.failure = "replay did not finish in time";
            break;
        }
        const double timeout = rate > 0 ? next_tick - now_s : 0.05;
        wait_and_pump(conns, blocked ? &sender : nullptr, timeout, buf, t0);
    }
    out.gen_cpu_s = cpu_self_seconds() - gen_cpu0;
    out.host_cpu_s = host.cpu_seconds() - host_cpu0;
    out.host_hwm_kib = host.vm_hwm_kib();
    log.end(data_span);
    if (plan.scrape && out.completed) out.scrape = host.scrape();
    for (auto& c : conns) {
        c.rec.results.assign(std::make_move_iterator(c.results.begin()),
                             std::make_move_iterator(c.results.end()));
        c.rec.receipt_s.assign(c.receipt_s.begin(), c.receipt_s.end());
        out.sessions.push_back(std::move(c.rec));
    }
    return out;
}

}  // namespace e2e
