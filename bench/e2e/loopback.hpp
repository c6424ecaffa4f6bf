// One benchmark phase over loopback TCP: spawn a fresh cep_host, open the
// workload's sessions, push a prefix of the stream closed-loop or on an
// open-loop schedule, and record every RESULT with its receipt time.
//
// The generator is this one thread: nonblocking sockets multiplexed with
// ppoll, at most four connections, no helper threads.
#pragma once

#include <sys/types.h>

#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workload.hpp"

namespace e2e {

// A cep_host child process. The constructor returns once the host printed
// its ports; the destructor closes its stdin (the host's stop signal) and
// reaps it, killing it if it does not exit in time.
class Host {
public:
    explicit Host(const std::string& path);
    ~Host();
    Host(const Host&) = delete;
    Host& operator=(const Host&) = delete;

    std::uint16_t port() const { return port_; }
    std::uint16_t admin_port() const { return admin_port_; }
    const std::string& io_backend() const { return io_; }
    int workers() const { return workers_; }

    bool alive();
    double vm_hwm_kib() const;  // /proc/<pid>/status VmHWM
    double cpu_seconds() const;  // /proc/<pid>/stat utime + stime
    // The admin endpoint's Prometheus exposition as series → value
    // (histogram buckets keep their le="..." label in the name).
    std::map<std::string, double> scrape() const;

private:
    void stop() noexcept;

    pid_t pid_ = -1;
    int stdin_fd_ = -1;
    std::uint16_t port_ = 0;
    std::uint16_t admin_port_ = 0;
    std::string io_;
    int workers_ = 0;
};

struct PhasePlan {
    std::string name;       // "replay", "r1".."r4"; the trace request id suffix
    std::size_t events = 0;  // stream prefix to send
    double rate_eps = 0.0;   // 0 = closed loop (as fast as TCP backpressure allows)
    bool scrape = false;     // read the admin endpoint after the phase
};

struct SessionRecord {
    std::vector<spectre::event::ComplexEvent> results;
    std::vector<double> receipt_s;  // per result, since the first DATA was due
    double handshake_ms = 0.0;      // connect → capability echo
    bool bye = false;
    double bye_s = 0.0;             // when the server's BYE arrived
    std::string error;
};

struct PhaseResult {
    bool completed = false;  // every session's BYE arrived (within the drain limit)
    std::string failure;     // host died or a session failed; empty when none did
    double setup_s = 0.0;    // spawn → every capability echo
    double done_s = 0.0;     // last BYE, since data start
    double sent_all_s = 0.0; // last DATA byte written, since data start
    double last_due_s = 0.0; // due time of the last event (open loop)
    std::vector<SessionRecord> sessions;  // parallel to Workload::sessions
    std::vector<double> gen_lag_ms;       // per tick: wake-up − scheduled tick
    double gen_cpu_s = 0.0;               // generator CPU during the data interval
    double host_cpu_s = 0.0;              // host CPU during the data interval
    double host_hwm_ready_kib = 0.0;      // after the handshakes
    double host_hwm_kib = 0.0;            // at the end
    std::map<std::string, double> scrape;
    std::string host_config;  // "<n> pool workers, <backend>"
};

// Connections one generator drives: a workload's sessions, one each.
inline constexpr std::size_t kMaxConnections = 4;

// Open-loop send tick: the schedule advances at least this often. An event
// waits for the next tick (or earlier wake-up) to be sent, and that wait
// counts in its latency, so the tick is kept well under the latencies
// measured.
inline constexpr double kTickSeconds = 100e-6;

PhaseResult run_phase(const std::string& host_path, const Workload& w, const Stream& s,
                      const PhasePlan& plan, SpanLog& log);

}  // namespace e2e
