// Builder-style configuration surface for the CEP server (DESIGN.md §15's
// API-redesign sweep). The raw structs — ServerConfig and the SessionLimits
// nested inside it — stay plain aggregates so existing code keeps compiling,
// but new code should come through ServerConfigBuilder: one fluent chain
// covering every knob, with build() validating the combined result once
// instead of each call site re-learning which field combinations are
// nonsense (a quantum of zero steps, an ingest watermark of zero, more
// shards than the metrics table has per-shard series for, ...).
//
// How the layers map at runtime:
//   ServerConfig            → reactor + pool shape (ports, backlog, workers,
//                             socket buffers).
//   SessionLimits           → per-session engine shape; ServerSession hands
//                             batch_events and quantum_windows to its
//                             engine::LaneEngine (which turns batch_events
//                             into core::RuntimeConfig .batch_events and
//                             .quantum_budget at k > 0, and quantum_windows
//                             into the stepper's windows per step at k = 0)
//                             and batch_events to ShardedConfig, whose key
//                             lanes are LaneEngines too. One builder chain
//                             reaches every engine config.
#pragma once

#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "server/cep_server.hpp"

namespace spectre::server {

class ServerConfigBuilder {
public:
    // --- reactor / pool (ServerConfig) -----------------------------------
    ServerConfigBuilder& port(std::uint16_t p) {
        cfg_.port = p;
        return *this;
    }
    ServerConfigBuilder& admin_port(std::uint16_t p) {
        cfg_.admin_port = p;
        return *this;
    }
    ServerConfigBuilder& backlog(int n) {
        cfg_.backlog = n;
        return *this;
    }
    ServerConfigBuilder& pool_workers(int n) {
        cfg_.pool_workers = n;
        return *this;
    }
    ServerConfigBuilder& session_sndbuf(int bytes) {
        cfg_.session_sndbuf = bytes;
        return *this;
    }

    // --- per-session engine shape (SessionLimits) ------------------------
    ServerConfigBuilder& max_instances(int n) {
        cfg_.session.max_instances = n;
        return *this;
    }
    ServerConfigBuilder& max_shards(int n) {
        cfg_.session.max_shards = n;
        return *this;
    }
    ServerConfigBuilder& batch_events(std::size_t n) {
        cfg_.session.batch_events = n;
        return *this;
    }
    ServerConfigBuilder& quantum_steps(std::size_t n) {
        cfg_.session.quantum_steps = n;
        return *this;
    }
    ServerConfigBuilder& quantum_windows(std::size_t n) {
        cfg_.session.quantum_windows = n;
        return *this;
    }
    ServerConfigBuilder& ingest_queue_events(std::size_t n) {
        cfg_.session.ingest_queue_events = n;
        return *this;
    }
    ServerConfigBuilder& egress_buffer_bytes(std::size_t n) {
        cfg_.session.egress_buffer_bytes = n;
        return *this;
    }

    // Validate the combined result. Throws std::invalid_argument naming the
    // offending knob — configuration mistakes should fail at construction,
    // not as a wedged server or a per-shard series that never moves.
    ServerConfig build() const {
        const SessionLimits& s = cfg_.session;
        require(cfg_.backlog > 0, "backlog must be positive");
        require(cfg_.pool_workers > 0, "pool_workers must be positive");
        require(cfg_.session_sndbuf >= 0, "session_sndbuf must be >= 0");
        require(s.max_instances > 0, "max_instances must be positive");
        require(s.max_shards > 0, "max_shards must be positive");
        // The server registers one lane_depth_peak{shard=...} series per
        // shard index beside the builtin schema, in a fixed-size table.
        require(static_cast<std::size_t>(s.max_shards) <=
                    obs::kMaxSeries - obs::sid::kCount,
                "max_shards exceeds the metrics table's per-shard series");
        require(s.batch_events > 0, "batch_events must be positive");
        require(s.quantum_steps > 0, "quantum_steps must be positive");
        require(s.quantum_windows > 0, "quantum_windows must be positive");
        require(s.ingest_queue_events > 0,
                "ingest_queue_events must be positive");
        require(s.egress_buffer_bytes > 0,
                "egress_buffer_bytes must be positive");
        return cfg_;
    }

private:
    static void require(bool ok, const char* what) {
        if (!ok) throw std::invalid_argument(std::string("ServerConfig: ") + what);
    }

    ServerConfig cfg_{};
};

}  // namespace spectre::server
