// One experiment run: a workload pushed through the testbed under one
// buffer mechanism, producing every metric of §III.B.
#pragma once

#include <cstdint>
#include <string>

#include "core/runner.hpp"
#include "core/testbed.hpp"
#include "host/traffic_gen.hpp"
#include "util/stats.hpp"

namespace sdnbuf::core {

struct ExperimentConfig : RunOptions {
  // Mechanism under test.
  sw::BufferMode mode = sw::BufferMode::NoBuffer;
  std::size_t buffer_capacity = 256;

  // Workload (pktgen parameters).
  double rate_mbps = 10.0;
  std::uint32_t frame_size = 1000;
  std::uint64_t n_flows = 1000;
  std::uint32_t packets_per_flow = 1;
  host::EmissionOrder order = host::EmissionOrder::Sequential;
  std::uint32_t batch_size = 5;
  // Fraction of flows carried over TCP instead of UDP (§VI mixed traffic).
  double tcp_flow_fraction = 0.0;

  std::uint64_t seed = 1;

  // Platform (cost models, link speeds, chain length, observers, telemetry
  // observatory); mode, buffer_capacity and seed above override the
  // corresponding testbed fields. Observers see the warm-up too; call
  // finalize() on a registry after run_experiment returns.
  TestbedConfig testbed;

  // Optional control-channel capture, attached before warm-up so two
  // same-seed runs produce byte-identical traces end to end.
  of::ChannelCapture* capture = nullptr;
  // Flow-lifecycle tracer, subscribed to switch 0 after testbed.observers.
  // run_experiment calls finalize() on it after the drain.
  obs::FlowTracer* tracer = nullptr;
};

struct ExperimentResult {
  // Control path load, both directions (Fig. 2 / Fig. 9), in Mbps over the
  // measurement window.
  double to_controller_mbps = 0.0;
  double to_switch_mbps = 0.0;

  // CPU usages as the OS reports them (100% = one core; Fig. 3-4 / 10-11).
  double controller_cpu_pct = 0.0;
  double switch_cpu_pct = 0.0;
  double bus_utilization_pct = 0.0;

  // Per-flow delay samples (Fig. 5-7 / Fig. 12).
  util::Samples setup_ms;
  util::Samples controller_ms;
  util::Samples switch_ms;
  util::Samples forwarding_ms;

  // Buffer units (Fig. 8 / Fig. 13).
  double buffer_avg_units = 0.0;
  double buffer_max_units = 0.0;

  // Message accounting.
  std::uint64_t pkt_ins_sent = 0;
  std::uint64_t full_frame_pkt_ins = 0;
  std::uint64_t resend_pkt_ins = 0;
  std::uint64_t flow_mods = 0;
  std::uint64_t pkt_outs = 0;
  std::uint64_t to_controller_msgs = 0;
  std::uint64_t to_switch_msgs = 0;
  std::uint64_t to_controller_bytes = 0;
  std::uint64_t to_switch_bytes = 0;
  std::uint64_t stats_requests = 0;
  std::uint64_t pkt_ins_dropped = 0;  // controller fault injection

  // Telemetry plane (DESIGN.md §15).
  std::uint64_t flow_samples = 0;  // vendor flow-sample records on the wire
  std::uint64_t int_stamps = 0;    // INT hop stamps applied by the switch

  // Shared-memory MMU (DESIGN.md §16; zero with MMU off).
  std::uint64_t mmu_rejected = 0;        // admissions refused by the policy
  std::uint64_t mmu_peak_pool_cells = 0; // peak shared-pool occupancy

  // Liveness / handshake traffic (both directions summed).
  std::uint64_t echo_msgs = 0;   // echo_request + echo_reply
  std::uint64_t hello_msgs = 0;
  std::uint64_t error_msgs = 0;

  // Channel fault injection (see of::ChannelFaultCounters).
  std::uint64_t channel_lost_msgs = 0;
  std::uint64_t channel_duplicated_msgs = 0;
  std::uint64_t channel_outage_dropped_msgs = 0;

  // Degradation and recovery accounting.
  std::uint64_t connection_losses = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t failsecure_dropped = 0;
  std::uint64_t standalone_forwarded = 0;
  std::uint64_t resend_cap_expired = 0;
  std::uint64_t reconcile_rerequests = 0;
  std::uint64_t reconcile_expired = 0;
  // When the last hello re-handshake completed, in seconds relative to the
  // measurement start; negative if the connection never degraded.
  double last_reconnect_s = -1.0;

  // Conservation / sanity.
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t flows_complete = 0;
  double duration_s = 0.0;
  bool drained = false;  // every injected packet was delivered

  // Field-by-field, doubles exact: the no-perturbation check (DESIGN.md §10.1).
  friend bool operator==(const ExperimentResult&, const ExperimentResult&) = default;
};

// Builds the testbed, warms it up, runs the workload to completion (or the
// deadline) and harvests every metric.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

// Human-readable one-line summary (examples use it).
[[nodiscard]] std::string summarize(const ExperimentResult& r);

}  // namespace sdnbuf::core
