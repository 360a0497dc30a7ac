// The receiving host: counts deliveries, tracks per-flow completeness and
// end-to-end latency samples, and tells its caller which arrivals were a
// tracked payload's first copy (the telemetry ledger counts only those).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace sdnbuf::host {

class HostSink {
 public:
  explicit HostSink(sim::Simulator& sim) : sim_(&sim) {}

  // Delivery feedback for closed-loop senders: fires on every first-copy
  // arrival of a tracked packet (duplicates from spurious retransmits are
  // counted but not re-reported).
  void set_on_receive(std::function<void(const net::Packet&)> cb) { on_receive_ = std::move(cb); }

  // Delivery callback (wired to the far end of the switch->host link).
  // Returns true when `packet` is the first copy of a tracked payload.
  bool receive(const net::Packet& packet);

  [[nodiscard]] std::uint64_t packets_received() const { return packets_received_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_received_; }
  [[nodiscard]] std::uint64_t duplicate_packets() const { return duplicates_; }
  [[nodiscard]] sim::SimTime last_arrival() const { return last_arrival_; }

  // End-to-end latency (source emission -> sink arrival), milliseconds.
  [[nodiscard]] const util::Samples& latency_ms() const { return latency_ms_; }

  // Packets received for one flow.
  [[nodiscard]] std::uint64_t flow_packets(std::uint64_t flow_id) const;

  void reset();

 private:
  sim::Simulator* sim_;
  std::function<void(const net::Packet&)> on_receive_;
  std::uint64_t packets_received_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t duplicates_ = 0;
  sim::SimTime last_arrival_;
  util::Samples latency_ms_;
  // flow -> set of seen sequence numbers is overkill; count per (flow, seq)
  // pairs to detect duplicates cheaply.
  std::unordered_map<std::uint64_t, std::unordered_map<std::uint32_t, std::uint32_t>> seen_;
};

}  // namespace sdnbuf::host
