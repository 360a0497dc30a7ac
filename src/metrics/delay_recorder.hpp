// Per-flow delay bookkeeping, following the metric definitions of §III.B:
//
//   flow setup delay      first packet of a flow entering the switch ->
//                         that packet leaving the switch
//   controller delay      packet_in leaving the switch -> first
//                         flow_mod/packet_out for that flow arriving back
//   switch delay          flow setup delay - controller delay
//   flow forwarding delay first packet entering -> LAST packet of the flow
//                         leaving the switch (§V.B.4)
//
// The recorder is a subscriber of the observation stream (verify/observer.hpp)
// of the one switch it measures; `finalize` turns the per-flow records into
// sample sets. Untracked (warm-up) flows are not recorded.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "sim/time.hpp"
#include "util/stats.hpp"
#include "verify/observer.hpp"

namespace sdnbuf::metrics {

class DelayRecorder final : public verify::InvariantObserver {
 public:
  void on_packet_arrival(std::uint64_t flow_id, sim::SimTime now) override;
  void on_packet_departure(std::uint64_t flow_id, sim::SimTime now) override;
  void on_packet_in_sent(std::uint32_t xid, const net::Packet& packet, std::uint32_t buffer_id,
                         sim::SimTime now) override;
  void on_response_arrival(std::uint64_t flow_id, sim::SimTime now) override;

  struct FlowRecord {
    std::optional<sim::SimTime> first_arrival;
    std::optional<sim::SimTime> first_departure;
    std::optional<sim::SimTime> last_departure;
    std::optional<sim::SimTime> pkt_in_sent;
    std::optional<sim::SimTime> response_arrival;
    std::uint64_t packets_departed = 0;
  };

  struct Result {
    util::Samples setup_ms;        // Fig. 5 / Fig. 12(a)
    util::Samples controller_ms;   // Fig. 6
    util::Samples switch_ms;       // Fig. 7
    util::Samples forwarding_ms;   // Fig. 12(b)
    std::uint64_t flows_seen = 0;
    std::uint64_t flows_complete = 0;  // with both arrival and departure
    std::uint64_t packets_departed = 0;
  };

  // Aggregates all flow records. Flows that never completed setup are
  // counted in `flows_seen` but contribute no samples.
  [[nodiscard]] Result finalize() const;

  [[nodiscard]] const FlowRecord* record(std::uint64_t flow_id) const;
  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }

 private:
  FlowRecord& flow(std::uint64_t flow_id) { return flows_[flow_id]; }
  std::unordered_map<std::uint64_t, FlowRecord> flows_;
};

}  // namespace sdnbuf::metrics
