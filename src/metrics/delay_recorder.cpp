#include "metrics/delay_recorder.hpp"

namespace sdnbuf::metrics {

void DelayRecorder::on_packet_arrival(std::uint64_t flow_id, sim::SimTime now) {
  if (flow_id == net::kUntrackedFlow) return;
  auto& r = flow(flow_id);
  if (!r.first_arrival) r.first_arrival = now;
}

void DelayRecorder::on_packet_departure(std::uint64_t flow_id, sim::SimTime now) {
  if (flow_id == net::kUntrackedFlow) return;
  auto& r = flow(flow_id);
  if (!r.first_departure) r.first_departure = now;
  if (!r.last_departure || now > *r.last_departure) r.last_departure = now;
  ++r.packets_departed;
}

void DelayRecorder::on_packet_in_sent(std::uint32_t /*xid*/, const net::Packet& packet,
                                      std::uint32_t /*buffer_id*/, sim::SimTime now) {
  if (packet.flow_id == net::kUntrackedFlow) return;
  auto& r = flow(packet.flow_id);
  if (!r.pkt_in_sent) r.pkt_in_sent = now;
}

void DelayRecorder::on_response_arrival(std::uint64_t flow_id, sim::SimTime now) {
  if (flow_id == net::kUntrackedFlow) return;
  auto& r = flow(flow_id);
  if (!r.response_arrival) r.response_arrival = now;
}

const DelayRecorder::FlowRecord* DelayRecorder::record(std::uint64_t flow_id) const {
  const auto it = flows_.find(flow_id);
  return it == flows_.end() ? nullptr : &it->second;
}

DelayRecorder::Result DelayRecorder::finalize() const {
  Result out;
  out.flows_seen = flows_.size();
  // One sample per complete flow: reserving up front avoids the realloc
  // churn profiled at 20 reps x 1000 flows in the sweep pooling paths.
  out.setup_ms.reserve(flows_.size());
  out.controller_ms.reserve(flows_.size());
  out.switch_ms.reserve(flows_.size());
  out.forwarding_ms.reserve(flows_.size());
  for (const auto& [id, r] : flows_) {
    out.packets_departed += r.packets_departed;
    if (!r.first_arrival || !r.first_departure) continue;
    ++out.flows_complete;
    const double setup = (*r.first_departure - *r.first_arrival).ms();
    out.setup_ms.add(setup);
    if (r.last_departure) {
      out.forwarding_ms.add((*r.last_departure - *r.first_arrival).ms());
    }
    if (r.pkt_in_sent && r.response_arrival) {
      const double controller = (*r.response_arrival - *r.pkt_in_sent).ms();
      out.controller_ms.add(controller);
      out.switch_ms.add(setup - controller);
    }
  }
  return out;
}

}  // namespace sdnbuf::metrics
