#include "host/sink.hpp"

namespace sdnbuf::host {

bool HostSink::receive(const net::Packet& packet) {
  ++packets_received_;
  bytes_received_ += packet.frame_size;
  last_arrival_ = sim_->now();
  latency_ms_.add((sim_->now() - packet.created_at).ms());
  if (packet.flow_id == net::kUntrackedFlow) return false;
  auto& per_seq = seen_[packet.flow_id];
  const bool first_copy = ++per_seq[packet.seq_in_flow] == 1;
  if (!first_copy) {
    ++duplicates_;
    return false;
  }
  if (on_receive_) on_receive_(packet);
  return true;
}

std::uint64_t HostSink::flow_packets(std::uint64_t flow_id) const {
  const auto it = seen_.find(flow_id);
  if (it == seen_.end()) return 0;
  std::uint64_t n = 0;
  for (const auto& [seq, count] : it->second) n += count;
  return n;
}

void HostSink::reset() {
  packets_received_ = 0;
  bytes_received_ = 0;
  duplicates_ = 0;
  last_arrival_ = sim::SimTime::zero();
  latency_ms_ = util::Samples{};
  seen_.clear();
}

}  // namespace sdnbuf::host
