// The simulated packet.
//
// A `Packet` carries parsed headers plus a frame size; payload bytes are not
// materialized (they are zeros) but `serialize` produces the genuine
// on-the-wire prefix — what a switch copies into an OpenFlow `packet_in`
// data field, and what the controller parses back out.
//
// The trailing metadata block (flow id, sequence number, creation time) is
// simulator-side bookkeeping used by the metrics recorders; it does not
// exist on the wire and does not count toward the frame size.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/flow_key.hpp"
#include "net/headers.hpp"
#include "sim/time.hpp"

namespace sdnbuf::net {

// `Packet::flow_id` of traffic no experiment measures (warm-up chatter):
// observers, sinks and ledgers skip it.
inline constexpr std::uint64_t kUntrackedFlow = ~std::uint64_t{0};

// One INT-style per-hop telemetry record, appended by a switch at egress
// when its SwitchConfig::telemetry_int_depth is non-zero. The stack rides
// the packet's simulator metadata (not the wire) and is copied with the
// packet — no shared mutable state.
struct HopStamp {
  std::uint64_t switch_id = 0;      // datapath id of the stamping switch
  std::uint16_t in_port = 0;        // ingress port the packet arrived on
  std::uint16_t out_port = 0;       // egress port chosen by the pipeline
  std::uint32_t queue_depth = 0;    // egress backlog (packets) at enqueue
  std::uint32_t buffer_units = 0;   // switch buffer-pool units in use
  // Shared-memory MMU sharing dynamics (DESIGN.md §16); both 0 when the
  // stamping switch runs without an MMU, so pre-MMU stamps are unchanged.
  std::uint32_t pool_cells = 0;       // shared-pool cells in use at egress
  std::uint32_t queue_threshold = 0;  // admission ceiling of this packet's
                                      // egress queue (cells; native cap
                                      // under StaticPartition)
  sim::SimTime arrived_at;          // switch ingress time
  sim::SimTime departed_at;         // egress enqueue time

  [[nodiscard]] sim::SimTime residence() const { return departed_at - arrived_at; }
};

struct Packet {
  EthernetHeader eth;
  Ipv4Header ip;
  // Exactly one of udp/tcp is meaningful, selected by ip.protocol.
  UdpHeader udp;
  TcpHeader tcp;

  // Total frame bytes on the wire (Ethernet header + IP packet). The paper
  // uses 1000-byte frames.
  std::uint32_t frame_size = 0;

  // --- Simulator metadata (not on the wire) ---
  std::uint64_t flow_id = 0;    // dense experiment-assigned flow index, or kUntrackedFlow
  std::uint32_t seq_in_flow = 0;
  sim::SimTime created_at;      // when the source emitted the first bit
  std::uint16_t hops = 0;       // switches visited, against SwitchConfig::max_hops

  // INT telemetry (DESIGN.md §15): per-hop stamps, bounded by the stamping
  // switch's telemetry_int_depth. Empty — and never touched — when telemetry
  // is off, so the default packet copies exactly as before.
  std::vector<HopStamp> tstack;
  sim::SimTime hop_arrived_at;  // ingress time at the current switch (scratch)

  [[nodiscard]] FlowKey flow_key() const;

  // Serializes the first min(frame_size, max_bytes) wire bytes
  // (headers, then zero payload padding).
  [[nodiscard]] std::vector<std::uint8_t> serialize(std::size_t max_bytes) const;

  // Serializes into `out` (cleared first), reusing its capacity — the
  // hot-path variant for packet_in/packet_out data fields.
  void serialize_into(std::size_t max_bytes, std::vector<std::uint8_t>& out) const;

  // Parses headers back from wire bytes (e.g. a packet_in data field).
  // Frame size is taken from `total_frame_size` since the data field may be
  // a truncated prefix. Metadata fields are left default.
  [[nodiscard]] static std::optional<Packet> parse(std::span<const std::uint8_t> wire,
                                                   std::uint32_t total_frame_size);

  [[nodiscard]] std::size_t header_size() const;
};

// Builds a UDP packet with consistent length fields. `frame_size` must be at
// least the combined header size.
[[nodiscard]] Packet make_udp_packet(const MacAddress& src_mac, const MacAddress& dst_mac,
                                     const Ipv4Address& src_ip, const Ipv4Address& dst_ip,
                                     std::uint16_t src_port, std::uint16_t dst_port,
                                     std::uint32_t frame_size);

// Builds a TCP packet (flags per `flags`, e.g. kTcpSyn).
[[nodiscard]] Packet make_tcp_packet(const MacAddress& src_mac, const MacAddress& dst_mac,
                                     const Ipv4Address& src_ip, const Ipv4Address& dst_ip,
                                     std::uint16_t src_port, std::uint16_t dst_port,
                                     std::uint8_t flags, std::uint32_t frame_size);

}  // namespace sdnbuf::net
