// OpenFlow 1.0 messages with byte-accurate encode/decode.
//
// Every message the testbed exchanges is represented here and round-trips
// through the real wire format, so control-path byte counts are exact. The
// catalogue covers the handshake (hello / features / echo), the reactive
// path the paper studies (packet_in / packet_out / flow_mod), flow_removed
// (table evictions and timeouts) and barriers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "openflow/actions.hpp"
#include "openflow/constants.hpp"
#include "openflow/match.hpp"

namespace sdnbuf::of {

struct Hello {
  std::uint32_t xid = 0;
  bool operator==(const Hello&) const = default;
};

struct EchoRequest {
  std::uint32_t xid = 0;
  bool operator==(const EchoRequest&) const = default;
};

struct EchoReply {
  std::uint32_t xid = 0;
  bool operator==(const EchoReply&) const = default;
};

struct FeaturesRequest {
  std::uint32_t xid = 0;
  bool operator==(const FeaturesRequest&) const = default;
};

struct PortDesc {
  std::uint16_t port_no = 0;
  net::MacAddress hw_addr;
  std::string name;  // cut to kPortNameMaxChars on the wire
  std::uint32_t curr_speed_mbps = 100;
  bool link_down = false;  // OFPPS_LINK_DOWN bit of the phy-port state word

  bool operator==(const PortDesc&) const = default;
};

struct FeaturesReply {
  std::uint32_t xid = 0;
  std::uint64_t datapath_id = 0;
  std::uint32_t n_buffers = 0;  // buffer units the switch advertises
  std::uint8_t n_tables = 1;
  std::vector<PortDesc> ports;

  bool operator==(const FeaturesReply&) const = default;
};

struct PacketIn {
  std::uint32_t xid = 0;
  std::uint32_t buffer_id = kNoBuffer;
  std::uint16_t total_len = 0;  // full frame length of the miss-match packet
  std::uint16_t in_port = 0;
  PacketInReason reason = PacketInReason::NoMatch;
  // First `miss_send_len` bytes when buffered; the entire frame otherwise.
  std::vector<std::uint8_t> data;

  bool operator==(const PacketIn&) const = default;
};

struct PacketOut {
  std::uint32_t xid = 0;
  std::uint32_t buffer_id = kNoBuffer;
  std::uint16_t in_port = kPortNone;
  ActionList actions;
  // Full frame when buffer_id == kNoBuffer; empty otherwise.
  std::vector<std::uint8_t> data;

  bool operator==(const PacketOut&) const = default;
};

struct FlowMod {
  std::uint32_t xid = 0;
  Match match;
  std::uint64_t cookie = 0;
  FlowModCommand command = FlowModCommand::Add;
  std::uint16_t idle_timeout_s = 0;  // 0 = no timeout
  std::uint16_t hard_timeout_s = 0;
  std::uint16_t priority = 0x8000;
  // When valid, the switch applies `actions` to the buffered packet too.
  std::uint32_t buffer_id = kNoBuffer;
  std::uint16_t out_port = kPortNone;  // filter for delete commands
  std::uint16_t flags = 0;
  ActionList actions;

  bool operator==(const FlowMod&) const = default;
};

struct FlowRemoved {
  std::uint32_t xid = 0;
  Match match;
  std::uint64_t cookie = 0;
  std::uint16_t priority = 0;
  FlowRemovedReason reason = FlowRemovedReason::IdleTimeout;
  std::uint32_t duration_sec = 0;
  std::uint32_t duration_nsec = 0;
  std::uint16_t idle_timeout_s = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;

  bool operator==(const FlowRemoved&) const = default;
};

// OFPT_PORT_STATUS: asynchronous switch -> controller notification that a
// port's state changed. The data-plane fault plane sends Delete when a link
// goes down (or a peer switch crashes) and Add when it comes back; the
// controller reacts by invalidating rules routed over the dead link and
// recomputing paths (DESIGN.md §13).
struct PortStatus {
  std::uint32_t xid = 0;
  PortStatusReason reason = PortStatusReason::Modify;
  PortDesc desc;

  bool operator==(const PortStatus&) const = default;
};

// --- statistics (OFPT_STATS_REQUEST/REPLY, OF 1.0 subset) ---
//
// The reproduction's controller can poll these like Floodlight's monitoring
// modules do; the ablation benches use them to measure the control-path cost
// of statistics collection alongside the buffer mechanisms.

struct FlowStatsRequest {
  std::uint32_t xid = 0;
  Match match;  // selects entries by subsumption (wildcard_all = every rule)
  std::uint16_t out_port = kPortNone;

  bool operator==(const FlowStatsRequest&) const = default;
};

struct FlowStatsEntry {
  Match match;
  std::uint32_t duration_sec = 0;
  std::uint32_t duration_nsec = 0;
  std::uint16_t priority = 0;
  std::uint16_t idle_timeout_s = 0;
  std::uint16_t hard_timeout_s = 0;
  std::uint64_t cookie = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;

  bool operator==(const FlowStatsEntry&) const = default;
};

struct FlowStatsReply {
  std::uint32_t xid = 0;
  std::vector<FlowStatsEntry> flows;

  bool operator==(const FlowStatsReply&) const = default;
};

struct AggregateStatsRequest {
  std::uint32_t xid = 0;
  Match match;
  std::uint16_t out_port = kPortNone;

  bool operator==(const AggregateStatsRequest&) const = default;
};

struct AggregateStatsReply {
  std::uint32_t xid = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  std::uint32_t flow_count = 0;

  bool operator==(const AggregateStatsReply&) const = default;
};

struct PortStatsRequest {
  std::uint32_t xid = 0;
  std::uint16_t port_no = kPortNone;  // kPortNone = all ports

  bool operator==(const PortStatsRequest&) const = default;
};

struct PortStatsEntry {
  std::uint16_t port_no = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_dropped = 0;
  std::uint64_t tx_dropped = 0;

  bool operator==(const PortStatsEntry&) const = default;
};

struct PortStatsReply {
  std::uint32_t xid = 0;
  std::vector<PortStatsEntry> ports;

  bool operator==(const PortStatsReply&) const = default;
};

// OFPT_ERROR: sent by the switch when a request cannot be honoured (e.g. a
// packet_out naming an unknown/expired buffer_id). `data` carries the first
// bytes of the offending message, per the specification.
struct Error {
  std::uint32_t xid = 0;
  ErrorType type = ErrorType::BadRequest;
  ErrorCode code = ErrorCode::BadType;
  std::vector<std::uint8_t> data;

  bool operator==(const Error&) const = default;
};

// OFPT_VENDOR (experimenter) flow sample: one NetFlow-style sampled packet
// record emitted by a switch whose telemetry_sample_period is non-zero and
// consumed by the controller's FlowMonitor (DESIGN.md §15). Carries the
// 5-tuple plus arrival context; `sample_seq` is the switch's running sample
// counter, so the controller can detect channel loss of sample records.
struct FlowSample {
  std::uint32_t xid = 0;
  std::uint32_t sample_seq = 0;
  std::uint32_t src_ip = 0;  // raw nw_src/nw_dst, matching ofp_match encoding
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t in_port = 0;
  std::uint16_t frame_bytes = 0;  // frame size of the sampled packet
  std::uint8_t protocol = 0;      // IP protocol of the sampled packet

  bool operator==(const FlowSample&) const = default;
};

struct BarrierRequest {
  std::uint32_t xid = 0;
  bool operator==(const BarrierRequest&) const = default;
};

struct BarrierReply {
  std::uint32_t xid = 0;
  bool operator==(const BarrierReply&) const = default;
};

using OfMessage =
    std::variant<Hello, Error, EchoRequest, EchoReply, FeaturesRequest, FeaturesReply, PacketIn,
                 PacketOut, FlowMod, FlowRemoved, PortStatus, FlowStatsRequest, FlowStatsReply,
                 AggregateStatsRequest, AggregateStatsReply, PortStatsRequest, PortStatsReply,
                 BarrierRequest, BarrierReply, FlowSample>;

[[nodiscard]] MsgType message_type(const OfMessage& msg);
[[nodiscard]] std::uint32_t message_xid(const OfMessage& msg);

// Encodes with a correct ofp_header (version/type/length/xid); the length
// field is the number of bytes actually written.
[[nodiscard]] std::vector<std::uint8_t> encode_message(const OfMessage& msg);

// Encodes into `out` (cleared first), reusing its capacity.
void encode_message_into(const OfMessage& msg, std::vector<std::uint8_t>& out);

// Full encoded size without materializing the buffer: the size the control
// channel charges on the wire. The invariant registry checks it against
// encode_message on every message it observes (`codec-roundtrip`).
[[nodiscard]] std::size_t encoded_size(const OfMessage& msg);

// Decodes one message; nullopt on truncation, bad version, or unknown type.
[[nodiscard]] std::optional<OfMessage> decode_message(std::span<const std::uint8_t> in);

}  // namespace sdnbuf::of
