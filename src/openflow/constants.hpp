// OpenFlow protocol constants (OpenFlow 1.0 wire model).
//
// The reproduction uses the OF 1.0 message layout: it is the protocol OVS
// and Floodlight speak by default in the paper's testbed era, its encodings
// are compact and fully specified, and the buffer_id semantics the paper
// builds on (packet buffering at the switch, `OFP_NO_BUFFER`,
// `miss_send_len`) are identical in later versions.
#pragma once

#include <cstdint>

namespace sdnbuf::of {

inline constexpr std::uint8_t kVersion = 0x01;

// ofp_type
enum class MsgType : std::uint8_t {
  Hello = 0,
  Error = 1,
  EchoRequest = 2,
  EchoReply = 3,
  Vendor = 4,
  FeaturesRequest = 5,
  FeaturesReply = 6,
  PacketIn = 10,
  FlowRemoved = 11,
  PortStatus = 12,
  PacketOut = 13,
  FlowMod = 14,
  StatsRequest = 16,
  StatsReply = 17,
  BarrierRequest = 18,
  BarrierReply = 19,
};

// One-past the largest MsgType enumerator; per-type tables (message
// counters) must cover at least this many slots.
inline constexpr std::size_t kMsgTypeSlots = static_cast<std::size_t>(MsgType::BarrierReply) + 1;

// Channel fault-injection event kinds (see of::FaultProfile).
enum class FaultKind : std::uint8_t {
  Loss = 0,       // the message left the sender but never arrived
  Duplicate = 1,  // a second copy of the message was delivered
  Outage = 2,     // the connection was down; the message never hit the wire
};

[[nodiscard]] const char* fault_kind_name(FaultKind k);

// ofp_stats_types (subset of OF 1.0).
enum class StatsType : std::uint16_t {
  Flow = 1,
  Aggregate = 2,
  Port = 4,
};

// ofp_error_type / generic codes (subset).
enum class ErrorType : std::uint16_t {
  BadRequest = 1,
  BadAction = 2,
  FlowModFailed = 3,
};

enum class ErrorCode : std::uint16_t {
  // BadRequest codes
  BadVersion = 0,
  BadType = 1,
  BufferUnknown = 8,   // OFPBRC_BUFFER_UNKNOWN
  // FlowModFailed codes (interpretation depends on the type)
  AllTablesFull = 0,
};

[[nodiscard]] const char* msg_type_name(MsgType t);

// Special buffer id: "no packet buffered, full frame in the data field".
inline constexpr std::uint32_t kNoBuffer = 0xffffffff;

// Default number of bytes of a miss-match packet sent to the controller when
// the packet is buffered (ofp_switch_config.miss_send_len default).
inline constexpr std::uint16_t kDefaultMissSendLen = 128;

// ofp_port special values (OF 1.0 uses 16-bit port numbers).
inline constexpr std::uint16_t kPortMax = 0xff00;
inline constexpr std::uint16_t kPortInPort = 0xfff8;
inline constexpr std::uint16_t kPortFlood = 0xfffb;
inline constexpr std::uint16_t kPortAll = 0xfffc;
inline constexpr std::uint16_t kPortController = 0xfffd;
inline constexpr std::uint16_t kPortLocal = 0xfffe;
inline constexpr std::uint16_t kPortNone = 0xffff;

// ofp_packet_in_reason
enum class PacketInReason : std::uint8_t {
  NoMatch = 0,
  Action = 1,
  // Extension used by the flow-granularity buffer mechanism (Algorithm 1,
  // line 13): a re-request after the response timeout expired. Values >= 0x80
  // are outside the standard range, mirroring an experimenter extension.
  FlowResend = 0x80,
};

// ofp_flow_mod_command
enum class FlowModCommand : std::uint8_t {
  Add = 0,
  Modify = 1,
  ModifyStrict = 2,
  Delete = 3,
  DeleteStrict = 4,
};

// ofp_flow_removed reason
enum class FlowRemovedReason : std::uint8_t {
  IdleTimeout = 0,
  HardTimeout = 1,
  Delete = 2,
  // Extension: evicted to make room in a full table (OVS behaviour).
  Eviction = 0x80,
};

// ofp_port_status reason
enum class PortStatusReason : std::uint8_t {
  Add = 0,     // the port exists (sent when a dead port comes back up)
  Delete = 1,  // the port is gone (link down / switch-side failure)
  Modify = 2,  // attribute change
};

// ofp_port_state: the link-down bit of the phy-port `state` word.
inline constexpr std::uint32_t kPortStateLinkDown = 1u << 0;

// ofp_flow_mod flags
inline constexpr std::uint16_t kFlowModSendFlowRem = 1 << 0;

// Vendor (experimenter) extension carrying sampled flow records to the
// controller's FlowMonitor (DESIGN.md §15). The vendor id is a private-use
// value; subtype 1 is the only message defined so far.
inline constexpr std::uint32_t kSdnbufVendorId = 0x00005db1;
inline constexpr std::uint16_t kFlowSampleSubtype = 1;

// Fixed part sizes (bytes) of the OF 1.0 wire structures.
inline constexpr std::size_t kHeaderSize = 8;
inline constexpr std::size_t kMatchSize = 40;
inline constexpr std::size_t kPacketInFixedSize = kHeaderSize + 10;   // 18
inline constexpr std::size_t kPacketOutFixedSize = kHeaderSize + 8;   // 16
inline constexpr std::size_t kFlowModFixedSize = kHeaderSize + kMatchSize + 24;  // 72
inline constexpr std::size_t kFlowRemovedSize = kHeaderSize + kMatchSize + 40;   // 88
inline constexpr std::size_t kPhyPortSize = 48;
// ofp_phy_port's name field holds 15 characters plus a NUL: the one field
// the codec does not round-trip (a longer PortDesc::name comes back cut).
inline constexpr std::size_t kPortNameMaxChars = 15;
inline constexpr std::size_t kPortStatusSize = kHeaderSize + 8 + kPhyPortSize;  // 64
inline constexpr std::size_t kFeaturesReplyFixedSize = kHeaderSize + 24;
inline constexpr std::size_t kStatsHeaderSize = kHeaderSize + 4;  // + type/flags
inline constexpr std::size_t kErrorFixedSize = kHeaderSize + 4;   // + type/code
inline constexpr std::size_t kFlowStatsRequestBodySize = kMatchSize + 4;
inline constexpr std::size_t kFlowStatsEntrySize = 88;
inline constexpr std::size_t kAggregateStatsReplyBodySize = 24;
inline constexpr std::size_t kPortStatsRequestBodySize = 8;
inline constexpr std::size_t kPortStatsEntrySize = 104;
// Vendor flow-sample body: vendor_id(4) + subtype(2) + pad(2) + sample_seq(4)
// + src_ip(4) + dst_ip(4) + src_port(2) + dst_port(2) + in_port(2) +
// frame_bytes(2) + protocol(1) + pad(3) = 32.
inline constexpr std::size_t kVendorFlowSampleSize = kHeaderSize + 32;  // 40

// Bytes added around each OpenFlow message on the control path: the channel
// runs over TCP/IP/Ethernet, and the paper measures control-path load with
// tcpdump, i.e. including that framing (Ethernet 14 + IPv4 20 + TCP w/
// timestamps 32).
inline constexpr std::size_t kTransportOverhead = 66;

}  // namespace sdnbuf::of
