// Unit and property tests for the OpenFlow layer: match semantics, action
// codecs, full message round trips (parameterized sweeps), wire sizes
// against the OF 1.0 structure sizes, and the control channel.
#include <gtest/gtest.h>

#include <set>

#include "net/link.hpp"
#include "net/link_fault.hpp"
#include "openflow/actions.hpp"
#include "openflow/channel.hpp"
#include "openflow/constants.hpp"
#include "openflow/match.hpp"
#include "openflow/messages.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace sdnbuf::of {
namespace {

net::Packet sample_packet(std::uint32_t flow = 0) {
  return net::make_udp_packet(net::MacAddress::from_index(1), net::MacAddress::from_index(2),
                              net::Ipv4Address{0x0a010001u + flow},
                              net::Ipv4Address::from_octets(10, 2, 0, 1),
                              static_cast<std::uint16_t>(10000 + flow), 9, 1000);
}

TEST(Match, WildcardAllMatchesAnything) {
  const Match m = Match::wildcard_all();
  EXPECT_TRUE(m.matches(sample_packet(0), 1));
  EXPECT_TRUE(m.matches(sample_packet(77), 9));
}

TEST(Match, ExactFromMatchesOnlyThatPacket) {
  const auto p = sample_packet(5);
  const Match m = Match::exact_from(p, 1);
  EXPECT_TRUE(m.matches(p, 1));
  EXPECT_FALSE(m.matches(p, 2));             // different in_port
  EXPECT_FALSE(m.matches(sample_packet(6), 1));  // different flow
}

TEST(Match, SingleFieldWildcards) {
  const auto p = sample_packet(5);
  Match m = Match::exact_from(p, 1);
  m.wildcards |= kWildcardTpSrc;
  auto q = sample_packet(5);
  q.udp.src_port = 999;  // only tp_src differs
  EXPECT_TRUE(m.matches(q, 1));
  q.udp.dst_port = 999;  // now tp_dst differs too
  EXPECT_FALSE(m.matches(q, 1));
}

TEST(Match, Ipv4PrefixWildcards) {
  const auto p = sample_packet(5);
  Match m = Match::exact_from(p, 1);
  m.set_nw_src_ignored_bits(8);  // /24 source match
  auto q = sample_packet(5);
  q.ip.src = net::Ipv4Address{(p.ip.src.value() & 0xffffff00u) | 0x99};
  EXPECT_TRUE(m.matches(q, 1));
  q.ip.src = net::Ipv4Address{p.ip.src.value() ^ 0x00000100u};  // outside the /24
  EXPECT_FALSE(m.matches(q, 1));
}

TEST(Match, IgnoredBits32MeansAnyAddress) {
  const auto p = sample_packet(5);
  Match m = Match::exact_from(p, 1);
  m.set_nw_src_ignored_bits(32);
  auto q = sample_packet(5);
  q.ip.src = net::Ipv4Address::from_octets(1, 2, 3, 4);
  EXPECT_TRUE(m.matches(q, 1));
}

TEST(Match, SubsumesReflexiveAndHierarchy) {
  const auto p = sample_packet(5);
  const Match exact = Match::exact_from(p, 1);
  EXPECT_TRUE(exact.subsumes(exact));
  const Match all = Match::wildcard_all();
  EXPECT_TRUE(all.subsumes(exact));
  EXPECT_FALSE(exact.subsumes(all));
  Match prefix = exact;
  prefix.set_nw_src_ignored_bits(8);
  EXPECT_TRUE(prefix.subsumes(exact));
  EXPECT_FALSE(exact.subsumes(prefix));
}

TEST(Match, EncodedSizeIs40Bytes) {
  std::vector<std::uint8_t> buf;
  Match::exact_from(sample_packet(0), 1).encode(buf);
  EXPECT_EQ(buf.size(), kMatchSize);
}

TEST(Match, RoundTrip) {
  const Match m = Match::exact_from(sample_packet(3), 2);
  std::vector<std::uint8_t> buf;
  m.encode(buf);
  const auto decoded = Match::decode(buf);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, m);
}

TEST(Actions, EncodedSizes) {
  EXPECT_EQ(encoded_size(Action{OutputAction{1, 0}}), 8u);
  EXPECT_EQ(encoded_size(Action{SetDlDstAction{net::MacAddress::from_index(1)}}), 16u);
  const ActionList list{OutputAction{1, 0}, SetDlSrcAction{net::MacAddress::from_index(2)}};
  EXPECT_EQ(encoded_size(list), 24u);
}

TEST(Actions, RoundTrip) {
  const ActionList list{OutputAction{2, 128}, SetDlSrcAction{net::MacAddress::from_index(7)},
                        SetDlDstAction{net::MacAddress::from_index(8)}};
  std::vector<std::uint8_t> buf;
  encode_actions(list, buf);
  const auto decoded = decode_actions(buf, buf.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, list);
}

TEST(Actions, EmptyListIsDrop) {
  std::vector<std::uint8_t> buf;
  encode_actions({}, buf);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(to_string(ActionList{}), "drop");
}

TEST(Actions, DecodeRejectsMalformed) {
  // Truncated action header.
  const std::vector<std::uint8_t> short_buf{0, 0};
  EXPECT_FALSE(decode_actions(short_buf, 2).has_value());
  // Bad declared length.
  const std::vector<std::uint8_t> bad_len{0, 0, 0, 3};
  EXPECT_FALSE(decode_actions(bad_len, 4).has_value());
  // Unknown action type.
  const std::vector<std::uint8_t> unknown{0xff, 0xff, 0, 8, 0, 0, 0, 0};
  EXPECT_FALSE(decode_actions(unknown, 8).has_value());
}

// --- message round trips ---

void expect_round_trip(const OfMessage& msg) {
  const auto wire = encode_message(msg);
  EXPECT_EQ(wire.size(), encoded_size(msg));
  const auto decoded = decode_message(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg) << "type " << msg_type_name(message_type(msg));
}

TEST(Messages, TrivialMessagesRoundTrip) {
  expect_round_trip(Hello{7});
  expect_round_trip(EchoRequest{8});
  expect_round_trip(EchoReply{9});
  expect_round_trip(FeaturesRequest{10});
  expect_round_trip(BarrierRequest{11});
  expect_round_trip(BarrierReply{12});
}

TEST(Messages, HeaderEncodesTypeLengthXid) {
  const auto wire = encode_message(Hello{0xdeadbeef});
  ASSERT_EQ(wire.size(), kHeaderSize);
  EXPECT_EQ(wire[0], kVersion);
  EXPECT_EQ(wire[1], static_cast<std::uint8_t>(MsgType::Hello));
  EXPECT_EQ(wire[2], 0);
  EXPECT_EQ(wire[3], 8);
  EXPECT_EQ(wire[4], 0xde);
  EXPECT_EQ(wire[7], 0xef);
}

TEST(Messages, FeaturesReplyRoundTripWithPorts) {
  FeaturesReply m;
  m.xid = 3;
  m.datapath_id = 0x0102030405060708ULL;
  m.n_buffers = 256;
  m.n_tables = 2;
  m.ports.push_back(PortDesc{1, net::MacAddress::from_index(1), "eth1", 100});
  m.ports.push_back(PortDesc{2, net::MacAddress::from_index(2), "eth2", 100});
  expect_round_trip(m);
  EXPECT_EQ(encoded_size(OfMessage{m}), kFeaturesReplyFixedSize + 2 * kPhyPortSize);
}

TEST(Messages, PacketInFullFrameSize) {
  PacketIn m;
  m.xid = 1;
  m.buffer_id = kNoBuffer;
  m.total_len = 1000;
  m.in_port = 1;
  m.data = sample_packet(0).serialize(1000);
  expect_round_trip(m);
  // 18-byte fixed part + the whole frame: the no-buffer request size.
  EXPECT_EQ(encoded_size(OfMessage{m}), kPacketInFixedSize + 1000);
}

TEST(Messages, PacketInBufferedSize) {
  PacketIn m;
  m.buffer_id = 42;
  m.total_len = 1000;
  m.in_port = 1;
  m.data = sample_packet(0).serialize(kDefaultMissSendLen);
  expect_round_trip(m);
  // The buffered request carries only miss_send_len bytes: 18 + 128.
  EXPECT_EQ(encoded_size(OfMessage{m}), kPacketInFixedSize + kDefaultMissSendLen);
}

TEST(Messages, PacketInReasonPreserved) {
  PacketIn m;
  m.reason = PacketInReason::FlowResend;
  m.data = {1, 2, 3};
  const auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<PacketIn>(*decoded).reason, PacketInReason::FlowResend);
}

TEST(Messages, PacketOutBufferedVsFull) {
  PacketOut buffered;
  buffered.buffer_id = 99;
  buffered.in_port = 1;
  buffered.actions = output_to(2);
  expect_round_trip(buffered);
  EXPECT_EQ(encoded_size(OfMessage{buffered}), kPacketOutFixedSize + 8);

  PacketOut full;
  full.buffer_id = kNoBuffer;
  full.in_port = 1;
  full.actions = output_to(2);
  full.data = sample_packet(0).serialize(1000);
  expect_round_trip(full);
  EXPECT_EQ(encoded_size(OfMessage{full}), kPacketOutFixedSize + 8 + 1000);
}

TEST(Messages, FlowModRoundTrip) {
  FlowMod m;
  m.xid = 5;
  m.match = Match::exact_from(sample_packet(9), 1);
  m.cookie = 0xfeedULL;
  m.command = FlowModCommand::Add;
  m.idle_timeout_s = 5;
  m.hard_timeout_s = 30;
  m.priority = 100;
  m.buffer_id = 1234;
  m.flags = kFlowModSendFlowRem;
  m.actions = output_to(2);
  expect_round_trip(m);
  EXPECT_EQ(encoded_size(OfMessage{m}), kFlowModFixedSize + 8);
}

TEST(Messages, FlowModDeleteRoundTrip) {
  FlowMod m;
  m.command = FlowModCommand::DeleteStrict;
  m.match = Match::wildcard_all();
  m.out_port = kPortNone;
  expect_round_trip(m);
}

TEST(Messages, FlowRemovedRoundTrip) {
  FlowRemoved m;
  m.xid = 6;
  m.match = Match::exact_from(sample_packet(2), 1);
  m.cookie = 42;
  m.priority = 100;
  m.reason = FlowRemovedReason::IdleTimeout;
  m.duration_sec = 12;
  m.duration_nsec = 345;
  m.idle_timeout_s = 5;
  m.packet_count = 99;
  m.byte_count = 99000;
  expect_round_trip(m);
  EXPECT_EQ(encoded_size(OfMessage{m}), kFlowRemovedSize);
}

TEST(Messages, PortStatusRoundTrip) {
  PortStatus m;
  m.xid = 77;
  m.reason = PortStatusReason::Delete;
  m.desc.port_no = 3;
  m.desc.hw_addr = net::MacAddress::from_index(3);
  m.desc.name = "eth3";
  m.desc.curr_speed_mbps = 100;
  m.desc.link_down = true;
  expect_round_trip(m);
  EXPECT_EQ(encoded_size(OfMessage{m}), kPortStatusSize);

  // A recovered port reports with the link-down bit cleared.
  m.reason = PortStatusReason::Add;
  m.desc.link_down = false;
  expect_round_trip(m);
}

TEST(Messages, DecodeRejectsBadInput) {
  EXPECT_FALSE(decode_message(std::vector<std::uint8_t>{}).has_value());
  auto wire = encode_message(Hello{1});
  wire[0] = 0x04;  // wrong version
  EXPECT_FALSE(decode_message(wire).has_value());
  wire = encode_message(Hello{1});
  wire[1] = 200;  // unknown type
  EXPECT_FALSE(decode_message(wire).has_value());
  wire = encode_message(FlowMod{});
  wire.resize(wire.size() - 1);  // truncated
  EXPECT_FALSE(decode_message(wire).has_value());
}

// Property sweep: randomized packet_in/packet_out/flow_mod messages must
// round-trip exactly for a range of sizes and field values.
class CodecPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecPropertyTest, RandomizedMessagesRoundTrip) {
  util::Rng rng{GetParam()};
  for (int i = 0; i < 50; ++i) {
    PacketIn pi;
    pi.xid = static_cast<std::uint32_t>(rng.next_u64());
    pi.buffer_id = rng.next_below(2) != 0u ? static_cast<std::uint32_t>(rng.next_below(1 << 30))
                                           : kNoBuffer;
    pi.total_len = static_cast<std::uint16_t>(64 + rng.next_below(1436));
    pi.in_port = static_cast<std::uint16_t>(1 + rng.next_below(48));
    pi.reason = rng.next_below(2) != 0u ? PacketInReason::NoMatch : PacketInReason::Action;
    pi.data.resize(rng.next_below(512));
    for (auto& b : pi.data) b = static_cast<std::uint8_t>(rng.next_below(256));
    expect_round_trip(pi);

    PacketOut po;
    po.xid = static_cast<std::uint32_t>(rng.next_u64());
    po.buffer_id = static_cast<std::uint32_t>(rng.next_below(1 << 30));
    po.in_port = static_cast<std::uint16_t>(rng.next_below(48));
    if (rng.next_below(2) != 0u) {
      po.actions = output_to(static_cast<std::uint16_t>(rng.next_below(48)));
    }
    if (rng.next_below(2) != 0u) {
      po.actions.push_back(
          SetDlDstAction{net::MacAddress::from_index(static_cast<std::uint16_t>(
              rng.next_below(100)))});
    }
    expect_round_trip(po);

    FlowMod fm;
    fm.xid = static_cast<std::uint32_t>(rng.next_u64());
    fm.match = Match::exact_from(sample_packet(static_cast<std::uint32_t>(rng.next_below(1000))),
                                 static_cast<std::uint16_t>(1 + rng.next_below(4)));
    fm.cookie = rng.next_u64();
    fm.priority = static_cast<std::uint16_t>(rng.next_below(65536));
    fm.idle_timeout_s = static_cast<std::uint16_t>(rng.next_below(600));
    fm.buffer_id = static_cast<std::uint32_t>(rng.next_below(1 << 30));
    fm.actions = output_to(static_cast<std::uint16_t>(1 + rng.next_below(4)));
    expect_round_trip(fm);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecPropertyTest, ::testing::Values(1, 2, 3, 4, 5));

// Property: subsumption is consistent with matching — if A subsumes B, then
// every packet matching B also matches A.
class SubsumptionPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SubsumptionPropertyTest, SubsumesImpliesMatchSuperset) {
  util::Rng rng{GetParam()};
  for (int i = 0; i < 200; ++i) {
    // Generate B as an exact match on a random packet, then derive A by
    // randomly wildcarding some of B's fields: A must subsume B.
    const auto flow = static_cast<std::uint32_t>(rng.next_below(50));
    const auto port = static_cast<std::uint16_t>(1 + rng.next_below(4));
    const auto p = sample_packet(flow);
    const Match b = Match::exact_from(p, port);
    Match a = b;
    if (rng.next_below(2) != 0u) a.wildcards |= kWildcardInPort;
    if (rng.next_below(2) != 0u) a.wildcards |= kWildcardDlSrc;
    if (rng.next_below(2) != 0u) a.wildcards |= kWildcardTpSrc;
    if (rng.next_below(2) != 0u) a.set_nw_src_ignored_bits(static_cast<int>(rng.next_below(33)));
    if (rng.next_below(2) != 0u) a.set_nw_dst_ignored_bits(static_cast<int>(rng.next_below(33)));
    ASSERT_TRUE(a.subsumes(b)) << a.to_string() << " vs " << b.to_string();
    // The original packet matches B exactly, so it must match A too.
    ASSERT_TRUE(b.matches(p, port));
    ASSERT_TRUE(a.matches(p, port));
    // Random perturbations that still match B must match A.
    auto q = p;
    if (rng.next_below(2) != 0u) {
      // Perturb a field that A wildcards but B does not: now q may stop
      // matching B; whenever it still matches B it must match A.
      q.udp.src_port = static_cast<std::uint16_t>(rng.next_below(65536));
    }
    if (b.matches(q, port)) {
      ASSERT_TRUE(a.matches(q, port));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubsumptionPropertyTest, ::testing::Values(11, 22, 33));

// Fuzz: feeding random bytes to the decoder must never crash and only ever
// return nullopt or a message that re-encodes.
class DecodeFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecodeFuzzTest, RandomBytesAreHandledSafely) {
  util::Rng rng{GetParam()};
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> bytes(rng.next_below(200));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto decoded = decode_message(bytes);
    if (decoded) {
      // Whatever decoded must be re-encodable without crashing.
      const auto wire = encode_message(*decoded);
      EXPECT_GE(wire.size(), kHeaderSize);
    }
  }
}

TEST_P(DecodeFuzzTest, BitFlippedValidMessagesAreHandledSafely) {
  util::Rng rng{GetParam() * 7 + 1};
  PacketIn pi;
  pi.buffer_id = 42;
  pi.total_len = 1000;
  pi.data = sample_packet(1).serialize(128);
  const auto original = encode_message(pi);
  for (int i = 0; i < 500; ++i) {
    auto wire = original;
    // Flip 1-4 random bits.
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      wire[rng.next_below(wire.size())] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    const auto decoded = decode_message(wire);  // must not crash
    (void)decoded;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzzTest, ::testing::Values(101, 202, 303));

// One message of every OfMessage alternative, every field off its default.
// The control channel charges encoded_size and delivers the typed message
// without encoding it, so these are the sizes and the symmetry it relies on.
std::vector<OfMessage> one_of_each_message(util::Rng& rng) {
  const auto u16 = [&rng]() { return static_cast<std::uint16_t>(1 + rng.next_below(0xfffe)); };
  const auto u32 = [&rng]() { return static_cast<std::uint32_t>(1 + rng.next_below(1u << 31)); };
  const auto mac = [&rng]() {
    return net::MacAddress::from_index(static_cast<std::uint32_t>(1 + rng.next_below(1000)));
  };
  const auto bytes = [&rng](std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
    return out;
  };
  Match match = Match::exact_from(sample_packet(static_cast<std::uint32_t>(rng.next_below(500))),
                                  u16());
  match.set_nw_src_ignored_bits(8);
  const ActionList actions{OutputAction{u16(), u16()}, SetDlSrcAction{mac()},
                           SetDlDstAction{mac()}};
  PortDesc port{u16(), mac(), "eth" + std::to_string(rng.next_below(100)), u32(), true};

  std::vector<OfMessage> all;
  all.push_back(Hello{u32()});
  all.push_back(Error{u32(), ErrorType::BadRequest, ErrorCode::BufferUnknown, bytes(64)});
  all.push_back(EchoRequest{u32()});
  all.push_back(EchoReply{u32()});
  all.push_back(FeaturesRequest{u32()});
  all.push_back(FeaturesReply{u32(), rng.next_u64(), u32(), 3, {port, port}});
  all.push_back(PacketIn{u32(), u32(), u16(), u16(), PacketInReason::Action, bytes(128)});
  all.push_back(PacketOut{u32(), u32(), u16(), actions, bytes(60)});
  all.push_back(FlowMod{u32(), match, rng.next_u64(), FlowModCommand::ModifyStrict, u16(), u16(),
                        u16(), u32(), u16(), kFlowModSendFlowRem, actions});
  all.push_back(FlowRemoved{u32(), match, rng.next_u64(), u16(), FlowRemovedReason::Delete,
                            u32(), u32(), u16(), rng.next_u64(), rng.next_u64()});
  all.push_back(PortStatus{u32(), PortStatusReason::Delete, port});
  all.push_back(FlowStatsRequest{u32(), match, u16()});
  FlowStatsEntry entry{match, u32(), u32(), u16(), u16(), u16(),
                       rng.next_u64(), rng.next_u64(), rng.next_u64()};
  all.push_back(FlowStatsReply{u32(), {entry, entry}});
  all.push_back(AggregateStatsRequest{u32(), match, u16()});
  all.push_back(AggregateStatsReply{u32(), rng.next_u64(), rng.next_u64(), u32()});
  all.push_back(PortStatsRequest{u32(), u16()});
  PortStatsEntry port_stats{u16(), rng.next_u64(), rng.next_u64(), rng.next_u64(),
                            rng.next_u64(), rng.next_u64(), rng.next_u64()};
  all.push_back(PortStatsReply{u32(), {port_stats, port_stats}});
  all.push_back(BarrierRequest{u32()});
  all.push_back(BarrierReply{u32()});
  all.push_back(FlowSample{u32(), u32(), u32(), u32(), u16(), u16(), u16(), u16(), 17});
  return all;
}

class EveryMessagePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EveryMessagePropertyTest, EncodedSizeMatchesCodecAndRoundTrips) {
  util::Rng rng{GetParam()};
  for (int round = 0; round < 20; ++round) {
    const std::vector<OfMessage> all = one_of_each_message(rng);
    std::set<std::size_t> alternatives;
    for (const OfMessage& msg : all) {
      alternatives.insert(msg.index());
      expect_round_trip(msg);
    }
    ASSERT_EQ(alternatives.size(), std::variant_size_v<OfMessage>);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EveryMessagePropertyTest, ::testing::Values(7, 8, 9));

// The codec's one lossy field: ofp_phy_port carries 15 name characters, so a
// longer PortDesc::name comes back cut. Everything else survives.
TEST(Messages, PortNameIsCutToWireWidth) {
  PortDesc port;
  port.port_no = 3;
  port.name = "a-very-long-port-name";
  PortStatus status{5, PortStatusReason::Modify, port};
  const auto wire = encode_message(status);
  EXPECT_EQ(wire.size(), encoded_size(OfMessage{status}));
  const auto decoded = decode_message(wire);
  ASSERT_TRUE(decoded.has_value());
  const auto& back = std::get<PortStatus>(*decoded);
  EXPECT_EQ(back.desc.name, port.name.substr(0, kPortNameMaxChars));
  status.desc.name.resize(kPortNameMaxChars);
  EXPECT_EQ(OfMessage{status}, *decoded);
}

// --- channel ---

struct ChannelFixture : ::testing::Test {
  sim::Simulator sim;
  net::DuplexLink link{sim, "ctl", 1000e6, sim::SimTime::microseconds(250)};
  Channel channel{sim, link.forward(), link.reverse()};
};

TEST_F(ChannelFixture, DeliversDecodedMessageToController) {
  std::optional<OfMessage> received;
  std::size_t wire_bytes = 0;
  channel.set_controller_handler([&](const OfMessage& m, std::size_t bytes) {
    received = m;
    wire_bytes = bytes;
  });
  PacketIn pi;
  pi.xid = 77;
  pi.data = {1, 2, 3};
  const std::size_t sent_bytes = channel.send_from_switch(pi);
  sim.run();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(std::get<PacketIn>(*received).xid, 77u);
  EXPECT_EQ(wire_bytes, sent_bytes);
  EXPECT_EQ(sent_bytes, encoded_size(OfMessage{pi}) + kTransportOverhead);
}

TEST_F(ChannelFixture, DirectionsAreSeparate) {
  int to_controller = 0;
  int to_switch = 0;
  channel.set_controller_handler([&](const OfMessage&, std::size_t) { ++to_controller; });
  channel.set_switch_handler([&](const OfMessage&, std::size_t) { ++to_switch; });
  channel.send_from_switch(Hello{1});
  channel.send_from_controller(Hello{2});
  channel.send_from_controller(EchoRequest{3});
  sim.run();
  EXPECT_EQ(to_controller, 1);
  EXPECT_EQ(to_switch, 2);
}

TEST_F(ChannelFixture, FifoOrderPreserved) {
  std::vector<MsgType> order;
  channel.set_switch_handler(
      [&](const OfMessage& m, std::size_t) { order.push_back(message_type(m)); });
  channel.send_from_controller(FlowMod{});
  channel.send_from_controller(PacketOut{});
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], MsgType::FlowMod);
  EXPECT_EQ(order[1], MsgType::PacketOut);
}

TEST_F(ChannelFixture, CountersTrackTypeAndBytes) {
  channel.set_controller_handler([](const OfMessage&, std::size_t) {});
  channel.send_from_switch(PacketIn{});
  channel.send_from_switch(PacketIn{});
  channel.send_from_switch(Hello{});
  sim.run();
  const auto& c = channel.to_controller_counters();
  EXPECT_EQ(c.count(MsgType::PacketIn), 2u);
  EXPECT_EQ(c.count(MsgType::Hello), 1u);
  EXPECT_EQ(c.total_count(), 3u);
  EXPECT_EQ(c.bytes(MsgType::Hello), kHeaderSize + kTransportOverhead);
  EXPECT_EQ(c.total_bytes(),
            2 * (kPacketInFixedSize + kTransportOverhead) + kHeaderSize + kTransportOverhead);
}

TEST_F(ChannelFixture, HandlerReceivesTheSentMessageItself) {
  // No encode/decode and no copy on the way: the packet_in that arrives owns
  // the very data buffer the switch built, and the handler may take it.
  std::vector<std::uint8_t> taken;
  channel.set_controller_handler([&](OfMessage& m, std::size_t) {
    taken = std::move(std::get<PacketIn>(m).data);
  });
  PacketIn pi;
  pi.xid = 5;
  pi.data = {9, 8, 7};
  const std::uint8_t* buffer = pi.data.data();
  channel.send_from_switch(std::move(pi));
  sim.run();
  EXPECT_EQ(taken, (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_EQ(taken.data(), buffer);
}

TEST_F(ChannelFixture, FrameTheLinkDropsNeverArrives) {
  // A frame the link's fault schedule eats is never queued for delivery, so
  // the messages around it still arrive intact and in order.
  net::LinkFaultSchedule faults;
  faults.add_outage(sim::SimTime::milliseconds(1), sim::SimTime::milliseconds(2));
  link.forward().set_fault_schedule(&faults);
  std::vector<std::uint32_t> xids;
  channel.set_controller_handler(
      [&](const OfMessage& m, std::size_t) { xids.push_back(message_xid(m)); });
  channel.send_from_switch(EchoRequest{1});
  sim.run_until(sim::SimTime::microseconds(1500));
  channel.send_from_switch(EchoRequest{2});  // dies in the outage
  sim.run_until(sim::SimTime::milliseconds(3));
  channel.send_from_switch(EchoRequest{3});
  sim.run();
  EXPECT_EQ(xids, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(link.forward().fault_drops(), 1u);
}

TEST_F(ChannelFixture, DuplicateDeliversAnEqualCopy) {
  FaultProfile profile;
  profile.duplicate_to_switch = 1.0;
  profile.max_extra_delay = sim::SimTime::microseconds(50);
  channel.set_fault_profile(profile, 3);
  std::vector<OfMessage> received;
  channel.set_switch_handler([&](OfMessage& m, std::size_t) { received.push_back(std::move(m)); });
  FlowMod fm;
  fm.xid = 12;
  fm.actions = output_to(4);
  channel.send_from_controller(fm);
  channel.send_from_controller(PacketOut{13, 1, 2, output_to(5), {}});
  sim.run();
  ASSERT_EQ(received.size(), 4u);
  EXPECT_EQ(received[0], OfMessage{fm});
  EXPECT_EQ(received[1], OfMessage{fm});
  EXPECT_EQ(message_xid(received[2]), 13u);
  EXPECT_EQ(message_xid(received[3]), 13u);
}

TEST_F(ChannelFixture, XidsAreUnique) {
  std::set<std::uint32_t> xids;
  for (int i = 0; i < 1000; ++i) xids.insert(channel.next_xid());
  EXPECT_EQ(xids.size(), 1000u);
}

}  // namespace
}  // namespace sdnbuf::of
