// Unit tests for the controller: MAC learning, flood vs forward decisions,
// flow_mod parameters, buffer_id piggybacking, response ordering, echo
// handling, per-message-size processing costs, and source-block rule
// aggregation end to end.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "controller/controller.hpp"
#include "core/experiment.hpp"
#include "net/link.hpp"
#include "openflow/channel.hpp"

namespace sdnbuf::ctrl {
namespace {

net::Packet flow_packet(std::uint32_t flow, std::uint16_t src_mac_idx = 1,
                        std::uint16_t dst_mac_idx = 2) {
  auto p = net::make_udp_packet(net::MacAddress::from_index(src_mac_idx),
                                net::MacAddress::from_index(dst_mac_idx),
                                net::Ipv4Address{0x0a010001u + flow},
                                net::Ipv4Address::from_octets(10, 2, 0, 1),
                                static_cast<std::uint16_t>(10000 + flow), 9, 1000);
  p.flow_id = flow;
  return p;
}

of::PacketIn make_packet_in(const net::Packet& p, std::uint16_t in_port, std::uint32_t buffer_id,
                            std::size_t data_bytes, std::uint32_t xid) {
  of::PacketIn pi;
  pi.xid = xid;
  pi.buffer_id = buffer_id;
  pi.total_len = static_cast<std::uint16_t>(p.frame_size);
  pi.in_port = in_port;
  pi.data = p.serialize(data_bytes);
  return pi;
}

struct ControllerTest : ::testing::Test {
  sim::Simulator sim;
  net::DuplexLink link{sim, "ctl", 1000e6, sim::SimTime::microseconds(250)};
  of::Channel channel{sim, link.forward(), link.reverse()};
  std::vector<of::OfMessage> to_switch;

  std::unique_ptr<Controller> made;

  Controller& make(ControllerConfig config = {}) {
    made = std::make_unique<Controller>(sim, std::move(config), 42);
    made->connect(channel);
    channel.set_switch_handler(
        [this](const of::OfMessage& m, std::size_t) { to_switch.push_back(m); });
    return *made;
  }
};

TEST_F(ControllerTest, UnknownDestinationFloods) {
  Controller& c = make();
  channel.send_from_switch(make_packet_in(flow_packet(0), 1, of::kNoBuffer, 1000, 5));
  sim.run();
  ASSERT_EQ(to_switch.size(), 1u);
  const auto& po = std::get<of::PacketOut>(to_switch[0]);
  ASSERT_EQ(po.actions.size(), 1u);
  EXPECT_EQ(std::get<of::OutputAction>(po.actions[0]).port, of::kPortFlood);
  EXPECT_EQ(po.xid, 5u);
  EXPECT_FALSE(po.data.empty());  // no-buffer: the frame travels back
  EXPECT_EQ(c.counters().floods, 1u);
  EXPECT_EQ(c.counters().flow_mods_sent, 0u);  // no rule for unknown dst
}

TEST_F(ControllerTest, LearnsSourceMacFromPacketIn) {
  Controller& c = make();
  channel.send_from_switch(make_packet_in(flow_packet(0, 1, 2), 3, of::kNoBuffer, 1000, 1));
  sim.run();
  const auto port = c.lookup_mac(net::MacAddress::from_index(1));
  ASSERT_TRUE(port.has_value());
  EXPECT_EQ(*port, 3);
  EXPECT_EQ(c.mac_table_size(), 1u);
}

TEST_F(ControllerTest, KnownDestinationInstallsRuleAndForwards) {
  Controller& c = make();
  c.learn(net::MacAddress::from_index(2), 2);
  channel.send_from_switch(make_packet_in(flow_packet(7), 1, of::kNoBuffer, 1000, 9));
  sim.run();
  ASSERT_EQ(to_switch.size(), 2u);
  const auto& fm = std::get<of::FlowMod>(to_switch[0]);  // flow_mod first
  EXPECT_EQ(fm.command, of::FlowModCommand::Add);
  EXPECT_EQ(fm.idle_timeout_s, 5);
  EXPECT_EQ(fm.priority, 100);
  EXPECT_EQ(fm.xid, 9u);
  EXPECT_EQ(fm.buffer_id, of::kNoBuffer);
  EXPECT_TRUE(fm.flags & of::kFlowModSendFlowRem);
  // The rule matches exactly the miss-match packet.
  EXPECT_TRUE(fm.match.matches(flow_packet(7), 1));
  EXPECT_FALSE(fm.match.matches(flow_packet(8), 1));
  const auto& po = std::get<of::PacketOut>(to_switch[1]);
  EXPECT_EQ(std::get<of::OutputAction>(po.actions[0]).port, 2);
  EXPECT_EQ(po.data.size(), 1000u);
}

TEST_F(ControllerTest, PiggybackPutsBufferIdInFlowMod) {
  ControllerConfig piggy_config;
  piggy_config.piggyback_buffer_id = true;
  Controller& c = make(std::move(piggy_config));
  c.learn(net::MacAddress::from_index(2), 2);
  channel.send_from_switch(make_packet_in(flow_packet(7), 1, 1234, 128, 9));
  sim.run();
  ASSERT_EQ(to_switch.size(), 1u);  // single message: flow_mod carries the id
  const auto& fm = std::get<of::FlowMod>(to_switch[0]);
  EXPECT_EQ(fm.buffer_id, 1234u);
  EXPECT_EQ(c.counters().pkt_outs_sent, 0u);
}

TEST_F(ControllerTest, NoPiggybackSendsFlowModThenPacketOut) {
  Controller& c = make();  // piggyback defaults off (Algorithm 2 shape)
  c.learn(net::MacAddress::from_index(2), 2);
  channel.send_from_switch(make_packet_in(flow_packet(7), 1, 1234, 128, 9));
  sim.run();
  ASSERT_EQ(to_switch.size(), 2u);
  const auto& fm = std::get<of::FlowMod>(to_switch[0]);
  EXPECT_EQ(fm.buffer_id, of::kNoBuffer);
  const auto& po = std::get<of::PacketOut>(to_switch[1]);
  EXPECT_EQ(po.buffer_id, 1234u);
  EXPECT_TRUE(po.data.empty());  // buffered: only the reference travels
}

TEST_F(ControllerTest, InstallRulesDisabledSendsOnlyPacketOut) {
  ControllerConfig config;
  config.install_rules = false;
  Controller& c = make(std::move(config));
  c.learn(net::MacAddress::from_index(2), 2);
  channel.send_from_switch(make_packet_in(flow_packet(1), 1, of::kNoBuffer, 1000, 2));
  sim.run();
  ASSERT_EQ(to_switch.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<of::PacketOut>(to_switch[0]));
}

TEST_F(ControllerTest, EchoRequestAnswered) {
  make();
  channel.send_from_switch(of::EchoRequest{77});
  sim.run();
  ASSERT_EQ(to_switch.size(), 1u);
  EXPECT_EQ(std::get<of::EchoReply>(to_switch[0]).xid, 77u);
}

TEST_F(ControllerTest, FlowRemovedCounted) {
  Controller& c = make();
  channel.send_from_switch(of::FlowRemoved{});
  sim.run();
  EXPECT_EQ(c.counters().flow_removed_seen, 1u);
}

TEST_F(ControllerTest, MulticastSourceNotLearned) {
  Controller& c = make();
  auto p = flow_packet(0);
  p.eth.src = net::MacAddress::broadcast();
  channel.send_from_switch(make_packet_in(p, 1, of::kNoBuffer, 1000, 1));
  sim.run();
  EXPECT_EQ(c.mac_table_size(), 0u);
}

TEST_F(ControllerTest, GarbagePacketInCountsParseFailure) {
  Controller& c = make();
  of::PacketIn pi;
  pi.data.assign(64, 0);
  pi.data[12] = 0x08;  // claims IPv4 but the header is garbage
  channel.send_from_switch(pi);
  sim.run();
  EXPECT_EQ(c.counters().parse_failures, 1u);
  EXPECT_TRUE(to_switch.empty());
}

TEST_F(ControllerTest, FullFramePacketInCostsMoreCpu) {
  Controller& c = make();
  c.learn(net::MacAddress::from_index(2), 2);
  channel.send_from_switch(make_packet_in(flow_packet(0), 1, of::kNoBuffer, 1000, 1));
  sim.run();
  const auto busy_full = c.cpu().busy_time();
  c.cpu().reset_stats();
  channel.send_from_switch(make_packet_in(flow_packet(1), 1, 42, 128, 2));
  sim.run();
  const auto busy_buffered = c.cpu().busy_time();
  // The per-byte parse/encode costs make the full-frame request much dearer.
  EXPECT_GT(busy_full.ns(), busy_buffered.ns() * 2);
}

TEST_F(ControllerTest, CountersTrackRequestKinds) {
  Controller& c = make();
  c.learn(net::MacAddress::from_index(2), 2);
  channel.send_from_switch(make_packet_in(flow_packet(0), 1, of::kNoBuffer, 1000, 1));
  auto resend = make_packet_in(flow_packet(1), 1, 42, 128, 2);
  resend.reason = of::PacketInReason::FlowResend;
  channel.send_from_switch(resend);
  sim.run();
  EXPECT_EQ(c.counters().pkt_ins_handled, 2u);
  EXPECT_EQ(c.counters().full_frame_pkt_ins, 1u);
  EXPECT_EQ(c.counters().resend_pkt_ins, 1u);
}

TEST_F(ControllerTest, SecondFlowSameHostsReusesLearning) {
  Controller& c = make();
  c.learn(net::MacAddress::from_index(2), 2);
  channel.send_from_switch(make_packet_in(flow_packet(0), 1, of::kNoBuffer, 1000, 1));
  channel.send_from_switch(make_packet_in(flow_packet(1), 1, of::kNoBuffer, 1000, 2));
  sim.run();
  // Each flow gets its own rule + packet_out: micro-flow granularity.
  EXPECT_EQ(c.counters().flow_mods_sent, 2u);
  EXPECT_EQ(c.counters().pkt_outs_sent, 2u);
  EXPECT_EQ(c.mac_table_size(), 2u);
}

// --- controller rule aggregation ([16]-style) ---

TEST(RuleAggregation, OneRuleCoversManyFlows) {
  // Exact-match rules: one miss per flow. With /24 source aggregation, the
  // first miss installs a rule covering the whole forged-source block.
  core::ExperimentConfig exact;
  exact.mode = sw::BufferMode::PacketGranularity;
  exact.rate_mbps = 20.0;
  exact.n_flows = 200;  // forged sources 10.1.0.1 .. 10.1.0.200
  exact.seed = 3;
  core::ExperimentConfig aggregated = exact;
  aggregated.testbed.controller_config.aggregate_src_bits = 16;  // /16 source block

  const auto r_exact = core::run_experiment(exact);
  const auto r_aggregated = core::run_experiment(aggregated);
  EXPECT_EQ(r_exact.pkt_ins_sent, 200u);
  // A handful of flows miss before the aggregate rule lands; afterwards
  // everything hits it.
  EXPECT_LT(r_aggregated.pkt_ins_sent, 20u);
  EXPECT_TRUE(r_aggregated.drained);
  EXPECT_EQ(r_aggregated.duplicates, 0u);
  EXPECT_LT(r_aggregated.to_controller_bytes, r_exact.to_controller_bytes / 10);
}

}  // namespace
}  // namespace sdnbuf::ctrl
