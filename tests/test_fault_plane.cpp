// Tests for the control-channel fault plane: seeded loss/duplication/
// jitter/outage injection in of::Channel, the switch's liveness and
// degradation lifecycle (echo probes, fail-secure vs fail-standalone,
// hello re-handshake, buffer reconciliation), the capped-backoff resend
// limit, and the registry's channel-loss accounting.
#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hpp"
#include "core/testbed.hpp"
#include "net/link.hpp"
#include "openflow/channel.hpp"
#include "verify/invariants.hpp"

using namespace sdnbuf;

namespace {

sim::SimTime ms(long long v) { return sim::SimTime::milliseconds(v); }

struct ChannelRig {
  sim::Simulator sim;
  net::DuplexLink link{sim, "ctl", 1000e6, sim::SimTime::microseconds(300)};
  of::Channel channel{sim, link.forward(), link.reverse()};
  std::vector<std::uint32_t> at_controller;  // echo_request xids, arrival order
  std::vector<std::uint32_t> at_switch;

  ChannelRig() {
    channel.set_controller_handler([this](const of::OfMessage& msg, std::size_t) {
      if (const auto* echo = std::get_if<of::EchoRequest>(&msg)) at_controller.push_back(echo->xid);
    });
    channel.set_switch_handler([this](const of::OfMessage& msg, std::size_t) {
      if (const auto* echo = std::get_if<of::EchoRequest>(&msg)) at_switch.push_back(echo->xid);
    });
  }
};

net::Packet fresh_packet(core::Testbed& bed, std::uint64_t flow_id) {
  net::Packet p = net::make_udp_packet(bed.host1_mac(), bed.host2_mac(), bed.host1_ip(),
                                       bed.host2_ip(),
                                       static_cast<std::uint16_t>(20000 + flow_id), 7, 400);
  p.flow_id = flow_id;
  p.seq_in_flow = 0;
  return p;
}

}  // namespace

TEST(ChannelFaults, CertainLossNeverDelivers) {
  ChannelRig rig;
  of::FaultProfile profile;
  profile.loss_to_controller = 1.0;
  rig.channel.set_fault_profile(profile, 7);
  const std::size_t wire = rig.channel.send_from_switch(of::EchoRequest{1});
  rig.sim.run();
  EXPECT_GT(wire, 0u);
  EXPECT_TRUE(rig.at_controller.empty());
  EXPECT_EQ(rig.channel.fault_counters().lost_to_controller, 1u);
  // The doomed copy still shows up in the sender-side capture counters.
  EXPECT_EQ(rig.channel.to_controller_counters().count(of::MsgType::EchoRequest), 1u);
  // The other direction is untouched.
  rig.channel.send_from_controller(of::EchoRequest{2});
  rig.sim.run();
  ASSERT_EQ(rig.at_switch.size(), 1u);
  EXPECT_EQ(rig.channel.fault_counters().lost_to_switch, 0u);
}

TEST(ChannelFaults, CertainDuplicationDeliversTwice) {
  ChannelRig rig;
  of::FaultProfile profile;
  profile.duplicate_to_controller = 1.0;
  rig.channel.set_fault_profile(profile, 7);
  rig.channel.send_from_switch(of::EchoRequest{9});
  rig.sim.run();
  ASSERT_EQ(rig.at_controller.size(), 2u);
  EXPECT_EQ(rig.at_controller[0], 9u);
  EXPECT_EQ(rig.at_controller[1], 9u);
  EXPECT_EQ(rig.channel.fault_counters().duplicated_to_controller, 1u);
  // Both copies hit the wire, so the capture counters see two.
  EXPECT_EQ(rig.channel.to_controller_counters().count(of::MsgType::EchoRequest), 2u);
}

TEST(ChannelFaults, OutageWindowSilencesBothDirections) {
  ChannelRig rig;
  of::FaultProfile profile;
  profile.outages.push_back({sim::SimTime::zero(), sim::SimTime::seconds(1)});
  rig.channel.set_fault_profile(profile, 7);
  EXPECT_FALSE(rig.channel.connection_up());
  rig.channel.send_from_switch(of::EchoRequest{1});
  rig.channel.send_from_controller(of::EchoRequest{2});
  rig.sim.run();
  EXPECT_TRUE(rig.at_controller.empty());
  EXPECT_TRUE(rig.at_switch.empty());
  EXPECT_EQ(rig.channel.fault_counters().outage_dropped_to_controller, 1u);
  EXPECT_EQ(rig.channel.fault_counters().outage_dropped_to_switch, 1u);
  // Outage drops never reach the wire: tcpdump would not see them.
  EXPECT_EQ(rig.channel.to_controller_counters().total_count(), 0u);
  EXPECT_EQ(rig.channel.to_switch_counters().total_count(), 0u);

  // After the window the channel is transparent again.
  rig.sim.run_until(sim::SimTime::seconds(2));
  EXPECT_TRUE(rig.channel.connection_up());
  rig.channel.send_from_switch(of::EchoRequest{3});
  rig.sim.run();
  ASSERT_EQ(rig.at_controller.size(), 1u);
  EXPECT_EQ(rig.at_controller[0], 3u);
}

TEST(ChannelFaults, ExtraDelayJitterPreservesPerDirectionOrder) {
  ChannelRig rig;
  of::FaultProfile profile;
  profile.max_extra_delay = ms(5);
  rig.channel.set_fault_profile(profile, 99);
  for (std::uint32_t xid = 1; xid <= 50; ++xid) {
    rig.channel.send_from_switch(of::EchoRequest{xid});
  }
  rig.sim.run();
  ASSERT_EQ(rig.at_controller.size(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) {
    ASSERT_EQ(rig.at_controller[i], i + 1) << "jitter reordered delivery at index " << i;
  }
}

TEST(ChannelFaults, RejectsUnsortedOutageWindows) {
  ChannelRig rig;
  of::FaultProfile profile;
  profile.outages.push_back({ms(500), ms(900)});
  profile.outages.push_back({ms(100), ms(200)});
  EXPECT_DEATH(rig.channel.set_fault_profile(profile, 1), "outage");
}

// Stats polling under channel faults: lost requests and lost replies are
// written off at the next poll cycle (stats_requests_expired), duplicated
// replies land in stats_replies_unmatched, and the request/reply accounting
// never wedges — every request ends up exactly once in {seen, expired}, so
// the outstanding-xid set cannot leak.
TEST(ChannelFaults, StatsPollingSurvivesLossAndDuplication) {
  core::TestbedConfig tb;
  tb.controller_config.stats_poll_interval = ms(50);
  tb.fault_profile.loss_to_switch = 0.3;           // stats requests eaten
  tb.fault_profile.loss_to_controller = 0.3;       // stats replies eaten
  tb.fault_profile.duplicate_to_controller = 0.3;  // stats replies doubled
  core::Testbed bed{tb};
  bed.warm_up();
  bed.sim().run_until(bed.measurement_start() + sim::SimTime::seconds(2));
  bed.ovs().stop();
  bed.controller().stop();
  bed.sim().run();

  const ctrl::ControllerCounters& cc = bed.controller().counters();
  EXPECT_GT(cc.stats_requests_sent, 0u);
  EXPECT_GT(cc.stats_replies_seen, 0u) << "some replies must get through at 30% loss";
  EXPECT_GT(cc.stats_requests_expired, 0u) << "lost requests/replies must be written off";
  EXPECT_GT(cc.stats_replies_unmatched, 0u) << "duplicated replies must land as unmatched";
  EXPECT_EQ(cc.stats_replies_seen + cc.stats_requests_expired, cc.stats_requests_sent)
      << "every request must resolve to exactly one of {matched, expired}";
}

// Registry accounting: a lost full-frame packet_in takes its payload with
// it, and the `lost` bucket closes conservation.
TEST(RegistryFaultAccounting, LostFrameCarrierClosesConservation) {
  verify::InvariantRegistry reg;
  net::Packet p = net::make_udp_packet(
      net::MacAddress::from_index(1), net::MacAddress::from_index(2),
      net::Ipv4Address::from_octets(10, 1, 0, 1), net::Ipv4Address::from_octets(10, 2, 0, 1),
      12345, 9, 500);
  p.flow_id = 1;
  p.seq_in_flow = 0;

  reg.on_packet_injected(p, ms(1));
  reg.on_packet_in_sent(5, p, of::kNoBuffer, ms(2));
  of::PacketIn pi;
  pi.xid = 5;
  pi.buffer_id = of::kNoBuffer;
  pi.total_len = static_cast<std::uint16_t>(p.frame_size);
  pi.in_port = 1;
  pi.data = p.serialize(p.frame_size);
  reg.on_control_message(true, pi, ms(2));
  reg.on_channel_fault(true, pi, of::FaultKind::Loss, ms(2));
  reg.finalize(/*expect_all_delivered=*/false);
  EXPECT_TRUE(reg.ok()) << reg.report();
}

// Registry accounting: duplication widens the allowances instead of firing
// duplicate-delivery / xid-reuse violations.
TEST(RegistryFaultAccounting, DuplicationWidensAllowances) {
  verify::InvariantRegistry reg;
  net::Packet p = net::make_udp_packet(
      net::MacAddress::from_index(1), net::MacAddress::from_index(2),
      net::Ipv4Address::from_octets(10, 1, 0, 1), net::Ipv4Address::from_octets(10, 2, 0, 1),
      12346, 9, 500);
  p.flow_id = 2;
  p.seq_in_flow = 0;

  reg.on_packet_injected(p, ms(1));
  reg.on_packet_in_sent(6, p, of::kNoBuffer, ms(2));
  of::PacketIn pi;
  pi.xid = 6;
  pi.buffer_id = of::kNoBuffer;
  pi.total_len = static_cast<std::uint16_t>(p.frame_size);
  pi.in_port = 1;
  pi.data = p.serialize(p.frame_size);
  // Duplicated upstream: the fault tap fires before the copy's capture tap.
  reg.on_control_message(true, pi, ms(2));
  reg.on_channel_fault(true, pi, of::FaultKind::Duplicate, ms(2));
  reg.on_control_message(true, pi, ms(2));

  // The controller answers each copy with a data-carrying packet_out; the
  // second one got there via channel duplication too.
  of::PacketOut po;
  po.xid = 6;
  po.buffer_id = of::kNoBuffer;
  po.in_port = 1;
  po.data = pi.data;
  reg.on_control_message(false, po, ms(3));
  reg.on_channel_fault(false, po, of::FaultKind::Duplicate, ms(3));
  reg.on_control_message(false, po, ms(3));

  reg.on_packet_delivered(p, ms(4));
  reg.on_packet_delivered(p, ms(5));
  reg.finalize(/*expect_all_delivered=*/false);
  EXPECT_TRUE(reg.ok()) << reg.report();
}

// Liveness end to end: an outage degrades the connection after the echo
// miss threshold, and the hello re-handshake restores it once the window
// closes.
TEST(ConnectionLifecycle, OutageDegradesThenReconnects) {
  core::TestbedConfig tb;
  tb.switch_config.echo_interval = ms(50);
  tb.switch_config.echo_miss_threshold = 3;
  tb.switch_config.fail_mode = sw::ConnectionFailMode::FailSecure;
  tb.fault_profile.outages.push_back({ms(100), ms(800)});
  core::Testbed bed{tb};
  bed.warm_up();
  const sim::SimTime t0 = bed.measurement_start();

  bed.sim().run_until(t0 + ms(500));
  EXPECT_EQ(bed.ovs().connection_state(), sw::ConnectionState::Degraded);
  EXPECT_EQ(bed.ovs().counters().connection_losses, 1u);

  bed.sim().run_until(t0 + sim::SimTime::seconds(2));
  EXPECT_EQ(bed.ovs().connection_state(), sw::ConnectionState::Connected);
  EXPECT_EQ(bed.ovs().counters().reconnects, 1u);
  EXPECT_GT(bed.ovs().last_restored_at(), t0 + ms(800));
  EXPECT_GT(bed.ovs().counters().echo_requests_sent, 0u);
  EXPECT_GT(bed.ovs().counters().echo_replies_received, 0u);
  // Liveness and handshake traffic is visible in the channel counters.
  EXPECT_GT(bed.channel().to_controller_counters().count(of::MsgType::EchoRequest), 0u);
  EXPECT_GT(bed.channel().to_switch_counters().count(of::MsgType::EchoReply), 0u);
  EXPECT_GE(bed.channel().to_controller_counters().count(of::MsgType::Hello), 1u);
  EXPECT_GE(bed.channel().to_switch_counters().count(of::MsgType::Hello), 1u);
  EXPECT_GT(bed.controller().counters().echo_requests_seen, 0u);
  EXPECT_GE(bed.controller().counters().hellos_seen, 1u);

  bed.ovs().stop();
  bed.controller().stop();
  bed.sim().run();
}

// Degradation datapath contrast: while the controller is lost, a
// fail-standalone switch floods new misses onward, a fail-secure switch
// drops them.
TEST(ConnectionLifecycle, FailModesDisagreeOnDegradedMisses) {
  for (const auto mode :
       {sw::ConnectionFailMode::FailSecure, sw::ConnectionFailMode::FailStandalone}) {
    core::TestbedConfig tb;
    tb.switch_config.echo_interval = ms(50);
    tb.switch_config.echo_miss_threshold = 3;
    tb.switch_config.fail_mode = mode;
    tb.switch_config.buffer_mode = sw::BufferMode::PacketGranularity;
    tb.fault_profile.outages.push_back({sim::SimTime::zero(), sim::SimTime::seconds(10)});
    core::Testbed bed{tb};
    bed.warm_up();
    const sim::SimTime t0 = bed.measurement_start();

    bed.sim().run_until(t0 + ms(400));
    ASSERT_EQ(bed.ovs().connection_state(), sw::ConnectionState::Degraded)
        << sw::fail_mode_name(mode);

    bed.inject_from_host1(fresh_packet(bed, 1));
    bed.sim().run_until(t0 + ms(600));
    if (mode == sw::ConnectionFailMode::FailStandalone) {
      EXPECT_EQ(bed.sink2().packets_received(), 1u) << "standalone must keep forwarding";
      EXPECT_EQ(bed.ovs().counters().standalone_forwarded, 1u);
      EXPECT_EQ(bed.ovs().counters().failsecure_dropped, 0u);
    } else {
      EXPECT_EQ(bed.sink2().packets_received(), 0u) << "fail-secure must drop";
      EXPECT_EQ(bed.ovs().counters().failsecure_dropped, 1u);
      EXPECT_EQ(bed.ovs().counters().standalone_forwarded, 0u);
    }

    bed.ovs().stop();
    bed.controller().stop();
    bed.sim().run();
  }
}

// The resend cap: with every upstream message lost, Algorithm 1's
// re-request loop must terminate at max_flow_resends and expire the unit,
// with conservation still closed.
TEST(ConnectionLifecycle, ResendCapExpiresFlowUnits) {
  verify::InvariantRegistry reg;
  core::ExperimentConfig cfg;
  cfg.mode = sw::BufferMode::FlowGranularity;
  cfg.buffer_capacity = 64;
  cfg.rate_mbps = 20.0;
  cfg.frame_size = 600;
  cfg.n_flows = 2;
  cfg.packets_per_flow = 3;
  cfg.seed = 11;
  cfg.testbed.observers.subscribe(&reg);
  cfg.testbed.fault_profile.loss_to_controller = 1.0;
  cfg.drain_timeout = sim::SimTime::seconds(2);
  const auto r = core::run_experiment(cfg);

  EXPECT_EQ(r.packets_delivered, 0u);
  EXPECT_EQ(r.resend_cap_expired, 2u);  // one capped unit per flow
  EXPECT_LE(r.resend_pkt_ins, 2u * 4u);  // bounded by max_flow_resends per unit
  EXPECT_GT(r.resend_pkt_ins, 0u);
  reg.finalize(/*expect_all_delivered=*/false);
  EXPECT_TRUE(reg.ok()) << reg.report();
}

// Reconciliation after reconnect: flow-granularity units buffered before
// the outage are re-requested and eventually delivered; packet-granularity
// orphans are expired.
TEST(ConnectionLifecycle, ReconnectReconcilesStrandedBuffers) {
  // Flow granularity: a flow buffered right before the outage survives it.
  {
    verify::InvariantRegistry reg;
    core::TestbedConfig tb;
    tb.switch_config.echo_interval = ms(20);
    tb.switch_config.echo_miss_threshold = 2;
    tb.switch_config.fail_mode = sw::ConnectionFailMode::FailStandalone;
    tb.switch_config.buffer_mode = sw::BufferMode::FlowGranularity;
    tb.switch_config.buffer_capacity = 64;
    // Outage opens just after the packet's pkt_in leaves (but before the
    // controller's response can cross back) and closes well inside the
    // 500 ms buffer expiry.
    tb.fault_profile.outages.push_back({sim::SimTime::microseconds(500), ms(200)});
    tb.observers.subscribe(&reg);
    core::Testbed bed{tb};
    bed.warm_up();
    const sim::SimTime t0 = bed.measurement_start();

    bed.inject_from_host1(fresh_packet(bed, 1));
    bed.sim().run_until(t0 + ms(450));
    EXPECT_EQ(bed.ovs().connection_state(), sw::ConnectionState::Connected);
    EXPECT_GE(bed.ovs().counters().reconcile_rerequests, 1u);
    EXPECT_EQ(bed.sink2().packets_received(), 1u)
        << "reconciliation must recover the stranded flow unit";

    bed.ovs().stop();
    bed.controller().stop();
    bed.sim().run();
    reg.finalize(/*expect_all_delivered=*/false);
    EXPECT_TRUE(reg.ok()) << reg.report();
  }
  // Packet granularity: the stranded unit is an orphan and gets expired.
  {
    verify::InvariantRegistry reg;
    core::TestbedConfig tb;
    tb.switch_config.echo_interval = ms(20);
    tb.switch_config.echo_miss_threshold = 2;
    tb.switch_config.fail_mode = sw::ConnectionFailMode::FailStandalone;
    tb.switch_config.buffer_mode = sw::BufferMode::PacketGranularity;
    tb.switch_config.buffer_capacity = 64;
    tb.fault_profile.outages.push_back({sim::SimTime::microseconds(500), ms(200)});
    tb.observers.subscribe(&reg);
    core::Testbed bed{tb};
    bed.warm_up();
    const sim::SimTime t0 = bed.measurement_start();

    bed.inject_from_host1(fresh_packet(bed, 1));
    bed.sim().run_until(t0 + ms(450));
    EXPECT_EQ(bed.ovs().connection_state(), sw::ConnectionState::Connected);
    EXPECT_GE(bed.ovs().counters().reconcile_expired, 1u);
    EXPECT_EQ(bed.sink2().packets_received(), 0u);

    bed.ovs().stop();
    bed.controller().stop();
    bed.sim().run();
    reg.finalize(/*expect_all_delivered=*/false);
    EXPECT_TRUE(reg.ok()) << reg.report();
  }
}
