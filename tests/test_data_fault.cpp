// Tests for the data-plane fault plane: LinkFaultSchedule window algebra,
// link-level frame loss, the switch's port-down fate policies and
// crash/restart lifecycle, the controller's route repair, and fabric-level
// guarantees (zero-fault byte-identity, fault-run determinism, conservation
// under loss, closed-loop recovery).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/fabric_experiment.hpp"
#include "core/fabric_testbed.hpp"
#include "net/link.hpp"
#include "net/link_fault.hpp"
#include "openflow/channel.hpp"
#include "switchd/switch.hpp"
#include "verify/invariants.hpp"

using namespace sdnbuf;

namespace {

sim::SimTime ms(long long v) { return sim::SimTime::milliseconds(v); }

net::Packet flow_packet(std::uint32_t flow, std::uint32_t seq = 0) {
  auto p = net::make_udp_packet(net::MacAddress::from_index(1), net::MacAddress::from_index(2),
                                net::Ipv4Address{0x0a010001u + flow},
                                net::Ipv4Address::from_octets(10, 2, 0, 1),
                                static_cast<std::uint16_t>(10000 + flow), 9, 1000);
  p.flow_id = flow;
  p.seq_in_flow = seq;
  return p;
}

}  // namespace

// ---------------------------------------------------------------- schedule

TEST(LinkFaultSchedule, MergesOverlappingAndTouchingWindows) {
  net::LinkFaultSchedule s;
  s.add_outage(ms(30), ms(40));
  s.add_outage(ms(10), ms(20));
  s.add_outage(ms(15), ms(30));  // bridges the two into one window
  ASSERT_EQ(s.windows().size(), 1u);
  EXPECT_EQ(s.windows()[0].start, ms(10));
  EXPECT_EQ(s.windows()[0].end, ms(40));
  EXPECT_EQ(s.last_recovery(), ms(40));

  s.add_outage(ms(50), ms(60));  // disjoint: second window
  ASSERT_EQ(s.windows().size(), 2u);
  EXPECT_EQ(s.last_recovery(), ms(60));
}

TEST(LinkFaultSchedule, HalfOpenWindowSemantics) {
  net::LinkFaultSchedule s;
  s.add_outage(ms(10), ms(20));
  EXPECT_FALSE(s.down_at(ms(9)));
  EXPECT_TRUE(s.down_at(ms(10)));   // start is inclusive
  EXPECT_TRUE(s.down_at(ms(19)));
  EXPECT_FALSE(s.down_at(ms(20)));  // end is exclusive

  EXPECT_FALSE(s.down_during(ms(0), ms(5)));
  EXPECT_TRUE(s.down_during(ms(0), ms(10)));   // touches the start instant
  EXPECT_TRUE(s.down_during(ms(12), ms(14)));  // fully inside
  EXPECT_TRUE(s.down_during(ms(5), ms(25)));   // spans the window
  EXPECT_FALSE(s.down_during(ms(20), ms(30)));  // starts exactly at recovery
}

TEST(LinkFaultSchedule, FlapIsSeededDeterministicAndClipped) {
  const auto a = net::LinkFaultSchedule::flap(42, ms(50), ms(240), 0.05, 0.02);
  const auto b = net::LinkFaultSchedule::flap(42, ms(50), ms(240), 0.05, 0.02);
  EXPECT_EQ(a.windows(), b.windows());
  ASSERT_FALSE(a.empty());
  sim::SimTime prev_end = sim::SimTime::zero();
  for (const auto& w : a.windows()) {
    EXPECT_LT(w.start, w.end);
    EXPECT_GE(w.start, ms(50));
    EXPECT_LE(w.end, ms(240));  // clipped: the link is guaranteed up after
    EXPECT_GE(w.start, prev_end);  // sorted and disjoint
    prev_end = w.end;
  }
  EXPECT_LE(a.last_recovery(), ms(240));

  const auto c = net::LinkFaultSchedule::flap(43, ms(50), ms(240), 0.05, 0.02);
  EXPECT_NE(a.windows(), c.windows());
}

// -------------------------------------------------------------------- link

TEST(LinkFaults, FramesOverlappingAnOutageAreEaten) {
  sim::Simulator sim;
  net::Link link{sim, "l", 100e6, sim::SimTime::microseconds(20)};
  net::LinkFaultSchedule s;
  s.add_outage(ms(10), ms(20));
  link.set_fault_schedule(&s);

  int delivered = 0;
  const auto deliver = [&delivered]() { ++delivered; };

  // Well before the window: flight interval never touches it.
  EXPECT_EQ(link.send_frame(1000, deliver), net::Link::SendResult::Sent);

  // In flight when the link dies: a 1000-byte frame takes 80 us + 20 us
  // propagation, so a send at 9.95 ms is still in the air at 10 ms.
  sim.run_until(ms(10) - sim::SimTime::microseconds(50));
  EXPECT_EQ(link.send_frame(1000, deliver), net::Link::SendResult::FaultDrop);

  // Sent into the dead link.
  sim.run_until(ms(15));
  EXPECT_EQ(link.send_frame(1000, deliver), net::Link::SendResult::FaultDrop);

  // After recovery.
  sim.run_until(ms(25));
  EXPECT_EQ(link.send_frame(1000, deliver), net::Link::SendResult::Sent);

  sim.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.fault_drops(), 2u);
}

// ------------------------------------------------------------------ switch

namespace {

// Scripted single-switch rig (same shape as test_switch.cpp): the
// controller side is driven by hand so port-down fates are observable in
// isolation.
struct DataFaultSwitchRig {
  sim::Simulator sim;
  net::DuplexLink control{sim, "ctl", 1000e6, sim::SimTime::microseconds(250)};
  net::Link host1_egress{sim, "h1", 100e6, sim::SimTime::microseconds(20)};
  net::Link host2_egress{sim, "h2", 100e6, sim::SimTime::microseconds(20)};
  of::Channel channel{sim, control.forward(), control.reverse()};
  std::vector<of::PacketIn> pkt_ins;
  std::vector<of::PortStatus> port_statuses;
  std::vector<net::Packet> at_host2;
  bool echo_hellos = false;
  std::unique_ptr<sw::Switch> ovs;

  // PacketGranularity keeps the scripted-controller loop simple: flow
  // granularity's resend timer would re-raise packet_ins while sim.run()
  // drains with the controller silent.
  sw::Switch& make(sw::PortDownPolicy policy,
                   sw::BufferMode mode = sw::BufferMode::PacketGranularity) {
    sw::SwitchConfig config;
    config.buffer_mode = mode;
    config.buffer_capacity = 256;
    config.port_down_policy = policy;
    ovs = std::make_unique<sw::Switch>(sim, config, 7);
    ovs->attach_port(1, host1_egress, [](const net::Packet&) {});
    ovs->attach_port(2, host2_egress, [this](const net::Packet& p) { at_host2.push_back(p); });
    ovs->connect(channel);
    channel.set_controller_handler([this](const of::OfMessage& m, std::size_t) {
      if (const auto* pi = std::get_if<of::PacketIn>(&m)) pkt_ins.push_back(*pi);
      if (const auto* ps = std::get_if<of::PortStatus>(&m)) port_statuses.push_back(*ps);
      if (const auto* hello = std::get_if<of::Hello>(&m); hello != nullptr && echo_hellos) {
        channel.send_from_controller(of::Hello{hello->xid});
      }
    });
    return *ovs;
  }

  // Installs an exact rule answering `pi` out of `out_port` and releases.
  void respond(const of::PacketIn& pi, std::uint16_t out_port) {
    const auto parsed = net::Packet::parse(pi.data, pi.total_len);
    ASSERT_TRUE(parsed.has_value());
    of::FlowMod fm;
    fm.xid = pi.xid;
    fm.match = of::Match::exact_from(*parsed, pi.in_port);
    fm.priority = 100;
    fm.actions = of::output_to(out_port);
    channel.send_from_controller(fm);
    of::PacketOut po;
    po.xid = pi.xid;
    po.buffer_id = pi.buffer_id;
    po.in_port = pi.in_port;
    po.actions = of::output_to(out_port);
    if (pi.buffer_id == of::kNoBuffer) po.data = pi.data;
    channel.send_from_controller(po);
  }

  // Drives one packet through the miss -> install -> deliver path.
  void install_flow(std::uint32_t flow) {
    ovs->receive(1, flow_packet(flow, 0));
    sim.run();
    ASSERT_EQ(pkt_ins.size(), 1u);
    respond(pkt_ins[0], 2);
    sim.run();
    ASSERT_EQ(at_host2.size(), 1u);
  }
};

}  // namespace

TEST(SwitchPortDown, EmitsPortStatusOnBothTransitions) {
  DataFaultSwitchRig rig;
  sw::Switch& sw = rig.make(sw::PortDownPolicy::RePktIn);
  sw.set_port_state(2, false);
  sw.set_port_state(2, false);  // no-op: state unchanged, no duplicate status
  rig.sim.run();
  ASSERT_EQ(rig.port_statuses.size(), 1u);
  EXPECT_EQ(rig.port_statuses[0].desc.port_no, 2);
  EXPECT_TRUE(rig.port_statuses[0].desc.link_down);
  EXPECT_EQ(rig.port_statuses[0].reason, of::PortStatusReason::Delete);

  sw.set_port_state(2, true);
  rig.sim.run();
  ASSERT_EQ(rig.port_statuses.size(), 2u);
  EXPECT_FALSE(rig.port_statuses[1].desc.link_down);
  EXPECT_EQ(rig.port_statuses[1].reason, of::PortStatusReason::Add);
  EXPECT_EQ(sw.counters().port_status_sent, 2u);
}

TEST(SwitchPortDown, RePktInTurnsStaleForwardingIntoAFreshMiss) {
  DataFaultSwitchRig rig;
  sw::Switch& sw = rig.make(sw::PortDownPolicy::RePktIn);
  rig.install_flow(0);

  sw.set_port_state(2, false);
  sw.receive(1, flow_packet(0, 1));  // hits the stale rule, egress is dead
  rig.sim.run();
  EXPECT_EQ(sw.counters().port_down_repktin, 1u);
  // The re-miss raised a second packet_in for the controller to re-route.
  ASSERT_EQ(rig.pkt_ins.size(), 2u);
  EXPECT_EQ(rig.at_host2.size(), 1u);  // only the pre-fault packet arrived
}

TEST(SwitchPortDown, DropPolicyRetiresThePacket) {
  DataFaultSwitchRig rig;
  sw::Switch& sw = rig.make(sw::PortDownPolicy::Drop);
  rig.install_flow(0);

  sw.set_port_state(2, false);
  sw.receive(1, flow_packet(0, 1));
  rig.sim.run();
  EXPECT_EQ(sw.counters().port_down_dropped, 1u);
  EXPECT_EQ(rig.pkt_ins.size(), 1u);  // no re-miss under Drop
  EXPECT_EQ(rig.at_host2.size(), 1u);
}

TEST(SwitchPortDown, HoldPolicyParksAndReplaysOnRecovery) {
  DataFaultSwitchRig rig;
  sw::Switch& sw = rig.make(sw::PortDownPolicy::HoldUntilRecovery);
  rig.install_flow(0);

  sw.set_port_state(2, false);
  sw.receive(1, flow_packet(0, 1));
  sw.receive(1, flow_packet(0, 2));
  rig.sim.run();
  EXPECT_EQ(sw.counters().port_down_held, 2u);
  EXPECT_EQ(rig.at_host2.size(), 1u);  // parked, not lost

  sw.set_port_state(2, true);
  rig.sim.run();
  EXPECT_EQ(sw.counters().port_held_flushed, 2u);
  ASSERT_EQ(rig.at_host2.size(), 3u);  // replayed in arrival order
  EXPECT_EQ(rig.at_host2[1].seq_in_flow, 1u);
  EXPECT_EQ(rig.at_host2[2].seq_in_flow, 2u);
}

TEST(SwitchCrash, LosesTableAndBuffersAndRejoinsOnRestart) {
  DataFaultSwitchRig rig;
  rig.echo_hellos = true;
  sw::Switch& sw = rig.make(sw::PortDownPolicy::RePktIn);
  rig.install_flow(0);

  // A second flow's unit is sitting in the buffer when the switch dies.
  sw.receive(1, flow_packet(1, 0));
  rig.sim.run();  // let the miss reach the buffer (its packet_in goes unanswered)
  sw.crash();
  EXPECT_EQ(sw.counters().crashes, 1u);
  EXPECT_GE(sw.counters().buffer_units_expired, 1u);

  // Dead datapath: ingress frames die at the pipeline.
  sw.receive(1, flow_packet(0, 1));
  rig.sim.run();
  EXPECT_EQ(sw.counters().crash_dropped, 1u);
  EXPECT_EQ(rig.at_host2.size(), 1u);

  // Restart rejoins through the hello re-handshake; the flow table was
  // volatile, so the previously-installed flow misses again.
  sw.restart();
  rig.sim.run();
  const std::size_t before = rig.pkt_ins.size();
  sw.receive(1, flow_packet(0, 2));
  rig.sim.run();
  EXPECT_EQ(rig.pkt_ins.size(), before + 1);
}

// ---------------------------------------------------------- fabric repairs

namespace {

core::FabricExperimentConfig failover_config() {
  core::FabricExperimentConfig c;
  c.topology = topo::make_leaf_spine(2, 2, 2);
  c.routing = core::FabricRouting::TopologyPerHop;
  c.mode = sw::BufferMode::FlowGranularity;
  c.buffer_capacity = 256;
  c.pattern = host::TrafficPattern::Permutation;
  c.duration_s = 0.3;
  c.flow_arrival_per_s = 300.0;
  c.min_packets = 2;
  c.max_packets = 12;
  c.in_flow_rate_mbps = 20.0;
  c.seed = 99;
  c.drain_timeout = sim::SimTime::seconds(4);
  return c;
}

std::size_t first_fabric_link(const topo::Topology& topology) {
  for (std::size_t i = 0; i < topology.links().size(); ++i) {
    if (!topology.links()[i].host_edge) return i;
  }
  ADD_FAILURE() << "no inter-switch link";
  return 0;
}

core::LinkFaultSpec outage_spec(std::size_t link, sim::SimTime from, sim::SimTime to) {
  core::LinkFaultSpec spec;
  spec.link_index = link;
  spec.schedule.add_outage(from, to);
  return spec;
}

}  // namespace

TEST(FabricFaults, ZeroFaultConfigMatchesInertFaultPlane) {
  const auto plain = run_fabric_experiment(failover_config());

  // An armed-but-empty fault plane must not perturb the event sequence.
  core::FabricExperimentConfig inert = failover_config();
  core::LinkFaultSpec empty;
  empty.link_index = first_fabric_link(inert.topology);
  inert.fabric.link_faults.push_back(empty);  // empty schedule: skipped at arming
  const auto armed = run_fabric_experiment(inert);

  EXPECT_EQ(plain.packets_sent, armed.packets_sent);
  EXPECT_EQ(plain.packets_delivered, armed.packets_delivered);
  EXPECT_EQ(plain.pkt_ins, armed.pkt_ins);
  EXPECT_EQ(plain.flow_mods, armed.flow_mods);
  EXPECT_EQ(plain.control_bytes, armed.control_bytes);
  EXPECT_EQ(plain.delivered, armed.delivered);
  EXPECT_EQ(plain.link_fault_drops, 0u);
  EXPECT_EQ(plain.port_status_seen, 0u);
  EXPECT_EQ(plain.last_fault_clear, sim::SimTime::zero());
}

TEST(FabricFaults, RouteRepairSurvivesASpineOutage) {
  core::FabricExperimentConfig config = failover_config();
  config.closed_loop = true;
  config.reliable.rto = sim::SimTime::milliseconds(20);
  config.reliable.backoff = 1.5;
  config.reliable.max_retransmits = 10;
  config.fabric.link_faults.push_back(
      outage_spec(first_fabric_link(config.topology), ms(60), ms(160)));
  const auto r = run_fabric_experiment(config);

  // Both endpoint switches reported the transition (down and up).
  EXPECT_GE(r.port_status_seen, 4u);
  EXPECT_EQ(r.link_down_events, 1u);
  // Rules riding the dead link were deleted so flows could reroute.
  EXPECT_GT(r.rules_invalidated, 0u);
  EXPECT_EQ(r.last_fault_clear, ms(160));
  // Closed loop: everything offered was eventually delivered.
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.unique_acked, r.unique_offered);
  EXPECT_EQ(r.abandoned, 0u);
}

TEST(FabricFaults, FaultRunsAreDeterministic) {
  core::FabricExperimentConfig config = failover_config();
  config.closed_loop = true;
  config.delivery_bin = ms(10);
  const auto fabric_link = first_fabric_link(config.topology);
  for (std::size_t li = fabric_link; li < config.topology.links().size(); ++li) {
    if (config.topology.links()[li].host_edge) continue;
    core::LinkFaultSpec spec;
    spec.link_index = li;
    spec.schedule = net::LinkFaultSchedule::flap(config.seed * 1000003 + li, ms(50), ms(200),
                                                 0.06, 0.02);
    config.fabric.link_faults.push_back(spec);
  }
  const auto a = run_fabric_experiment(config);
  const auto b = run_fabric_experiment(config);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.unique_acked, b.unique_acked);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.link_fault_drops, b.link_fault_drops);
  EXPECT_EQ(a.rules_invalidated, b.rules_invalidated);
  EXPECT_EQ(a.pkt_ins, b.pkt_ins);
  EXPECT_EQ(a.control_bytes, b.control_bytes);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.delivered_per_bin, b.delivered_per_bin);
  EXPECT_GT(a.link_fault_drops + a.rules_invalidated, 0u);  // faults actually hit
}

TEST(FabricFaults, ConservationHoldsUnderLinkFaults) {
  core::FabricExperimentConfig config = failover_config();
  std::vector<std::unique_ptr<verify::InvariantRegistry>> registries;
  for (unsigned i = 0; i < config.topology.n_switches(); ++i) {
    registries.push_back(std::make_unique<verify::InvariantRegistry>());
    // Reroutes after a flap may revisit a switch; the ledger must still balance.
    registries.back()->set_allow_revisits(true);
    config.fabric.subscribers.emplace_back().subscribe(registries.back().get());
  }
  const auto fabric_link = first_fabric_link(config.topology);
  config.fabric.link_faults.push_back(outage_spec(fabric_link, ms(60), ms(140)));
  config.fabric.link_faults.push_back(outage_spec(fabric_link + 1, ms(90), ms(170)));
  const auto r = run_fabric_experiment(config);
  EXPECT_GT(r.packets_delivered, 0u);
  for (unsigned i = 0; i < registries.size(); ++i) {
    registries[i]->finalize(/*expect_all_delivered=*/false);
    EXPECT_TRUE(registries[i]->ok()) << "switch " << i << "\n" << registries[i]->report();
  }
}

TEST(FabricFaults, LeafCrashExpiresBufferedUnitsAndClosedLoopRecovers) {
  core::FabricExperimentConfig config = failover_config();
  config.pattern = host::TrafficPattern::Incast;
  config.incast_target = 0;
  config.incast_fanin = 3;
  config.flow_arrival_per_s = 800.0;
  config.duration_s = 0.2;
  config.closed_loop = true;
  config.reliable.rto = sim::SimTime::milliseconds(20);
  config.reliable.backoff = 1.5;
  config.reliable.max_retransmits = 10;
  core::SwitchCrashSpec crash;
  crash.switch_index =
      config.topology.index_of(config.topology.attachment(config.topology.host_id(0)).peer);
  crash.crash_at = ms(20);
  crash.restart_at = ms(70);
  config.fabric.switch_crashes.push_back(crash);

  const auto r = run_fabric_experiment(config);
  EXPECT_EQ(r.switch_crashes, 1u);
  EXPECT_GT(r.buffer_units_expired, 0u);  // misses were queued when it died
  EXPECT_EQ(r.last_fault_clear, ms(70));
  // The retransmit loop re-offers everything the crash destroyed.
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.unique_acked, r.unique_offered);
}
