// Fabric integration tests: topology-routed delivery across leaf-spine and
// fat-tree fabrics, per-switch invariant registries, per-hop vs full-path
// installation, traffic-matrix patterns, and run-level determinism.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/fabric_experiment.hpp"
#include "core/fabric_testbed.hpp"
#include "core/testbed.hpp"
#include "host/traffic_matrix.hpp"
#include "obs/profiler.hpp"

namespace sdnbuf::core {
namespace {

FabricConfig fabric_config(topo::Topology topology, FabricRouting routing, sw::BufferMode mode) {
  FabricConfig config;
  config.topology = std::move(topology);
  config.routing = routing;
  config.switch_config.buffer_mode = mode;
  config.switch_config.buffer_capacity = 256;
  return config;
}

net::Packet host_packet(unsigned src, unsigned dst, std::uint16_t src_port,
                        std::uint64_t flow_id, std::uint32_t seq = 0) {
  net::Packet p = net::make_udp_packet(
      topo::Topology::host_mac(src), topo::Topology::host_mac(dst),
      topo::Topology::host_ip(src), topo::Topology::host_ip(dst), src_port, 9, 1000);
  p.flow_id = flow_id;
  p.seq_in_flow = seq;
  return p;
}

void drain(FabricTestbed& bed, sim::SimTime grace = sim::SimTime::milliseconds(200)) {
  bed.sim().run_until(bed.sim().now() + grace);
  bed.stop();
  bed.sim().run();
}

TEST(FabricTestbed, LeafSpineDeliversAcrossTheFabric) {
  FabricTestbed bed{fabric_config(topo::make_leaf_spine(2, 2, 2), FabricRouting::TopologyPerHop,
                                  sw::BufferMode::PacketGranularity)};
  // Host 0 (leaf 1) -> host 3 (leaf 2): must cross a spine.
  bed.inject_from_host(0, host_packet(0, 3, 10000, 1));
  drain(bed);
  EXPECT_EQ(bed.sink_at(3).packets_received(), 1u);
  EXPECT_EQ(bed.total_delivered(), 1u);
  // Reactive per-hop: leaf, spine, leaf each raised one packet_in.
  EXPECT_EQ(bed.total_pkt_ins(), 3u);
}

TEST(FabricTestbed, SameLeafTrafficStaysLocal) {
  FabricTestbed bed{fabric_config(topo::make_leaf_spine(2, 2, 2), FabricRouting::TopologyPerHop,
                                  sw::BufferMode::PacketGranularity)};
  bed.inject_from_host(0, host_packet(0, 1, 10000, 1));
  drain(bed);
  EXPECT_EQ(bed.sink_at(1).packets_received(), 1u);
  EXPECT_EQ(bed.total_pkt_ins(), 1u);  // only the shared leaf missed
  // Spines never saw the packet.
  EXPECT_EQ(bed.switch_at(2).counters().pkt_ins_sent, 0u);
  EXPECT_EQ(bed.switch_at(3).counters().pkt_ins_sent, 0u);
}

TEST(FabricTestbed, FullPathInstallAnswersOnlyTheOrigin) {
  FabricTestbed bed{fabric_config(topo::make_leaf_spine(2, 2, 2),
                                  FabricRouting::TopologyFullPath,
                                  sw::BufferMode::PacketGranularity)};
  bed.inject_from_host(0, host_packet(0, 3, 10000, 1));
  drain(bed);
  EXPECT_EQ(bed.sink_at(3).packets_received(), 1u);
  // One miss at the ingress leaf; the spine and egress leaf got their rules
  // proactively.
  EXPECT_EQ(bed.total_pkt_ins(), 1u);
  EXPECT_EQ(bed.controller().counters().path_preinstalls, 2u);
  EXPECT_EQ(bed.controller().counters().flow_mods_sent, 3u);
}

TEST(FabricTestbed, UnroutableDestinationIsDroppedNotFlooded) {
  FabricTestbed bed{fabric_config(topo::make_leaf_spine(2, 2, 2), FabricRouting::TopologyPerHop,
                                  sw::BufferMode::NoBuffer)};
  net::Packet p = host_packet(0, 1, 10000, 1);
  p.eth.dst = net::MacAddress::from_index(999);  // no such host
  bed.inject_from_host(0, p);
  drain(bed);
  EXPECT_EQ(bed.total_delivered(), 0u);
  EXPECT_EQ(bed.controller().counters().unroutable_drops, 1u);
  EXPECT_EQ(bed.controller().counters().floods, 0u);
}

// FabricTestbed composes each switch's subscribers into one target: nothing
// without subscribers, a lone subscriber directly (no fan-out hop), the
// switch's fan-out otherwise.
TEST(FabricTestbed, EachSwitchReportsToOneComposedTarget) {
  const topo::Topology topology = topo::make_leaf_spine(2, 2, 2);
  verify::InvariantRegistry lone;
  verify::InvariantRegistry first;
  verify::InvariantRegistry second;
  FabricConfig config = fabric_config(topology, FabricRouting::TopologyPerHop,
                                      sw::BufferMode::PacketGranularity);
  config.subscribers.resize(topology.n_switches());
  config.subscribers[0].subscribe(&lone);
  config.subscribers[1].subscribe(&first);
  config.subscribers[1].subscribe(&second);
  FabricTestbed bed{config};
  EXPECT_EQ(bed.observer_at(0), &lone);
  verify::InvariantObserver* fan = bed.observer_at(1);
  EXPECT_NE(fan, nullptr);
  EXPECT_NE(fan, &first);
  EXPECT_NE(fan, &second);
  for (unsigned i = 2; i < bed.n_switches(); ++i) EXPECT_EQ(bed.observer_at(i), nullptr);
  // Host 0 (leaf 1) -> host 3 (leaf 2): both leaves see it.
  bed.inject_from_host(0, host_packet(0, 3, 10000, 1));
  drain(bed);
  ASSERT_EQ(bed.total_delivered(), 1u);
  EXPECT_GT(lone.events_observed(), 0u);
  EXPECT_GT(first.events_observed(), 0u);
  EXPECT_EQ(first.events_observed(), second.events_observed());

  // Without subscribers nothing is wired; the Fig. 1 testbed's delay
  // recorder is switch 0's lone subscriber.
  FabricTestbed bare{fabric_config(topology, FabricRouting::TopologyPerHop,
                                   sw::BufferMode::PacketGranularity)};
  for (unsigned i = 0; i < bare.n_switches(); ++i) EXPECT_EQ(bare.observer_at(i), nullptr);
  Testbed fig1{TestbedConfig{}};
  EXPECT_EQ(fig1.fabric().observer_at(0), &fig1.recorder());
}

TEST(FabricTestbed, PerSwitchRegistriesStayCleanOnFatTree) {
  const topo::Topology topology = topo::make_fat_tree(4);
  std::vector<std::unique_ptr<verify::InvariantRegistry>> registries;
  std::vector<verify::ObserverFanOut> subscribers(topology.n_switches());
  for (unsigned i = 0; i < topology.n_switches(); ++i) {
    registries.push_back(std::make_unique<verify::InvariantRegistry>());
    subscribers[i].subscribe(registries.back().get());
  }
  FabricConfig config = fabric_config(topology, FabricRouting::TopologyPerHop,
                                      sw::BufferMode::FlowGranularity);
  config.subscribers = std::move(subscribers);
  FabricTestbed bed{config};
  // A handful of cross-pod flows.
  for (unsigned f = 0; f < 8; ++f) {
    bed.inject_from_host(f % 4, host_packet(f % 4, 12 + f % 4,
                                            static_cast<std::uint16_t>(10000 + f), f));
  }
  drain(bed, sim::SimTime::milliseconds(500));
  EXPECT_EQ(bed.total_delivered(), 8u);
  std::uint64_t events = 0;
  for (unsigned i = 0; i < registries.size(); ++i) {
    registries[i]->finalize(/*expect_all_delivered=*/true);
    EXPECT_TRUE(registries[i]->ok())
        << topology.name(topology.switch_id(i)) << "\n" << registries[i]->report();
    events += registries[i]->events_observed();
  }
  EXPECT_GT(events, 0u);
}

TEST(FabricTestbed, PerSwitchRegistriesSeeChannelFaults) {
  // Lossy, duplicating control channels: every loss and duplicate must reach
  // the owning switch's registry, or its packet_in/xid accounting cannot
  // close.
  const topo::Topology topology = topo::make_leaf_spine(2, 2, 2);
  std::vector<std::unique_ptr<verify::InvariantRegistry>> registries;
  std::vector<verify::ObserverFanOut> subscribers(topology.n_switches());
  for (unsigned i = 0; i < topology.n_switches(); ++i) {
    registries.push_back(std::make_unique<verify::InvariantRegistry>());
    subscribers[i].subscribe(registries.back().get());
  }
  FabricConfig config = fabric_config(topology, FabricRouting::TopologyPerHop,
                                      sw::BufferMode::PacketGranularity);
  config.subscribers = std::move(subscribers);
  FabricTestbed bed{config};
  of::FaultProfile faults;
  faults.loss_to_controller = 0.2;
  faults.loss_to_switch = 0.2;
  faults.duplicate_to_controller = 0.2;
  faults.duplicate_to_switch = 0.2;
  for (unsigned i = 0; i < bed.n_switches(); ++i) bed.channel_at(i).set_fault_profile(faults, i + 1);
  for (unsigned f = 0; f < 40; ++f) {
    const unsigned src = f % 4;
    const unsigned dst = (src + 2) % 4;  // the other leaf
    bed.inject_from_host(src, host_packet(src, dst, static_cast<std::uint16_t>(10000 + f), f));
  }
  drain(bed, sim::SimTime::seconds(2));
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  for (unsigned i = 0; i < bed.n_switches(); ++i) {
    lost += bed.channel_at(i).fault_counters().total_lost();
    duplicated += bed.channel_at(i).fault_counters().total_duplicated();
  }
  ASSERT_GT(lost, 0u);
  ASSERT_GT(duplicated, 0u);
  for (unsigned i = 0; i < registries.size(); ++i) {
    registries[i]->finalize(/*expect_all_delivered=*/false);
    EXPECT_TRUE(registries[i]->ok())
        << topology.name(topology.switch_id(i)) << "\n" << registries[i]->report();
  }
}

TEST(FabricTestbed, FullPathNeedsProactiveAllowance) {
  const topo::Topology topology = topo::make_leaf_spine(2, 2, 2);
  std::vector<std::unique_ptr<verify::InvariantRegistry>> registries;
  std::vector<verify::ObserverFanOut> subscribers(topology.n_switches());
  for (unsigned i = 0; i < topology.n_switches(); ++i) {
    registries.push_back(std::make_unique<verify::InvariantRegistry>());
    registries.back()->set_allow_proactive_installs(true);
    subscribers[i].subscribe(registries.back().get());
  }
  FabricConfig config = fabric_config(topology, FabricRouting::TopologyFullPath,
                                      sw::BufferMode::PacketGranularity);
  config.subscribers = std::move(subscribers);
  FabricTestbed bed{config};
  bed.inject_from_host(0, host_packet(0, 3, 10000, 1));
  drain(bed);
  EXPECT_EQ(bed.total_delivered(), 1u);
  for (auto& reg : registries) {
    reg->finalize(/*expect_all_delivered=*/true);
    EXPECT_TRUE(reg->ok()) << reg->report();
  }
}

TEST(TrafficMatrix, PatternsPickValidPairs) {
  sim::Simulator sim;
  host::TrafficMatrixConfig config;
  for (unsigned h = 0; h < 8; ++h) {
    config.host_macs.push_back(topo::Topology::host_mac(h));
    config.host_ips.push_back(topo::Topology::host_ip(h));
  }
  config.incast_target = 3;
  config.incast_fanin = 4;
  for (const auto pattern : {host::TrafficPattern::AllToAll, host::TrafficPattern::Permutation,
                             host::TrafficPattern::Incast}) {
    config.pattern = pattern;
    host::TrafficMatrixWorkload wl{sim, config, 11, [](unsigned, const net::Packet&) {}};
    for (std::uint64_t f = 0; f < 100; ++f) {
      const auto [src, dst] = wl.pick_pair(f);
      EXPECT_LT(src, 8u);
      EXPECT_LT(dst, 8u);
      EXPECT_NE(src, dst) << host::traffic_pattern_name(pattern);
      if (pattern == host::TrafficPattern::Incast) {
        EXPECT_EQ(dst, 3u);
        EXPECT_NE(src, 3u);
      }
    }
  }
}

TEST(TrafficMatrix, PermutationIsAFixedRotation) {
  sim::Simulator sim;
  host::TrafficMatrixConfig config;
  config.pattern = host::TrafficPattern::Permutation;
  for (unsigned h = 0; h < 6; ++h) {
    config.host_macs.push_back(topo::Topology::host_mac(h));
    config.host_ips.push_back(topo::Topology::host_ip(h));
  }
  host::TrafficMatrixWorkload wl{sim, config, 3, [](unsigned, const net::Packet&) {}};
  const unsigned shift = (wl.pick_pair(0).second + 6 - wl.pick_pair(0).first) % 6;
  EXPECT_GE(shift, 1u);
  for (std::uint64_t f = 0; f < 24; ++f) {
    const auto [src, dst] = wl.pick_pair(f);
    EXPECT_EQ(dst, (src + shift) % 6) << f;
  }
}

TEST(FabricExperiment, RunsAllThreeMechanismsAndAgreesOnDeliveries) {
  FabricExperimentConfig config;
  config.topology = topo::make_leaf_spine(2, 2, 2);
  config.pattern = host::TrafficPattern::Permutation;
  config.duration_s = 0.2;
  config.flow_arrival_per_s = 150.0;
  config.max_packets = 10;
  config.seed = 5;

  std::vector<FabricExperimentResult> results;
  for (const auto mode : {sw::BufferMode::NoBuffer, sw::BufferMode::PacketGranularity,
                          sw::BufferMode::FlowGranularity}) {
    config.mode = mode;
    results.push_back(run_fabric_experiment(config));
  }
  for (const auto& r : results) {
    EXPECT_TRUE(r.drained) << r.packets_delivered << "/" << r.packets_sent;
    EXPECT_GT(r.flows, 0u);
  }
  // All mechanisms deliver exactly the same payload multiset.
  EXPECT_EQ(results[0].delivered, results[1].delivered);
  EXPECT_EQ(results[1].delivered, results[2].delivered);
  // Buffered modes shrink the control path (full frames vs headers).
  EXPECT_LT(results[1].control_bytes, results[0].control_bytes);
  EXPECT_LT(results[2].control_bytes, results[0].control_bytes);
}

TEST(FabricExperiment, SameSeedIsBitIdentical) {
  FabricExperimentConfig config;
  config.topology = topo::make_fat_tree(4);
  config.pattern = host::TrafficPattern::AllToAll;
  config.mode = sw::BufferMode::FlowGranularity;
  config.duration_s = 0.1;
  config.flow_arrival_per_s = 200.0;
  config.max_packets = 8;
  config.seed = 21;

  const FabricExperimentResult a = run_fabric_experiment(config);
  const FabricExperimentResult b = run_fabric_experiment(config);
  EXPECT_EQ(a.flows, b.flows);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.pkt_ins, b.pkt_ins);
  EXPECT_EQ(a.control_bytes, b.control_bytes);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.duration_s, b.duration_s);

  // A different seed draws a different workload.
  config.seed = 22;
  const FabricExperimentResult c = run_fabric_experiment(config);
  EXPECT_NE(a.delivered, c.delivered);
}

// Every result field at full precision plus the sample and payload
// vectors: two runs agree on this string iff they agree on everything.
std::string fingerprint(const FabricExperimentResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.flows << ' ' << r.packets_sent << ' ' << r.packets_delivered << ' ' << r.duplicates
     << ' ' << r.pkt_ins << ' ' << r.full_frame_pkt_ins << ' ' << r.flow_mods << ' '
     << r.pkt_outs << ' ' << r.path_preinstalls << ' ' << r.unroutable_drops << ' '
     << r.control_msgs << ' ' << r.control_bytes << ' ' << r.control_mbps << ' '
     << r.flow_samples << ' ' << r.flow_samples_seen << ' ' << r.int_stamps << ' '
     << r.buffer_avg_units << ' ' << r.buffer_max_units << ' ' << r.duration_s << ' '
     << r.drained << ' ' << r.link_fault_drops << ' ' << r.port_status_seen << ' '
     << r.rules_invalidated << ' ' << r.link_down_events << ' ' << r.switch_crashes << ' '
     << r.buffer_units_expired << ' ' << r.mmu_rejected << ' ' << r.mmu_peak_pool_cells << ' '
     << r.unique_offered << ' ' << r.unique_acked << ' ' << r.retransmits << ' ' << r.abandoned
     << ' ' << r.last_fault_clear.ns() << '\n';
  for (const double v : r.first_packet_ms.values()) os << v << ' ';
  for (const std::uint64_t n : r.delivered_per_bin) os << n << ' ';
  for (const auto& [flow, seq] : r.delivered) os << flow << ':' << seq << ' ';
  return os.str();
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

TEST(FabricExperiment, ProfilerAttributesEveryLayerWithoutPerturbing) {
  FabricExperimentConfig config;
  config.topology = topo::make_leaf_spine(2, 2, 2);
  config.mode = sw::BufferMode::PacketGranularity;
  config.duration_s = 0.15;
  config.flow_arrival_per_s = 200.0;
  config.max_packets = 8;
  config.seed = 13;
  const FabricExperimentResult plain = run_fabric_experiment(config);

  const auto events_by_tag = [](const obs::EventLoopProfiler& profiler) {
    std::map<std::string, std::uint64_t> events;
    for (const obs::EventLoopProfiler::Row& row : profiler.table()) events[row.tag] = row.events;
    return events;
  };
  std::map<std::string, std::uint64_t> first;
  for (int run = 0; run < 2; ++run) {
    obs::EventLoopProfiler profiler;
    config.profiler = &profiler;
    const FabricExperimentResult profiled = run_fabric_experiment(config);
    EXPECT_EQ(fingerprint(plain), fingerprint(profiled));

    // Switch CPUs, the controller CPU and the data/control links all show up.
    std::uint64_t switch_cpu = 0;
    std::uint64_t controller_cpu = 0;
    std::uint64_t links = 0;
    for (const obs::EventLoopProfiler::Row& row : profiler.table()) {
      if (ends_with(row.tag, ":cpu")) {
        (row.tag.rfind("floodlight", 0) == 0 ? controller_cpu : switch_cpu) += row.events;
      } else if (ends_with(row.tag, ":fwd") || ends_with(row.tag, ":rev")) {
        links += row.events;
      }
    }
    EXPECT_GT(switch_cpu, 0u);
    EXPECT_GT(controller_cpu, 0u);
    EXPECT_GT(links, 0u);

    // Event counts (unlike wall times) are deterministic per tag.
    if (run == 0) {
      first = events_by_tag(profiler);
    } else {
      EXPECT_EQ(first, events_by_tag(profiler));
    }
  }
}

TEST(FabricExperiment, FullPathCutsPacketInsUnderIncast) {
  FabricExperimentConfig config;
  config.topology = topo::make_leaf_spine(2, 4, 2);
  config.pattern = host::TrafficPattern::Incast;
  config.incast_target = 0;
  config.incast_fanin = 6;
  config.mode = sw::BufferMode::FlowGranularity;
  config.duration_s = 0.2;
  config.flow_arrival_per_s = 150.0;
  config.max_packets = 10;
  config.seed = 9;

  config.routing = FabricRouting::TopologyPerHop;
  const FabricExperimentResult per_hop = run_fabric_experiment(config);
  config.routing = FabricRouting::TopologyFullPath;
  const FabricExperimentResult full_path = run_fabric_experiment(config);

  EXPECT_TRUE(per_hop.drained);
  EXPECT_TRUE(full_path.drained);
  EXPECT_EQ(per_hop.delivered, full_path.delivered);
  // Full-path answers one miss per flow instead of one per hop.
  EXPECT_LT(full_path.pkt_ins, per_hop.pkt_ins);
  EXPECT_GT(full_path.path_preinstalls, 0u);
}

}  // namespace
}  // namespace sdnbuf::core
