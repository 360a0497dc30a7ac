// Golden fabric digests: four fixed fabric experiments, each reduced to one
// 64-bit FNV-1a hash over every FabricExperimentResult field (doubles at
// full precision, per-flow first-packet delays in delivery order, the
// delivery timeline) plus the sorted delivered-payload multiset. The
// committed digests pin the fabric path's outputs, so a refactor of the
// testbed, driver, links or channels cannot drift a result silently.
//
// A digest mismatch prints the new value. Update the constant only when the
// change in behaviour is intended, and say why in the commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/fabric_experiment.hpp"
#include "net/link_fault.hpp"
#include "obs/fabric_observatory.hpp"
#include "switchd/mmu/policy.hpp"
#include "topo/topology.hpp"

namespace sdnbuf {
namespace {

using sim::SimTime;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string fingerprint(const core::FabricExperimentResult& r) {
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
  os << '\n';
  for (const std::uint64_t n : r.delivered_per_bin) os << n << ' ';
  os << '\n';
  for (const auto& [flow, seq] : r.delivered) os << flow << ':' << seq << ' ';
  return os.str();
}

void expect_digest(const std::string& print, std::uint64_t golden) {
  const std::uint64_t got = fnv1a(print);
  EXPECT_EQ(got, golden) << "new digest 0x" << std::hex << got << std::dec << " over "
                         << print.size() << " fingerprint bytes";
}

TEST(GoldenFabric, LeafSpinePerHopReactive) {
  core::FabricExperimentConfig c;
  c.topology = topo::make_leaf_spine(2, 2, 2);
  c.routing = core::FabricRouting::TopologyPerHop;
  c.mode = sw::BufferMode::PacketGranularity;
  c.buffer_capacity = 64;
  c.pattern = host::TrafficPattern::Permutation;
  c.duration_s = 0.3;
  c.flow_arrival_per_s = 400.0;
  c.max_packets = 12;
  c.seed = 7;
  const auto r = core::run_fabric_experiment(c);
  ASSERT_TRUE(r.drained);
  ASSERT_GT(r.packets_delivered, 0u);
  expect_digest(fingerprint(r), 0x464051858574d70cULL);
}

TEST(GoldenFabric, FatTreeAllToAll) {
  core::FabricExperimentConfig c;
  c.topology = topo::make_fat_tree(4);
  c.routing = core::FabricRouting::TopologyFullPath;
  c.mode = sw::BufferMode::FlowGranularity;
  c.buffer_capacity = 128;
  c.pattern = host::TrafficPattern::AllToAll;
  c.duration_s = 0.2;
  c.flow_arrival_per_s = 800.0;
  c.max_packets = 10;
  c.seed = 11;
  const auto r = core::run_fabric_experiment(c);
  ASSERT_TRUE(r.drained);
  ASSERT_GT(r.packets_delivered, 0u);
  expect_digest(fingerprint(r), 0x35ed5e95e8feb41aULL);
}

TEST(GoldenFabric, ClosedLoopWithLinkFlap) {
  core::FabricExperimentConfig c;
  c.topology = topo::make_leaf_spine(2, 2, 2);
  c.routing = core::FabricRouting::TopologyPerHop;
  c.mode = sw::BufferMode::FlowGranularity;
  c.buffer_capacity = 256;
  c.pattern = host::TrafficPattern::Permutation;
  c.duration_s = 0.2;
  c.flow_arrival_per_s = 300.0;
  c.min_packets = 2;
  c.max_packets = 12;
  c.seed = 99;
  c.drain_timeout = SimTime::seconds(4);
  c.closed_loop = true;
  c.reliable.rto = SimTime::milliseconds(20);
  c.reliable.backoff = 1.5;
  c.reliable.max_retransmits = 10;
  c.delivery_bin = SimTime::milliseconds(10);
  for (std::size_t li = 0; li < c.topology.links().size(); ++li) {
    if (c.topology.links()[li].host_edge) continue;
    core::LinkFaultSpec spec;
    spec.link_index = li;
    spec.schedule = net::LinkFaultSchedule::flap(c.seed * 1000003 + li, SimTime::milliseconds(40),
                                                 SimTime::milliseconds(160), 0.06, 0.02);
    c.link_faults.push_back(spec);
  }
  const auto r = core::run_fabric_experiment(c);
  ASSERT_GT(r.link_fault_drops + r.rules_invalidated, 0u) << "the flap must hit traffic";
  ASSERT_GT(r.unique_acked, 0u);
  expect_digest(fingerprint(r), 0xc256adf688ef5d14ULL);
}

TEST(GoldenFabric, DynamicThresholdIncastWithObservatory) {
  obs::FabricObservatory obsy;
  core::FabricExperimentConfig c;
  c.topology = topo::make_leaf_spine(2, 2, 2);
  c.mode = sw::BufferMode::PacketGranularity;
  c.buffer_capacity = 16;
  c.pattern = host::TrafficPattern::Incast;
  c.incast_target = 0;
  c.incast_fanin = 3;
  c.duration_s = 0.2;
  c.flow_arrival_per_s = 500.0;
  c.seed = 47;
  c.observatory = &obsy;
  c.fabric.switch_config.telemetry_int_depth = 8;
  c.fabric.switch_config.mmu.enabled = true;
  c.fabric.switch_config.mmu.policy = sw::mmu::PolicyKind::DynamicThreshold;
  c.fabric.switch_config.mmu.pool_cells = 1024;
  const auto r = core::run_fabric_experiment(c);
  ASSERT_GT(r.packets_delivered, 0u);
  ASSERT_GT(obsy.stamps_harvested(), 0u);
  // The observatory's ledger, heatmap and path summary join the digest.
  std::ostringstream summary;
  obsy.write_summary_json(summary);
  expect_digest(fingerprint(r) + '\n' + summary.str(), 0xca9e198a628ccf60ULL);
}

}  // namespace
}  // namespace sdnbuf
