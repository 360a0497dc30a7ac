// Golden digests: fixed Fig. 1 and fabric experiments, each reduced to one
// 64-bit FNV-1a hash over every result field (doubles at full precision,
// sample vectors in order) plus any artifacts the run produces (trace,
// metrics and observatory JSON, channel capture dump). Fig. 1 runs hash
// every ExperimentResult field; fabric runs hash every
// FabricExperimentResult field, the delivery timeline and the sorted
// delivered-payload multiset. The committed digests pin both paths'
// outputs, so a refactor of the testbed, driver, links or channels cannot
// drift a result silently.
//
// A digest mismatch prints the new value. Update the constant only when the
// change in behaviour is intended, and say why in the commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/fabric_experiment.hpp"
#include "net/link_fault.hpp"
#include "obs/fabric_observatory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "openflow/capture.hpp"
#include "switchd/mmu/policy.hpp"
#include "topo/topology.hpp"
#include "verify/invariants.hpp"

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

void print_samples(std::ostream& os, const util::Samples& s) {
  for (const double v : s.values()) os << v << ' ';
  os << '\n';
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
  print_samples(os, r.first_packet_ms);
  for (const std::uint64_t n : r.delivered_per_bin) os << n << ' ';
  os << '\n';
  for (const auto& [flow, seq] : r.delivered) os << flow << ':' << seq << ' ';
  return os.str();
}

std::string fingerprint(const core::ExperimentResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.to_controller_mbps << ' ' << r.to_switch_mbps << ' ' << r.controller_cpu_pct << ' '
     << r.switch_cpu_pct << ' ' << r.bus_utilization_pct << ' ' << r.buffer_avg_units << ' '
     << r.buffer_max_units << ' ' << r.pkt_ins_sent << ' ' << r.full_frame_pkt_ins << ' '
     << r.resend_pkt_ins << ' ' << r.flow_mods << ' ' << r.pkt_outs << ' '
     << r.to_controller_msgs << ' ' << r.to_switch_msgs << ' ' << r.to_controller_bytes << ' '
     << r.to_switch_bytes << ' ' << r.stats_requests << ' ' << r.pkt_ins_dropped << ' '
     << r.flow_samples << ' ' << r.int_stamps << ' ' << r.mmu_rejected << ' '
     << r.mmu_peak_pool_cells << ' ' << r.echo_msgs << ' ' << r.hello_msgs << ' '
     << r.error_msgs << ' ' << r.channel_lost_msgs << ' ' << r.channel_duplicated_msgs << ' '
     << r.channel_outage_dropped_msgs << ' ' << r.connection_losses << ' ' << r.reconnects
     << ' ' << r.failsecure_dropped << ' ' << r.standalone_forwarded << ' '
     << r.resend_cap_expired << ' ' << r.reconcile_rerequests << ' ' << r.reconcile_expired
     << ' ' << r.last_reconnect_s << ' ' << r.packets_sent << ' ' << r.packets_delivered << ' '
     << r.duplicates << ' ' << r.flows_complete << ' ' << r.duration_s << ' ' << r.drained
     << '\n';
  print_samples(os, r.setup_ms);
  print_samples(os, r.controller_ms);
  print_samples(os, r.switch_ms);
  print_samples(os, r.forwarding_ms);
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
    c.fabric.link_faults.push_back(spec);
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

TEST(GoldenFabric, PerSwitchInvariantsMetricsAndTimeline) {
  core::FabricExperimentConfig c;
  c.topology = topo::make_leaf_spine(2, 2, 2);
  c.routing = core::FabricRouting::TopologyPerHop;
  c.mode = sw::BufferMode::FlowGranularity;
  c.buffer_capacity = 64;
  c.pattern = host::TrafficPattern::Permutation;
  c.duration_s = 0.2;
  c.flow_arrival_per_s = 400.0;
  c.max_packets = 12;
  c.seed = 23;
  c.delivery_bin = SimTime::milliseconds(10);
  std::vector<std::unique_ptr<verify::InvariantRegistry>> registries;
  for (unsigned i = 0; i < c.topology.n_switches(); ++i) {
    registries.push_back(std::make_unique<verify::InvariantRegistry>());
    c.fabric.subscribers.emplace_back().subscribe(registries.back().get());
  }
  obs::MetricsRegistry metrics;
  c.metrics = &metrics;
  const auto r = core::run_fabric_experiment(c);
  ASSERT_TRUE(r.drained);
  ASSERT_FALSE(r.delivered_per_bin.empty());
  for (const auto& registry : registries) {
    registry->finalize(/*expect_all_delivered=*/true);
    ASSERT_TRUE(registry->ok()) << registry->report();
  }
  // The per-switch gauges and fabric sums join the digest, byte for byte.
  std::ostringstream json;
  metrics.write_json(json);
  expect_digest(fingerprint(r) + '\n' + json.str(), 0x8e799049b9d57edeULL);
}

// --- Fig. 1 platform (run_experiment) ---

core::ExperimentConfig e1_config(sw::BufferMode mode, std::size_t capacity) {
  core::ExperimentConfig c;
  c.mode = mode;
  c.buffer_capacity = capacity;
  c.rate_mbps = 50.0;
  c.n_flows = 400;
  c.seed = 3;
  return c;
}

TEST(GoldenFig1, E1NoBuffer) {
  const auto r = core::run_experiment(e1_config(sw::BufferMode::NoBuffer, 0));
  ASSERT_TRUE(r.drained);
  expect_digest(fingerprint(r), 0x36da7b4bb00e0c17ULL);
}

TEST(GoldenFig1, E1Buffer256) {
  const auto r = core::run_experiment(e1_config(sw::BufferMode::PacketGranularity, 256));
  ASSERT_TRUE(r.drained);
  expect_digest(fingerprint(r), 0x3a9c02b1d67c620bULL);
}

TEST(GoldenFig1, E1Flow256) {
  const auto r = core::run_experiment(e1_config(sw::BufferMode::FlowGranularity, 256));
  ASSERT_TRUE(r.drained);
  expect_digest(fingerprint(r), 0x1eb0cc33e3440669ULL);
}

TEST(GoldenFig1, E2CrossSequence) {
  core::ExperimentConfig c = e1_config(sw::BufferMode::FlowGranularity, 256);
  c.rate_mbps = 80.0;
  c.n_flows = 50;
  c.packets_per_flow = 20;
  c.order = host::EmissionOrder::CrossSequence;
  c.batch_size = 5;
  const auto r = core::run_experiment(c);
  ASSERT_TRUE(r.drained);
  expect_digest(fingerprint(r), 0xcfd228042a658c67ULL);
}

TEST(GoldenFig1, InvariantsTracerAndMetrics) {
  verify::InvariantRegistry registry;
  obs::TraceWriter writer;
  obs::FlowTracer tracer{writer, 5, 4};
  obs::MetricsRegistry metrics;
  core::ExperimentConfig c = e1_config(sw::BufferMode::PacketGranularity, 16);
  c.rate_mbps = 90.0;
  c.testbed.observers.subscribe(&registry);
  c.tracer = &tracer;
  c.metrics = &metrics;
  const auto r = core::run_experiment(c);
  registry.finalize(/*expect_all_delivered=*/true);
  ASSERT_TRUE(registry.ok());
  ASSERT_GT(writer.event_count(), 0u);
  std::ostringstream artifacts;
  writer.write_json(artifacts);
  metrics.write_json(artifacts);
  expect_digest(fingerprint(r) + '\n' + artifacts.str(), 0xa9a33cc2368a13f3ULL);
}

TEST(GoldenFig1, ObservatoryWithSampling) {
  obs::FabricObservatory obsy;
  core::ExperimentConfig c = e1_config(sw::BufferMode::PacketGranularity, 256);
  c.packets_per_flow = 4;
  c.n_flows = 200;
  c.testbed.observatory = &obsy;
  c.testbed.switch_config.telemetry_int_depth = 4;
  c.testbed.switch_config.telemetry_sample_period = 8;
  c.testbed.controller_config.flow_monitor_enabled = true;
  const auto r = core::run_experiment(c);
  ASSERT_GT(r.flow_samples, 0u);
  ASSERT_GT(obsy.stamps_harvested(), 0u);
  std::ostringstream summary;
  obsy.write_summary_json(summary);
  expect_digest(fingerprint(r) + '\n' + summary.str(), 0xddddbc0315535724ULL);
}

TEST(GoldenFig1, ChannelLossOutageAndCapture) {
  of::ChannelCapture capture;
  core::ExperimentConfig c = e1_config(sw::BufferMode::PacketGranularity, 256);
  c.rate_mbps = 20.0;
  c.capture = &capture;
  c.testbed.fault_profile.loss_to_controller = 0.05;
  c.testbed.fault_profile.loss_to_switch = 0.05;
  c.testbed.fault_profile.duplicate_to_controller = 0.03;
  c.testbed.fault_profile.outages.push_back({SimTime::milliseconds(40), SimTime::milliseconds(90)});
  const auto r = core::run_experiment(c);
  ASSERT_GT(r.channel_lost_msgs, 0u);
  ASSERT_GT(r.channel_outage_dropped_msgs, 0u);
  std::ostringstream dump;
  capture.dump(dump);
  expect_digest(fingerprint(r) + '\n' + dump.str(), 0xc313b49a7286a6a7ULL);
}

}  // namespace
}  // namespace sdnbuf
