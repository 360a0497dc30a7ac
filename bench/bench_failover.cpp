// Data-plane failover: link outages and switch crashes on a leaf-spine
// fabric, with the closed control loop (port_status -> route repair ->
// reinstall) and the closed data loop (timeout -> retransmit) both running.
//
// Section A — fault sweep. Every (mechanism x install mode) pair runs a
// no-fault baseline, one planned 120 ms outage on a single leaf-spine link,
// and two seeded flap processes over ALL inter-switch links. Hosts send
// through a ReliableSender, so loss becomes re-offered load and the final
// delivery ratio measures recovery, not luck. Per-bin delivery timelines
// (paired with the same-seed baseline rep) yield degradation depth, reroute
// latency and time-to-recovery.
//
// Section B — leaf crash under incast. The shared leaf crashes while misses
// are queued against it, so every buffered unit on it is lost. Packet
// granularity buffers one unit per packet, flow granularity one per flow:
// the crash must cost flow granularity strictly fewer units.
//
// Exit status: 0 when the recovery acceptance checks pass (post-fault
// delivery within 2 points of the paired baseline for every cell; flow <
// packet units lost in section B), 3 when they fail, so CI can gate on it.
// Cells fan out across a ThreadPool into pre-assigned slots; a self-check
// re-runs the first cell inline and asserts exact equality, keeping results
// bit-identical for any --jobs value. --profile prints the merged event-loop
// profile of every cell; --trace-out and --metrics-out are usage errors.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "fabric_cells.hpp"
#include "net/link_fault.hpp"
#include "recovery.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"

namespace {

using namespace sdnbuf;

using FaultFactory = std::function<std::vector<core::LinkFaultSpec>(std::uint64_t seed)>;

struct FaultLevel {
  std::string label;
  sim::SimTime first_down;  // earliest possible outage start (zero = none)
  FaultFactory make;
};

struct CellMeta {
  std::string section;  // "A" fault sweep, "B" crash
  std::string mechanism;
  std::string install;
  std::string fault;
  int baseline_cell = -1;  // same (mechanism, install) with no faults
  sim::SimTime first_down;
};

// Timeline comparison of one fault repetition against its same-seed no-fault
// baseline (identical workload, so differences are the faults').
struct BinAnalysis {
  double depth_pct = 100.0;   // worst fault-window bin vs baseline steady rate
  double reroute_ms = 0.0;    // fault start -> delivery back above 90% steady
  double recover_ms = 0.0;    // last fault clear -> cumulative within 2% of baseline
  double post_pct = 100.0;    // post-clear delivered vs baseline, same window
};

BinAnalysis analyze_bins(const core::FabricExperimentResult& fault,
                         const core::FabricExperimentResult& base, sim::SimTime bin,
                         sim::SimTime first_down, std::size_t traffic_bins) {
  BinAnalysis out;
  const auto at = [](const std::vector<std::uint64_t>& v, std::size_t i) {
    return i < v.size() ? static_cast<double>(v[i]) : 0.0;
  };
  double base_total = 0.0;
  for (std::size_t i = 0; i < traffic_bins; ++i) base_total += at(base.delivered_per_bin, i);
  const double steady = base_total / static_cast<double>(traffic_bins);
  if (steady <= 0.0 || bin <= sim::SimTime::zero()) return out;
  const double bin_ms = static_cast<double>(bin.ns()) / 1e6;

  const auto start_bin = static_cast<std::size_t>(first_down.ns() / bin.ns());
  const auto clear_bin = std::min<std::size_t>(
      traffic_bins, static_cast<std::size_t>((fault.last_fault_clear.ns() + bin.ns() - 1) / bin.ns()));

  out.depth_pct = 100.0;
  for (std::size_t i = start_bin; i < clear_bin; ++i) {
    out.depth_pct = std::min(out.depth_pct, 100.0 * at(fault.delivered_per_bin, i) / steady);
  }

  out.reroute_ms = static_cast<double>(traffic_bins - start_bin) * bin_ms;
  for (std::size_t i = start_bin; i < traffic_bins; ++i) {
    if (at(fault.delivered_per_bin, i) >= 0.9 * steady) {
      out.reroute_ms = static_cast<double>(i - start_bin) * bin_ms;
      break;
    }
  }

  // Time to recovery: cumulative post-clear delivery catches the baseline's
  // (within 2%). The retransmit backlog flushes here, so this converges even
  // when the fault window itself delivered almost nothing.
  double cum_fault = 0.0;
  double cum_base = 0.0;
  out.recover_ms = static_cast<double>(traffic_bins - clear_bin) * bin_ms;
  for (std::size_t i = clear_bin; i < traffic_bins; ++i) {
    cum_fault += at(fault.delivered_per_bin, i);
    cum_base += at(base.delivered_per_bin, i);
    if (cum_base > 0.0 && cum_fault >= 0.98 * cum_base) {
      out.recover_ms = static_cast<double>(i + 1 - clear_bin) * bin_ms;
      break;
    }
  }
  out.post_pct = cum_base > 0.0 ? 100.0 * cum_fault / cum_base : 100.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_fabric_options(argc, argv);
  const int reps = options.repetitions;

  // 2 spines x 2 leaves x 2 hosts: every leaf has an ECMP alternative, so a
  // single downed leaf-spine link is survivable by rerouting.
  const topo::Topology topology = topo::make_leaf_spine(2, 2, 2);
  std::vector<std::size_t> fabric_links;  // inter-switch links only
  for (std::size_t i = 0; i < topology.links().size(); ++i) {
    if (!topology.links()[i].host_edge) fabric_links.push_back(i);
  }
  SDNBUF_CHECK_MSG(!fabric_links.empty(), "leaf-spine has no inter-switch links");

  const sim::SimTime bin = sim::SimTime::milliseconds(10);
  const double duration_s = 0.4;
  const auto traffic_bins = static_cast<std::size_t>(sim::SimTime::from_seconds(duration_s).ns() /
                                                     bin.ns());

  core::FabricExperimentConfig base;
  base.topology = topology;
  base.pattern = host::TrafficPattern::Permutation;
  base.duration_s = duration_s;
  base.flow_arrival_per_s = 300.0;
  base.min_packets = 2;
  base.max_packets = 16;
  base.in_flow_rate_mbps = 20.0;
  base.buffer_capacity = 256;
  base.fabric.switch_config.port_down_policy = sw::PortDownPolicy::RePktIn;
  base.closed_loop = true;
  base.reliable.rto = sim::SimTime::milliseconds(20);
  base.reliable.backoff = 1.5;
  base.reliable.max_retransmits = 10;
  base.delivery_bin = bin;
  base.drain_timeout = sim::SimTime::seconds(4);

  // Fault levels. Flap horizons stop at 240 ms so every run has a guaranteed
  // fault-free tail (160 ms of offered traffic) in which to demonstrate
  // recovery.
  const sim::SimTime flap_start = sim::SimTime::milliseconds(50);
  const sim::SimTime flap_horizon = sim::SimTime::milliseconds(240);
  const auto flap_level = [&](std::string label, double mean_up_s, double mean_down_s) {
    return FaultLevel{std::move(label), flap_start,
                      [&fabric_links, flap_start, flap_horizon, mean_up_s,
                       mean_down_s](std::uint64_t seed) {
                        std::vector<core::LinkFaultSpec> out;
                        for (const std::size_t link : fabric_links) {
                          core::LinkFaultSpec spec;
                          spec.link_index = link;
                          spec.schedule = net::LinkFaultSchedule::flap(
                              seed * 1000003 + link, flap_start, flap_horizon, mean_up_s,
                              mean_down_s);
                          out.push_back(std::move(spec));
                        }
                        return out;
                      }};
  };
  std::vector<FaultLevel> levels;
  levels.push_back(
      {"none", sim::SimTime::zero(), [](std::uint64_t) { return std::vector<core::LinkFaultSpec>{}; }});
  levels.push_back({"single-outage", sim::SimTime::milliseconds(80),
                    [&fabric_links](std::uint64_t) {
                      core::LinkFaultSpec spec;
                      spec.link_index = fabric_links.front();
                      spec.schedule.add_outage(sim::SimTime::milliseconds(80),
                                               sim::SimTime::milliseconds(200));
                      return std::vector<core::LinkFaultSpec>{spec};
                    }});
  levels.push_back(flap_level("flap-mild", 0.10, 0.015));
  levels.push_back(flap_level("flap-harsh", 0.06, 0.020));

  const std::vector<bench::MechanismSpec> mechanisms = {
      {"no-buffer", sw::BufferMode::NoBuffer, 0},
      {"packet-granularity", sw::BufferMode::PacketGranularity, 256},
      {"flow-granularity", sw::BufferMode::FlowGranularity, 256}};

  std::vector<core::FabricExperimentConfig> configs;
  std::vector<CellMeta> meta;
  std::vector<int> cell_of;
  std::vector<int> cell_first;

  const auto push_cell = [&](CellMeta m, const core::FabricExperimentConfig& cell,
                             const FaultFactory& faults) {
    const int cell_index = static_cast<int>(meta.size());
    meta.push_back(std::move(m));
    cell_first.push_back(static_cast<int>(configs.size()));
    for (int rep = 0; rep < reps; ++rep) {
      core::FabricExperimentConfig c = cell;
      c.seed = options.seed * 131 + static_cast<std::uint64_t>(rep);
      c.fabric.link_faults = faults(c.seed);
      configs.push_back(std::move(c));
      cell_of.push_back(cell_index);
    }
    return cell_index;
  };

  // --- Section A: fault level x mechanism x install mode.
  for (const auto routing :
       {core::FabricRouting::TopologyPerHop, core::FabricRouting::TopologyFullPath}) {
    for (const auto& mechanism : mechanisms) {
      int baseline_cell = -1;
      for (const FaultLevel& level : levels) {
        core::FabricExperimentConfig c = base;
        c.routing = routing;
        c.mode = mechanism.mode;
        const int cell = push_cell({"A", mechanism.label, core::fabric_routing_name(routing),
                                    level.label, baseline_cell, level.first_down},
                                   c, level.make);
        if (level.label == "none") baseline_cell = cell;
      }
    }
  }

  // --- Section B: the shared leaf crashes mid-incast with misses buffered.
  const unsigned target_leaf =
      topology.index_of(topology.attachment(topology.host_id(0)).peer);
  const FaultFactory no_faults = [](std::uint64_t) { return std::vector<core::LinkFaultSpec>{}; };
  int crash_packet_cell = -1;
  int crash_flow_cell = -1;
  for (const auto& mechanism : mechanisms) {
    if (mechanism.mode == sw::BufferMode::NoBuffer) continue;
    core::FabricExperimentConfig c = base;
    c.pattern = host::TrafficPattern::Incast;
    c.incast_target = 0;
    c.incast_fanin = 3;
    c.flow_arrival_per_s = 800.0;
    c.duration_s = 0.25;
    c.mode = mechanism.mode;
    core::SwitchCrashSpec crash;
    crash.switch_index = target_leaf;
    crash.crash_at = sim::SimTime::milliseconds(20);
    crash.restart_at = sim::SimTime::milliseconds(70);
    c.fabric.switch_crashes.push_back(crash);
    const int cell =
        push_cell({"B", mechanism.label, "per-hop", "leaf-crash", -1, crash.crash_at}, c,
                  no_faults);
    (mechanism.mode == sw::BufferMode::PacketGranularity ? crash_packet_cell : crash_flow_cell) =
        cell;
  }

  const auto results = bench::run_fabric_cells(options, configs);

  // Parallel determinism self-check: the first cell's first repetition,
  // re-run inline, must match the (possibly worker-produced) slot exactly.
  {
    const auto again = run_fabric_experiment(configs[0]);
    SDNBUF_CHECK_MSG(again.packets_sent == results[0].packets_sent &&
                         again.unique_acked == results[0].unique_acked &&
                         again.pkt_ins == results[0].pkt_ins &&
                         again.control_bytes == results[0].control_bytes &&
                         again.link_fault_drops == results[0].link_fault_drops &&
                         again.rules_invalidated == results[0].rules_invalidated &&
                         again.delivered_per_bin == results[0].delivered_per_bin &&
                         again.delivered == results[0].delivered,
                     "failover determinism self-check failed");
  }

  bench::RecoverySweep sweep(
      "failover: link faults on leaf-spine-2x2, closed-loop senders "
      "(delivery timelines paired with the same-seed no-fault baseline)",
      {"mechanism", "install", "fault"},
      {{"delivered %", 2},
       {"depth %", 0},
       {"reroute ms", 0},
       {"recover ms", 0},
       {"post %", 1},
       {"rules inval", 1},
       {"link drops", 0},
       {"retrans", 1},
       {"units lost", 1}});
  bench::RecoverySweep crash_sweep(
      "failover: shared-leaf crash at 20 ms under 3-way incast (RePktIn, per-hop install)",
      {"mechanism"},
      {{"delivered %", 2}, {"units lost", 1}, {"retrans", 1}, {"crashes", 0}});

  bool ok = true;
  for (std::size_t i = 0; i < meta.size(); ++i) {
    const CellMeta& m = meta[i];
    bench::RecoveryCell cell;
    for (int rep = 0; rep < reps; ++rep) {
      const auto& r = results[static_cast<std::size_t>(cell_first[i]) + static_cast<std::size_t>(rep)];
      cell.metric("delivered %").add(bench::percent(r.unique_acked, r.unique_offered));
      cell.metric("retrans").add(static_cast<double>(r.retransmits));
      cell.metric("units lost").add(static_cast<double>(r.buffer_units_expired));
      if (m.section == "A") {
        cell.metric("rules inval").add(static_cast<double>(r.rules_invalidated));
        cell.metric("link drops").add(static_cast<double>(r.link_fault_drops));
        if (m.baseline_cell >= 0) {
          const auto& b = results[static_cast<std::size_t>(cell_first[m.baseline_cell]) +
                                  static_cast<std::size_t>(rep)];
          const BinAnalysis a = analyze_bins(r, b, bin, m.first_down, traffic_bins);
          cell.metric("depth %").add(a.depth_pct);
          cell.metric("reroute ms").add(a.reroute_ms);
          cell.metric("recover ms").add(a.recover_ms);
          cell.metric("post %").add(a.post_pct);
        }
      } else {
        cell.metric("crashes").add(static_cast<double>(r.switch_crashes));
      }
    }
    if (m.section == "A") {
      sweep.add_cell({m.mechanism, m.install, m.fault}, cell);
      // Acceptance: with the loop closed, every fault cell must end within
      // 2 points of its same-workload no-fault baseline.
      if (m.baseline_cell >= 0) {
        bench::RecoveryCell baseline;
        for (int rep = 0; rep < reps; ++rep) {
          const auto& b = results[static_cast<std::size_t>(cell_first[m.baseline_cell]) +
                                  static_cast<std::size_t>(rep)];
          baseline.metric("delivered %").add(bench::percent(b.unique_acked, b.unique_offered));
        }
        const double fault_pct = cell.metric("delivered %").mean();
        const double base_pct = baseline.metric("delivered %").mean();
        if (fault_pct < base_pct - 2.0) {
          ok = false;
          std::cout << "FAILED recovery: " << m.mechanism << " / " << m.install << " / "
                    << m.fault << " delivered " << util::format_double(fault_pct, 2)
                    << "% vs baseline " << util::format_double(base_pct, 2) << "%\n";
        }
      }
    } else {
      crash_sweep.add_cell({m.mechanism}, cell);
    }
  }

  sweep.print(std::cout);
  sweep.write_csv(options.csv_dir + "/failover.csv");
  std::cout << "\nEvery fault cell recovers to its baseline delivery once the retransmit\n"
               "loop re-offers what the fabric dropped: the single outage reroutes over\n"
               "the surviving spine within one controller round-trip (rules inval counts\n"
               "the repair deletes), and the flap processes recover after their horizon.\n"
               "Degradation depth and reroute latency come from the per-bin delivery\n"
               "timeline paired against the same-seed no-fault run.\n\n";

  crash_sweep.print(std::cout);
  crash_sweep.write_csv(options.csv_dir + "/failover_crash.csv");

  // Acceptance: the crash destroys whatever is buffered on the shared leaf.
  // Flow granularity holds one unit per flow where packet granularity holds
  // one per packet, so it must lose strictly fewer units.
  std::uint64_t units_packet = 0;
  std::uint64_t units_flow = 0;
  for (int rep = 0; rep < reps; ++rep) {
    units_packet += results[static_cast<std::size_t>(cell_first[crash_packet_cell]) +
                            static_cast<std::size_t>(rep)]
                        .buffer_units_expired;
    units_flow += results[static_cast<std::size_t>(cell_first[crash_flow_cell]) +
                          static_cast<std::size_t>(rep)]
                      .buffer_units_expired;
  }
  if (units_flow >= units_packet) {
    ok = false;
    std::cout << "FAILED unit fate: flow-granularity lost " << units_flow
              << " units vs packet-granularity " << units_packet << " (expected strictly fewer)\n";
  }

  if (!options.quiet) {
    std::cout << "\nThe crash expires one buffered unit per packet under packet granularity\n"
                 "(" << units_packet << " across " << reps << " reps) but one per flow under "
                 "flow granularity (" << units_flow << ").\n";
    std::cout << "determinism self-check: OK (cell 0 re-run matches bit-for-bit)\n";
  }
  std::cout << (ok ? "failover acceptance: OK\n" : "failover acceptance: FAILED\n");
  return ok ? 0 : 3;
}
