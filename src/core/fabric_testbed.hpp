// Many-switch fabric testbed: N switches wired per a `topo::Topology`, one
// controller managing all of them over per-switch control channels.
//
//   hosts -- [edge/leaf/...] -- fabric links --            (data plane)
//                \    |    /
//                 controller (one channel per switch)      (control plane)
//
// Every experiment runs on it: `core::Testbed` (the paper's Fig. 1 platform
// and its multi-switch chains) is this class over `topo::make_chain` with L2
// learning. Per-switch port maps come straight from the topology;
// forwarding decisions come from controller MAC learning or from the seeded
// ECMP `topo::Router`, and with topology routing the controller can answer
// misses per hop (the paper's reactive model multiplied across the path) or
// pre-install the whole path on the first packet_in of a flow.
//
// Per-switch observability: each switch has its own observation stream
// (verify/observer.hpp), and this class is the one place that composes a
// switch's subscribers — the caller's (an invariant registry, a flow tracer,
// the Fig. 1 delay recorder) plus, with telemetry on, a fate adapter into
// the shared observatory — into one `verify::ObserverFanOut`. The switch,
// its buffers and MMU, its controller binding, its channel's verify and
// fault taps and the injection and delivery points all report to that
// fan-out, or straight to a lone subscriber. Registries stay per switch
// because xids and buffer_ids are per-switch namespaces. Packets crossing a
// switch-to-switch link count as delivered by the sender's stream and
// injected into the receiver's, which keeps each registry's conservation
// closed locally.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "controller/controller.hpp"
#include "host/sink.hpp"
#include "net/link.hpp"
#include "obs/fabric_observatory.hpp"
#include "obs/metrics.hpp"
#include "openflow/channel.hpp"
#include "sim/simulator.hpp"
#include "switchd/switch.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"
#include "util/stats.hpp"
#include "verify/fan_out.hpp"
#include "verify/invariants.hpp"

namespace sdnbuf::core {

// The forwarding application driving the fabric's controller.
enum class FabricRouting {
  // Classic MAC learning with flooding — only safe on loop-free topologies
  // (the chain core::Testbed builds).
  L2Learning,
  // topo::Router consulted per packet_in; every switch on the path misses
  // once per flow (reactive per-hop setup).
  TopologyPerHop,
  // topo::Router walked once per flow; downstream rules pre-installed before
  // the first packet is released (controller full-path installation).
  TopologyFullPath,
};

[[nodiscard]] const char* fabric_routing_name(FabricRouting routing);

// One data-plane link with a fault schedule: the duplex link at
// `link_index` (index into topology.links()) drops in-flight frames during
// the schedule's outage windows, and both endpoint switches flip the
// matching port down/up at the window boundaries (host endpoints have no
// switch-side port to flip and are skipped).
struct LinkFaultSpec {
  std::size_t link_index = 0;
  net::LinkFaultSchedule schedule;
};

// One switch crash window: at `crash_at` the switch loses its flow table,
// buffers and control-channel state; at `restart_at` it comes back empty and
// re-handshakes with the controller over PR 2's hello machinery.
struct SwitchCrashSpec {
  unsigned switch_index = 0;
  sim::SimTime crash_at;
  sim::SimTime restart_at;
};

struct FabricConfig {
  topo::Topology topology;  // must pass validate()
  FabricRouting routing = FabricRouting::TopologyPerHop;
  sw::SwitchConfig switch_config;  // template; name/datapath_id set per switch
  ctrl::ControllerConfig controller_config;
  double host_link_mbps = 100.0;
  double inter_switch_mbps = 100.0;
  sim::SimTime link_delay = sim::SimTime::microseconds(20);
  double control_link_mbps = 1000.0;
  sim::SimTime control_link_delay = sim::SimTime::microseconds(300);
  std::uint64_t seed = 1;
  // Per-switch subscribers, indexed by switch index: empty (none) or exactly
  // one list per switch, called in subscription order. The observers are
  // owned by the caller.
  std::vector<verify::ObserverFanOut> subscribers;
  // Data-plane fault plane — both empty by default, and a fault-free
  // configuration is byte-identical to one built before the fault plane
  // existed (schedules attach after construction, arming no events).
  std::vector<LinkFaultSpec> link_faults;
  std::vector<SwitchCrashSpec> switch_crashes;
  // In-fabric telemetry plane (DESIGN.md §15): drop-attribution ledger + INT
  // harvest. Owned by the caller; null = off. Per-switch INT and sampling
  // knobs live in switch_config.
  obs::FabricObservatory* observatory = nullptr;
};

class FabricTestbed {
 public:
  // Takes the configuration by value: the topology is moved in, not copied.
  explicit FabricTestbed(FabricConfig config);

  FabricTestbed(const FabricTestbed&) = delete;
  FabricTestbed& operator=(const FabricTestbed&) = delete;

  // Sends `packet` from host `host_index` up its access link into the fabric.
  void inject_from_host(unsigned host_index, const net::Packet& packet);

  // The one event queue every switch, link, channel, host and the
  // controller schedule on.
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }

  // Frames lost to link outages, summed over both halves of every data link.
  [[nodiscard]] std::uint64_t total_link_fault_drops() const;
  // When the last armed fault (outage window or restart) clears; zero when
  // the configuration is fault-free. Recovery measurements start here.
  [[nodiscard]] sim::SimTime last_fault_clear() const { return last_fault_clear_; }

  [[nodiscard]] unsigned n_switches() const { return static_cast<unsigned>(switches_.size()); }
  [[nodiscard]] unsigned n_hosts() const { return static_cast<unsigned>(sinks_.size()); }
  [[nodiscard]] sw::Switch& switch_at(unsigned index) { return *switches_.at(index); }
  [[nodiscard]] of::Channel& channel_at(unsigned index) { return *channels_.at(index); }
  // Switch `index`'s control link; forward() carries switch -> controller.
  [[nodiscard]] net::DuplexLink& control_link_at(unsigned index) {
    return *control_links_.at(index);
  }
  [[nodiscard]] ctrl::Controller& controller() { return *controller_; }
  [[nodiscard]] host::HostSink& sink_at(unsigned host_index) { return sinks_.at(host_index); }
  // The telemetry observatory this fabric feeds; null when telemetry is off.
  [[nodiscard]] obs::FabricObservatory* observatory() const { return observatory_; }
  // What switch `si`'s components report to: null without subscribers, the
  // lone subscriber itself, or the switch's fan-out.
  [[nodiscard]] verify::InvariantObserver* observer_at(unsigned si) {
    return fan_outs_.empty() ? nullptr : fan_outs_[si].target();
  }

  // Sums across every switch / control channel.
  [[nodiscard]] std::uint64_t total_pkt_ins() const;
  [[nodiscard]] std::uint64_t total_control_bytes() const;
  [[nodiscard]] std::uint64_t total_delivered() const;
  // Shared-memory MMU accounting summed over switches (zero with MMU off):
  // admissions refused by the sharing policy, and per-switch peak pool
  // occupancies (cells).
  [[nodiscard]] std::uint64_t total_mmu_rejected() const;
  [[nodiscard]] std::uint64_t mmu_peak_pool_cells_sum() const;

  // Sorted multiset of (flow_id, seq_in_flow) payloads delivered to hosts
  // (untracked warm-up flows excluded) — the cross-mode equality check's
  // input.
  [[nodiscard]] std::vector<verify::PayloadId> delivered_payloads() const;
  // Injection-to-delivery latency of each flow's first packet (ms), in
  // delivery order: the fabric-scale flow setup delay measure.
  [[nodiscard]] const util::Samples& first_packet_ms() const { return first_packet_ms_; }

  [[nodiscard]] sim::SimTime measurement_start() const { return measurement_start_; }

  // Attaches the instrument bundles plus fabric-wide poll gauges to
  // `registry`; per-switch gauges are prefixed with the switch name.
  void install_metrics(obs::MetricsRegistry& registry);
  // Just the per-switch, channel and controller instrument bundles; their
  // histograms aggregate across switches.
  void install_instruments(obs::MetricsRegistry& registry);

  // Stops all housekeeping so Simulator::run() can drain.
  void stop();

  // Resets taps, CPU meters, counters and occupancy statistics; marks the
  // start of the measurement window.
  void reset_statistics();

 private:
  void wire_ports();
  void arm_link_faults(const std::vector<LinkFaultSpec>& faults);
  void arm_switch_crashes(const std::vector<SwitchCrashSpec>& crashes);

  // Declared first so it is destroyed last: every component below keeps a
  // reference to it.
  sim::Simulator sim_;
  topo::Topology topo_;
  FabricRouting routing_;
  std::vector<host::HostSink> sinks_;  // reserved up front so addresses stay stable
  std::unique_ptr<ctrl::Controller> controller_;
  std::unique_ptr<topo::Router> router_;  // topology routing only
  std::vector<std::unique_ptr<net::DuplexLink>> data_links_;     // topology link order
  std::vector<std::unique_ptr<sw::Switch>> switches_;            // switch index order
  std::vector<std::unique_ptr<net::DuplexLink>> control_links_;  // per switch
  std::vector<std::unique_ptr<of::Channel>> channels_;           // per switch
  // Telemetry plane: the shared observatory and one fate adapter per switch.
  obs::FabricObservatory* observatory_ = nullptr;
  std::vector<obs::FateObserver> fate_adapters_;
  // Per-switch subscribers (empty when no switch has any). Never resized
  // after construction: the components hold their addresses.
  std::vector<verify::ObserverFanOut> fan_outs_;
  // Fault schedules live here because the links hold raw pointers into them.
  std::vector<std::unique_ptr<net::LinkFaultSchedule>> fault_schedules_;
  sim::SimTime last_fault_clear_;
  // Host deliveries of tracked flows since reset_statistics().
  std::vector<verify::PayloadId> delivered_;
  util::Samples first_packet_ms_;
  sim::SimTime measurement_start_;
};

}  // namespace sdnbuf::core
