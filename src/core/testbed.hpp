// The experimental platform: a chain of OpenFlow switches between two
// hosts, all managed by one controller over per-switch control links. With
// the default single switch it is the paper's Fig. 1 platform:
//
//   Host1 --100Mbps-- [OVS switch] --100Mbps-- Host2
//                          |
//                     control path
//                          |
//                    [Floodlight controller]
//
// Longer chains are the data-center extension: a new flow's first packets
// miss at *every* switch on the path, so the reactive overhead multiplies
// per hop, and so does the buffer's saving (`bench_multihop`). Port
// numbering on every switch: 1 faces Host1, 2 faces Host2.
//
// The wiring is `FabricTestbed` over `topo::make_chain` with L2-learning
// routing (safe: a chain is loop-free). This layer adds only the warm-up
// that teaches the controller where the hosts are (in the real testbed this
// happens via ARP/initial flooding before measurements start), the delay
// recorder behind Fig. 5-7 (a subscriber of switch 0's observation stream),
// and control-channel fault arming.
#pragma once

#include <cstdint>

#include "core/fabric_testbed.hpp"
#include "metrics/delay_recorder.hpp"

namespace sdnbuf::core {

struct TestbedConfig {
  unsigned n_switches = 1;
  sw::SwitchConfig switch_config;  // template; name/datapath_id set per switch
  ctrl::ControllerConfig controller_config;
  // Host access links (Table I: 100 Mbps interfaces) and switch-to-switch
  // links; `link_delay` applies to both.
  double host_link_mbps = 100.0;
  double inter_switch_mbps = 100.0;
  sim::SimTime link_delay = sim::SimTime::microseconds(20);
  // Control path: a dedicated GbE segment between the two PCs; the delay
  // lumps NIC, kernel and TCP-stack latency of both commodity machines.
  double control_link_mbps = 1000.0;
  sim::SimTime control_link_delay = sim::SimTime::microseconds(300);
  std::uint64_t seed = 1;
  // Control-channel fault injection, applied to every switch's channel.
  // Armed when warm-up finishes so the handshake/learning phase always runs
  // over a clean channel; outage windows are relative to the measurement
  // start (t=0 = end of warm-up).
  of::FaultProfile fault_profile;
  // Subscribers to switch 0's observation stream besides the delay recorder
  // (an invariant registry, a flow tracer; owned by the caller; single-switch
  // chains only, since xids and buffer_ids are per-switch). A registry sees
  // the complete packet/control event stream of the switch.
  verify::ObserverFanOut observers;
  // Drop-attribution ledger and INT harvest (DESIGN.md §15); null = off.
  obs::FabricObservatory* observatory = nullptr;
};

class Testbed {
 public:
  static constexpr std::uint16_t kHost1Port = 1;
  static constexpr std::uint16_t kHost2Port = 2;

  explicit Testbed(const TestbedConfig& config);

  // Lets the controller learn both host locations at every switch
  // (gratuitous traffic), drains, resets every statistic — measurements
  // start clean — and arms the channel fault profile.
  void warm_up();

  // Injects a packet as if Host1/Host2 put it on its access link.
  void inject_from_host1(const net::Packet& packet) { fabric_.inject_from_host(0, packet); }
  void inject_from_host2(const net::Packet& packet) { fabric_.inject_from_host(1, packet); }

  // Addresses the hosts use.
  [[nodiscard]] net::MacAddress host1_mac() const { return net::MacAddress::from_index(1); }
  [[nodiscard]] net::MacAddress host2_mac() const { return net::MacAddress::from_index(2); }
  [[nodiscard]] net::Ipv4Address host1_ip() const {
    return net::Ipv4Address::from_octets(10, 1, 0, 1);
  }
  [[nodiscard]] net::Ipv4Address host2_ip() const {
    return net::Ipv4Address::from_octets(10, 2, 0, 1);
  }

  [[nodiscard]] sim::Simulator& sim() { return fabric_.sim(); }
  [[nodiscard]] unsigned n_switches() const { return fabric_.n_switches(); }
  [[nodiscard]] sw::Switch& switch_at(unsigned index) { return fabric_.switch_at(index); }
  // Switch 0 (the only one on Fig. 1) and its control channel.
  [[nodiscard]] sw::Switch& ovs() { return fabric_.switch_at(0); }
  [[nodiscard]] of::Channel& channel() { return fabric_.channel_at(0); }
  [[nodiscard]] ctrl::Controller& controller() { return fabric_.controller(); }
  [[nodiscard]] host::HostSink& sink1() { return fabric_.sink_at(0); }
  [[nodiscard]] host::HostSink& sink2() { return fabric_.sink_at(1); }
  // Per-flow delays, observed at switch 0.
  [[nodiscard]] metrics::DelayRecorder& recorder() { return recorder_; }
  // The underlying fabric (per-switch channels and links, fabric-wide sums).
  [[nodiscard]] FabricTestbed& fabric() { return fabric_; }

  // Switch 0's control-path links (for load taps).
  [[nodiscard]] net::Link& to_controller_link() { return fabric_.control_link_at(0).forward(); }
  [[nodiscard]] net::Link& to_switch_link() { return fabric_.control_link_at(0).reverse(); }

  [[nodiscard]] sim::SimTime measurement_start() const { return fabric_.measurement_start(); }

  // Stops all housekeeping so Simulator::run() can drain.
  void stop() { fabric_.stop(); }

 private:
  // Declared before the fabric so it outlives the components that report to
  // it.
  metrics::DelayRecorder recorder_;
  FabricTestbed fabric_;
  of::FaultProfile fault_profile_;
  std::uint64_t seed_;
};

}  // namespace sdnbuf::core
