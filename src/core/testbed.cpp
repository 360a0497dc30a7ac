#include "core/testbed.hpp"

#include <utility>
#include <vector>

#include "topo/topology.hpp"
#include "util/check.hpp"

namespace sdnbuf::core {

namespace {

constexpr std::uint16_t kWarmupPort = 99;

// The recorder subscribes to switch 0 after the caller's observers.
FabricConfig fabric_config(const TestbedConfig& config, metrics::DelayRecorder& recorder) {
  SDNBUF_CHECK_MSG(config.observers.empty() || config.n_switches == 1,
                   "testbed observers cover one switch; use FabricTestbed per-switch "
                   "subscribers for longer chains");
  std::vector<verify::ObserverFanOut> subscribers(config.n_switches);
  subscribers[0] = config.observers;
  subscribers[0].subscribe(&recorder);
  // A sweep builds one testbed per cell; copying the Fig. 1 chain shares its
  // graph instead of rebuilding it.
  static const topo::Topology kFig1 = topo::make_chain(1);
  return FabricConfig{
      .topology = config.n_switches == 1 ? kFig1 : topo::make_chain(config.n_switches),
      .routing = FabricRouting::L2Learning,
      .switch_config = config.switch_config,
      .controller_config = config.controller_config,
      .host_link_mbps = config.host_link_mbps,
      .inter_switch_mbps = config.inter_switch_mbps,
      .link_delay = config.link_delay,
      .control_link_mbps = config.control_link_mbps,
      .control_link_delay = config.control_link_delay,
      .seed = config.seed,
      .subscribers = std::move(subscribers),
      .link_faults = {},
      .switch_crashes = {},
      .observatory = config.observatory,
  };
}

}  // namespace

Testbed::Testbed(const TestbedConfig& config)
    : fabric_(fabric_config(config, recorder_)),
      fault_profile_(config.fault_profile),
      seed_(config.seed) {}

void Testbed::warm_up() {
  // Host2 speaks first: its packet floods (host1 still unknown) and teaches
  // every switch where host2 is; then host1's packet teaches host1's
  // location and is forwarded directly. Mirrors ARP-style startup chatter —
  // including retries, so warm-up also succeeds under controller fault
  // injection.
  sim::Simulator& sim = fabric_.sim();
  const auto learned_everywhere = [this](const net::MacAddress& mac) {
    for (unsigned i = 0; i < n_switches(); ++i) {
      if (!controller().lookup_mac(mac, i + 1)) return false;
    }
    return true;
  };
  const net::MacAddress macs[2] = {host1_mac(), host2_mac()};
  const net::Ipv4Address ips[2] = {host1_ip(), host2_ip()};
  std::uint16_t seq = 0;
  for (const unsigned h : {1u, 0u}) {
    for (int attempt = 0; attempt < 50 && !learned_everywhere(macs[h]); ++attempt) {
      net::Packet p = net::make_udp_packet(macs[h], macs[1 - h], ips[h], ips[1 - h],
                                           static_cast<std::uint16_t>(kWarmupPort + seq++),
                                           kWarmupPort, 100);
      p.flow_id = net::kUntrackedFlow;
      fabric_.inject_from_host(h, p);
      sim.run_until(sim.now() + sim::SimTime::milliseconds(50));
    }
  }
  sim.run_until(sim.now() + sim::SimTime::milliseconds(100));

  SDNBUF_CHECK_MSG(learned_everywhere(host1_mac()) && learned_everywhere(host2_mac()),
                   "warm-up failed to teach the controller both host locations");
  fabric_.reset_statistics();

  // Arm channel faults only now: warm-up always runs over a clean channel.
  // Configured outage windows are relative to the measurement start.
  if (fault_profile_.any()) {
    of::FaultProfile armed = fault_profile_;
    for (auto& w : armed.outages) {
      w.start = w.start + measurement_start();
      w.end = w.end + measurement_start();
    }
    for (unsigned i = 0; i < n_switches(); ++i) {
      fabric_.channel_at(i).set_fault_profile(armed,
                                              seed_ * 0x9e3779b97f4a7c15ULL + 0xfa017ULL + i);
    }
  }
}

}  // namespace sdnbuf::core
