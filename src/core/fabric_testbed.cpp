#include "core/fabric_testbed.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace sdnbuf::core {

const char* fabric_routing_name(FabricRouting routing) {
  switch (routing) {
    case FabricRouting::L2Learning: return "l2-learning";
    case FabricRouting::TopologyPerHop: return "per-hop";
    case FabricRouting::TopologyFullPath: return "full-path";
  }
  return "unknown";
}

FabricTestbed::FabricTestbed(FabricConfig config)
    : topo_(std::move(config.topology)),
      routing_(config.routing),
      fan_outs_(std::move(config.subscribers)) {
  topo_.validate();
  SDNBUF_CHECK_MSG(fan_outs_.empty() || fan_outs_.size() == topo_.n_switches(),
                   "subscribers must be empty or one list per switch");

  sinks_.reserve(topo_.n_hosts());
  for (unsigned h = 0; h < topo_.n_hosts(); ++h) sinks_.emplace_back(sim_);
  data_links_.reserve(topo_.n_links());

  controller_ = std::make_unique<ctrl::Controller>(sim_, std::move(config.controller_config),
                                                   config.seed * 40503u + 1);
  if (routing_ != FabricRouting::L2Learning) {
    router_ = std::make_unique<topo::Router>(topo_, config.seed * 0xda942042e4dd58b5ULL + 7);
  }

  for (std::size_t i = 0; i < topo_.n_links(); ++i) {
    const topo::Topology::Link& link = topo_.links()[i];
    const double mbps = link.host_edge ? config.host_link_mbps : config.inter_switch_mbps;
    data_links_.push_back(std::make_unique<net::DuplexLink>(
        sim_, "data" + std::to_string(i), mbps * 1e6, config.link_delay));
  }

  for (unsigned i = 0; i < topo_.n_switches(); ++i) {
    config.switch_config.name = topo_.name(topo_.switch_id(i));
    config.switch_config.datapath_id = i + 1;
    switches_.push_back(std::make_unique<sw::Switch>(sim_, config.switch_config,
                                                     config.seed * 2654435761u + i));
    control_links_.push_back(std::make_unique<net::DuplexLink>(
        sim_, "ctl" + std::to_string(i + 1), config.control_link_mbps * 1e6,
        config.control_link_delay));
    channels_.push_back(std::make_unique<of::Channel>(sim_, control_links_[i]->forward(),
                                                      control_links_[i]->reverse()));
    switches_[i]->connect(*channels_[i]);
    controller_->connect(*channels_[i], i + 1);
  }

  // Subscribers: the caller's, then with telemetry on a fate adapter into
  // the shared observatory on every switch. The observatory's ledger takes
  // endpoint events only, so the adapters ignore injections and deliveries
  // (cross-switch handoffs re-inject per switch); inject_from_host and the
  // host deliveries feed the ledger directly.
  observatory_ = config.observatory;
  if (observatory_ != nullptr) {
    fan_outs_.resize(topo_.n_switches());
    fate_adapters_.reserve(topo_.n_switches());
    for (unsigned i = 0; i < topo_.n_switches(); ++i) {
      fan_outs_[i].subscribe(
          &fate_adapters_.emplace_back(*observatory_, topo_.name(topo_.switch_id(i))));
    }
  }

  wire_ports();

  for (unsigned i = 0; i < fan_outs_.size(); ++i) {
    verify::InvariantObserver* obs = observer_at(i);
    if (obs == nullptr) continue;
    switches_[i]->set_invariant_observer(obs);
    controller_->set_invariant_observer_for(i + 1, obs);
    channels_[i]->set_verify_tap(
        [obs](bool to_controller, const of::OfMessage& msg, std::size_t, sim::SimTime when) {
          obs->on_control_message(to_controller, msg, when);
        });
    channels_[i]->set_fault_tap([obs](bool to_controller, const of::OfMessage& msg,
                                      of::FaultKind kind, sim::SimTime when) {
      obs->on_channel_fault(to_controller, msg, kind, when);
    });
  }

  if (router_ != nullptr) {
    controller_->enable_topology_routing(*router_, routing_ == FabricRouting::TopologyFullPath
                                                       ? ctrl::RouteInstallMode::FullPathInstall
                                                       : ctrl::RouteInstallMode::PerHopReactive);
  }

  for (auto& s : switches_) s->start();
  controller_->start();

  // Fault arming comes after everything above so a fault-free configuration
  // leaves the construction-time event sequence untouched (byte-identity
  // with pre-fault-plane builds).
  arm_link_faults(config.link_faults);
  arm_switch_crashes(config.switch_crashes);
}

void FabricTestbed::arm_link_faults(const std::vector<LinkFaultSpec>& faults) {
  for (const LinkFaultSpec& spec : faults) {
    if (spec.schedule.empty()) continue;
    SDNBUF_CHECK_MSG(spec.link_index < topo_.n_links(), "link fault index out of range");
    auto schedule = std::make_unique<net::LinkFaultSchedule>(spec.schedule);
    data_links_[spec.link_index]->set_fault_schedule(schedule.get());
    if (schedule->last_recovery() > last_fault_clear_) {
      last_fault_clear_ = schedule->last_recovery();
    }

    // Port-state events at every outage boundary, for each endpoint that is
    // a switch (host endpoints have no port state to flip).
    const topo::Topology::Link& link = topo_.links()[spec.link_index];
    for (const topo::NodeId end : {link.a, link.b}) {
      if (topo_.is_host(end)) continue;
      const unsigned si = topo_.index_of(end);
      const std::uint16_t port = end == link.a ? link.a_port : link.b_port;
      for (const net::OutageWindow& w : schedule->windows()) {
        sim_.schedule_at(w.start,
                         [this, si, port]() { switches_[si]->set_port_state(port, false); });
        sim_.schedule_at(w.end, [this, si, port]() { switches_[si]->set_port_state(port, true); });
      }
    }
    fault_schedules_.push_back(std::move(schedule));
  }
}

void FabricTestbed::arm_switch_crashes(const std::vector<SwitchCrashSpec>& crashes) {
  for (const SwitchCrashSpec& spec : crashes) {
    SDNBUF_CHECK_MSG(spec.switch_index < n_switches(), "crash switch index out of range");
    SDNBUF_CHECK_MSG(spec.restart_at > spec.crash_at, "restart must follow the crash");
    const unsigned si = spec.switch_index;
    sim_.schedule_at(spec.crash_at, [this, si]() { switches_[si]->crash(); });
    sim_.schedule_at(spec.restart_at, [this, si]() { switches_[si]->restart(); });
    if (spec.restart_at > last_fault_clear_) last_fault_clear_ = spec.restart_at;
  }
}

std::uint64_t FabricTestbed::total_link_fault_drops() const {
  std::uint64_t n = 0;
  for (const auto& link : data_links_) {
    n += link->forward().fault_drops() + link->reverse().fault_drops();
  }
  return n;
}

void FabricTestbed::wire_ports() {
  // Per switch, in adjacency (= ascending port) order; the port map's
  // insertion order matters because flooding iterates it.
  for (unsigned si = 0; si < topo_.n_switches(); ++si) {
    const topo::NodeId sw_node = topo_.switch_id(si);
    for (const topo::Topology::Adjacency& adj : topo_.adjacency(sw_node)) {
      net::DuplexLink& link = *data_links_[adj.link];
      // forward() transmits a -> b; pick the half leaving this switch.
      net::Link& egress =
          topo_.links()[adj.link].a == sw_node ? link.forward() : link.reverse();
      if (topo_.is_host(adj.peer)) {
        const unsigned hi = topo_.index_of(adj.peer);
        switches_[si]->attach_port(adj.port, egress, [this, si, hi](const net::Packet& p) {
          if (auto* obs = observer_at(si)) obs->on_packet_delivered(p, sim_.now());
          if (p.flow_id != net::kUntrackedFlow) {
            delivered_.emplace_back(p.flow_id, p.seq_in_flow);
            if (p.seq_in_flow == 0) first_packet_ms_.add((sim_.now() - p.created_at).ms());
          }
          if (sinks_[hi].receive(p) && observatory_ != nullptr) {
            observatory_->on_delivered(p, sim_.now());
          }
        });
      } else {
        const unsigned pi = topo_.index_of(adj.peer);
        const std::uint16_t peer_port = adj.peer_port;
        switches_[si]->attach_port(adj.port, egress,
                                   [this, si, pi, peer_port](const net::Packet& p) {
          // Cross-switch handoff: the sender's stream closes its account, the
          // receiver's opens one (the observatory's fate adapters ignore both
          // — its ledger is endpoint-to-endpoint).
          if (auto* obs = observer_at(si)) obs->on_packet_delivered(p, sim_.now());
          if (auto* obs = observer_at(pi)) obs->on_packet_injected(p, sim_.now());
          switches_[pi]->receive(peer_port, p);
        });
      }
    }
  }
}

void FabricTestbed::inject_from_host(unsigned host_index, const net::Packet& packet) {
  const topo::NodeId host = topo_.host_id(host_index);
  const topo::Topology::Adjacency& att = topo_.attachment(host);
  net::DuplexLink& link = *data_links_[att.link];
  net::Link& uplink = topo_.links()[att.link].a == host ? link.forward() : link.reverse();
  const unsigned si = topo_.index_of(att.peer);
  if (observatory_ != nullptr) observatory_->on_injected(packet, sim_.now());
  verify::InvariantObserver* obs = observer_at(si);
  if (obs != nullptr) obs->on_packet_injected(packet, sim_.now());
  const std::uint16_t in_port = att.peer_port;
  const auto sent = uplink.send_frame(
      packet.frame_size, [this, si, in_port, packet]() { switches_[si]->receive(in_port, packet); });
  if (sent != net::Link::SendResult::Sent) {
    // The injection was already opened in the switch's registry above; close
    // it so conservation still balances when the access link eats the frame.
    if (obs != nullptr) {
      obs->on_packet_dropped(
          packet, sent == net::Link::SendResult::FaultDrop ? "link-down" : "link-queue",
          sim_.now());
    }
  }
}

std::uint64_t FabricTestbed::total_pkt_ins() const {
  std::uint64_t n = 0;
  for (const auto& s : switches_) n += s->counters().pkt_ins_sent;
  return n;
}

std::uint64_t FabricTestbed::total_control_bytes() const {
  std::uint64_t n = 0;
  for (const auto& c : channels_) {
    n += c->to_controller_counters().total_bytes() + c->to_switch_counters().total_bytes();
  }
  return n;
}

std::uint64_t FabricTestbed::total_delivered() const {
  std::uint64_t n = 0;
  for (const auto& s : sinks_) n += s.packets_received();
  return n;
}

std::uint64_t FabricTestbed::total_mmu_rejected() const {
  std::uint64_t n = 0;
  for (const auto& s : switches_) {
    if (const auto* mmu = s->mmu(); mmu != nullptr) n += mmu->total_rejected();
  }
  return n;
}

std::uint64_t FabricTestbed::mmu_peak_pool_cells_sum() const {
  std::uint64_t n = 0;
  for (const auto& s : switches_) {
    if (const auto* mmu = s->mmu(); mmu != nullptr) n += mmu->peak_pool_cells();
  }
  return n;
}

std::vector<verify::PayloadId> FabricTestbed::delivered_payloads() const {
  std::vector<verify::PayloadId> sorted = delivered_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

void FabricTestbed::install_metrics(obs::MetricsRegistry& registry) {
  registry.set_meta("topology", "hosts=" + std::to_string(n_hosts()) +
                                    ",switches=" + std::to_string(n_switches()) +
                                    ",links=" + std::to_string(topo_.n_links()));
  registry.set_meta("routing", fabric_routing_name(routing_));
  install_instruments(registry);

  // Per-switch poll gauges, prefixed with the switch name.
  for (unsigned i = 0; i < n_switches(); ++i) {
    const std::string prefix = topo_.name(topo_.switch_id(i));
    sw::Switch* s = switches_[i].get();
    registry.register_poll(prefix + ".buffer.units_in_use", [s]() {
      const auto* occ = s->buffer_occupancy();
      return occ == nullptr ? 0.0 : static_cast<double>(occ->current());
    });
    registry.register_poll(prefix + ".pkt_ins_sent",
                           [s]() { return static_cast<double>(s->counters().pkt_ins_sent); });
    // True per-port high-water mark, reported as the max across the switch's
    // ports (the full per-port breakdown lives in the observatory heatmap).
    registry.register_poll(prefix + ".egress.highwater_packets", [this, i]() {
      std::uint64_t hw = 0;
      for (const topo::Topology::Adjacency& adj : topo_.adjacency(topo_.switch_id(i))) {
        hw = std::max(hw, switches_[i]->port_scheduler(adj.port).highwater_packets());
      }
      return static_cast<double>(hw);
    });
    // Shared-memory MMU gauges (only when the switch runs one, so metric
    // snapshots stay byte-identical with the MMU off).
    if (const sw::mmu::SharedMemoryMmu* mmu = s->mmu(); mmu != nullptr) {
      registry.register_poll(prefix + ".mmu.pool_cells",
                             [mmu]() { return static_cast<double>(mmu->pool_cells_used()); });
      registry.register_poll(prefix + ".mmu.peak_pool_cells",
                             [mmu]() { return static_cast<double>(mmu->peak_pool_cells()); });
      registry.register_poll(prefix + ".mmu.rejected",
                             [mmu]() { return static_cast<double>(mmu->total_rejected()); });
    }
  }
  registry.register_poll("fabric.pkt_ins_sent",
                         [this]() { return static_cast<double>(total_pkt_ins()); });
  registry.register_poll("fabric.control_bytes",
                         [this]() { return static_cast<double>(total_control_bytes()); });
  registry.register_poll("fabric.packets_delivered",
                         [this]() { return static_cast<double>(total_delivered()); });
  registry.register_poll("fabric.link_fault_drops",
                         [this]() { return static_cast<double>(total_link_fault_drops()); });
  registry.register_poll("fabric.rules_invalidated", [this]() {
    return static_cast<double>(controller_->counters().rules_invalidated);
  });
  if (router_ != nullptr) {
    registry.register_poll("fabric.links_down",
                           [this]() { return static_cast<double>(router_->links_down()); });
  }
  const bool any_mmu = std::any_of(switches_.begin(), switches_.end(),
                                   [](const auto& s) { return s->mmu() != nullptr; });
  if (any_mmu) {
    registry.register_poll("fabric.mmu_rejected",
                           [this]() { return static_cast<double>(total_mmu_rejected()); });
    registry.register_poll("fabric.mmu_peak_pool_cells", [this]() {
      return static_cast<double>(mmu_peak_pool_cells_sum());
    });
  }
  if (observatory_ != nullptr) observatory_->install_metrics(registry);
}

void FabricTestbed::install_instruments(obs::MetricsRegistry& registry) {
  // Shared histograms aggregate the distribution across the fabric; each
  // switch still gets its own bundle instance.
  obs::SwitchInstruments si;
  si.pkt_in_bytes = &registry.histogram("switch.pkt_in_bytes", 16.0);
  obs::BufferInstruments bi;
  bi.residency_ms = &registry.histogram("buffer.residency_ms", 0.125);
  obs::ChannelInstruments chi;
  chi.wire_bytes_to_controller = &registry.histogram("channel.wire_bytes_to_controller", 16.0);
  chi.wire_bytes_to_switch = &registry.histogram("channel.wire_bytes_to_switch", 16.0);
  for (unsigned i = 0; i < n_switches(); ++i) {
    switches_[i]->set_instruments(si);
    switches_[i]->set_buffer_instruments(bi);
    channels_[i]->set_instruments(chi);
  }
  obs::ControllerInstruments ci;
  ci.pkt_in_bytes = &registry.histogram("controller.pkt_in_bytes", 16.0);
  controller_->set_instruments(ci);
}

void FabricTestbed::stop() {
  for (auto& s : switches_) s->stop();
  controller_->stop();
}

void FabricTestbed::reset_statistics() {
  for (auto& link : data_links_) {
    link->forward().tap().reset();
    link->reverse().tap().reset();
  }
  for (auto& link : control_links_) {
    link->forward().tap().reset();
    link->reverse().tap().reset();
  }
  for (auto& channel : channels_) channel->reset_counters();
  for (auto& s : switches_) {
    s->cpu().reset_stats();
    s->bus().reset_stats();
    s->reset_counters();
    if (s->packet_buffer() != nullptr) s->packet_buffer()->occupancy().reset(sim_.now());
    if (s->flow_buffer() != nullptr) s->flow_buffer()->occupancy().reset(sim_.now());
  }
  controller_->cpu().reset_stats();
  controller_->reset_counters();
  if (controller_->flow_monitor() != nullptr) controller_->flow_monitor()->reset();
  if (observatory_ != nullptr) observatory_->reset();
  for (auto& s : sinks_) s.reset();
  delivered_.clear();
  first_packet_ms_ = util::Samples{};
  measurement_start_ = sim_.now();
}

}  // namespace sdnbuf::core
