#include "controller/controller.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace sdnbuf::ctrl {

const char* route_install_mode_name(RouteInstallMode mode) {
  switch (mode) {
    case RouteInstallMode::PerHopReactive: return "per-hop";
    case RouteInstallMode::FullPathInstall: return "full-path";
  }
  return "unknown";
}

Controller::Controller(sim::Simulator& sim, ControllerConfig config, std::uint64_t rng_seed)
    : sim_(sim),
      config_(std::move(config)),
      rng_(rng_seed),
      cpu_(sim, config_.name + ":cpu", config_.cpu_cores) {
  if (config_.flow_monitor_enabled) enable_flow_monitor(config_.flow_monitor);
}

void Controller::connect(of::Channel& channel, std::uint64_t datapath_id) {
  SDNBUF_CHECK_MSG(switches_.count(datapath_id) == 0, "datapath already connected");
  switches_[datapath_id].channel = &channel;
  channel.set_controller_handler(
      [this, datapath_id](of::OfMessage& msg, std::size_t) {
        on_message(datapath_id, msg);
      });
}

Controller::SwitchBinding& Controller::binding(std::uint64_t datapath_id) {
  const auto it = switches_.find(datapath_id);
  SDNBUF_CHECK_MSG(it != switches_.end(), "unknown datapath");
  return it->second;
}

const Controller::SwitchBinding* Controller::find_binding(std::uint64_t datapath_id) const {
  const auto it = switches_.find(datapath_id);
  return it == switches_.end() ? nullptr : &it->second;
}

sim::SimTime Controller::cost_us(double nominal_us) {
  return sim::SimTime::from_microseconds(nominal_us *
                                         rng_.lognormal(1.0, config_.costs.jitter_sigma));
}

std::size_t Controller::mac_table_size(std::uint64_t datapath_id) const {
  const auto* b = find_binding(datapath_id);
  return b == nullptr ? 0 : b->mac_table.size();
}

std::optional<std::uint16_t> Controller::lookup_mac(const net::MacAddress& mac,
                                                    std::uint64_t datapath_id) const {
  const auto* b = find_binding(datapath_id);
  if (b == nullptr) return std::nullopt;
  const auto it = b->mac_table.find(mac);
  if (it == b->mac_table.end()) return std::nullopt;
  return it->second;
}

void Controller::learn(const net::MacAddress& mac, std::uint16_t port,
                       std::uint64_t datapath_id) {
  binding(datapath_id).mac_table[mac] = port;
}

void Controller::enable_topology_routing(topo::Router& router, RouteInstallMode mode) {
  router_ = &router;
  route_mode_ = mode;
}

std::size_t Controller::installed_rules_on_link(std::size_t link_index) const {
  return link_index < rules_per_link_.size() ? rules_per_link_[link_index] : 0;
}

void Controller::record_installed_rule(std::uint64_t datapath_id, const of::Match& match,
                                       std::uint16_t priority, const of::ActionList& actions) {
  if (router_ == nullptr) return;  // the learning app keeps no path state
  const of::OutputAction* out = nullptr;
  for (const of::Action& a : actions) {
    if (const auto* o = std::get_if<of::OutputAction>(&a)) {
      out = o;
      break;
    }
  }
  if (out == nullptr) return;  // drop rule: no link to track
  const topo::Topology& topology = router_->topology();
  if (datapath_id < 1 || datapath_id > topology.n_switches()) return;
  const topo::NodeId sw = topology.switch_id(static_cast<unsigned>(datapath_id - 1));
  for (const topo::Topology::Adjacency& adj : topology.adjacency(sw)) {
    if (adj.port != out->port) continue;  // flood/controller ports match nothing
    // flow_mod ADD overwrites an identical match+priority entry on the
    // switch, so refresh in place instead of double-counting.
    const auto [it, fresh] = installed_rules_.try_emplace(RuleKey{datapath_id, match, priority},
                                                          RuleState{adj.link, next_rule_seq_});
    if (fresh) {
      ++next_rule_seq_;
    } else {
      --rules_per_link_[it->second.link];
      it->second.link = adj.link;
    }
    if (adj.link >= rules_per_link_.size()) rules_per_link_.resize(adj.link + 1, 0);
    ++rules_per_link_[adj.link];
    return;
  }
}

void Controller::forget_rule(std::uint64_t datapath_id, const of::Match& match,
                             std::uint16_t priority) {
  const auto it = installed_rules_.find(RuleKey{datapath_id, match, priority});
  if (it == installed_rules_.end()) return;
  --rules_per_link_[it->second.link];
  installed_rules_.erase(it);
}

template <typename Pred>
std::vector<Controller::RuleKey> Controller::take_rules(Pred doomed) {
  std::vector<std::pair<std::uint64_t, RuleKey>> taken;  // (seq, rule)
  for (auto it = installed_rules_.begin(); it != installed_rules_.end();) {
    if (doomed(it->first, it->second)) {
      --rules_per_link_[it->second.link];
      taken.emplace_back(it->second.seq, it->first);
      it = installed_rules_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(taken.begin(), taken.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<RuleKey> rules;
  rules.reserve(taken.size());
  for (auto& [seq, rule] : taken) rules.push_back(std::move(rule));
  return rules;
}

void Controller::forget_switch_rules(std::uint64_t datapath_id) {
  (void)take_rules([datapath_id](const RuleKey& rule, const RuleState&) {
    return rule.datapath_id == datapath_id;
  });
}

void Controller::set_invariant_observer_for(std::uint64_t datapath_id,
                                            verify::InvariantObserver* observer) {
  binding(datapath_id).observer = observer;
}

verify::InvariantObserver* Controller::observer_for(std::uint64_t datapath_id) {
  const auto it = switches_.find(datapath_id);
  return it == switches_.end() ? nullptr : it->second.observer;
}

void Controller::enable_flow_monitor(const FlowMonitorConfig& config) {
  monitor_ = std::make_unique<FlowMonitor>(sim_, config);
}

void Controller::start() {
  if (monitor_ != nullptr) monitor_->start();
  if (config_.stats_poll_interval <= sim::SimTime::zero()) return;
  polling_ = true;
  poll_event_ = sim_.schedule(config_.stats_poll_interval, [this]() {
    sim::ScopedProfileTag tag{config_.name.c_str()};
    poll_stats();
  });
}

void Controller::stop() {
  polling_ = false;
  poll_event_.cancel();
  if (monitor_ != nullptr) monitor_->stop();
  // Requests still outstanding at shutdown will never be answered.
  counters_.stats_requests_expired += outstanding_stats_.size();
  outstanding_stats_.clear();
}

void Controller::poll_stats() {
  if (!polling_) return;
  // A reply that has not arrived by the time the next cycle starts is
  // written off: the xid leaves the outstanding set so a lost reply cannot
  // accumulate state forever.
  counters_.stats_requests_expired += outstanding_stats_.size();
  outstanding_stats_.clear();
  request_aggregate_stats(of::Match::wildcard_all());
  request_port_stats();
  poll_event_ = sim_.schedule(config_.stats_poll_interval, [this]() {
    sim::ScopedProfileTag tag{config_.name.c_str()};
    poll_stats();
  });
}

void Controller::request_flow_stats(const of::Match& match) {
  for (auto& [dpid, b] : switches_) {
    of::FlowStatsRequest req;
    req.xid = b.channel->next_controller_xid();
    req.match = match;
    ++counters_.stats_requests_sent;
    outstanding_stats_.emplace(dpid, req.xid);
    b.channel->send_from_controller(req);
  }
}

void Controller::request_aggregate_stats(const of::Match& match) {
  for (auto& [dpid, b] : switches_) {
    of::AggregateStatsRequest req;
    req.xid = b.channel->next_controller_xid();
    req.match = match;
    ++counters_.stats_requests_sent;
    outstanding_stats_.emplace(dpid, req.xid);
    b.channel->send_from_controller(req);
  }
}

void Controller::request_port_stats(std::uint16_t port_no) {
  for (auto& [dpid, b] : switches_) {
    of::PortStatsRequest req;
    req.xid = b.channel->next_controller_xid();
    req.port_no = port_no;
    ++counters_.stats_requests_sent;
    outstanding_stats_.emplace(dpid, req.xid);
    b.channel->send_from_controller(req);
  }
}

void Controller::on_message(std::uint64_t datapath_id, of::OfMessage& msg) {
  if (auto* pi = std::get_if<of::PacketIn>(&msg)) {
    if (config_.drop_pkt_in_probability > 0.0 &&
        rng_.next_double() < config_.drop_pkt_in_probability) {
      ++counters_.pkt_ins_dropped;
      if (auto* obs = observer_for(datapath_id)) {
        obs->on_pkt_in_dropped(pi->xid, pi->buffer_id, sim_.now());
      }
      return;
    }
    handle_packet_in(datapath_id, std::move(*pi));
  } else if (std::holds_alternative<of::Error>(msg)) {
    ++counters_.errors_seen;
  } else if (const auto* flow_stats = std::get_if<of::FlowStatsReply>(&msg)) {
    account_stats_reply(datapath_id, flow_stats->xid);
  } else if (const auto* agg = std::get_if<of::AggregateStatsReply>(&msg)) {
    account_stats_reply(datapath_id, agg->xid);
    last_aggregate_stats_ = *agg;
  } else if (const auto* port_stats = std::get_if<of::PortStatsReply>(&msg)) {
    account_stats_reply(datapath_id, port_stats->xid);
    last_port_stats_ = *port_stats;
  } else if (const auto* sample = std::get_if<of::FlowSample>(&msg)) {
    ++counters_.flow_samples_seen;
    if (monitor_ != nullptr) {
      // Ingestion is paid on the shared cores before the cache is touched,
      // so telemetry volume competes with reactive forwarding for CPU.
      const double ingest_us = config_.costs.sample_parse_us + config_.costs.flow_cache_update_us;
      cpu_.submit(cost_us(ingest_us), [this, datapath_id, record = *sample]() {
        monitor_->on_sample(datapath_id, record, sim_.now());
      });
    }
  } else if (const auto* removed = std::get_if<of::FlowRemoved>(&msg)) {
    ++counters_.flow_removed_seen;
    // Timed-out (or deleted) rules leave the bookkeeping so route repair
    // never re-deletes state the switch already dropped.
    forget_rule(datapath_id, removed->match, removed->priority);
  } else if (const auto* status = std::get_if<of::PortStatus>(&msg)) {
    handle_port_status(datapath_id, *status);
  } else if (const auto* hello = std::get_if<of::Hello>(&msg)) {
    // Echo the switch's hello xid back: that completes both the initial
    // handshake and a post-outage re-handshake on the switch side. A hello
    // also means the datapath (re)started empty — a crashed switch lost its
    // table, so any rules recorded for it are gone.
    ++counters_.hellos_seen;
    forget_switch_rules(datapath_id);
    binding(datapath_id).channel->send_from_controller(of::Hello{hello->xid});
  } else if (const auto* echo = std::get_if<of::EchoRequest>(&msg)) {
    ++counters_.echo_requests_seen;
    binding(datapath_id).channel->send_from_controller(of::EchoReply{echo->xid});
  }
  // EchoReply / FeaturesReply / BarrierReply need no reaction here.
}

void Controller::account_stats_reply(std::uint64_t datapath_id, std::uint32_t xid) {
  // A reply is "seen" only if it answers a request still outstanding; a
  // channel-duplicated (or expired-then-arriving) reply is unmatched. Both
  // still refresh last_*_stats_ — stale data beats no data for monitoring.
  if (outstanding_stats_.erase({datapath_id, xid}) > 0) {
    ++counters_.stats_replies_seen;
  } else {
    ++counters_.stats_replies_unmatched;
  }
}

void Controller::handle_port_status(std::uint64_t datapath_id, const of::PortStatus& msg) {
  ++counters_.port_status_seen;
  if (router_ == nullptr) return;  // the learning app keeps no path state to repair
  const topo::Topology& topology = router_->topology();
  if (datapath_id < 1 || datapath_id > topology.n_switches()) return;
  const topo::NodeId sw = topology.switch_id(static_cast<unsigned>(datapath_id - 1));
  const topo::Topology::Adjacency* adj = nullptr;
  for (const topo::Topology::Adjacency& a : topology.adjacency(sw)) {
    if (a.port == msg.desc.port_no) {
      adj = &a;
      break;
    }
  }
  if (adj == nullptr) return;  // port unknown to the topology: nothing to repair
  const std::size_t link = adj->link;
  const bool up = !msg.desc.link_down;

  cpu_.submit(cost_us(config_.costs.decision_us), [this, link, up]() {
    // Both endpoint switches report the same link transition; whichever
    // report is processed first performs the repair, the other sees the
    // router already agreeing and stops.
    if (router_ == nullptr || router_->link_up(link) == up) return;
    router_->set_link_state(link, up);
    if (up) {
      ++counters_.link_up_events;
      // A restored link makes every detour routed around it stale, and a
      // stale detour can pair with a later repair into a forwarding loop
      // (A's detour leans on B just as B's repair leans on A). Flushing the
      // whole table on link-up keeps the installed rules loop-free: between
      // two up-events the down-set only grows, so all surviving rules were
      // computed against nested failure snapshots and compose acyclically.
      send_rule_deletes(take_rules([](const RuleKey&, const RuleState&) { return true; }));
      return;
    }
    ++counters_.link_down_events;
    // Every recorded rule riding the dead link is now forwarding into a
    // black hole: delete it on its switch so the next packet of the flow
    // misses and reroutes over the repaired tables. Deletes go out in
    // install order, so the sequence is deterministic.
    if (installed_rules_on_link(link) == 0) return;
    send_rule_deletes(
        take_rules([link](const RuleKey&, const RuleState& state) { return state.link == link; }));
  });
}

void Controller::send_rule_deletes(std::vector<RuleKey> doomed) {
  if (doomed.empty()) return;
  cpu_.submit(cost_us(config_.costs.encode_flow_mod_us * static_cast<double>(doomed.size())),
              [this, doomed = std::move(doomed)]() {
    for (const RuleKey& rule : doomed) {
      SwitchBinding& b = binding(rule.datapath_id);
      of::FlowMod fm;
      fm.xid = b.channel->next_controller_xid();
      fm.match = rule.match;
      fm.command = of::FlowModCommand::DeleteStrict;
      fm.priority = rule.priority;
      ++counters_.rules_invalidated;
      b.channel->send_from_controller(std::move(fm));
    }
  });
}

namespace {

// The packet_out answering `msg`: it names the buffered packet, or carries
// the frame back (moved out of `msg`) in no-buffer mode.
of::PacketOut packet_out_for(of::PacketIn& msg, of::ActionList actions) {
  of::PacketOut out;
  out.xid = msg.xid;
  out.buffer_id = msg.buffer_id;
  out.in_port = msg.in_port;
  out.actions = actions;
  if (msg.buffer_id == of::kNoBuffer) out.data = std::move(msg.data);
  return out;
}

}  // namespace

void Controller::handle_packet_in(std::uint64_t datapath_id, of::PacketIn msg) {
  ++counters_.pkt_ins_handled;
  if (instr_.pkt_in_bytes != nullptr) {
    instr_.pkt_in_bytes->record(static_cast<double>(msg.data.size()));
  }
  if (msg.buffer_id == of::kNoBuffer) ++counters_.full_frame_pkt_ins;
  if (msg.reason == of::PacketInReason::FlowResend) ++counters_.resend_pkt_ins;

  // Parse cost scales with the data field: a full 1000-byte frame costs
  // measurably more than a 128-byte header capture.
  const double parse_us = config_.costs.parse_base_us +
                          config_.costs.parse_per_byte_us * static_cast<double>(msg.data.size()) +
                          config_.costs.decision_us;
  cpu_.submit(cost_us(parse_us), [this, datapath_id, msg = std::move(msg)]() mutable {
    auto packet = net::Packet::parse(msg.data, msg.total_len);
    if (!packet) {
      ++counters_.parse_failures;
      if (auto* obs = observer_for(datapath_id)) {
        obs->on_pkt_in_dropped(msg.xid, msg.buffer_id, sim_.now());
      }
      SDNBUF_WARN("controller", "undecodable packet_in data");
      return;
    }
    decide_and_respond(datapath_id, binding(datapath_id), std::move(msg), *packet);
  });
}

void Controller::decide_and_respond(std::uint64_t datapath_id, SwitchBinding& binding,
                                    of::PacketIn msg, const net::Packet& packet) {
  SDNBUF_CHECK(binding.channel != nullptr);

  // Learn the sender's location at this switch (kept in topology mode too:
  // tests and warm-up probes read the tables).
  if (!packet.eth.src.is_multicast()) binding.mac_table[packet.eth.src] = msg.in_port;

  if (router_ != nullptr) {
    route_and_respond(datapath_id, binding, std::move(msg), packet);
    return;
  }

  const auto it = binding.mac_table.find(packet.eth.dst);
  const bool known = it != binding.mac_table.end();
  if (!known) {
    // Unknown destination: flood, and install nothing (the next packet_in
    // for this flow gets another chance once the destination is learned).
    // The encode cost counts the whole data field, buffered or not.
    ++counters_.floods;
    const std::size_t data_bytes = msg.data.size();
    submit_packet_out(binding.channel, packet_out_for(msg, of::output_to(of::kPortFlood)),
                      data_bytes);
    return;
  }

  const of::Match match = of::Match::exact_from(packet, msg.in_port);
  respond_with_actions(datapath_id, binding, std::move(msg), match, of::output_to(it->second));
}

void Controller::submit_packet_out(of::Channel* channel, of::PacketOut out,
                                   std::size_t data_bytes) {
  const double encode_us = config_.costs.encode_pkt_out_base_us +
                           config_.costs.encode_pkt_out_per_byte_us *
                               static_cast<double>(data_bytes);
  cpu_.submit(cost_us(encode_us), [this, channel, out = std::move(out)]() mutable {
    ++counters_.pkt_outs_sent;
    channel->send_from_controller(std::move(out));
  });
}

void Controller::respond_with_actions(std::uint64_t datapath_id, SwitchBinding& binding,
                                      of::PacketIn msg, of::Match match,
                                      of::ActionList actions) {
  of::Channel* channel = binding.channel;
  SDNBUF_CHECK(channel != nullptr);
  const bool buffered = msg.buffer_id != of::kNoBuffer;
  // The packet_out re-encapsulates the full frame only in no-buffer mode;
  // with a valid buffer_id it carries just the reference.
  of::PacketOut out = packet_out_for(msg, actions);

  if (!config_.install_rules) {
    const std::size_t data_bytes = out.data.size();
    submit_packet_out(channel, std::move(out), data_bytes);
    return;
  }
  if (config_.aggregate_src_bits > 0) {
    // Aggregated rule: one entry covers a source-IP block instead of a
    // single micro flow (trades per-flow counters for fewer misses).
    match.set_nw_src_ignored_bits(config_.aggregate_src_bits);
    match.wildcards |= of::kWildcardTpSrc | of::kWildcardTpDst | of::kWildcardDlSrc;
  }
  // Floodlight sends the flow_mod first and the packet_out second; chaining
  // the encode jobs preserves that order on the FIFO channel.
  const bool piggyback = config_.piggyback_buffer_id && buffered;
  cpu_.submit(cost_us(config_.costs.encode_flow_mod_us),
              [this, datapath_id, channel, match, out = std::move(out), piggyback]() mutable {
    of::FlowMod fm;
    fm.xid = out.xid;  // responses echo the request xid (delay attribution)
    fm.match = match;
    fm.command = of::FlowModCommand::Add;
    fm.idle_timeout_s = config_.rule_idle_timeout_s;
    fm.hard_timeout_s = config_.rule_hard_timeout_s;
    fm.priority = config_.rule_priority;
    // Piggyback: the flow_mod itself names the buffered packet, so the
    // switch installs the rule and releases the packet in one message.
    fm.buffer_id = piggyback ? out.buffer_id : of::kNoBuffer;
    if (config_.request_flow_removed) fm.flags |= of::kFlowModSendFlowRem;
    fm.actions = out.actions;
    ++counters_.flow_mods_sent;
    record_installed_rule(datapath_id, fm.match, fm.priority, fm.actions);
    channel->send_from_controller(std::move(fm));
    if (!piggyback) {
      const std::size_t data_bytes = out.data.size();
      submit_packet_out(channel, std::move(out), data_bytes);
    }
  });
}

void Controller::route_and_respond(std::uint64_t datapath_id, SwitchBinding& binding,
                                   of::PacketIn msg, const net::Packet& packet) {
  const topo::Topology& topology = router_->topology();

  // A drop packet_out (empty action list): releases any buffered copy and
  // keeps the switch-side accounting closed.
  const auto drop_packet = [&]() {
    ++counters_.unroutable_drops;
    of::PacketOut out = packet_out_for(msg, of::drop());
    const std::size_t data_bytes = out.data.size();
    submit_packet_out(binding.channel, std::move(out), data_bytes);
  };

  const auto dst = topology.host_by_mac(packet.eth.dst);
  if (!dst) {
    // Foreign or multicast destination: fabrics have loops, so flooding is
    // never safe — drop instead of installing anything.
    drop_packet();
    return;
  }
  SDNBUF_CHECK_MSG(datapath_id >= 1 && datapath_id <= topology.n_switches(),
                   "fabric dpids are 1-based switch indices");
  const topo::NodeId sw = topology.switch_id(static_cast<unsigned>(datapath_id - 1));
  const net::FlowKey flow = packet.flow_key();

  if (route_mode_ == RouteInstallMode::PerHopReactive) {
    const auto port = router_->next_hop_port(sw, *dst, flow);
    if (!port) {
      drop_packet();
      return;
    }
    const of::Match match = of::Match::exact_from(packet, msg.in_port);
    respond_with_actions(datapath_id, binding, std::move(msg), match, of::output_to(*port));
    return;
  }

  // Full-path install: walk the ECMP path once, pre-install the rule on
  // every downstream switch, then answer the originating switch last so the
  // released packet finds the downstream rules already present.
  const std::vector<topo::NodeId> path = router_->path(sw, *dst, flow);
  if (path.size() < 2) {
    drop_packet();
    return;
  }
  auto hops = std::make_shared<std::vector<PathHop>>();
  hops->reserve(path.size() - 1);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    PathHop hop;
    hop.datapath_id = static_cast<std::uint64_t>(topology.index_of(path[i])) + 1;
    if (i == 0) {
      hop.in_port = msg.in_port;
    } else {
      const auto in = topology.port_to(path[i], path[i - 1]);
      SDNBUF_CHECK(in.has_value());
      hop.in_port = *in;
    }
    const auto out = topology.port_to(path[i], path[i + 1]);
    SDNBUF_CHECK(out.has_value());
    hop.out_port = *out;
    hops->push_back(hop);
  }
  const of::Match match = of::Match::exact_from(packet, msg.in_port);
  install_remaining_hops(std::move(hops), 1, datapath_id, std::move(msg), match);
}

void Controller::install_remaining_hops(std::shared_ptr<const std::vector<PathHop>> hops,
                                        std::size_t idx, std::uint64_t origin_dpid,
                                        of::PacketIn msg, of::Match match) {
  if (idx >= hops->size()) {
    const std::uint16_t out_port = hops->front().out_port;
    respond_with_actions(origin_dpid, binding(origin_dpid), std::move(msg), match,
                         of::output_to(out_port));
    return;
  }
  const PathHop hop = (*hops)[idx];
  cpu_.submit(cost_us(config_.costs.encode_flow_mod_us),
              [this, hops = std::move(hops), idx, origin_dpid, msg = std::move(msg), match,
               hop]() mutable {
    SwitchBinding& b = binding(hop.datapath_id);
    of::FlowMod fm;
    // Proactive installs are not answering any packet_in on this channel, so
    // they carry a fresh xid (the per-switch invariant registries are told
    // to expect unpaired flow_mods in this mode).
    fm.xid = b.channel->next_controller_xid();
    fm.match = match;
    fm.match.in_port = hop.in_port;
    fm.command = of::FlowModCommand::Add;
    fm.idle_timeout_s = config_.rule_idle_timeout_s;
    fm.hard_timeout_s = config_.rule_hard_timeout_s;
    fm.priority = config_.rule_priority;
    if (config_.request_flow_removed) fm.flags |= of::kFlowModSendFlowRem;
    fm.actions = of::output_to(hop.out_port);
    ++counters_.flow_mods_sent;
    ++counters_.path_preinstalls;
    record_installed_rule(hop.datapath_id, fm.match, fm.priority, fm.actions);
    b.channel->send_from_controller(std::move(fm));
    install_remaining_hops(std::move(hops), idx + 1, origin_dpid, std::move(msg), match);
  });
}

}  // namespace sdnbuf::ctrl
