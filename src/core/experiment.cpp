#include "core/experiment.hpp"

#include <sstream>

#include "util/csv.hpp"

namespace sdnbuf::core {

namespace {

// Registers the per-component instruments and poll gauges into `registry`
// and installs the instrument bundles. Called after warm-up so histograms
// record only the measurement window. Poll callbacks reference the testbed;
// the caller clears them (clear_polls) before the testbed dies.
void install_metrics(obs::MetricsRegistry& registry, Testbed& bed,
                     const ExperimentConfig& config) {
  registry.set_meta("mechanism", sw::buffer_mode_name(config.mode));
  registry.set_meta("rate_mbps", util::format_double(config.rate_mbps, 6));
  registry.set_meta("seed", std::to_string(config.seed));
  registry.set_meta("snapshot_interval_ms",
                    util::format_double(config.metrics_interval.ms(), 6));

  bed.fabric().install_instruments(registry);
  obs::EgressInstruments ei;
  ei.queue_depth = &registry.histogram("egress.queue_depth", 1.0);
  bed.ovs().port_scheduler(Testbed::kHost1Port).set_instruments(ei);
  bed.ovs().port_scheduler(Testbed::kHost2Port).set_instruments(ei);

  // Poll gauges: sampled only at snapshot instants, so the repo's existing
  // statistics become time series at zero hot-path cost. The occupancy
  // columns are Fig. 8 / Fig. 13 over time instead of end-of-run scalars.
  registry.register_poll("buffer.units_in_use", [&bed]() {
    const auto* occ = bed.ovs().buffer_occupancy();
    return occ == nullptr ? 0.0 : static_cast<double>(occ->current());
  });
  registry.register_poll("buffer.occupancy_twa", [&bed]() {
    const auto* occ = bed.ovs().buffer_occupancy();
    return occ == nullptr ? 0.0 : occ->time_weighted_mean(bed.sim().now());
  });
  registry.register_poll("buffer.occupancy_max", [&bed]() {
    const auto* occ = bed.ovs().buffer_occupancy();
    return occ == nullptr ? 0.0 : static_cast<double>(occ->max());
  });
  registry.register_poll("switch.pkt_ins_sent", [&bed]() {
    return static_cast<double>(bed.ovs().counters().pkt_ins_sent);
  });
  registry.register_poll("channel.to_controller_msgs", [&bed]() {
    return static_cast<double>(bed.channel().to_controller_counters().total_count());
  });
  registry.register_poll("sink.packets_delivered", [&bed]() {
    return static_cast<double>(bed.sink2().packets_received());
  });
  // True per-port high-water marks (updated at every enqueue), alongside the
  // polled egress.queue_depth gauge which can alias past transient bursts.
  registry.register_poll("egress.highwater_packets.port1", [&bed]() {
    return static_cast<double>(bed.ovs().port_scheduler(Testbed::kHost1Port).highwater_packets());
  });
  registry.register_poll("egress.highwater_packets.port2", [&bed]() {
    return static_cast<double>(bed.ovs().port_scheduler(Testbed::kHost2Port).highwater_packets());
  });
  if (config.testbed.observatory != nullptr) config.testbed.observatory->install_metrics(registry);
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  TestbedConfig tb = config.testbed;
  tb.seed = config.seed;
  tb.switch_config.buffer_mode = config.mode;
  tb.switch_config.buffer_capacity = config.buffer_capacity;
  tb.observers.subscribe(config.tracer);
  Testbed bed{tb};
  Runner runner{config, config.tracer, config.capture};

  host::TrafficConfig traffic;
  traffic.rate_mbps = config.rate_mbps;
  traffic.frame_size = config.frame_size;
  traffic.n_flows = config.n_flows;
  traffic.packets_per_flow = config.packets_per_flow;
  traffic.order = config.order;
  traffic.batch_size = config.batch_size;
  traffic.tcp_flow_fraction = config.tcp_flow_fraction;
  traffic.src_mac = bed.host1_mac();
  traffic.dst_mac = bed.host2_mac();
  traffic.src_ip_base = bed.host1_ip();
  traffic.dst_ip = bed.host2_ip();
  host::TrafficGenerator gen{bed.sim(), traffic, config.seed * 7919u + 3,
                             [&bed](const net::Packet& p) { bed.inject_from_host1(p); }};
  const std::uint64_t expected = gen.total_packets();

  TrafficSource source;
  source.open = [&bed] { bed.warm_up(); };
  source.install_metrics = [&](obs::MetricsRegistry& registry) {
    install_metrics(registry, bed, config);
  };
  source.start = [&] {
    gen.start();
    const sim::SimTime send_duration = gen.nominal_gap().scaled(static_cast<double>(expected));
    return bed.sim().now() + send_duration.scaled(1.5);
  };
  // Counts duplicate copies too; the ChannelLossOutageAndCapture golden pins
  // this rule.
  source.done = [&] { return bed.sink2().packets_received() >= expected; };
  runner.run(bed.fabric(), source);

  const sim::SimTime t0 = bed.measurement_start();
  const sim::SimTime t1 =
      bed.sink2().last_arrival() > t0 ? bed.sink2().last_arrival() : bed.sim().now();

  ExperimentResult r;
  r.duration_s = (t1 - t0).sec();
  r.to_controller_mbps = bed.to_controller_link().tap().load_mbps(t0, t1);
  r.to_switch_mbps = bed.to_switch_link().tap().load_mbps(t0, t1);
  r.controller_cpu_pct = bed.controller().cpu().utilization_percent(t0, t1);
  r.switch_cpu_pct = bed.ovs().cpu().utilization_percent(t0, t1);
  r.bus_utilization_pct = bed.ovs().bus().utilization_percent(t0, t1);

  const auto delays = bed.recorder().finalize();
  r.setup_ms = delays.setup_ms;
  r.controller_ms = delays.controller_ms;
  r.switch_ms = delays.switch_ms;
  r.forwarding_ms = delays.forwarding_ms;
  r.flows_complete = delays.flows_complete;

  if (const auto* occ = bed.ovs().buffer_occupancy(); occ != nullptr) {
    r.buffer_avg_units = occ->time_weighted_mean(t1);
    r.buffer_max_units = static_cast<double>(occ->max());
  }

  const auto& sc = bed.ovs().counters();
  r.pkt_ins_sent = sc.pkt_ins_sent;
  r.full_frame_pkt_ins = sc.full_frame_pkt_ins;
  r.resend_pkt_ins = sc.resend_pkt_ins;
  const auto& cc = bed.controller().counters();
  r.flow_mods = cc.flow_mods_sent;
  r.pkt_outs = cc.pkt_outs_sent;
  r.stats_requests = cc.stats_requests_sent;
  r.pkt_ins_dropped = cc.pkt_ins_dropped;
  r.int_stamps = sc.int_stamps_applied;
  if (const auto* mmu = bed.ovs().mmu(); mmu != nullptr) {
    r.mmu_rejected = mmu->total_rejected();
    r.mmu_peak_pool_cells = mmu->peak_pool_cells();
  }

  const auto& up = bed.channel().to_controller_counters();
  const auto& down = bed.channel().to_switch_counters();
  r.to_controller_msgs = up.total_count();
  r.to_switch_msgs = down.total_count();
  r.to_controller_bytes = up.total_bytes();
  r.to_switch_bytes = down.total_bytes();
  r.echo_msgs = up.count(of::MsgType::EchoRequest) + up.count(of::MsgType::EchoReply) +
                down.count(of::MsgType::EchoRequest) + down.count(of::MsgType::EchoReply);
  r.hello_msgs = up.count(of::MsgType::Hello) + down.count(of::MsgType::Hello);
  r.error_msgs = up.count(of::MsgType::Error) + down.count(of::MsgType::Error);
  r.flow_samples = up.count(of::MsgType::Vendor);

  const auto& fc = bed.channel().fault_counters();
  r.channel_lost_msgs = fc.total_lost();
  r.channel_duplicated_msgs = fc.total_duplicated();
  r.channel_outage_dropped_msgs = fc.total_outage_dropped();
  r.connection_losses = sc.connection_losses;
  r.reconnects = sc.reconnects;
  r.failsecure_dropped = sc.failsecure_dropped;
  r.standalone_forwarded = sc.standalone_forwarded;
  r.resend_cap_expired = sc.resend_cap_expired;
  r.reconcile_rerequests = sc.reconcile_rerequests;
  r.reconcile_expired = sc.reconcile_expired;
  if (bed.ovs().last_restored_at() > t0) {
    r.last_reconnect_s = (bed.ovs().last_restored_at() - t0).sec();
  }

  r.packets_sent = gen.packets_emitted();
  r.packets_delivered = bed.sink2().packets_received();
  r.duplicates = bed.sink2().duplicate_packets();
  r.drained = r.packets_delivered >= expected;
  return r;
}

std::string summarize(const ExperimentResult& r) {
  std::ostringstream os;
  os << "load(up/down)=" << util::format_double(r.to_controller_mbps, 3) << '/'
     << util::format_double(r.to_switch_mbps, 3) << " Mbps"
     << "  cpu(sw/ctrl)=" << util::format_double(r.switch_cpu_pct, 1) << "%/"
     << util::format_double(r.controller_cpu_pct, 1) << '%'
     << "  setup=" << util::format_double(r.setup_ms.mean(), 3) << " ms"
     << "  pkt_in=" << r.pkt_ins_sent << " (full " << r.full_frame_pkt_ins << ")"
     << "  delivered=" << r.packets_delivered << '/' << r.packets_sent;
  if (r.buffer_max_units > 0) {
    os << "  buf(avg/max)=" << util::format_double(r.buffer_avg_units, 1) << '/'
       << util::format_double(r.buffer_max_units, 0);
  }
  if (r.channel_lost_msgs + r.channel_duplicated_msgs + r.channel_outage_dropped_msgs > 0) {
    os << "  chan(lost/dup/outage)=" << r.channel_lost_msgs << '/' << r.channel_duplicated_msgs
       << '/' << r.channel_outage_dropped_msgs;
  }
  if (r.connection_losses > 0) {
    os << "  conn(losses/reconnects)=" << r.connection_losses << '/' << r.reconnects;
  }
  if (r.echo_msgs > 0) os << "  echo=" << r.echo_msgs;
  return os.str();
}

}  // namespace sdnbuf::core
