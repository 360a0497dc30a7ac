#include "verify/scenario_gen.hpp"

#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "core/fabric_experiment.hpp"
#include "util/rng.hpp"

namespace sdnbuf::verify {

Scenario sample_scenario(std::uint64_t seed, bool force_faults, bool force_fabric,
                         bool force_link_faults, bool force_telemetry, bool force_mmu) {
  // Decorrelate the sampling stream from the experiment's own seeded
  // streams (which derive from `seed` directly).
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5ca1ab1e);
  Scenario s;
  s.seed = seed;
  s.rate_mbps = rng.uniform(10.0, 95.0);
  s.frame_size = static_cast<std::uint32_t>(200 + rng.next_below(1201));
  s.n_flows = 10 + rng.next_below(111);
  s.packets_per_flow = static_cast<std::uint32_t>(1 + rng.next_below(6));
  s.order = rng.next_below(2) == 0 ? host::EmissionOrder::Sequential
                                   : host::EmissionOrder::CrossSequence;
  s.batch_size = static_cast<std::uint32_t>(2 + rng.next_below(7));
  constexpr double kTcpFractions[] = {0.0, 0.25, 0.5, 1.0};
  s.tcp_flow_fraction = kTcpFractions[rng.next_below(4)];
  constexpr std::size_t kCapacities[] = {8, 32, 256};
  s.buffer_capacity = kCapacities[rng.next_below(3)];
  // Stress corners, each enabled for a fraction of scenarios.
  if (rng.next_double() < 0.25) s.flow_table_capacity = 16 + rng.next_below(49);
  if (rng.next_double() < 0.20) s.piggyback_buffer_id = true;
  if (rng.next_double() < 0.25) s.drop_pkt_in_probability = rng.uniform(0.02, 0.15);
  if (rng.next_double() < 0.20) {
    s.stats_poll_interval = sim::SimTime::milliseconds(50 + rng.next_below(200));
  }
  // Channel fault plane corners. Draw order is fixed so the same seed keeps
  // producing the same base scenario regardless of which corners fire.
  if (rng.next_double() < 0.30 || force_faults) {
    s.chan_loss_to_controller = rng.uniform(0.02, 0.25);
    s.chan_loss_to_switch = rng.uniform(0.02, 0.25);
  }
  if (rng.next_double() < 0.15) s.chan_duplicate_prob = rng.uniform(0.01, 0.10);
  if (rng.next_double() < 0.15) {
    s.chan_extra_delay = sim::SimTime::microseconds(100 + rng.next_below(1901));
  }
  if (rng.next_double() < 0.25) {
    // An outage needs liveness to be observable; enable echo and pick a mode.
    s.outage_start = sim::SimTime::milliseconds(100 + rng.next_below(301));
    s.outage_len = sim::SimTime::milliseconds(200 + rng.next_below(801));
    s.echo_interval = sim::SimTime::milliseconds(50 + rng.next_below(51));
    s.fail_mode = rng.next_below(2) == 0 ? sw::ConnectionFailMode::FailSecure
                                         : sw::ConnectionFailMode::FailStandalone;
  } else if (rng.next_double() < 0.10) {
    // Echo-only scenario: liveness traffic over a healthy (or lossy) channel.
    s.echo_interval = sim::SimTime::milliseconds(50 + rng.next_below(101));
  }
  // Fabric cross-check draws come LAST so enabling them never perturbs the
  // base scenario a seed maps to. The gate draw is always consumed; the
  // fault smoke (force_faults) keeps its run time by skipping fabrics.
  const bool want_fabric = rng.next_double() < 0.30;
  if ((want_fabric || force_fabric || force_link_faults) && !force_faults) {
    s.fabric_kind = static_cast<unsigned>(rng.next_below(3));
    s.fabric_switches = static_cast<unsigned>(2 + rng.next_below(7));  // 2..8
    s.fabric_seed = rng.next_u64();
    s.fabric_pattern = static_cast<unsigned>(rng.next_below(3));
    s.fabric_full_path = rng.next_below(2) == 1;
  }
  // Data-plane link-fault draws come after the fabric draws (again: enabling
  // them never perturbs the base scenario or the fabric shape a seed maps
  // to). The gate draw is always consumed.
  const bool want_link_faults = rng.next_double() < 0.25;
  if (s.has_fabric() && (want_link_faults || force_link_faults)) {
    s.fabric_flap_mean_up_s = rng.uniform(0.04, 0.12);
    s.fabric_flap_mean_down_s = rng.uniform(0.005, 0.025);
    s.fabric_fault_seed = rng.next_u64();
  }
  // Retired dimension (the sharded engine), kept so seeds map to the same scenarios.
  const bool retired_gate = rng.next_double() < 0.30;
  if (s.has_fabric() && retired_gate) (void)rng.next_below(3);
  // Telemetry draws come after everything else (append-only discipline: the
  // telemetry dimension existing never changes the scenario a seed already
  // maps to). The gate draw is always consumed.
  const bool want_telemetry = rng.next_double() < 0.30;
  if (want_telemetry || force_telemetry) {
    s.telemetry = true;
    s.telemetry_int_depth = static_cast<unsigned>(rng.next_below(9));  // 0..8 hops
    constexpr std::uint32_t kPeriods[] = {0, 1, 4, 16, 64};
    s.telemetry_sample_period = kPeriods[rng.next_below(5)];
  }
  // Shared-memory MMU draws come after the telemetry draws (append-only
  // discipline: the MMU dimension existing never changes the scenario a seed
  // already maps to). The gate draw is always consumed. Pool sizes span
  // plentiful (nothing rejected) down to starved (the dynamic policies'
  // thresholds bite); alphas span conservative to aggressive sharing.
  const bool want_mmu = rng.next_double() < 0.30;
  if (want_mmu || force_mmu) {
    s.mmu = true;
    s.mmu_policy = static_cast<unsigned>(rng.next_below(3));
    constexpr std::uint64_t kPools[] = {512, 2048, 8192};
    s.mmu_pool_cells = kPools[rng.next_below(3)];
    constexpr double kAlphas[] = {0.25, 0.5, 1.0, 2.0};
    s.mmu_alpha = kAlphas[rng.next_below(4)];
  }
  return s;
}

// Deterministic small fabric from the scenario's fabric draws. Every shape
// satisfies Topology::validate() by construction.
static topo::Topology build_fabric(const Scenario& s) {
  util::Rng rng(s.fabric_seed * 0x2545f4914f6cdd1dULL + 0xfab41c);
  switch (s.fabric_kind) {
    case 0: {  // small leaf-spine: 3..5 switches
      const unsigned spines = static_cast<unsigned>(1 + rng.next_below(2));
      const unsigned leaves = static_cast<unsigned>(2 + rng.next_below(2));
      const unsigned hosts = static_cast<unsigned>(1 + rng.next_below(2));
      return topo::make_leaf_spine(spines, leaves, hosts);
    }
    case 1:  // smallest fat-tree: 5 switches, 2 hosts
      return topo::make_fat_tree(2);
    default: {  // random connected switch graph with randomly homed hosts
      const unsigned n_sw = s.fabric_switches;
      const unsigned n_hosts = static_cast<unsigned>(2 + rng.next_below(3));
      std::vector<std::pair<unsigned, unsigned>> edges;
      std::set<std::pair<unsigned, unsigned>> seen;
      // Hosts are node ids 0..n_hosts-1, switches n_hosts..n_hosts+n_sw-1.
      const auto sw_id = [n_hosts](unsigned i) { return n_hosts + i; };
      for (unsigned h = 0; h < n_hosts; ++h) {
        edges.emplace_back(h, sw_id(static_cast<unsigned>(rng.next_below(n_sw))));
      }
      // Spanning tree keeps the switch graph connected; extras add loops
      // (safe under topology routing, which never floods).
      for (unsigned i = 1; i < n_sw; ++i) {
        const unsigned parent = static_cast<unsigned>(rng.next_below(i));
        edges.emplace_back(sw_id(parent), sw_id(i));
        seen.insert({parent, i});
      }
      const std::uint64_t extras = rng.next_below(n_sw);
      for (std::uint64_t e = 0; e < extras; ++e) {
        unsigned a = static_cast<unsigned>(rng.next_below(n_sw));
        unsigned b = static_cast<unsigned>(rng.next_below(n_sw));
        if (a == b) continue;
        if (a > b) std::swap(a, b);
        if (!seen.insert({a, b}).second) continue;
        edges.emplace_back(sw_id(a), sw_id(b));
      }
      return topo::from_edge_list(n_hosts, n_sw, edges);
    }
  }
}

// Runs the fabric cross-check under all three buffer mechanisms with one
// InvariantRegistry per switch, appending any failures to `out`.
static void run_fabric_check(const Scenario& scenario, ScenarioOutcome& out) {
  const topo::Topology topology = build_fabric(scenario);
  constexpr sw::BufferMode kModes[] = {sw::BufferMode::NoBuffer,
                                       sw::BufferMode::PacketGranularity,
                                       sw::BufferMode::FlowGranularity};
  constexpr host::TrafficPattern kPatterns[] = {host::TrafficPattern::AllToAll,
                                                host::TrafficPattern::Permutation,
                                                host::TrafficPattern::Incast};
  std::array<std::vector<PayloadId>, 3> delivered;
  std::array<bool, 3> drained{};
  for (std::size_t i = 0; i < 3; ++i) {
    std::vector<std::unique_ptr<InvariantRegistry>> registries;
    std::vector<ObserverFanOut> subscribers(topology.n_switches());
    for (unsigned sw_i = 0; sw_i < topology.n_switches(); ++sw_i) {
      registries.push_back(std::make_unique<InvariantRegistry>());
      if (scenario.fabric_full_path) registries.back()->set_allow_proactive_installs(true);
      // Route repair after a flap can send a rerouted packet back through a
      // switch it already transited; that revisit is legal under link faults.
      if (scenario.has_link_faults()) registries.back()->set_allow_revisits(true);
      subscribers[sw_i].subscribe(registries.back().get());
    }

    core::FabricExperimentConfig cfg;
    cfg.topology = topology;
    cfg.routing = scenario.fabric_full_path ? core::FabricRouting::TopologyFullPath
                                            : core::FabricRouting::TopologyPerHop;
    cfg.mode = kModes[i];
    cfg.buffer_capacity = scenario.buffer_capacity;
    cfg.pattern = kPatterns[scenario.fabric_pattern % 3];
    cfg.duration_s = 0.15;
    cfg.flow_arrival_per_s = 150.0;
    cfg.min_packets = 1;
    cfg.max_packets = 6;
    cfg.seed = scenario.seed;
    cfg.fabric.subscribers = std::move(subscribers);
    obs::FabricObservatory obsy;
    if (scenario.has_telemetry()) {
      cfg.observatory = &obsy;
      cfg.fabric.switch_config.telemetry_int_depth = scenario.telemetry_int_depth;
      cfg.fabric.switch_config.telemetry_sample_period = scenario.telemetry_sample_period;
      cfg.fabric.controller_config.flow_monitor_enabled = scenario.telemetry_sample_period > 0;
    }
    // Every fabric switch runs its own MMU instance (the pool is per-switch).
    if (scenario.has_mmu()) scenario.apply_mmu(cfg.fabric.switch_config.mmu);
    if (scenario.has_link_faults()) {
      // Seeded flap schedules on every inter-switch link, identical across
      // the three mechanism runs. The horizon ends well inside the drain
      // window so recovery is always reachable.
      const sim::SimTime flap_start = sim::SimTime::milliseconds(20);
      const sim::SimTime horizon = sim::SimTime::milliseconds(130);
      for (std::size_t li = 0; li < topology.links().size(); ++li) {
        if (topology.links()[li].host_edge) continue;
        core::LinkFaultSpec spec;
        spec.link_index = li;
        spec.schedule = net::LinkFaultSchedule::flap(
            scenario.fabric_fault_seed * 1000003 + li, flap_start, horizon,
            scenario.fabric_flap_mean_up_s, scenario.fabric_flap_mean_down_s);
        if (spec.schedule.empty()) continue;
        cfg.fabric.link_faults.push_back(spec);
      }
    }
    const core::FabricExperimentResult r = run_fabric_experiment(cfg);
    delivered[i] = r.delivered;
    drained[i] = r.drained;
    out.fabric_delivered += r.packets_delivered;

    if (scenario.has_telemetry()) {
      // Fabric ledger totality. Injections are endpoint-driven and exact;
      // fault-free drained runs must close completely (every payload
      // delivered, nothing fated or stranded). Under link faults the
      // mechanisms legitimately lose packets, but every loss still needs a
      // terminal fate or a buffer slot — injected covers them by identity,
      // and the delivered count must still match the sinks exactly (drained
      // fault-free runs have no duplicates, so unique == copies).
      const std::string label =
          "fabric-telemetry " + std::string(sw::buffer_mode_name(kModes[i]));
      if (obsy.injected() != r.packets_sent) {
        out.failures.push_back(label + ": ledger injected " + std::to_string(obsy.injected()) +
                               " != packets sent " + std::to_string(r.packets_sent));
      }
      if (!scenario.has_link_faults() && r.drained) {
        if (obsy.delivered() != r.packets_delivered) {
          out.failures.push_back(label + ": ledger delivered " +
                                 std::to_string(obsy.delivered()) + " != sink deliveries " +
                                 std::to_string(r.packets_delivered));
        }
        if (obsy.fated() != 0 || obsy.stranded() != 0) {
          out.failures.push_back(label + ": drained run left fated=" +
                                 std::to_string(obsy.fated()) + " stranded=" +
                                 std::to_string(obsy.stranded()));
        }
      }
      if (scenario.telemetry_int_depth > 0 && obsy.delivered() > 0 &&
          obsy.stamped_deliveries() != obsy.delivered()) {
        out.failures.push_back(label + ": " + std::to_string(obsy.stamped_deliveries()) +
                               " stamped deliveries but " + std::to_string(obsy.delivered()) +
                               " ledgered (depth >= 1 must stamp every delivery)");
      }
    }

    std::uint64_t events = 0;
    for (unsigned sw_i = 0; sw_i < registries.size(); ++sw_i) {
      // Under link faults a frame can die on the wire after the switch
      // forwarded it, so per-switch "all delivered" no longer holds even in
      // a drained run — conservation is the contract there.
      registries[sw_i]->finalize(
          /*expect_all_delivered=*/r.drained && !scenario.has_link_faults());
      events += registries[sw_i]->events_observed();
      if (!registries[sw_i]->ok()) {
        out.failures.push_back("fabric " + std::string(sw::buffer_mode_name(kModes[i])) + " " +
                               topology.name(topology.switch_id(sw_i)) + ": " +
                               registries[sw_i]->report());
      }
    }
    out.fabric_events += events;
    if (events == 0) {
      out.failures.push_back("fabric " + std::string(sw::buffer_mode_name(kModes[i])) +
                             ": observers saw no events (hooks unwired?)");
    }
    if (!r.drained && !scenario.has_link_faults()) {
      // Link faults legitimately eat packets (no closed loop here), so the
      // drained requirement only applies to fault-free fabrics.
      out.failures.push_back("fabric " + std::string(sw::buffer_mode_name(kModes[i])) +
                             ": undrained (" + std::to_string(r.packets_delivered) + "/" +
                             std::to_string(r.packets_sent) + " delivered, " +
                             std::to_string(r.duplicates) + " dup)");
    }
  }
  // Fault-free fabrics: every mechanism must deliver the identical payload
  // multiset. Under link faults the mechanisms diverge (a re-raised miss
  // takes a different path than a buffered release), so only per-switch
  // conservation is checked there.
  if (!scenario.has_link_faults()) {
    for (std::size_t i = 1; i < 3; ++i) {
      if (drained[i] && drained[0] && delivered[i] != delivered[0]) {
        out.failures.push_back("fabric " + std::string(sw::buffer_mode_name(kModes[i])) +
                               " delivered a different payload multiset than " +
                               sw::buffer_mode_name(kModes[0]));
      }
    }
  }
}

std::string Scenario::describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " rate=" << rate_mbps << "Mbps frame=" << frame_size << " flows="
     << n_flows << "x" << packets_per_flow << " order="
     << (order == host::EmissionOrder::Sequential ? "seq" : "cross") << " batch=" << batch_size
     << " tcp=" << tcp_flow_fraction << " buf_cap=" << buffer_capacity << " table_cap="
     << flow_table_capacity << " piggyback=" << piggyback_buffer_id << " drop_p="
     << drop_pkt_in_probability << " poll=" << stats_poll_interval.to_string();
  if (has_channel_faults() || echo_interval > sim::SimTime::zero()) {
    os << " chan_loss=" << chan_loss_to_controller << '/' << chan_loss_to_switch
       << " chan_dup=" << chan_duplicate_prob << " chan_jitter=" << chan_extra_delay.to_string()
       << " outage=" << outage_start.to_string() << '+' << outage_len.to_string()
       << " echo=" << echo_interval.to_string() << " fail_mode=" << sw::fail_mode_name(fail_mode);
  }
  if (has_fabric()) {
    constexpr const char* kKinds[] = {"leaf-spine", "fat-tree-k2", "random"};
    os << " fabric=" << kKinds[fabric_kind % 3] << " fabric_sw=" << fabric_switches
       << " fabric_seed=" << fabric_seed << " fabric_pattern=" << fabric_pattern
       << " fabric_install=" << (fabric_full_path ? "full-path" : "per-hop");
    if (has_link_faults()) {
      os << " link_flap=" << fabric_flap_mean_up_s << "s/" << fabric_flap_mean_down_s
         << "s link_fault_seed=" << fabric_fault_seed;
    }
  }
  if (has_telemetry()) {
    os << " telemetry=on int_depth=" << telemetry_int_depth
       << " sample_period=" << telemetry_sample_period;
  }
  if (has_mmu()) {
    os << " mmu=" << sw::mmu::policy_kind_name(static_cast<sw::mmu::PolicyKind>(mmu_policy % 3))
       << " pool_cells=" << mmu_pool_cells << " alpha=" << mmu_alpha;
  }
  return os.str();
}

core::ExperimentConfig Scenario::experiment_config(sw::BufferMode mode) const {
  core::ExperimentConfig cfg;
  cfg.mode = mode;
  cfg.buffer_capacity = buffer_capacity;
  cfg.rate_mbps = rate_mbps;
  cfg.frame_size = frame_size;
  cfg.n_flows = n_flows;
  cfg.packets_per_flow = packets_per_flow;
  cfg.order = order;
  cfg.batch_size = batch_size;
  cfg.tcp_flow_fraction = tcp_flow_fraction;
  cfg.seed = seed;
  cfg.testbed.switch_config.flow_table_capacity = flow_table_capacity;
  cfg.testbed.controller_config.piggyback_buffer_id = piggyback_buffer_id;
  cfg.testbed.controller_config.drop_pkt_in_probability = drop_pkt_in_probability;
  cfg.testbed.controller_config.stats_poll_interval = stats_poll_interval;
  cfg.testbed.fault_profile.loss_to_controller = chan_loss_to_controller;
  cfg.testbed.fault_profile.loss_to_switch = chan_loss_to_switch;
  cfg.testbed.fault_profile.duplicate_to_controller = chan_duplicate_prob;
  cfg.testbed.fault_profile.duplicate_to_switch = chan_duplicate_prob;
  cfg.testbed.fault_profile.max_extra_delay = chan_extra_delay;
  if (outage_len > sim::SimTime::zero()) {
    cfg.testbed.fault_profile.outages.push_back({outage_start, outage_start + outage_len});
  }
  cfg.testbed.switch_config.echo_interval = echo_interval;
  cfg.testbed.switch_config.fail_mode = fail_mode;
  if (telemetry) {
    cfg.testbed.switch_config.telemetry_int_depth = telemetry_int_depth;
    cfg.testbed.switch_config.telemetry_sample_period = telemetry_sample_period;
    cfg.testbed.controller_config.flow_monitor_enabled = telemetry_sample_period > 0;
  }
  if (mmu) apply_mmu(cfg.testbed.switch_config.mmu);
  return cfg;
}

void Scenario::apply_mmu(sw::mmu::MmuConfig& m) const {
  m.enabled = true;
  m.policy = static_cast<sw::mmu::PolicyKind>(mmu_policy % 3);
  m.pool_cells = mmu_pool_cells;
  // Modest headroom and reserved minima keep the shared region dominant
  // while still exercising the reserved/shared accounting transitions.
  m.headroom_cells = mmu_pool_cells / 32;
  m.reserved_cells = 4;
  m.alpha = mmu_alpha;
  m.buffer_alpha = mmu_alpha;
}

ScenarioOutcome run_scenario(const Scenario& scenario) {
  ScenarioOutcome out;
  out.scenario = scenario;
  constexpr sw::BufferMode kModes[] = {sw::BufferMode::NoBuffer,
                                       sw::BufferMode::PacketGranularity,
                                       sw::BufferMode::FlowGranularity};
  for (std::size_t i = 0; i < 3; ++i) {
    InvariantRegistry registry;
    core::ExperimentConfig cfg = scenario.experiment_config(kModes[i]);
    cfg.testbed.observers.subscribe(&registry);
    obs::FabricObservatory obsy;
    if (scenario.has_telemetry()) cfg.testbed.observatory = &obsy;

    ModeOutcome& mo = out.modes[i];
    mo.mode = kModes[i];
    mo.result = core::run_experiment(cfg);
    // A drained run must have delivered every payload exactly once; an
    // undrained one (overload, fault injection) only has to account for
    // every payload. With channel faults a duplicated delivery can mask a
    // lost one in the sink's raw count, so "drained" no longer implies
    // per-payload delivery — conservation is the contract there.
    registry.finalize(
        /*expect_all_delivered=*/mo.result.drained && !scenario.has_channel_faults());
    mo.violations = registry.total_violations();
    mo.events = registry.events_observed();
    mo.report = registry.report();
    mo.delivered = registry.delivered_payloads();

    if (mo.events == 0) {
      out.failures.push_back(std::string(sw::buffer_mode_name(mo.mode)) +
                             ": observer saw no events (hooks unwired?)");
    }
    if (!registry.ok()) {
      out.failures.push_back(std::string(sw::buffer_mode_name(mo.mode)) + ": " + mo.report);
    }

    if (scenario.has_telemetry()) {
      // Ledger totality, cross-checked against the registry's independent
      // per-payload accounting. Endpoint injections are fault-immune, so the
      // injected count is exact regardless of channel faults. Fault-free,
      // the fate and stranded totals must match the registry's drop/expire/
      // loss and still-buffered counts exactly; under channel faults a
      // retransmitted copy can retract an earlier fate (delivery wins), so
      // the fate total may only shrink below the registry's sum.
      const std::string label = std::string("telemetry ") + sw::buffer_mode_name(mo.mode);
      const InvariantRegistry::AccountTotals at = registry.account_totals();
      const std::uint64_t accounted = at.dropped + at.expired + at.lost;
      if (obsy.injected() != mo.result.packets_sent) {
        out.failures.push_back(label + ": ledger injected " + std::to_string(obsy.injected()) +
                               " != packets sent " + std::to_string(mo.result.packets_sent));
      }
      if (!scenario.has_channel_faults()) {
        if (obsy.fated() != accounted) {
          out.failures.push_back(label + ": ledger fated " + std::to_string(obsy.fated()) +
                                 " != registry dropped+expired+lost " +
                                 std::to_string(accounted));
        }
        if (obsy.stranded() != at.buffered) {
          out.failures.push_back(label + ": ledger stranded " + std::to_string(obsy.stranded()) +
                                 " != registry still-buffered " + std::to_string(at.buffered));
        }
      } else if (obsy.fated() > accounted) {
        out.failures.push_back(label + ": ledger fated " + std::to_string(obsy.fated()) +
                               " exceeds registry dropped+expired+lost " +
                               std::to_string(accounted));
      }
    }
  }

  // Cross-mechanism equivalence: when every mechanism drained, all three
  // must have delivered the same payload multiset — buffering strategy must
  // not change *what* arrives, only when. Under channel faults the
  // mechanisms legitimately diverge (different messages get lost), so only
  // per-mode conservation is required there.
  const bool all_drained = out.modes[0].result.drained && out.modes[1].result.drained &&
                           out.modes[2].result.drained;
  if (all_drained && !scenario.has_channel_faults()) {
    for (std::size_t i = 1; i < 3; ++i) {
      if (out.modes[i].delivered != out.modes[0].delivered) {
        out.failures.push_back(std::string(sw::buffer_mode_name(out.modes[i].mode)) +
                               " delivered a different payload multiset than " +
                               sw::buffer_mode_name(out.modes[0].mode) + " (" +
                               std::to_string(out.modes[i].delivered.size()) + " vs " +
                               std::to_string(out.modes[0].delivered.size()) + " deliveries)");
      }
    }
  }

  if (scenario.has_fabric()) run_fabric_check(scenario, out);
  return out;
}

}  // namespace sdnbuf::verify
