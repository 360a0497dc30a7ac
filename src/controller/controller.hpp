// The SDN controller (the testbed's Floodlight stand-in).
//
// Runs a reactive forwarding application: learn the source MAC of every
// packet_in, and when the destination MAC is known answer with a flow_mod
// installing an exact-match micro-flow rule followed by a packet_out that
// forwards (or releases) the miss-match packet; flood when the destination
// is unknown.
//
// Processing happens on a multi-core CPU server with costs proportional to
// message sizes: parsing a full-frame packet_in and re-encapsulating the
// frame into the packet_out is what makes the no-buffer controller load
// high (Fig. 3) — with buffering, both directions shrink to header-sized
// messages.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "controller/flow_monitor.hpp"
#include "net/packet.hpp"
#include "obs/instruments.hpp"
#include "openflow/channel.hpp"
#include "sim/server.hpp"
#include "sim/simulator.hpp"
#include "topo/routing.hpp"
#include "util/rng.hpp"
#include "verify/observer.hpp"

namespace sdnbuf::ctrl {

// How the controller turns a routing decision into installed state on a
// multi-switch fabric.
enum class RouteInstallMode {
  // Answer only the requesting switch: every switch on the path raises its
  // own packet_in (the paper's reactive model, multiplied per hop).
  PerHopReactive,
  // On the first packet_in of a flow, proactively install the rule on every
  // downstream switch of the ECMP path before releasing the packet — one
  // packet_in per flow per path instead of per hop.
  FullPathInstall,
};

[[nodiscard]] const char* route_install_mode_name(RouteInstallMode mode);

struct CostModel {
  // packet_in parsing: fixed + per byte of the data field.
  double parse_base_us = 10.0;
  double parse_per_byte_us = 0.10;
  // Forwarding decision (MAC table operations, route choice).
  double decision_us = 20.0;
  // Response construction.
  double encode_flow_mod_us = 15.0;
  double encode_pkt_out_base_us = 10.0;
  double encode_pkt_out_per_byte_us = 0.06;  // frame re-encapsulation (no-buffer)
  // Telemetry flow-sample ingestion (vendor message): parse plus flow-cache
  // update. Paid on the same cores as reactive forwarding, so aggressive
  // sampling competes with flow setup (bench_telemetry).
  double sample_parse_us = 6.0;
  double flow_cache_update_us = 4.0;
  double jitter_sigma = 0.15;
};

struct ControllerConfig {
  std::string name = "floodlight";
  unsigned cpu_cores = 2;
  // Parameters of the rules the forwarding app installs.
  std::uint16_t rule_idle_timeout_s = 5;
  std::uint16_t rule_hard_timeout_s = 0;
  std::uint16_t rule_priority = 100;
  bool install_rules = true;
  bool request_flow_removed = true;  // set OFPFF_SEND_FLOW_REM on rules
  // Optional Floodlight-style optimization: put the buffer_id into the
  // flow_mod and send no separate packet_out (one header-sized message
  // down). Off by default — the paper describes "a pair of control
  // operation messages (flow_mod and pkt_out)" per request for both
  // mechanisms, and Algorithm 2 is specified as flow_mod followed by a
  // packet_out; the piggyback remains available as an ablation
  // (bench_ablation_protocol).
  bool piggyback_buffer_id = false;
  // Periodic statistics polling (a Floodlight monitoring-module stand-in):
  // every interval the controller sends an aggregate-flow and a port stats
  // request. zero = disabled (the default, so the buffer experiments see
  // only reactive traffic).
  sim::SimTime stats_poll_interval = sim::SimTime::zero();
  // Rule aggregation (related work [16]: flow table aggregation): install
  // rules that wildcard the low `aggregate_src_bits` bits of the source IP
  // and the transport ports, so one rule covers a whole block of micro
  // flows. 0 = exact-match micro-flow rules (the paper's reactive model).
  int aggregate_src_bits = 0;
  // Fault injection for tests/robustness experiments: probability that a
  // received packet_in is silently dropped before processing (models an
  // overloaded or lossy controller; exercises Algorithm 1's re-request).
  double drop_pkt_in_probability = 0.0;
  // NetFlow-style measurement application (DESIGN.md §15): when enabled the
  // controller owns a FlowMonitor fed by the switches' telemetry flow
  // samples. Off by default — the buffer experiments see only reactive
  // traffic, and a disabled monitor costs nothing.
  bool flow_monitor_enabled = false;
  FlowMonitorConfig flow_monitor;
  CostModel costs;
};

struct ControllerCounters {
  std::uint64_t pkt_ins_handled = 0;
  std::uint64_t full_frame_pkt_ins = 0;   // buffer_id == OFP_NO_BUFFER
  std::uint64_t resend_pkt_ins = 0;       // flow-granularity re-requests
  std::uint64_t flow_mods_sent = 0;
  std::uint64_t pkt_outs_sent = 0;
  std::uint64_t floods = 0;
  std::uint64_t parse_failures = 0;
  std::uint64_t flow_removed_seen = 0;
  std::uint64_t pkt_ins_dropped = 0;      // fault injection
  std::uint64_t path_preinstalls = 0;     // proactive downstream flow_mods
  std::uint64_t unroutable_drops = 0;     // topology mode: no route / foreign MAC
  std::uint64_t stats_requests_sent = 0;
  std::uint64_t stats_replies_seen = 0;       // replies matching an outstanding request xid
  std::uint64_t stats_replies_unmatched = 0;  // duplicated / already-answered xids
  std::uint64_t stats_requests_expired = 0;   // requests unanswered by the next poll cycle
  std::uint64_t flow_samples_seen = 0;        // telemetry vendor records received
  std::uint64_t errors_seen = 0;
  std::uint64_t hellos_seen = 0;          // handshakes + re-handshakes answered
  std::uint64_t echo_requests_seen = 0;   // liveness probes answered
  std::uint64_t port_status_seen = 0;     // data-plane fault notifications
  std::uint64_t link_down_events = 0;     // distinct links marked down
  std::uint64_t link_up_events = 0;       // distinct links restored
  std::uint64_t rules_invalidated = 0;    // flow_mod deletes sent for dead links
};

class Controller {
 public:
  Controller(sim::Simulator& sim, ControllerConfig config, std::uint64_t rng_seed);

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  // Binds the controller side of a switch's control channel. A controller
  // can manage several switches (one channel each); `datapath_id`
  // identifies the switch (like the connection-scoped dpid of a real
  // deployment). The single-argument form uses dpid 1.
  void connect(of::Channel& channel, std::uint64_t datapath_id);
  void connect(of::Channel& channel) { connect(channel, 1); }

  // Starts / stops periodic statistics polling (no-ops when the interval is
  // zero). `stop` also silences pending poll timers so a drained simulator
  // can terminate.
  void start();
  void stop();

  // One-shot statistics requests (also usable without periodic polling).
  void request_flow_stats(const of::Match& match);
  void request_aggregate_stats(const of::Match& match);
  void request_port_stats(std::uint16_t port_no = of::kPortNone);

  // Most recent replies, for monitoring consumers and tests.
  [[nodiscard]] const std::optional<of::AggregateStatsReply>& last_aggregate_stats() const {
    return last_aggregate_stats_;
  }
  [[nodiscard]] const std::optional<of::PortStatsReply>& last_port_stats() const {
    return last_port_stats_;
  }

  [[nodiscard]] sim::CpuServer& cpu() { return cpu_; }
  [[nodiscard]] const ControllerCounters& counters() const { return counters_; }
  [[nodiscard]] const ControllerConfig& config() const { return config_; }

  // The learning tables: per switch, MAC -> port (standard L2 learning on a
  // multi-switch fabric). The dpid-less overloads address switch 1.
  [[nodiscard]] std::size_t mac_table_size(std::uint64_t datapath_id = 1) const;
  [[nodiscard]] std::optional<std::uint16_t> lookup_mac(const net::MacAddress& mac,
                                                        std::uint64_t datapath_id = 1) const;

  // Pre-seeds a MAC location (used by tests; the testbed learns via warm-up
  // traffic instead).
  void learn(const net::MacAddress& mac, std::uint16_t port, std::uint64_t datapath_id = 1);

  // Switches the forwarding application from L2 learning to topology-aware
  // routing: packet_in destinations resolve through the router's host
  // addressing scheme and the seeded ECMP tables instead of learned MAC
  // locations (no flooding — fabrics have loops). `router` is owned by the
  // caller (the FabricTestbed) and must outlive the controller; it is
  // non-const because route repair marks failed links down in it (the
  // controller is the only writer). Requires the fabric dpid convention:
  // switch index i <-> datapath_id i + 1.
  void enable_topology_routing(topo::Router& router, RouteInstallMode mode);

  // Installed-rule bookkeeping (topology mode): how many of the rules the
  // controller believes are live ride a given topology link.
  [[nodiscard]] std::size_t installed_rules_on_link(std::size_t link_index) const;

  void reset_counters() {
    counters_ = ControllerCounters{};
    // Requests from before the reset no longer have a `sent` on the books;
    // forgetting their xids keeps seen + expired == sent within the
    // measurement window (late replies count as unmatched instead).
    outstanding_stats_.clear();
  }

  // The observation stream of switch `datapath_id` (owned by the caller; may
  // be null). Reports fault-injected and undecodable packet_in drops so
  // conservation accounting stays closed.
  void set_invariant_observer_for(std::uint64_t datapath_id, verify::InvariantObserver* observer);

  // Metrics instruments (default-null bundle = disabled).
  void set_instruments(const obs::ControllerInstruments& instruments) { instr_ = instruments; }

  // Attaches the NetFlow-style measurement application (DESIGN.md §15).
  // Sampled records arriving on the OpenFlow channels are parsed on the
  // controller CPU and fed into the monitor's flow cache; start()/stop()
  // also start/stop its timeout sweep. Without this call, telemetry vendor
  // messages are counted and discarded.
  void enable_flow_monitor(const FlowMonitorConfig& config);
  [[nodiscard]] FlowMonitor* flow_monitor() { return monitor_.get(); }

 private:
  [[nodiscard]] sim::SimTime cost_us(double nominal_us);

  struct SwitchBinding {
    of::Channel* channel = nullptr;
    std::map<net::MacAddress, std::uint16_t> mac_table;
    verify::InvariantObserver* observer = nullptr;
  };

  // One step of a full-path install: which switch gets the rule, and the
  // (in_port, out_port) pair its exact-match should carry.
  struct PathHop {
    std::uint64_t datapath_id = 0;
    std::uint16_t in_port = 0;
    std::uint16_t out_port = 0;
  };

  // One rule the controller installed somewhere on the fabric, remembered so
  // route repair can find everything that traverses a failed link. flow_mod
  // ADD overwrites an identical (match, priority) entry on a switch, so the
  // triple identifies the rule.
  struct RuleKey {
    std::uint64_t datapath_id = 0;
    of::Match match;
    std::uint16_t priority = 0;
    bool operator==(const RuleKey&) const = default;
  };
  struct RuleKeyHash {
    std::size_t operator()(const RuleKey& k) const noexcept {
      return util::mix64(of::MatchHash{}(k.match) ^ (k.datapath_id << 16 | k.priority));
    }
  };
  struct RuleState {
    std::size_t link = 0;    // the topology link the rule's output port crosses
    std::uint64_t seq = 0;   // install order; a refreshed rule keeps its place
  };

  void on_message(std::uint64_t datapath_id, of::OfMessage& msg);
  void handle_packet_in(std::uint64_t datapath_id, of::PacketIn msg);
  // Data-plane fault repair: resolves the reported port to a topology link,
  // flips it in the router (rebuilding the ECMP tables), and on link-down
  // deletes every recorded rule that rides the link.
  void handle_port_status(std::uint64_t datapath_id, const of::PortStatus& msg);
  void decide_and_respond(std::uint64_t datapath_id, SwitchBinding& binding, of::PacketIn msg,
                          const net::Packet& packet);
  // Topology-routing counterpart of decide_and_respond.
  void route_and_respond(std::uint64_t datapath_id, SwitchBinding& binding, of::PacketIn msg,
                         const net::Packet& packet);
  // The flow_mod + packet_out answer toward the switch that raised the
  // packet_in (shared by the learning and routing applications). `match` is
  // the exact match of the missed packet; configured aggregation widens it.
  void respond_with_actions(std::uint64_t datapath_id, SwitchBinding& binding, of::PacketIn msg,
                            of::Match match, of::ActionList actions);
  // One CPU job that encodes `out` (its cost scales with `data_bytes`) and
  // sends it.
  void submit_packet_out(of::Channel* channel, of::PacketOut out, std::size_t data_bytes);
  // Bookkeeping helpers (all no-ops outside topology mode).
  void record_installed_rule(std::uint64_t datapath_id, const of::Match& match,
                             std::uint16_t priority, const of::ActionList& actions);
  void forget_rule(std::uint64_t datapath_id, const of::Match& match, std::uint16_t priority);
  void forget_switch_rules(std::uint64_t datapath_id);
  // Drops every recorded rule `doomed(key, state)` selects and returns them in
  // install order.
  template <typename Pred>
  std::vector<RuleKey> take_rules(Pred doomed);
  // Encodes one DeleteStrict per doomed rule (one CPU job for the batch) and
  // sends them to their switches, counting counters_.rules_invalidated.
  void send_rule_deletes(std::vector<RuleKey> doomed);
  // Installs rules on hops[idx..] one CPU job at a time, then answers the
  // originating switch (hops[0]) with respond_with_actions. `match` is the
  // flow's exact match; each hop's rule takes that hop's in_port.
  void install_remaining_hops(std::shared_ptr<const std::vector<PathHop>> hops, std::size_t idx,
                              std::uint64_t origin_dpid, of::PacketIn msg, of::Match match);
  [[nodiscard]] verify::InvariantObserver* observer_for(std::uint64_t datapath_id);
  // Matches a stats reply against outstanding_stats_ (seen vs unmatched).
  void account_stats_reply(std::uint64_t datapath_id, std::uint32_t xid);
  void poll_stats();
  [[nodiscard]] SwitchBinding& binding(std::uint64_t datapath_id);
  [[nodiscard]] const SwitchBinding* find_binding(std::uint64_t datapath_id) const;

  sim::Simulator& sim_;
  ControllerConfig config_;
  util::Rng rng_;
  sim::CpuServer cpu_;
  std::map<std::uint64_t, SwitchBinding> switches_;
  topo::Router* router_ = nullptr;
  RouteInstallMode route_mode_ = RouteInstallMode::PerHopReactive;
  std::unordered_map<RuleKey, RuleState, RuleKeyHash> installed_rules_;
  std::uint64_t next_rule_seq_ = 0;
  std::vector<std::size_t> rules_per_link_;  // installed_rules_ per link, grown on demand
  ControllerCounters counters_;
  obs::ControllerInstruments instr_;
  std::unique_ptr<FlowMonitor> monitor_;
  // Stats requests awaiting a reply, keyed (datapath_id, xid). Replies erase
  // their entry (matched) or count as unmatched; each poll cycle expires
  // whatever the previous cycle left behind, so channel faults can never
  // wedge the request/reply accounting.
  std::set<std::pair<std::uint64_t, std::uint32_t>> outstanding_stats_;
  bool polling_ = false;
  sim::EventHandle poll_event_;
  std::optional<of::AggregateStatsReply> last_aggregate_stats_;
  std::optional<of::PortStatsReply> last_port_stats_;
};

}  // namespace sdnbuf::ctrl
