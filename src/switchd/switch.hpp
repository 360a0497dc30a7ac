// The software OpenFlow switch (the testbed's Open vSwitch stand-in).
//
// Architecture mirrors a real software switch:
//
//   ingress -> ASIC match stage -> hit: egress at line rate
//                                \-> miss: [buffer] -> bus -> switch CPU ->
//                                    packet_in on the control channel
//   control channel -> switch CPU -> flow_mod install / packet_out execute
//                                    -> buffered-packet release -> egress
//
// Resources that the paper identifies as contended are explicit queueing
// stations: the multi-core switch CPU and the ASIC<->CPU bus (full-frame
// punts in no-buffer mode saturate the bus at high rates; header-only punts
// with buffering do not — the root cause of Figs. 5-7).
//
// The buffer behaviour is selected by `BufferMode`:
//   NoBuffer          entire frame in every packet_in (buffer disabled)
//   PacketGranularity OpenFlow default: one buffer_id per miss-match packet
//   FlowGranularity   the paper's proposal: one buffer_id and one packet_in
//                     per flow (Algorithms 1-2), with timeout re-request
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "metrics/delay_recorder.hpp"
#include "net/link.hpp"
#include "obs/instruments.hpp"
#include "net/packet.hpp"
#include "openflow/channel.hpp"
#include "sim/server.hpp"
#include "sim/simulator.hpp"
#include "switchd/cost_model.hpp"
#include "switchd/egress_scheduler.hpp"
#include "switchd/flow_buffer.hpp"
#include "switchd/flow_table.hpp"
#include "switchd/mmu/mmu.hpp"
#include "switchd/packet_buffer.hpp"
#include "util/rng.hpp"
#include "verify/observer.hpp"

namespace sdnbuf::sw {

enum class BufferMode {
  NoBuffer,
  PacketGranularity,
  FlowGranularity,
};

[[nodiscard]] const char* buffer_mode_name(BufferMode mode);

// What the switch does with miss-match packets while the controller is lost
// (OpenFlow connection-interruption modes).
enum class ConnectionFailMode {
  // Drop packets destined to the controller; buffered units are expired at
  // degradation (nothing will ever release them while the controller is
  // gone and new misses are not buffered).
  FailSecure,
  // Act as a standalone (learning) switch: forward miss-match packets
  // without the controller — modeled as flooding, the L2 fallback.
  FailStandalone,
};

[[nodiscard]] const char* fail_mode_name(ConnectionFailMode mode);

// Fate of a packet whose egress port is down (data-plane fault plane,
// DESIGN.md §13). Applies wherever a forwarding decision lands on a dead
// port: installed-rule hits, packet_out releases, and buffered-unit
// releases alike.
enum class PortDownPolicy {
  // Treat the packet as a fresh table miss: re-buffer and re-ask the
  // controller, which (after the port_status) answers with a repaired
  // route. This is what converts a link failure into a re-miss storm whose
  // size depends on the buffer mechanism.
  RePktIn,
  // Drop with accounting ("port-down"), the hardware-switch default.
  Drop,
  // Park the packet beside the port and replay it in order when the port
  // comes back; parked packets expire on the housekeeping sweep like
  // buffered units do.
  HoldUntilRecovery,
};

[[nodiscard]] const char* port_down_policy_name(PortDownPolicy policy);

// Control-connection liveness state.
enum class ConnectionState {
  Connected,     // normal operation
  Degraded,      // echo miss threshold hit; fail_mode governs the datapath
  Reconnecting,  // liveness returned; hello re-handshake in flight
};

struct SwitchConfig {
  std::string name = "ovs";
  std::uint64_t datapath_id = 0x0000000000000001ULL;
  unsigned cpu_cores = 4;
  std::size_t flow_table_capacity = 4096;
  EvictionPolicy eviction_policy = EvictionPolicy::Lru;
  BufferMode buffer_mode = BufferMode::NoBuffer;
  std::size_t buffer_capacity = 256;
  std::uint16_t miss_send_len = of::kDefaultMissSendLen;
  // Emit flow_removed for expired/evicted rules even without the per-rule
  // flag (Floodlight sets the flag; we also allow forcing it).
  bool send_flow_removed = false;
  sim::SimTime sweep_interval = sim::SimTime::milliseconds(100);
  // OpenFlow-style liveness: every `echo_interval` the switch probes the
  // controller with an echo_request; after `echo_miss_threshold` unanswered
  // probes in a row it declares the controller lost and degrades into
  // `fail_mode`. zero interval disables liveness (the connection is assumed
  // healthy forever, as before the fault plane existed).
  sim::SimTime echo_interval = sim::SimTime::zero();
  unsigned echo_miss_threshold = 3;
  ConnectionFailMode fail_mode = ConnectionFailMode::FailSecure;
  // What happens to packets whose egress port is down (never triggers
  // without a fault schedule, so the default is inert in fault-free runs).
  PortDownPolicy port_down_policy = PortDownPolicy::RePktIn;
  // Per-packet hop budget (IP TTL analogue). Asynchronous route repair can
  // leave a transient forwarding loop between two rule generations; the
  // budget bounds how long a frame can circulate. Far above any real fabric
  // diameter, so it never fires on a loop-free path.
  unsigned max_hops = 64;
  CostModel costs;
  // Egress scheduling for every port (§VII future work). The default Fifo
  // policy is behaviourally identical to sending straight to the link.
  EgressSchedulerConfig egress;
  // --- In-fabric telemetry (DESIGN.md §15); both knobs default off, and an
  // off switch executes a bit-identical instruction stream. ---
  // INT-style per-hop stamping: append a net::HopStamp at egress while the
  // packet's stack holds fewer than this many entries (0 = no stamping).
  unsigned telemetry_int_depth = 0;
  // NetFlow-style 1-in-N deterministic packet sampling at ingress; sampled
  // records travel to the controller as of::FlowSample messages (0 = off).
  std::uint32_t telemetry_sample_period = 0;
  // Decorrelates the sampling hash across switches (same role as a sFlow
  // agent's seed); sampling stays deterministic for a fixed salt.
  std::uint64_t telemetry_sample_salt = 0;
  // Shared-memory MMU (DESIGN.md §16): one pool arbitrated across the
  // OpenFlow buffer and every egress class queue. Disabled by default — no
  // MMU is constructed and every consumer keeps its legacy flat cap, so the
  // datapath executes a bit-identical instruction stream.
  mmu::MmuConfig mmu;
};

struct SwitchCounters {
  std::uint64_t packets_received = 0;
  std::uint64_t packets_forwarded = 0;
  std::uint64_t packets_flooded = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t table_hits = 0;
  std::uint64_t table_misses = 0;
  std::uint64_t pkt_ins_sent = 0;
  std::uint64_t full_frame_pkt_ins = 0;  // buffer disabled or exhausted
  std::uint64_t resend_pkt_ins = 0;      // Algorithm 1, line 13
  std::uint64_t flow_mods_handled = 0;
  std::uint64_t pkt_outs_handled = 0;
  std::uint64_t unknown_buffer_releases = 0;
  std::uint64_t buffered_packets_expired = 0;
  std::uint64_t buffer_units_expired = 0;  // units (not packets) those expiries retired
  std::uint64_t flow_removed_sent = 0;
  std::uint64_t stats_requests_handled = 0;
  // Liveness / degradation / recovery.
  std::uint64_t echo_requests_sent = 0;
  std::uint64_t echo_replies_received = 0;
  std::uint64_t connection_losses = 0;     // Connected -> Degraded transitions
  std::uint64_t reconnects = 0;            // hello re-handshakes completed
  std::uint64_t failsecure_dropped = 0;    // misses dropped while degraded
  std::uint64_t standalone_forwarded = 0;  // misses flooded while degraded
  std::uint64_t resend_cap_expired = 0;    // flow units expired at max_flow_resends
  std::uint64_t reconcile_rerequests = 0;  // flow units re-requested after reconnect
  std::uint64_t reconcile_expired = 0;     // packet units expired as orphans after reconnect
  // Data-plane fault plane.
  std::uint64_t port_status_sent = 0;      // port up/down notifications emitted
  std::uint64_t port_down_repktin = 0;     // packets re-missed off a dead port
  std::uint64_t port_down_dropped = 0;     // packets dropped at a dead port
  std::uint64_t port_down_held = 0;        // packets parked at a dead port
  std::uint64_t port_held_flushed = 0;     // parked packets replayed on recovery
  std::uint64_t port_held_expired = 0;     // parked packets expired by the sweep
  std::uint64_t link_dropped = 0;          // frames lost at the link after dequeue
  std::uint64_t crashes = 0;               // crash() calls
  std::uint64_t crash_dropped = 0;         // ingress frames dropped while crashed
  std::uint64_t hop_limit_dropped = 0;     // frames that exhausted max_hops
  // In-fabric telemetry.
  std::uint64_t flow_samples_sent = 0;     // of::FlowSample records emitted
  std::uint64_t int_stamps_applied = 0;    // HopStamps appended at egress
};

class Switch {
 public:
  using DeliverFn = std::function<void(const net::Packet&)>;

  Switch(sim::Simulator& sim, SwitchConfig config, std::uint64_t rng_seed);

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  // Attaches an egress link for a port; `deliver` fires at the far end of
  // the link with the forwarded packet.
  void attach_port(std::uint16_t port_no, net::Link& egress, DeliverFn deliver);

  // Binds the control channel (the switch side of it) and performs the
  // OpenFlow handshake (hello + features exchange happens lazily when the
  // controller asks).
  void connect(of::Channel& channel);

  // Starts housekeeping (flow-table and buffer expiry sweeps).
  void start();
  // Cancels housekeeping so Simulator::run() can drain.
  void stop();

  // Ingress entry point: a packet arrived on `in_port`.
  void receive(std::uint16_t in_port, net::Packet packet);

  // Data-plane fault plane (DESIGN.md §13). Marks a port up/down — driven
  // by the platform at the boundaries of the attached link's outage
  // windows. Going down emits of::PortStatus{Delete}; coming back emits
  // PortStatus{Add} and replays packets parked by HoldUntilRecovery.
  void set_port_state(std::uint16_t port_no, bool up);
  [[nodiscard]] bool port_up(std::uint16_t port_no) const;

  // Switch crash: all volatile state is lost — flow table, buffered units
  // (expired with accounting), parked packets, pending packet_in
  // bookkeeping — and every ingress frame is dropped until restart().
  void crash();
  // Restart after a crash: rejoins the controller through the hello
  // re-handshake machinery (the controller purges its per-datapath
  // bookkeeping when the hello arrives).
  void restart();
  [[nodiscard]] bool crashed() const { return crashed_; }

  // Metrics sink (owned by the experiment); may be null.
  void set_delay_recorder(metrics::DelayRecorder* recorder) { recorder_ = recorder; }

  // Invariant-checking observer (owned by the caller; may be null). Also
  // propagated to the buffer managers; install before traffic starts.
  void set_invariant_observer(verify::InvariantObserver* observer);

  // Metrics instruments (pointers owned by a MetricsRegistry; default-null
  // bundle = disabled). The buffer bundle is forwarded to whichever buffer
  // manager the mode instantiated.
  void set_instruments(const obs::SwitchInstruments& instruments) { instr_ = instruments; }
  void set_buffer_instruments(const obs::BufferInstruments& instruments);

  [[nodiscard]] sim::CpuServer& cpu() { return cpu_; }
  [[nodiscard]] sim::CpuServer& bus() { return bus_; }
  [[nodiscard]] FlowTable& flow_table() { return table_; }
  [[nodiscard]] PacketBufferManager* packet_buffer() { return packet_buffer_.get(); }
  [[nodiscard]] FlowBufferManager* flow_buffer() { return flow_buffer_.get(); }
  [[nodiscard]] const SwitchCounters& counters() const { return counters_; }
  [[nodiscard]] const SwitchConfig& config() const { return config_; }

  [[nodiscard]] ConnectionState connection_state() const { return conn_state_; }
  // When the last hello re-handshake completed (zero if never degraded).
  [[nodiscard]] sim::SimTime last_restored_at() const { return last_restored_at_; }

  // Units currently charged against the buffer, 0 in NoBuffer mode.
  [[nodiscard]] std::size_t buffer_units_in_use() const;
  [[nodiscard]] const metrics::OccupancyTracker* buffer_occupancy() const;

  // Per-port egress scheduler (valid after attach_port).
  [[nodiscard]] EgressScheduler& port_scheduler(std::uint16_t port_no);

  // The shared-memory MMU, null unless config.mmu.enabled.
  [[nodiscard]] mmu::SharedMemoryMmu* mmu() { return mmu_.get(); }
  [[nodiscard]] const mmu::SharedMemoryMmu* mmu() const { return mmu_.get(); }

  // Clears measurement statistics between experiment repetitions: message /
  // drop counters, per-port egress high-water marks, and the MMU's
  // admit/reject totals. Pure counter writes — never perturbs the run.
  void reset_counters();

 private:
  struct HeldPacket {
    net::Packet packet;
    std::uint16_t in_port = 0;
    sim::SimTime held_at;
  };

  struct Port {
    net::Link* egress = nullptr;
    DeliverFn deliver;
    std::unique_ptr<EgressScheduler> scheduler;
    bool up = true;
    // Packets parked by PortDownPolicy::HoldUntilRecovery.
    std::deque<HeldPacket> held;
    // Interface counters, reported via OFPST_PORT.
    std::uint64_t rx_packets = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t tx_dropped = 0;
  };

  // Draws a jittered service time from a nominal microsecond cost.
  [[nodiscard]] sim::SimTime cost_us(double nominal_us);
  [[nodiscard]] sim::SimTime bus_time(std::size_t bytes) const;

  void handle_miss(std::uint16_t in_port, net::Packet packet);
  void miss_no_buffer(std::uint16_t in_port, net::Packet packet, bool buffer_exhausted);
  void miss_packet_granularity(std::uint16_t in_port, net::Packet packet);
  void miss_flow_granularity(std::uint16_t in_port, net::Packet packet);

  void send_packet_in(const net::Packet& packet, std::uint16_t in_port, std::uint32_t buffer_id,
                      std::size_t data_bytes, of::PacketInReason reason);
  void schedule_flow_resend_check(std::uint32_t buffer_id, std::uint16_t in_port);
  // Backoff schedule: timeout * backoff^resends, capped.
  [[nodiscard]] sim::SimTime resend_timeout_for(unsigned resends) const;

  // Connection lifecycle (liveness probe tick, degradation, hello
  // re-handshake, stranded-buffer reconciliation).
  void echo_tick();
  void enter_degraded();
  void begin_reconnect();
  void complete_reconnect();
  void handle_miss_degraded(std::uint16_t in_port, const net::Packet& packet);

  void on_control_message(of::OfMessage& msg);
  void handle_flow_mod(of::FlowMod msg);
  void handle_packet_out(of::PacketOut msg);
  void report_unknown_buffer(const of::PacketOut& msg);
  void handle_flow_stats(const of::FlowStatsRequest& msg);
  void handle_aggregate_stats(const of::AggregateStatsRequest& msg);
  void handle_port_stats(const of::PortStatsRequest& msg);
  void execute_actions(const net::Packet& packet, const of::ActionList& actions,
                       std::uint16_t in_port);
  void egress(const net::Packet& packet, std::uint16_t out_port, std::uint16_t in_port);
  // Tail of egress(): scheduler enqueue + forwarding accounting.
  void enqueue_egress(Port& port, const net::Packet& packet);
  void flood(const net::Packet& packet, std::uint16_t in_port);
  // Deterministic 1-in-N sampling decision (telemetry_sample_period != 0).
  [[nodiscard]] bool sample_hit(const net::Packet& packet) const;
  // Emits an of::FlowSample for `packet` if it falls in the sample.
  void maybe_sample(std::uint16_t in_port, const net::Packet& packet);
  // Fate policy entry point for a packet whose egress port is down.
  void handle_port_down_packet(Port& port, const net::Packet& packet, std::uint16_t in_port);
  void send_port_status(std::uint16_t port_no, const Port& port, bool up);
  [[nodiscard]] of::PortDesc port_desc(std::uint16_t port_no, const Port& port) const;

  void sweep();
  void emit_flow_removed(const RemovedEntry& removed);


  sim::Simulator& sim_;
  SwitchConfig config_;
  util::Rng rng_;
  sim::CpuServer cpu_;
  sim::CpuServer bus_;
  FlowTable table_;
  std::unique_ptr<mmu::SharedMemoryMmu> mmu_;
  std::unique_ptr<PacketBufferManager> packet_buffer_;
  std::unique_ptr<FlowBufferManager> flow_buffer_;
  std::unordered_map<std::uint16_t, Port> ports_;
  of::Channel* channel_ = nullptr;
  metrics::DelayRecorder* recorder_ = nullptr;
  verify::InvariantObserver* observer_ = nullptr;
  obs::SwitchInstruments instr_;
  SwitchCounters counters_;
  // packet_in xid -> original packet metadata, for attributing responses and
  // restoring simulator metadata on no-buffer packet_out frames.
  struct PendingRequest {
    std::uint64_t flow_id = metrics::kUntrackedFlow;
    std::uint32_t seq_in_flow = 0;
    sim::SimTime created_at;
    // INT state survives the controller round trip: no-buffer packet_out
    // frames are re-parsed from wire bytes, which carry no stamps.
    std::vector<net::HopStamp> tstack;
    sim::SimTime hop_arrived_at;
  };

  [[nodiscard]] std::uint64_t flow_id_for_xid(std::uint32_t xid) const;
  [[nodiscard]] const PendingRequest* pending_for_xid(std::uint32_t xid) const;

  std::unordered_map<std::uint32_t, PendingRequest> pending_requests_;
  sim::EventHandle sweep_event_;
  sim::EventHandle echo_event_;
  // Connection lifecycle state.
  ConnectionState conn_state_ = ConnectionState::Connected;
  unsigned echo_misses_ = 0;
  std::optional<std::uint32_t> outstanding_echo_xid_;
  std::optional<std::uint32_t> pending_hello_xid_;
  sim::SimTime last_restored_at_;
  // Cleared by stop(): silences housekeeping and the flow-granularity
  // resend timers so a drained simulator can terminate.
  bool running_ = true;
  // Set by crash(), cleared by restart(); gates the whole datapath.
  bool crashed_ = false;
};

}  // namespace sdnbuf::sw
