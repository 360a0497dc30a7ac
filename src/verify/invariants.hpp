// Continuous system-wide invariant checking.
//
// `InvariantRegistry` consumes the `InvariantObserver` event stream of a
// running testbed and mechanically asserts the properties the reproduction's
// headline claims rest on:
//
//   conservation      every injected payload is delivered exactly once, or
//                     explicitly accounted (dropped at the switch, expired
//                     from a buffer, lost to controller fault injection or a
//                     channel fault, or still buffered when the run ends);
//                     channel duplication of frame-carrying messages widens
//                     the budget by an explicit per-payload allowance, so
//                     conservation stays closed under injected faults
//   buffer lifecycle  buffer_ids are never reused while live, never released
//                     twice, never leak packets, and a flow-granularity id
//                     stays stable for its 5-tuple while the unit is live
//   table consistency no flow_mod installs a rule for a packet the
//                     controller never saw in a packet_in
//   capture order     control-channel send timestamps are monotonic per
//                     direction
//   xid pairing       every flow_mod/packet_out answers a packet_in the
//                     switch actually sent, and packet_in xids are unique
//   codec round trip  every control message encodes to encoded_size bytes
//                     (the size the channel charges without encoding) and
//                     decodes back to itself; a port name longer than the
//                     wire's 15 characters is the one documented exception
//
// Violations are recorded (never thrown) so a fuzzer can harvest them per
// run and report the offending seed/config; `finalize` runs the end-of-run
// accounting pass.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/flow_key.hpp"
#include "verify/observer.hpp"

namespace sdnbuf::verify {

struct Violation {
  sim::SimTime when;
  std::string invariant;  // short machine-greppable name
  std::string detail;

  [[nodiscard]] std::string to_string() const;
};

// (flow_id, seq_in_flow): the identity of one injected payload.
using PayloadId = std::pair<std::uint64_t, std::uint32_t>;

class InvariantRegistry final : public InvariantObserver {
 public:
  InvariantRegistry() = default;

  // Full-path route installation legitimately sends flow_mods that answer no
  // packet_in on this switch's channel (fresh xids, rules for flows this
  // switch never reported). Setting this relaxes the "unpaired-flow-mod" and
  // "rule-without-packet" checks; everything else still applies.
  void set_allow_proactive_installs(bool allow) { allow_proactive_installs_ = allow; }

  // Under data-plane faults, route repair can legitimately steer a rerouted
  // packet through a switch it already transited (forward, hit a now-dead
  // egress downstream, re-packet-in, new path crosses the same switch).
  // Setting this permits a re-injection as long as every earlier visit was
  // closed out (delivered onward or dropped), and scales the delivery cap
  // with the visit count; conservation in finalize() still has to balance.
  void set_allow_revisits(bool allow) { allow_revisits_ = allow; }

  // --- InvariantObserver ---
  void on_packet_injected(const net::Packet& packet, sim::SimTime now) override;
  void on_packet_delivered(const net::Packet& packet, sim::SimTime now) override;
  void on_packet_dropped(const net::Packet& packet, const char* where, sim::SimTime now) override;
  void on_buffer_store(std::uint32_t buffer_id, const net::Packet& packet, bool new_unit,
                       bool flow_granularity, sim::SimTime now) override;
  void on_buffer_release(std::uint32_t buffer_id, const net::Packet& packet,
                         sim::SimTime now) override;
  void on_buffer_expire(std::uint32_t buffer_id, const net::Packet& packet,
                        sim::SimTime now) override;
  void on_buffer_unit_retired(std::uint32_t buffer_id, sim::SimTime now) override;
  void on_packet_in_sent(std::uint32_t xid, const net::Packet& packet, std::uint32_t buffer_id,
                         sim::SimTime now) override;
  void on_pkt_in_dropped(std::uint32_t xid, std::uint32_t buffer_id, sim::SimTime now) override;
  void on_control_message(bool to_controller, const of::OfMessage& msg, sim::SimTime now) override;
  void on_channel_fault(bool to_controller, const of::OfMessage& msg, of::FaultKind kind,
                        sim::SimTime now) override;
  void on_mmu_admit(std::uint32_t queue, std::uint64_t native, std::uint64_t cells,
                    std::uint64_t queue_cells_after, std::uint64_t pool_cells_after,
                    sim::SimTime now) override;
  void on_mmu_release(std::uint32_t queue, std::uint64_t native, std::uint64_t cells,
                      std::uint64_t queue_cells_after, std::uint64_t pool_cells_after,
                      sim::SimTime now) override;

  // End-of-run accounting. With `expect_all_delivered` every tracked payload
  // must have been delivered; otherwise full accounting (delivered + dropped
  // + expired + lost + still-buffered == injected) is enough. Idempotent in
  // the sense that it only appends violations; call once per run.
  void finalize(bool expect_all_delivered);

  [[nodiscard]] bool ok() const { return total_violations_ == 0; }
  // Recorded violations (capped; `total_violations` keeps the exact count).
  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }
  [[nodiscard]] std::uint64_t total_violations() const { return total_violations_; }
  // Total observer events consumed — a liveness sanity check that the hooks
  // are actually wired (a silent registry checks nothing).
  [[nodiscard]] std::uint64_t events_observed() const { return events_; }

  // Sorted multiset of delivered payload identities, for cross-mechanism
  // equivalence checks (packet- vs flow-granularity must deliver the same
  // payloads).
  [[nodiscard]] std::vector<PayloadId> delivered_payloads() const;

  // Summed per-payload accounting, for cross-validating external ledgers
  // (the obs::FabricObservatory fate ledger checks its totals against these).
  struct AccountTotals {
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t expired = 0;
    std::uint64_t lost = 0;
    std::uint64_t buffered = 0;
    std::uint64_t dup_allowance = 0;
  };
  [[nodiscard]] AccountTotals account_totals() const;

  // Human-readable violation digest (at most `max_lines` violations).
  [[nodiscard]] std::string report(std::size_t max_lines = 20) const;

 private:
  struct PacketAccount {
    std::uint32_t injected = 0;
    std::uint32_t delivered = 0;
    std::uint32_t dropped = 0;
    std::uint32_t expired = 0;
    std::uint32_t lost = 0;      // full-frame message discarded (controller
                                 // fault injection or channel loss/outage)
    std::uint32_t buffered = 0;  // currently held by a buffer manager
    // Channel duplication of a frame-carrying message can legitimately make
    // the payload arrive (or get accounted) up to this many extra times;
    // conservation becomes a window instead of an equality.
    std::uint32_t dup_allowance = 0;
  };

  struct LiveUnit {
    bool flow_granularity = false;
    net::FlowKey key;  // meaningful for flow-granularity units
    // Payload multiset currently inside the unit (counts survive warm-up
    // packets that share the untracked flow id).
    std::map<PayloadId, std::uint32_t> contents;
  };

  struct PacketInRecord {
    std::uint32_t buffer_id = of::kNoBuffer;
    std::uint64_t flow_id = 0;
    std::uint32_t seq_in_flow = 0;
    bool has_meta = false;   // switch-side hook ran (metadata known)
    bool seen_on_wire = false;
    // Channel duplication: this many further wire crossings of the same xid
    // are legitimate, not an xid-reuse violation.
    std::uint32_t allowed_wire_crossings = 0;
  };

  // Shadow ledger for the switch's shared-memory MMU (one MMU per registry:
  // fabric runs attach one registry per switch). Every admit/release event
  // must agree with the ledger's own arithmetic — queue occupancy, pool
  // occupancy (sum over queues), and no release exceeding what was admitted.
  struct MmuQueueLedger {
    std::uint64_t native = 0;
    std::uint64_t cells = 0;
  };

  void violate(sim::SimTime when, std::string invariant, std::string detail);
  // The `codec-roundtrip` check of one observed control message.
  void check_codec(const of::OfMessage& msg, sim::SimTime now);
  [[nodiscard]] static bool tracked(const net::Packet& packet);
  [[nodiscard]] PacketAccount* account_for(const net::Packet& packet);
  void check_mmu_event(std::uint32_t queue, std::uint64_t queue_cells_after,
                       std::uint64_t pool_cells_after, sim::SimTime now);

  std::vector<Violation> violations_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t events_ = 0;
  bool finalized_ = false;
  bool allow_proactive_installs_ = false;
  bool allow_revisits_ = false;

  // Ordered map: deterministic iteration keeps reports and finalize output
  // reproducible across runs.
  std::map<PayloadId, PacketAccount> accounts_;
  std::unordered_map<std::uint32_t, LiveUnit> live_units_;
  std::unordered_map<net::FlowKey, std::uint32_t> flow_to_unit_;
  std::unordered_map<std::uint32_t, PacketInRecord> packet_ins_;
  // What the controller has provably seen: 5-tuple -> (sample packet, port).
  std::unordered_map<net::FlowKey, std::pair<net::Packet, std::uint16_t>> controller_saw_;
  sim::SimTime last_send_[2];  // [0] to_switch, [1] to_controller
  bool have_send_[2] = {false, false};
  // Ordered for deterministic pool sums and reports.
  std::map<std::uint32_t, MmuQueueLedger> mmu_queues_;
  std::uint64_t mmu_pool_cells_ = 0;
};

}  // namespace sdnbuf::verify
