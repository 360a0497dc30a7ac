// In-fabric telemetry plane (DESIGN.md §15).
//
// `FabricObservatory` is the collection point for the two passive telemetry
// streams this layer adds on top of the nullable-observer contract:
//
//   INT harvest     delivered packets carry a bounded per-hop stamp stack
//                   (net::HopStamp, appended by switches whose
//                   telemetry_int_depth is non-zero); the observatory folds
//                   the stacks into a per-(switch, egress port) queue-depth /
//                   residence heatmap and per-flow path latency breakdowns
//   fate ledger     every tracked payload that is not delivered receives one
//                   terminal fate record {where, why, fate class}; the
//                   ledger's totals close exactly against injections
//                   (injected == delivered + fated + stranded) and are
//                   cross-validated against verify::InvariantRegistry's
//                   per-payload accounting by the fuzzer
//
// The ledger is a per-payload state machine, not a bag of counters:
//   - injections are counted once per distinct payload (flow_id, seq);
//   - the first fate wins — later drop reports for the same payload (e.g. a
//     duplicated copy dropped twice) do not double-count;
//   - delivery wins over any fate: when a duplicate copy makes it through
//     after another copy was lost, the recorded fate is retracted, so
//     "fated" always means "terminally undelivered".
//
// Feed the observatory through `FateObserver` (an InvariantObserver adapter
// subscribed to each switch's observer fan-out) plus the testbed's host
// injection and first-copy delivery points; it never hooks channels itself.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "util/flat_map.hpp"
#include "verify/observer.hpp"

namespace sdnbuf::obs {

class MetricsRegistry;

// Terminal fate taxonomy. Every drop-site label the datapath emits maps into
// one of these classes; `Other` is the explicit catch-all (never a silent
// default — the raw `why` string is preserved alongside).
enum class PacketFate : std::uint8_t {
  QueueFull,       // egress/flood/link transmit queue tail drop
  LinkFault,       // data-plane outage, downed port, control-channel loss
  TableMissStorm,  // packet_in discarded controller-side, or dropped by rule
  HopLimit,        // forwarding-loop guard
  BufferExpiry,    // switch buffer unit expired before a rule answered
  FailSecure,      // disconnected switch in fail-secure mode
  Other,
};
inline constexpr std::size_t kFateCount = static_cast<std::size_t>(PacketFate::Other) + 1;

[[nodiscard]] const char* fate_name(PacketFate fate);

// Maps a datapath drop-site label ("egress-queue", "link-down", ...) to its
// fate class.
[[nodiscard]] PacketFate classify_drop_site(const char* where);

class FabricObservatory {
 public:
  FabricObservatory() = default;
  FabricObservatory(const FabricObservatory&) = delete;
  FabricObservatory& operator=(const FabricObservatory&) = delete;

  // --- event feed ---
  // Hot-path contract: each feed call appends one fixed-size record to an
  // event log (amortized array write, no map touches) — the collector work
  // of folding events into the ledger/heatmap/path aggregates happens in
  // flush(), batched, exactly like a real INT collector sitting off the
  // forwarding path. The log preserves global event order, so first-fate-
  // wins / delivery-retraction semantics are identical to eager folding.
  //
  // Endpoint injection of a tracked payload (idempotent per payload identity:
  // retransmissions of the same (flow_id, seq) do not inflate the ledger).
  void on_injected(const net::Packet& packet, sim::SimTime now);
  // First-copy delivery at a host sink. Harvests the INT stamp stack and
  // retracts any previously recorded fate for the payload.
  void on_delivered(const net::Packet& packet, sim::SimTime now);
  // Terminal fate report. `site` names the component ("s3"), `why` the raw
  // drop-site label; first fate per payload wins, deliveries override.
  void on_fate(const net::Packet& packet, PacketFate fate, const std::string& site,
               const char* why, sim::SimTime now);
  // Fate report for a payload known only by identity (controller-side
  // packet_in drops and channel faults, where no net::Packet is in hand).
  void on_fate_id(std::uint64_t flow_id, std::uint32_t seq_in_flow, PacketFate fate,
                  const std::string& site, const char* why, sim::SimTime now);

  // Folds all pending events into the aggregates and empties the log. Every
  // accessor below flushes first, so callers never observe a stale view;
  // run_experiment()/run_fabric_experiment() also flush before returning so
  // the collector cost stays inside the measured run.
  void flush() const;

  // --- ledger totals (exact: injected() == delivered() + fated() + stranded()) ---
  [[nodiscard]] std::uint64_t injected() const {
    flush();
    return injected_;
  }
  [[nodiscard]] std::uint64_t delivered() const {
    flush();
    return delivered_;
  }
  [[nodiscard]] std::uint64_t fate_count(PacketFate fate) const {
    flush();
    return fate_counts_[static_cast<std::size_t>(fate)];
  }
  [[nodiscard]] std::uint64_t fated() const;
  // Injected payloads with neither a delivery nor a fate (still buffered or
  // in flight when the run ended).
  [[nodiscard]] std::uint64_t stranded() const { return injected() - delivered() - fated(); }
  // Fates that were later overridden by a duplicate copy arriving.
  [[nodiscard]] std::uint64_t retracted_fates() const {
    flush();
    return retracted_;
  }
  // Fate reports that arrived for a payload never injected (untracked or
  // foreign) or already resolved — observed but not ledgered.
  [[nodiscard]] std::uint64_t discarded_fate_reports() const {
    flush();
    return discarded_reports_;
  }

  // --- INT harvest ---
  [[nodiscard]] std::uint64_t stamps_harvested() const {
    flush();
    return stamps_;
  }
  [[nodiscard]] std::uint64_t stamped_deliveries() const {
    flush();
    return stamped_deliveries_;
  }

  // One heatmap cell per (switch datapath id, egress port).
  struct HeatCell {
    std::uint64_t samples = 0;
    std::uint32_t queue_depth_max = 0;
    std::uint64_t queue_depth_sum = 0;
    std::int64_t residence_ns_max = 0;
    std::int64_t residence_ns_sum = 0;
    std::uint32_t buffer_units_max = 0;
    // MMU sharing dynamics (zero on stamps from MMU-less switches): shared-
    // pool occupancy and the stamped queue's admission ceiling, which under
    // a dynamic policy shrinks as the pool fills.
    std::uint32_t pool_cells_max = 0;
    std::uint64_t pool_cells_sum = 0;
    std::uint32_t queue_threshold_max = 0;
    std::uint32_t queue_threshold_min = 0;  // over samples with a threshold
  };
  using HeatKey = std::pair<std::uint64_t, std::uint16_t>;  // (switch_id, out_port)
  [[nodiscard]] const std::map<HeatKey, HeatCell>& heatmap() const {
    flush();
    return heat_;
  }

  // Hottest cells by maximum observed queue depth (ties: larger residence
  // sum, then key order). At most `n` entries.
  struct Hotspot {
    std::uint64_t switch_id = 0;
    std::uint16_t port = 0;
    std::uint32_t queue_depth_max = 0;
    double residence_us_mean = 0.0;
  };
  [[nodiscard]] std::vector<Hotspot> hotspots(std::size_t n) const;

  // Per-flow path aggregation from harvested stamp stacks.
  struct FlowPath {
    // One aggregate per hop position: the switch id seen by the first stamped
    // copy (extended in place if a later copy recorded more hops) plus the
    // summed residence time at that position. Paths up to kInlineHops hops
    // live inline — no allocation per flow on the fold path; longer paths
    // (deep fat-trees) spill to the vector.
    struct HopAgg {
      std::uint64_t switch_id = 0;
      std::int64_t residence_ns_sum = 0;
    };
    static constexpr std::size_t kInlineHops = 4;

    bool multipath = false;        // a later copy took a different path
    std::uint32_t hop_count = 0;   // valid entries in hops()
    std::uint64_t packets = 0;     // stamped deliveries aggregated
    std::int64_t e2e_ns_sum = 0;   // created_at -> sink arrival
    std::int64_t e2e_ns_max = 0;

    [[nodiscard]] const HopAgg* hops() const {
      return hop_count <= kInlineHops ? inline_hops : spill.data();
    }
    [[nodiscard]] HopAgg* hops() {
      return hop_count <= kInlineHops ? inline_hops : spill.data();
    }
    void append_hop(std::uint64_t switch_id) {
      if (hop_count < kInlineHops) {
        inline_hops[hop_count] = HopAgg{switch_id, 0};
      } else {
        if (hop_count == kInlineHops) spill.assign(inline_hops, inline_hops + kInlineHops);
        spill.push_back(HopAgg{switch_id, 0});
      }
      ++hop_count;
    }

   private:
    HopAgg inline_hops[kInlineHops] = {};
    std::vector<HopAgg> spill;
  };
  // Unordered on the harvest path; write_paths_csv sorts rows by flow id.
  struct FlowIdHash {
    std::size_t operator()(std::uint64_t k) const {
      return static_cast<std::size_t>(util::mix64(k));
    }
  };
  [[nodiscard]] const util::FlatMap<std::uint64_t, FlowPath, FlowIdHash>& flow_paths() const {
    flush();
    return paths_;
  }

  // --- exports ---
  // switch_id,port,samples,qdepth_max,qdepth_mean,residence_us_max,
  // residence_us_mean,buffer_units_max
  void write_heatmap_csv(std::ostream& out) const;
  // fate,count — one row per fate class, plus delivered/stranded/injected
  // summary rows so the file is self-checking (sum == injected).
  void write_fates_csv(std::ostream& out) const;
  // flow_id,packets,hops,multipath,path,e2e_us_mean,e2e_us_max,hop_us_mean
  void write_paths_csv(std::ostream& out) const;
  // Ledger + harvest summary, machine-checkable by scripts/validate_trace.py.
  void write_summary_json(std::ostream& out) const;

  // Registers ledger/harvest poll gauges ("observatory.*") on the registry.
  void install_metrics(MetricsRegistry& metrics);

  void reset();

 private:
  struct LedgerEntry {
    bool delivered = false;
    bool fated = false;
    PacketFate fate = PacketFate::Other;
    std::uint16_t site = 0;  // interned site index
    const char* why = "";
  };
  using PayloadId = std::pair<std::uint64_t, std::uint32_t>;

  // Flat (flow_id, seq) key: one probe and no per-insert node allocation —
  // the ledger inserts once per simulated packet, so this is the hot path.
  struct PayloadIdHash {
    std::size_t operator()(const PayloadId& id) const {
      return static_cast<std::size_t>(util::mix64(id.first * 0x100000001B3ull + id.second));
    }
  };

  // One hot-path record. `kind` discriminates; delivery events reference a
  // contiguous stamp range in stamp_log_ instead of owning a vector.
  enum class EventKind : std::uint8_t { Inject, Deliver, Fate };
  struct Event {
    std::uint64_t flow_id = 0;
    std::uint32_t seq_in_flow = 0;
    EventKind kind = EventKind::Inject;
    PacketFate fate = PacketFate::Other;
    std::uint16_t site = 0;        // fate: interned site index
    const char* why = "";          // fate: raw drop-site label (static storage)
    std::int64_t e2e_ns = 0;       // deliver: created_at -> sink arrival
    std::uint32_t stamp_off = 0;   // deliver: range into stamp_log_
    std::uint32_t stamp_len = 0;
  };

  void record_fate(PayloadId id, PacketFate fate, std::uint16_t site, const char* why) const;
  void fold_delivered(const Event& e) const;
  [[nodiscard]] std::uint16_t intern_site(const std::string& site);

  // Aggregates are a fold over events_, materialized lazily — mutable so
  // const accessors can flush.
  mutable std::uint64_t injected_ = 0;
  mutable std::uint64_t delivered_ = 0;
  mutable std::uint64_t retracted_ = 0;
  mutable std::uint64_t discarded_reports_ = 0;
  mutable std::uint64_t fate_counts_[kFateCount] = {};
  mutable std::uint64_t stamps_ = 0;
  mutable std::uint64_t stamped_deliveries_ = 0;

  mutable util::FlatMap<PayloadId, LedgerEntry, PayloadIdHash> ledger_;
  std::vector<std::string> sites_;  // interned site labels
  mutable std::map<HeatKey, HeatCell> heat_;
  mutable util::FlatMap<std::uint64_t, FlowPath, FlowIdHash> paths_;

  mutable std::vector<Event> events_;          // pending, in arrival order
  mutable std::vector<net::HopStamp> stamp_log_;  // arena for pending stamps
};

// InvariantObserver adapter: forwards one switch's drop/expiry/loss events
// into the observatory with a site label. Injections, deliveries and
// mid-fabric handoffs are deliberately NOT forwarded — the ledger is
// endpoint-to-endpoint, fed by the testbed's host injection point and its
// first-copy host deliveries exactly once per payload; per-switch handoffs
// would inflate it.
class FateObserver final : public verify::InvariantObserver {
 public:
  FateObserver(FabricObservatory& observatory, std::string site)
      : obs_(observatory), site_(std::move(site)) {}

  void on_packet_dropped(const net::Packet& packet, const char* where, sim::SimTime now) override;
  void on_buffer_expire(std::uint32_t buffer_id, const net::Packet& packet,
                        sim::SimTime now) override;
  void on_packet_in_sent(std::uint32_t xid, const net::Packet& packet, std::uint32_t buffer_id,
                         sim::SimTime now) override;
  void on_pkt_in_dropped(std::uint32_t xid, std::uint32_t buffer_id, sim::SimTime now) override;
  void on_channel_fault(bool to_controller, const of::OfMessage& msg, of::FaultKind kind,
                        sim::SimTime now) override;

 private:
  // packet_in metadata, for attributing controller drops and channel losses
  // of frame-carrying messages to their payload (mirrors the registry's map).
  struct PacketInMeta {
    std::uint64_t flow_id = net::kUntrackedFlow;  // sentinel: slot unused
    std::uint32_t seq_in_flow = 0;
    std::uint32_t buffer_id = 0;
  };

  // xids are a per-switch sequential counter, so a dense vector indexed from
  // the first-seen xid avoids a hash-map node allocation per packet_in.
  [[nodiscard]] const PacketInMeta* find_packet_in(std::uint32_t xid) const;

  FabricObservatory& obs_;
  std::string site_;
  std::uint32_t packet_ins_base_ = 0;
  std::vector<PacketInMeta> packet_ins_;
};

}  // namespace sdnbuf::obs
