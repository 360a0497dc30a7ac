#include "obs/fabric_observatory.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ostream>

#include "obs/metrics.hpp"

namespace sdnbuf::obs {

namespace {

bool tracked(std::uint64_t flow_id) { return flow_id != net::kUntrackedFlow; }

// Fixed-point CSV/JSON number: deterministic across platforms, no
// locale/scientific-notation surprises.
std::string fixed3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

const char* fate_name(PacketFate fate) {
  switch (fate) {
    case PacketFate::QueueFull: return "queue-full";
    case PacketFate::LinkFault: return "link-fault";
    case PacketFate::TableMissStorm: return "table-miss-storm";
    case PacketFate::HopLimit: return "hop-limit";
    case PacketFate::BufferExpiry: return "buffer-expiry";
    case PacketFate::FailSecure: return "fail-secure";
    case PacketFate::Other: return "other";
  }
  return "?";
}

PacketFate classify_drop_site(const char* where) {
  if (where == nullptr) return PacketFate::Other;
  // Tail drops at a transmit queue (per-class egress, flood fan-out, or the
  // link's own queue).
  if (std::strcmp(where, "egress-queue") == 0 || std::strcmp(where, "flood-queue") == 0 ||
      std::strcmp(where, "link-queue") == 0) {
    return PacketFate::QueueFull;
  }
  // Data-plane fault plane: dead links, downed ports, crashed switches, and
  // the hold timer giving up on a port that never came back.
  if (std::strcmp(where, "link-down") == 0 || std::strcmp(where, "port-down") == 0 ||
      std::strcmp(where, "port-hold-expired") == 0 || std::strcmp(where, "switch-crashed") == 0) {
    return PacketFate::LinkFault;
  }
  // The controller answered with an explicit drop (empty action list).
  if (std::strcmp(where, "no-actions") == 0) return PacketFate::TableMissStorm;
  if (std::strcmp(where, "hop-limit") == 0) return PacketFate::HopLimit;
  if (std::strcmp(where, "fail-secure") == 0) return PacketFate::FailSecure;
  return PacketFate::Other;  // "unknown-port", "flood-no-ports", future sites
}

void FabricObservatory::on_injected(const net::Packet& packet, sim::SimTime now) {
  (void)now;
  if (!tracked(packet.flow_id)) return;
  Event e;
  e.flow_id = packet.flow_id;
  e.seq_in_flow = packet.seq_in_flow;
  e.kind = EventKind::Inject;
  events_.push_back(e);
}

void FabricObservatory::on_delivered(const net::Packet& packet, sim::SimTime now) {
  // Untracked AND unstamped: nothing to fold later, skip the log entirely.
  if (!tracked(packet.flow_id) && packet.tstack.empty()) return;
  Event e;
  e.flow_id = packet.flow_id;
  e.seq_in_flow = packet.seq_in_flow;
  e.kind = EventKind::Deliver;
  e.e2e_ns = (now - packet.created_at).ns();
  if (!packet.tstack.empty()) {
    e.stamp_off = static_cast<std::uint32_t>(stamp_log_.size());
    e.stamp_len = static_cast<std::uint32_t>(packet.tstack.size());
    stamp_log_.insert(stamp_log_.end(), packet.tstack.begin(), packet.tstack.end());
  }
  events_.push_back(e);
}

void FabricObservatory::on_fate(const net::Packet& packet, PacketFate fate, const std::string& site,
                                const char* why, sim::SimTime now) {
  on_fate_id(packet.flow_id, packet.seq_in_flow, fate, site, why, now);
}

void FabricObservatory::on_fate_id(std::uint64_t flow_id, std::uint32_t seq_in_flow,
                                   PacketFate fate, const std::string& site, const char* why,
                                   sim::SimTime now) {
  (void)now;
  if (!tracked(flow_id)) return;
  Event e;
  e.flow_id = flow_id;
  e.seq_in_flow = seq_in_flow;
  e.kind = EventKind::Fate;
  e.fate = fate;
  e.site = intern_site(site);
  e.why = why;
  events_.push_back(e);
}

void FabricObservatory::flush() const {
  if (events_.empty()) return;
  // Size the tables for the whole batch up front: growth rehashes during the
  // fold would otherwise rewrite the tables log(n) times. Injections bound
  // new ledger entries (deliveries of never-injected payloads are the rare
  // exception and can still grow the table); deliveries bound new flows.
  std::size_t injects = 0;
  std::size_t deliveries = 0;
  for (const Event& e : events_) {
    injects += e.kind == EventKind::Inject ? 1 : 0;
    deliveries += e.kind == EventKind::Deliver ? 1 : 0;
  }
  ledger_.reserve(ledger_.size() + injects);
  paths_.reserve(paths_.size() + deliveries);
  for (const Event& e : events_) {
    switch (e.kind) {
      case EventKind::Inject:
        // try_emplace is a no-op for a retransmit of a known payload.
        if (ledger_.try_emplace(PayloadId{e.flow_id, e.seq_in_flow}).second) ++injected_;
        break;
      case EventKind::Deliver:
        fold_delivered(e);
        break;
      case EventKind::Fate:
        record_fate(PayloadId{e.flow_id, e.seq_in_flow}, e.fate, e.site, e.why);
        break;
    }
  }
  events_.clear();
  stamp_log_.clear();
}

void FabricObservatory::fold_delivered(const Event& e) const {
  if (tracked(e.flow_id)) {
    // Keep the ledger identity exact even if an injection hook was missed:
    // a delivery of an unknown payload counts as injected + delivered.
    auto [entry_ptr, inserted] = ledger_.try_emplace(PayloadId{e.flow_id, e.seq_in_flow});
    if (inserted) ++injected_;
    LedgerEntry& entry = *entry_ptr;
    if (!entry.delivered) {
      entry.delivered = true;
      ++delivered_;
      if (entry.fated) {
        // A duplicate copy made it through after another copy met a fate:
        // delivery wins, the fate is retracted.
        entry.fated = false;
        --fate_counts_[static_cast<std::size_t>(entry.fate)];
        ++retracted_;
      }
    }
  }
  // INT harvest — independent of ledger tracking (stamps are data-driven).
  if (e.stamp_len == 0) return;
  const net::HopStamp* stamps = stamp_log_.data() + e.stamp_off;
  const std::size_t n = e.stamp_len;
  ++stamped_deliveries_;
  stamps_ += n;
  for (std::size_t i = 0; i < n; ++i) {
    const net::HopStamp& s = stamps[i];
    HeatCell& cell = heat_[HeatKey{s.switch_id, s.out_port}];
    ++cell.samples;
    cell.queue_depth_sum += s.queue_depth;
    cell.queue_depth_max = std::max(cell.queue_depth_max, s.queue_depth);
    const std::int64_t res = s.residence().ns();
    cell.residence_ns_sum += res;
    cell.residence_ns_max = std::max(cell.residence_ns_max, res);
    cell.buffer_units_max = std::max(cell.buffer_units_max, s.buffer_units);
    cell.pool_cells_sum += s.pool_cells;
    cell.pool_cells_max = std::max(cell.pool_cells_max, s.pool_cells);
    if (s.queue_threshold != 0) {
      cell.queue_threshold_max = std::max(cell.queue_threshold_max, s.queue_threshold);
      cell.queue_threshold_min = cell.queue_threshold_min == 0
                                     ? s.queue_threshold
                                     : std::min(cell.queue_threshold_min, s.queue_threshold);
    }
  }
  if (tracked(e.flow_id)) {
    FlowPath& fp = paths_[e.flow_id];
    if (fp.packets != 0 && !fp.multipath) {
      bool same = fp.hop_count == n;
      const FlowPath::HopAgg* hops = fp.hops();
      for (std::size_t i = 0; same && i < n; ++i) {
        same = hops[i].switch_id == stamps[i].switch_id;
      }
      if (!same) fp.multipath = true;
    }
    while (fp.hop_count < n) fp.append_hop(stamps[fp.hop_count].switch_id);
    ++fp.packets;
    fp.e2e_ns_sum += e.e2e_ns;
    fp.e2e_ns_max = std::max(fp.e2e_ns_max, e.e2e_ns);
    FlowPath::HopAgg* hops = fp.hops();
    for (std::size_t i = 0; i < n; ++i) {
      hops[i].residence_ns_sum += stamps[i].residence().ns();
    }
  }
}

void FabricObservatory::record_fate(PayloadId id, PacketFate fate, std::uint16_t site,
                                    const char* why) const {
  LedgerEntry* entry_ptr = ledger_.find(id);
  if (entry_ptr == nullptr) {
    ++discarded_reports_;  // payload never injected (warm-up / untracked)
    return;
  }
  LedgerEntry& entry = *entry_ptr;
  if (entry.delivered || entry.fated) {
    // Delivery already won, or an earlier copy's fate stands (first wins).
    ++discarded_reports_;
    return;
  }
  entry.fated = true;
  entry.fate = fate;
  entry.site = site;
  entry.why = why;
  ++fate_counts_[static_cast<std::size_t>(fate)];
}

std::uint64_t FabricObservatory::fated() const {
  flush();
  std::uint64_t n = 0;
  for (const std::uint64_t c : fate_counts_) n += c;
  return n;
}

std::uint16_t FabricObservatory::intern_site(const std::string& site) {
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i] == site) return static_cast<std::uint16_t>(i);
  }
  sites_.push_back(site);
  return static_cast<std::uint16_t>(sites_.size() - 1);
}

std::vector<FabricObservatory::Hotspot> FabricObservatory::hotspots(std::size_t n) const {
  flush();
  struct Ranked {
    HeatKey key;
    const HeatCell* cell;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(heat_.size());
  for (const auto& [key, cell] : heat_) ranked.push_back(Ranked{key, &cell});
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.cell->queue_depth_max != b.cell->queue_depth_max) {
      return a.cell->queue_depth_max > b.cell->queue_depth_max;
    }
    if (a.cell->residence_ns_sum != b.cell->residence_ns_sum) {
      return a.cell->residence_ns_sum > b.cell->residence_ns_sum;
    }
    return a.key < b.key;
  });
  if (ranked.size() > n) ranked.resize(n);
  std::vector<Hotspot> out;
  out.reserve(ranked.size());
  for (const Ranked& r : ranked) {
    Hotspot h;
    h.switch_id = r.key.first;
    h.port = r.key.second;
    h.queue_depth_max = r.cell->queue_depth_max;
    h.residence_us_mean = r.cell->samples == 0 ? 0.0
                                               : static_cast<double>(r.cell->residence_ns_sum) /
                                                     (1e3 * static_cast<double>(r.cell->samples));
    out.push_back(h);
  }
  return out;
}

void FabricObservatory::write_heatmap_csv(std::ostream& out) const {
  flush();
  out << "switch_id,port,samples,qdepth_max,qdepth_mean,residence_us_max,residence_us_mean,"
         "buffer_units_max,pool_cells_max,pool_cells_mean,threshold_min,threshold_max\n";
  for (const auto& [key, cell] : heat_) {
    const double samples = static_cast<double>(cell.samples);
    out << key.first << ',' << key.second << ',' << cell.samples << ',' << cell.queue_depth_max
        << ',' << fixed3(samples == 0 ? 0.0 : static_cast<double>(cell.queue_depth_sum) / samples)
        << ',' << fixed3(static_cast<double>(cell.residence_ns_max) / 1e3) << ','
        << fixed3(samples == 0 ? 0.0
                               : static_cast<double>(cell.residence_ns_sum) / (1e3 * samples))
        << ',' << cell.buffer_units_max << ',' << cell.pool_cells_max << ','
        << fixed3(samples == 0 ? 0.0 : static_cast<double>(cell.pool_cells_sum) / samples) << ','
        << cell.queue_threshold_min << ',' << cell.queue_threshold_max << '\n';
  }
}

void FabricObservatory::write_fates_csv(std::ostream& out) const {
  flush();
  out << "fate,count\n";
  for (std::size_t i = 0; i < kFateCount; ++i) {
    out << fate_name(static_cast<PacketFate>(i)) << ',' << fate_counts_[i] << '\n';
  }
  out << "delivered," << delivered_ << '\n';
  out << "stranded," << stranded() << '\n';
  out << "injected," << injected_ << '\n';
}

void FabricObservatory::write_paths_csv(std::ostream& out) const {
  flush();
  out << "flow_id,packets,hops,multipath,path,e2e_us_mean,e2e_us_max,hop_us_mean\n";
  // paths_ is unordered for harvest speed; sort rows so the CSV is
  // deterministic regardless of insertion/hash order.
  struct Row {
    std::uint64_t flow_id;
    const FlowPath* fp;
  };
  std::vector<Row> rows;
  rows.reserve(paths_.size());
  paths_.for_each(
      [&rows](std::uint64_t flow_id, const FlowPath& fp) { rows.push_back(Row{flow_id, &fp}); });
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.flow_id < b.flow_id; });
  for (const Row& row : rows) {
    const FlowPath& fp = *row.fp;
    const FlowPath::HopAgg* h = fp.hops();
    out << row.flow_id << ',' << fp.packets << ',' << fp.hop_count << ','
        << (fp.multipath ? 1 : 0) << ',';
    for (std::uint32_t i = 0; i < fp.hop_count; ++i) {
      if (i != 0) out << '>';
      out << h[i].switch_id;
    }
    std::int64_t hop_sum = 0;
    for (std::uint32_t i = 0; i < fp.hop_count; ++i) hop_sum += h[i].residence_ns_sum;
    const double pkts = static_cast<double>(fp.packets);
    const double hops = static_cast<double>(fp.hop_count);
    out << ',' << fixed3(fp.packets == 0 ? 0.0 : static_cast<double>(fp.e2e_ns_sum) / (1e3 * pkts))
        << ',' << fixed3(static_cast<double>(fp.e2e_ns_max) / 1e3) << ','
        << fixed3(fp.packets == 0 || fp.hop_count == 0
                      ? 0.0
                      : static_cast<double>(hop_sum) / (1e3 * pkts * hops))
        << '\n';
  }
}

void FabricObservatory::write_summary_json(std::ostream& out) const {
  flush();
  out << "{\n  \"ledger\": {\n";
  out << "    \"injected\": " << injected_ << ",\n";
  out << "    \"delivered\": " << delivered_ << ",\n";
  out << "    \"fated\": " << fated() << ",\n";
  out << "    \"stranded\": " << stranded() << ",\n";
  out << "    \"retracted_fates\": " << retracted_ << ",\n";
  out << "    \"discarded_reports\": " << discarded_reports_ << ",\n";
  out << "    \"fates\": {";
  for (std::size_t i = 0; i < kFateCount; ++i) {
    if (i != 0) out << ", ";
    out << '"' << fate_name(static_cast<PacketFate>(i)) << "\": " << fate_counts_[i];
  }
  out << "}\n  },\n  \"int\": {\n";
  out << "    \"stamps\": " << stamps_ << ",\n";
  out << "    \"stamped_deliveries\": " << stamped_deliveries_ << ",\n";
  out << "    \"heat_cells\": " << heat_.size() << ",\n";
  out << "    \"flows\": " << paths_.size() << "\n  }\n}\n";
}

void FabricObservatory::install_metrics(MetricsRegistry& metrics) {
  metrics.register_poll("observatory.injected",
                        [this] { return static_cast<double>(injected_); });
  metrics.register_poll("observatory.delivered",
                        [this] { return static_cast<double>(delivered_); });
  metrics.register_poll("observatory.fated", [this] { return static_cast<double>(fated()); });
  metrics.register_poll("observatory.stranded",
                        [this] { return static_cast<double>(stranded()); });
  metrics.register_poll("observatory.stamps", [this] { return static_cast<double>(stamps_); });
}

void FabricObservatory::reset() {
  injected_ = 0;
  delivered_ = 0;
  retracted_ = 0;
  discarded_reports_ = 0;
  for (std::uint64_t& c : fate_counts_) c = 0;
  stamps_ = 0;
  stamped_deliveries_ = 0;
  ledger_.clear();
  sites_.clear();
  heat_.clear();
  paths_.clear();
  events_.clear();
  stamp_log_.clear();
}

// --- FateObserver ---

void FateObserver::on_packet_dropped(const net::Packet& packet, const char* where,
                                     sim::SimTime now) {
  obs_.on_fate(packet, classify_drop_site(where), site_, where, now);
}

void FateObserver::on_buffer_expire(std::uint32_t buffer_id, const net::Packet& packet,
                                    sim::SimTime now) {
  (void)buffer_id;
  obs_.on_fate(packet, PacketFate::BufferExpiry, site_, "buffer-expiry", now);
}

const FateObserver::PacketInMeta* FateObserver::find_packet_in(std::uint32_t xid) const {
  if (xid < packet_ins_base_) return nullptr;
  const std::size_t idx = xid - packet_ins_base_;
  if (idx >= packet_ins_.size()) return nullptr;
  const PacketInMeta& meta = packet_ins_[idx];
  return meta.flow_id == net::kUntrackedFlow ? nullptr : &meta;
}

void FateObserver::on_packet_in_sent(std::uint32_t xid, const net::Packet& packet,
                                     std::uint32_t buffer_id, sim::SimTime now) {
  (void)now;
  if (packet.flow_id == net::kUntrackedFlow) return;  // sentinel marks empty slots
  if (packet_ins_.empty()) packet_ins_base_ = xid;
  if (xid < packet_ins_base_) return;  // defensive; switch xids are monotonic
  const std::size_t idx = xid - packet_ins_base_;
  if (idx >= packet_ins_.size()) packet_ins_.resize(idx + 1);
  packet_ins_[idx] = PacketInMeta{packet.flow_id, packet.seq_in_flow, buffer_id};
}

void FateObserver::on_pkt_in_dropped(std::uint32_t xid, std::uint32_t buffer_id,
                                     sim::SimTime now) {
  if (buffer_id != of::kNoBuffer) return;  // payload still buffered at the switch
  const PacketInMeta* meta = find_packet_in(xid);
  if (meta == nullptr) return;
  obs_.on_fate_id(meta->flow_id, meta->seq_in_flow, PacketFate::TableMissStorm, site_,
                  "pkt-in-dropped", now);
}

void FateObserver::on_channel_fault(bool to_controller, const of::OfMessage& msg,
                                    of::FaultKind kind, sim::SimTime now) {
  if (kind == of::FaultKind::Duplicate) return;  // nothing terminal happened
  // Same rule as the invariant registry: only frame-carrying messages take a
  // payload with them. Header-only messages leave it at the switch, where
  // the resend/expiry machinery stays accountable.
  std::uint32_t xid = 0;
  bool carries_frame = false;
  if (to_controller) {
    if (const auto* pi = std::get_if<of::PacketIn>(&msg)) {
      xid = pi->xid;
      carries_frame = pi->buffer_id == of::kNoBuffer;
    }
  } else if (const auto* po = std::get_if<of::PacketOut>(&msg)) {
    xid = po->xid;
    carries_frame = po->buffer_id == of::kNoBuffer && !po->data.empty();
  }
  if (!carries_frame) return;
  const PacketInMeta* meta = find_packet_in(xid);
  if (meta == nullptr) return;
  obs_.on_fate_id(meta->flow_id, meta->seq_in_flow, PacketFate::LinkFault, site_,
                  kind == of::FaultKind::Outage ? "channel-outage" : "channel-loss", now);
}

}  // namespace sdnbuf::obs
