#include "verify/invariants.hpp"

#include <algorithm>
#include <sstream>


namespace sdnbuf::verify {

namespace {

// Keep reports bounded even when a broken build violates an invariant per
// packet; the count in report() stays exact.
constexpr std::size_t kMaxRecordedViolations = 256;

std::string payload_str(std::uint64_t flow_id, std::uint32_t seq) {
  return "flow=" + std::to_string(flow_id) + " seq=" + std::to_string(seq);
}

std::string payload_str(const net::Packet& p) { return payload_str(p.flow_id, p.seq_in_flow); }

// `msg` as the codec can carry it: port names cut to the wire's width.
of::OfMessage with_wire_port_names(of::OfMessage msg) {
  const auto cut = [](of::PortDesc& port) {
    if (port.name.size() > of::kPortNameMaxChars) port.name.resize(of::kPortNameMaxChars);
  };
  if (auto* features = std::get_if<of::FeaturesReply>(&msg)) {
    for (of::PortDesc& port : features->ports) cut(port);
  } else if (auto* status = std::get_if<of::PortStatus>(&msg)) {
    cut(status->desc);
  }
  return msg;
}

// Reconstructs the exact 5-tuple a fully-specified match selects; nullopt
// when any of the five fields is wildcarded (aggregated rules).
std::optional<net::FlowKey> exact_key_of(const of::Match& m) {
  if ((m.wildcards & (of::kWildcardNwProto | of::kWildcardTpSrc | of::kWildcardTpDst)) != 0)
    return std::nullopt;
  if (m.nw_src_ignored_bits() != 0 || m.nw_dst_ignored_bits() != 0) return std::nullopt;
  net::FlowKey key;
  key.src_ip = m.nw_src;
  key.dst_ip = m.nw_dst;
  key.src_port = m.tp_src;
  key.dst_port = m.tp_dst;
  key.protocol = m.nw_proto;
  return key;
}

}  // namespace

std::string Violation::to_string() const {
  return "[" + when.to_string() + "] " + invariant + ": " + detail;
}

void InvariantRegistry::violate(sim::SimTime when, std::string invariant, std::string detail) {
  ++total_violations_;
  if (violations_.size() < kMaxRecordedViolations) {
    violations_.push_back(Violation{when, std::move(invariant), std::move(detail)});
  }
}

bool InvariantRegistry::tracked(const net::Packet& packet) {
  return packet.flow_id != net::kUntrackedFlow;
}

InvariantRegistry::PacketAccount* InvariantRegistry::account_for(const net::Packet& packet) {
  if (!tracked(packet)) return nullptr;
  return &accounts_[PayloadId{packet.flow_id, packet.seq_in_flow}];
}

void InvariantRegistry::on_packet_injected(const net::Packet& packet, sim::SimTime now) {
  ++events_;
  auto* account = account_for(packet);
  if (account == nullptr) return;
  if (++account->injected > 1) {
    // A revisit is only legal (and only when opted in) if every prior visit
    // through this switch was closed out before the packet came back.
    const bool closed_revisit =
        allow_revisits_ && account->injected <= account->delivered + account->dropped + 1;
    if (!closed_revisit) {
      violate(now, "double-injection", payload_str(packet) + " injected again");
    }
  }
}

void InvariantRegistry::on_packet_delivered(const net::Packet& packet, sim::SimTime now) {
  ++events_;
  auto* account = account_for(packet);
  if (account == nullptr) return;
  if (account->injected == 0) {
    violate(now, "spurious-delivery", payload_str(packet) + " delivered but never injected");
  }
  // With revisits allowed, each injection earns one delivery; otherwise the
  // packet may leave the switch exactly once (plus any channel-dup slack).
  const std::uint32_t visit_cap = allow_revisits_ ? account->injected : 1;
  if (++account->delivered > visit_cap + account->dup_allowance) {
    violate(now, "duplicate-delivery",
            payload_str(packet) + " delivered " + std::to_string(account->delivered) +
                " times (dup allowance " + std::to_string(account->dup_allowance) + ")");
  }
}

void InvariantRegistry::on_packet_dropped(const net::Packet& packet, const char* where,
                                          sim::SimTime now) {
  ++events_;
  (void)where;
  (void)now;
  if (auto* account = account_for(packet); account != nullptr) ++account->dropped;
}

void InvariantRegistry::on_buffer_store(std::uint32_t buffer_id, const net::Packet& packet,
                                        bool new_unit, bool flow_granularity, sim::SimTime now) {
  ++events_;
  if (buffer_id == of::kNoBuffer) {
    violate(now, "buffer-id-invalid", "store under OFP_NO_BUFFER");
    return;
  }
  auto it = live_units_.find(buffer_id);
  if (new_unit) {
    if (it != live_units_.end()) {
      violate(now, "buffer-id-reuse",
              "id " + std::to_string(buffer_id) + " allocated while still live");
    } else {
      LiveUnit unit;
      unit.flow_granularity = flow_granularity;
      unit.key = packet.flow_key();
      if (flow_granularity) {
        if (const auto prev = flow_to_unit_.find(unit.key); prev != flow_to_unit_.end()) {
          violate(now, "flow-key-two-units",
                  unit.key.to_string() + " maps to ids " + std::to_string(prev->second) + " and " +
                      std::to_string(buffer_id));
        }
        flow_to_unit_[unit.key] = buffer_id;
      }
      it = live_units_.emplace(buffer_id, std::move(unit)).first;
    }
  } else if (it == live_units_.end()) {
    violate(now, "buffer-store-dead-unit",
            "append to unknown id " + std::to_string(buffer_id) + " (" + payload_str(packet) + ")");
  } else if (it->second.flow_granularity && !(it->second.key == packet.flow_key())) {
    // Flow-granularity ids must stay bound to one 5-tuple for their lifetime.
    violate(now, "flow-buffer-id-unstable",
            "id " + std::to_string(buffer_id) + " held " + it->second.key.to_string() +
                " but stored " + packet.flow_key().to_string());
  }
  if (it != live_units_.end()) {
    ++it->second.contents[PayloadId{packet.flow_id, packet.seq_in_flow}];
  }
  if (auto* account = account_for(packet); account != nullptr) ++account->buffered;
}

void InvariantRegistry::on_buffer_release(std::uint32_t buffer_id, const net::Packet& packet,
                                          sim::SimTime now) {
  ++events_;
  const auto it = live_units_.find(buffer_id);
  if (it == live_units_.end()) {
    violate(now, "buffer-double-release",
            "release from dead/unknown id " + std::to_string(buffer_id) + " (" +
                payload_str(packet) + ")");
    return;
  }
  const PayloadId id{packet.flow_id, packet.seq_in_flow};
  const auto stored = it->second.contents.find(id);
  if (stored == it->second.contents.end() || stored->second == 0) {
    violate(now, "buffer-packet-double-release",
            payload_str(packet) + " released more often than stored in id " +
                std::to_string(buffer_id));
  } else if (--stored->second == 0) {
    it->second.contents.erase(stored);
  }
  if (auto* account = account_for(packet); account != nullptr) {
    if (account->buffered == 0) {
      violate(now, "buffer-accounting-underflow", payload_str(packet));
    } else {
      --account->buffered;
    }
  }
}

void InvariantRegistry::on_buffer_expire(std::uint32_t buffer_id, const net::Packet& packet,
                                         sim::SimTime now) {
  ++events_;
  const auto it = live_units_.find(buffer_id);
  if (it == live_units_.end()) {
    violate(now, "buffer-expire-dead-unit",
            "expire from unknown id " + std::to_string(buffer_id));
  } else {
    const PayloadId id{packet.flow_id, packet.seq_in_flow};
    const auto stored = it->second.contents.find(id);
    if (stored == it->second.contents.end() || stored->second == 0) {
      violate(now, "buffer-packet-double-release",
              payload_str(packet) + " expired but not stored in id " + std::to_string(buffer_id));
    } else if (--stored->second == 0) {
      it->second.contents.erase(stored);
    }
  }
  if (auto* account = account_for(packet); account != nullptr) {
    ++account->expired;
    if (account->buffered == 0) {
      violate(now, "buffer-accounting-underflow", payload_str(packet));
    } else {
      --account->buffered;
    }
  }
}

void InvariantRegistry::on_buffer_unit_retired(std::uint32_t buffer_id, sim::SimTime now) {
  ++events_;
  const auto it = live_units_.find(buffer_id);
  if (it == live_units_.end()) {
    violate(now, "buffer-unit-double-retire", "id " + std::to_string(buffer_id));
    return;
  }
  if (!it->second.contents.empty()) {
    // A retired slot must not strand payloads — that would be a silent leak.
    std::size_t leaked = 0;
    for (const auto& [id, count] : it->second.contents) leaked += count;
    violate(now, "buffer-unit-leak",
            "id " + std::to_string(buffer_id) + " retired holding " + std::to_string(leaked) +
                " packet(s)");
  }
  if (it->second.flow_granularity) flow_to_unit_.erase(it->second.key);
  live_units_.erase(it);
}

void InvariantRegistry::on_packet_in_sent(std::uint32_t xid, const net::Packet& packet,
                                          std::uint32_t buffer_id, sim::SimTime now) {
  ++events_;
  auto& record = packet_ins_[xid];
  if (record.has_meta) {
    violate(now, "packet-in-xid-reuse", "xid " + std::to_string(xid) + " used twice");
    return;
  }
  record.buffer_id = buffer_id;
  record.flow_id = packet.flow_id;
  record.seq_in_flow = packet.seq_in_flow;
  record.has_meta = true;
}

void InvariantRegistry::on_pkt_in_dropped(std::uint32_t xid, std::uint32_t buffer_id,
                                          sim::SimTime now) {
  ++events_;
  (void)now;
  if (buffer_id != of::kNoBuffer) return;  // packet still buffered at the switch
  const auto it = packet_ins_.find(xid);
  if (it == packet_ins_.end() || !it->second.has_meta) return;  // switch hook not wired
  if (it->second.flow_id == net::kUntrackedFlow) return;
  // A dropped full-frame packet_in takes its payload with it.
  ++accounts_[PayloadId{it->second.flow_id, it->second.seq_in_flow}].lost;
}

void InvariantRegistry::on_control_message(bool to_controller, const of::OfMessage& msg,
                                           sim::SimTime now) {
  ++events_;
  const int dir = to_controller ? 1 : 0;
  if (have_send_[dir] && now < last_send_[dir]) {
    violate(now, "capture-time-regression",
            std::string(to_controller ? "to-controller" : "to-switch") + " send at " +
                now.to_string() + " after " + last_send_[dir].to_string());
  }
  last_send_[dir] = now;
  have_send_[dir] = true;
  check_codec(msg, now);

  if (to_controller) {
    if (const auto* pi = std::get_if<of::PacketIn>(&msg)) {
      auto& record = packet_ins_[pi->xid];
      if (record.seen_on_wire) {
        if (record.allowed_wire_crossings > 0) {
          --record.allowed_wire_crossings;  // channel duplication, announced
        } else {
          violate(now, "packet-in-xid-reuse",
                  "xid " + std::to_string(pi->xid) + " crossed the channel twice");
        }
      }
      record.seen_on_wire = true;
      if (!record.has_meta) record.buffer_id = pi->buffer_id;
      // Whatever the controller can parse out of the data field is what it
      // provably "saw" — the basis of the table-consistency check.
      if (auto parsed = net::Packet::parse(pi->data, pi->total_len); parsed.has_value()) {
        controller_saw_[parsed->flow_key()] = {*parsed, pi->in_port};
      }
    }
    return;
  }

  const std::uint32_t xid = of::message_xid(msg);
  if (const auto* fm = std::get_if<of::FlowMod>(&msg)) {
    if (allow_proactive_installs_) return;
    // Deletes answer no packet_in by design: route repair invalidates rules
    // over dead links with fresh xids, outside any request/response pair.
    const bool is_delete = fm->command == of::FlowModCommand::Delete ||
                           fm->command == of::FlowModCommand::DeleteStrict;
    if (!is_delete && packet_ins_.count(xid) == 0) {
      violate(now, "unpaired-flow-mod", "xid " + std::to_string(xid) + " answers no packet_in");
    }
    if (fm->command == of::FlowModCommand::Add) {
      bool covered = false;
      if (const auto key = exact_key_of(fm->match); key.has_value()) {
        covered = controller_saw_.count(*key) != 0;
      }
      if (!covered) {
        // Wildcarded (aggregated) rule, or the exact lookup missed: fall back
        // to scanning everything the controller has seen.
        covered = std::any_of(controller_saw_.begin(), controller_saw_.end(),
                              [&fm](const auto& entry) {
                                return fm->match.matches(entry.second.first, entry.second.second);
                              });
      }
      if (!covered) {
        violate(now, "rule-without-packet",
                "flow_mod installs " + fm->match.to_string() +
                    " matching nothing the controller saw");
      }
    }
  } else if (std::holds_alternative<of::PacketOut>(msg)) {
    if (packet_ins_.count(xid) == 0) {
      violate(now, "unpaired-packet-out", "xid " + std::to_string(xid) + " answers no packet_in");
    }
  }
}

void InvariantRegistry::check_codec(const of::OfMessage& msg, sim::SimTime now) {
  // The channel charges encoded_size and hands the typed message over, so
  // this is where the real codec proves both agree with it.
  const std::vector<std::uint8_t> wire = of::encode_message(msg);
  const std::string what = std::string(of::msg_type_name(of::message_type(msg))) + " xid " +
                           std::to_string(of::message_xid(msg));
  if (of::encoded_size(msg) != wire.size()) {
    violate(now, "codec-roundtrip",
            what + ": encoded_size " + std::to_string(of::encoded_size(msg)) +
                " != " + std::to_string(wire.size()) + " encoded bytes");
    return;
  }
  const std::optional<of::OfMessage> decoded = of::decode_message(wire);
  if (!decoded.has_value()) {
    violate(now, "codec-roundtrip", what + ": encoding does not decode");
  } else if (*decoded != msg && *decoded != with_wire_port_names(msg)) {
    violate(now, "codec-roundtrip", what + ": decodes to a different message");
  }
}

void InvariantRegistry::on_channel_fault(bool to_controller, const of::OfMessage& msg,
                                         of::FaultKind kind, sim::SimTime now) {
  ++events_;
  (void)now;
  // A duplicated packet_in legitimately crosses the wire once more; widen
  // the xid-reuse budget before the second crossing is observed.
  if (to_controller && kind == of::FaultKind::Duplicate) {
    if (const auto* pi = std::get_if<of::PacketIn>(&msg)) {
      ++packet_ins_[pi->xid].allowed_wire_crossings;
    }
  }
  // Attribute the downstream payload effect. Only frame-carrying messages
  // take a payload with them: a full-frame packet_in upstream, a
  // data-carrying packet_out downstream. Header-only messages (buffered
  // packet_ins, flow_mods, echoes, hellos) leave the payload at the switch,
  // where the resend/expiry machinery stays accountable for it.
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
  const auto it = packet_ins_.find(xid);
  if (it == packet_ins_.end() || !it->second.has_meta) return;  // switch hook not wired
  if (it->second.flow_id == net::kUntrackedFlow) return;
  auto& account = accounts_[PayloadId{it->second.flow_id, it->second.seq_in_flow}];
  if (kind == of::FaultKind::Duplicate) {
    ++account.dup_allowance;
  } else {
    // Loss or outage took this copy of the frame with it.
    ++account.lost;
  }
}

void InvariantRegistry::check_mmu_event(std::uint32_t queue, std::uint64_t queue_cells_after,
                                        std::uint64_t pool_cells_after, sim::SimTime now) {
  const MmuQueueLedger& ledger = mmu_queues_[queue];
  if (queue_cells_after != ledger.cells) {
    violate(now, "mmu-queue-mismatch",
            "queue " + std::to_string(queue) + " reports " + std::to_string(queue_cells_after) +
                " cells, ledger has " + std::to_string(ledger.cells));
  }
  if (pool_cells_after != mmu_pool_cells_) {
    violate(now, "mmu-pool-mismatch",
            "pool reports " + std::to_string(pool_cells_after) + " cells, ledger sum is " +
                std::to_string(mmu_pool_cells_));
  }
}

void InvariantRegistry::on_mmu_admit(std::uint32_t queue, std::uint64_t native,
                                     std::uint64_t cells, std::uint64_t queue_cells_after,
                                     std::uint64_t pool_cells_after, sim::SimTime now) {
  ++events_;
  MmuQueueLedger& ledger = mmu_queues_[queue];
  ledger.native += native;
  ledger.cells += cells;
  mmu_pool_cells_ += cells;
  check_mmu_event(queue, queue_cells_after, pool_cells_after, now);
}

void InvariantRegistry::on_mmu_release(std::uint32_t queue, std::uint64_t native,
                                       std::uint64_t cells, std::uint64_t queue_cells_after,
                                       std::uint64_t pool_cells_after, sim::SimTime now) {
  ++events_;
  MmuQueueLedger& ledger = mmu_queues_[queue];
  if (native > ledger.native) {
    violate(now, "mmu-release-underflow",
            "queue " + std::to_string(queue) + " releases " + std::to_string(native) +
                " native units, ledger has " + std::to_string(ledger.native));
    ledger.native = 0;
  } else {
    ledger.native -= native;
  }
  if (cells > ledger.cells) {
    violate(now, "mmu-release-underflow",
            "queue " + std::to_string(queue) + " releases " + std::to_string(cells) +
                " cells, ledger has " + std::to_string(ledger.cells));
    mmu_pool_cells_ -= std::min(mmu_pool_cells_, ledger.cells);
    ledger.cells = 0;
  } else {
    ledger.cells -= cells;
    mmu_pool_cells_ -= std::min(mmu_pool_cells_, cells);
  }
  check_mmu_event(queue, queue_cells_after, pool_cells_after, now);
}

void InvariantRegistry::finalize(bool expect_all_delivered) {
  finalized_ = true;
  const sim::SimTime when = std::max(last_send_[0], last_send_[1]);
  for (const auto& [id, account] : accounts_) {
    const std::uint64_t accounted = static_cast<std::uint64_t>(account.delivered) +
                                    account.dropped + account.expired + account.lost +
                                    account.buffered;
    // Channel duplication can make one payload arrive (or be attributed)
    // more than once, so conservation is a window: every injection must be
    // accounted, and nothing beyond the duplication allowance may be.
    if (accounted < account.injected || accounted > account.injected + account.dup_allowance) {
      std::ostringstream os;
      os << payload_str(id.first, id.second) << " injected=" << account.injected
         << " delivered=" << account.delivered << " dropped=" << account.dropped
         << " expired=" << account.expired << " lost=" << account.lost
         << " buffered=" << account.buffered << " dup_allowance=" << account.dup_allowance;
      violate(when, "conservation", os.str());
    } else if (expect_all_delivered && account.delivered < account.injected) {
      violate(when, "undelivered",
              payload_str(id.first, id.second) + " accounted but never delivered");
    }
  }
}

std::vector<PayloadId> InvariantRegistry::delivered_payloads() const {
  std::vector<PayloadId> out;
  for (const auto& [id, account] : accounts_) {
    for (std::uint32_t i = 0; i < account.delivered; ++i) out.push_back(id);
  }
  return out;  // accounts_ is ordered, so this is already sorted
}

InvariantRegistry::AccountTotals InvariantRegistry::account_totals() const {
  AccountTotals t;
  for (const auto& [id, account] : accounts_) {
    t.injected += account.injected;
    t.delivered += account.delivered;
    t.dropped += account.dropped;
    t.expired += account.expired;
    t.lost += account.lost;
    t.buffered += account.buffered;
    t.dup_allowance += account.dup_allowance;
  }
  return t;
}

std::string InvariantRegistry::report(std::size_t max_lines) const {
  if (total_violations_ == 0) {
    return "ok (" + std::to_string(events_) + " events observed" +
           (finalized_ ? "" : ", not finalized") + ")";
  }
  std::ostringstream os;
  os << total_violations_ << " invariant violation(s):\n";
  for (std::size_t i = 0; i < violations_.size() && i < max_lines; ++i) {
    os << "  " << violations_[i].to_string() << '\n';
  }
  if (total_violations_ > max_lines) {
    os << "  ... " << (total_violations_ - max_lines) << " more\n";
  }
  return os.str();
}

}  // namespace sdnbuf::verify
