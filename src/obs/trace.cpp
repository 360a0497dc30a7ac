#include "obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "openflow/constants.hpp"
#include "util/rng.hpp"

namespace sdnbuf::obs {

namespace {

void append_json_string(std::string& out, const char* s) {
  out += '"';
  for (; *s != '\0'; ++s) {
    switch (*s) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += *s; break;
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // Integral fast path: trace args are almost always flow ids, sequence
  // numbers, byte counts — snprintf("%.17g") per number would dominate the
  // per-event render cost.
  const long long i = static_cast<long long>(v);
  if (v == static_cast<double>(i)) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, i);
    out.append(buf, res.ptr);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

// Timestamps are integer nanoseconds rendered as microseconds (the trace
// format's unit) in fixed point — exact, and much cheaper than double
// formatting.
void append_timestamp_us(std::string& out, sim::SimTime ts) {
  const long long ns = ts.ns();
  char buf[32];
  const auto whole = std::to_chars(buf, buf + sizeof buf, ns / 1000);
  char* p = whole.ptr;
  const long long frac = ns % 1000;
  *p++ = '.';
  *p++ = static_cast<char>('0' + frac / 100);
  *p++ = static_cast<char>('0' + frac / 10 % 10);
  *p++ = static_cast<char>('0' + frac % 10);
  out.append(buf, p);
}

using util::mix64;  // the repo-wide deterministic sampling mixer

}  // namespace

void TraceWriter::push(char phase, const char* cat, const char* name, std::uint64_t id,
                       bool has_id, sim::SimTime ts, std::initializer_list<TraceArg> args) {
  std::string e;
  e.reserve(96);
  e += "{\"ph\":\"";
  e += phase;
  e += "\",\"cat\":";
  append_json_string(e, cat);
  e += ",\"name\":";
  append_json_string(e, name);
  e += ",\"pid\":1,\"tid\":1,\"ts\":";
  append_timestamp_us(e, ts);
  if (has_id) {
    // Chrome trace ids are strings; hex keeps them compact.
    char buf[24];
    std::snprintf(buf, sizeof buf, "\"0x%llx\"", static_cast<unsigned long long>(id));
    e += ",\"id\":";
    e += buf;
  }
  if (phase == 'i') e += ",\"s\":\"g\"";
  if (args.size() != 0) {
    e += ",\"args\":{";
    bool first = true;
    for (const TraceArg& a : args) {
      if (!first) e += ',';
      first = false;
      append_json_string(e, a.key);
      e += ':';
      if (a.str != nullptr) {
        append_json_string(e, a.str);
      } else {
        append_number(e, a.num);
      }
    }
    e += '}';
  }
  e += '}';
  events_.push_back(std::move(e));
}

void TraceWriter::begin_span(const char* cat, const char* name, std::uint64_t id, sim::SimTime ts,
                             std::initializer_list<TraceArg> args) {
  push('b', cat, name, id, true, ts, args);
  ++begins_;
}

void TraceWriter::end_span(const char* cat, const char* name, std::uint64_t id, sim::SimTime ts,
                           std::initializer_list<TraceArg> args) {
  push('e', cat, name, id, true, ts, args);
  ++ends_;
}

void TraceWriter::instant(const char* cat, const char* name, sim::SimTime ts,
                          std::initializer_list<TraceArg> args) {
  push('i', cat, name, 0, false, ts, args);
}

void TraceWriter::set_meta(const std::string& key, const std::string& value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  meta_.emplace_back(key, value);
}

void TraceWriter::write_json(std::ostream& out) const {
  out << "{\n\"displayTimeUnit\": \"ms\",\n\"meta\": {";
  bool first = true;
  for (const auto& [k, v] : meta_) {
    out << (first ? "\n  " : ",\n  ");
    std::string e;
    append_json_string(e, k.c_str());
    e += ": ";
    append_json_string(e, v.c_str());
    out << e;
    first = false;
  }
  out << (first ? "},\n" : "\n},\n");
  out << "\"traceEvents\": [";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << events_[i];
  }
  out << (events_.empty() ? "]\n}\n" : "\n]\n}\n");
}

void TraceWriter::reset() {
  events_.clear();
  meta_.clear();
  begins_ = 0;
  ends_ = 0;
}

FlowTracer::FlowTracer(TraceWriter& writer, std::uint64_t seed, std::uint32_t sample_period)
    : writer_(writer), seed_(seed), period_(sample_period == 0 ? 1 : sample_period) {}

bool FlowTracer::sampled(std::uint64_t flow_id) const {
  if (flow_id == net::kUntrackedFlow) return false;
  if (period_ == 1) return true;
  return mix64(flow_id ^ seed_) % period_ == 0;
}

std::uint64_t FlowTracer::packet_span_id(const net::Packet& packet) {
  // Unique per (flow, seq): flows are dense small indices, seqs are per-flow.
  return (packet.flow_id << 20) | (packet.seq_in_flow & 0xfffffu);
}

void FlowTracer::on_packet_injected(const net::Packet& packet, sim::SimTime now) {
  if (!sampled(packet.flow_id)) return;
  const std::uint64_t id = packet_span_id(packet);
  if (!open_packets_.emplace(id, packet.flow_id).second) return;  // retransmit guard
  writer_.begin_span("packet", "transit", id, now,
                     {TraceArg{"flow", double(packet.flow_id)},
                      TraceArg{"seq", double(packet.seq_in_flow)},
                      TraceArg{"bytes", double(packet.frame_size)}});
}

void FlowTracer::on_packet_delivered(const net::Packet& packet, sim::SimTime now) {
  if (!sampled(packet.flow_id)) return;
  const std::uint64_t id = packet_span_id(packet);
  if (open_packets_.erase(id) == 0) return;
  writer_.end_span("packet", "transit", id, now, {TraceArg{"outcome", "delivered"}});
}

void FlowTracer::on_packet_dropped(const net::Packet& packet, const char* where, sim::SimTime now) {
  if (!sampled(packet.flow_id)) return;
  writer_.instant("packet", "drop", now,
                  {TraceArg{"flow", double(packet.flow_id)}, TraceArg{"where", where}});
  const std::uint64_t id = packet_span_id(packet);
  if (open_packets_.erase(id) == 0) return;
  writer_.end_span("packet", "transit", id, now,
                   {TraceArg{"outcome", "dropped"}, TraceArg{"where", where}});
}

void FlowTracer::on_buffer_store(std::uint32_t buffer_id, const net::Packet& packet, bool new_unit,
                                 bool flow_granularity, sim::SimTime now) {
  if (!sampled(packet.flow_id)) return;
  if (new_unit) {
    const std::uint64_t span = next_buffer_span_++;
    open_buffers_[buffer_id] = span;
    writer_.begin_span("buffer", "unit_resident", span, now,
                       {TraceArg{"buffer_id", double(buffer_id)},
                        TraceArg{"flow", double(packet.flow_id)},
                        TraceArg{"granularity", flow_granularity ? "flow" : "packet"}});
  } else if (open_buffers_.count(buffer_id) != 0) {
    // Another packet of the flow joined an existing unit (flow granularity).
    writer_.instant("buffer", "store", now,
                    {TraceArg{"buffer_id", double(buffer_id)},
                     TraceArg{"seq", double(packet.seq_in_flow)}});
  }
}

void FlowTracer::on_buffer_release(std::uint32_t buffer_id, const net::Packet& packet,
                                   sim::SimTime now) {
  if (open_buffers_.count(buffer_id) == 0) return;
  writer_.instant("buffer", "release", now,
                  {TraceArg{"buffer_id", double(buffer_id)},
                   TraceArg{"seq", double(packet.seq_in_flow)}});
}

void FlowTracer::on_buffer_expire(std::uint32_t buffer_id, const net::Packet& packet,
                                  sim::SimTime now) {
  if (open_buffers_.count(buffer_id) == 0) return;
  writer_.instant("buffer", "expire", now,
                  {TraceArg{"buffer_id", double(buffer_id)},
                   TraceArg{"flow", double(packet.flow_id)}});
}

void FlowTracer::on_buffer_unit_retired(std::uint32_t buffer_id, sim::SimTime now) {
  auto it = open_buffers_.find(buffer_id);
  if (it == open_buffers_.end()) return;
  writer_.end_span("buffer", "unit_resident", it->second, now);
  open_buffers_.erase(it);
}

void FlowTracer::on_packet_in_sent(std::uint32_t xid, const net::Packet& packet,
                                   std::uint32_t buffer_id, sim::SimTime now) {
  if (!sampled(packet.flow_id)) return;
  if (!open_control_.emplace(xid, packet.flow_id).second) return;
  ++control_opened_;
  writer_.begin_span("control", "pktin_rtt", xid, now,
                     {TraceArg{"flow", double(packet.flow_id)},
                      TraceArg{"buffer_id", buffer_id == of::kNoBuffer ? -1.0 : double(buffer_id)}});
}

void FlowTracer::end_control_span(std::uint32_t xid, sim::SimTime now, const char* outcome) {
  auto it = open_control_.find(xid);
  if (it == open_control_.end()) return;
  writer_.end_span("control", "pktin_rtt", xid, now, {TraceArg{"outcome", outcome}});
  open_control_.erase(it);
}

void FlowTracer::on_pkt_in_dropped(std::uint32_t xid, std::uint32_t buffer_id, sim::SimTime now) {
  if (open_control_.count(xid) == 0) return;
  writer_.instant("control", "pktin_dropped", now,
                  {TraceArg{"buffer_id", buffer_id == of::kNoBuffer ? -1.0 : double(buffer_id)}});
  end_control_span(xid, now, "ctl_dropped");
}

void FlowTracer::on_control_message(bool to_controller, const of::OfMessage& msg,
                                    sim::SimTime now) {
  if (to_controller || open_control_.empty()) return;
  // A flow_mod / packet_out answering a traced packet_in closes its span;
  // the pair shares one xid and the first responder wins.
  const of::MsgType type = of::message_type(msg);
  if (type != of::MsgType::FlowMod && type != of::MsgType::PacketOut) return;
  const std::uint32_t xid = of::message_xid(msg);
  if (open_control_.count(xid) == 0) return;
  ++control_answered_;
  end_control_span(xid, now, "answered");
}

void FlowTracer::on_channel_fault(bool to_controller, const of::OfMessage& msg, of::FaultKind kind,
                                  sim::SimTime now) {
  if (open_control_.empty()) return;
  const of::MsgType type = of::message_type(msg);
  const std::uint32_t xid = of::message_xid(msg);
  const bool tracked = (to_controller && type == of::MsgType::PacketIn &&
                        open_control_.count(xid) != 0) ||
                       (!to_controller &&
                        (type == of::MsgType::FlowMod || type == of::MsgType::PacketOut) &&
                        open_control_.count(xid) != 0);
  if (!tracked) return;
  writer_.instant("fault", of::fault_kind_name(kind), now,
                  {TraceArg{"dir", to_controller ? "to_controller" : "to_switch"},
                   TraceArg{"msg", of::msg_type_name(type)}});
  // A lost/outage-swallowed carrier means this request will never be
  // answered under this xid (resends draw a fresh xid) — close the span at
  // the fault instead of leaving it for finalize. Duplicates still deliver.
  if (kind != of::FaultKind::Duplicate) {
    end_control_span(xid, now, to_controller ? "pktin_lost" : "response_lost");
  }
}

void FlowTracer::finalize(sim::SimTime now) {
  // Deterministic close order: maps iterate in unspecified order, so drain
  // through sorted copies to keep traces byte-stable across runs.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> packets(open_packets_.begin(),
                                                               open_packets_.end());
  std::sort(packets.begin(), packets.end());
  for (const auto& [id, flow] : packets) {
    writer_.end_span("packet", "transit", id, now, {TraceArg{"outcome", "unfinished"}});
  }
  open_packets_.clear();

  std::vector<std::uint32_t> xids;
  xids.reserve(open_control_.size());
  for (const auto& [xid, _] : open_control_) xids.push_back(xid);
  std::sort(xids.begin(), xids.end());
  for (std::uint32_t xid : xids) {
    writer_.end_span("control", "pktin_rtt", xid, now, {TraceArg{"outcome", "unanswered"}});
  }
  open_control_.clear();

  std::vector<std::pair<std::uint32_t, std::uint64_t>> buffers(open_buffers_.begin(),
                                                               open_buffers_.end());
  std::sort(buffers.begin(), buffers.end());
  for (const auto& [buffer_id, span] : buffers) {
    writer_.end_span("buffer", "unit_resident", span, now, {TraceArg{"outcome", "unretired"}});
  }
  open_buffers_.clear();
}

}  // namespace sdnbuf::obs
