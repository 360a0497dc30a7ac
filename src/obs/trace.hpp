// Flow-lifecycle tracing: Chrome trace-event JSON for Perfetto.
//
// `TraceWriter` accumulates trace events (async spans + instants) keyed to
// simulation time and writes the Chrome trace-event JSON format, loadable in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing. `FlowTracer` is a
// `verify::InvariantObserver` that turns the datapath's existing observation
// points into spans:
//
//   cat "packet"   transit        injection -> delivery/drop, per packet
//   cat "control"  pktin_rtt      packet_in sent -> first flow_mod/packet_out
//                                 response carrying the same xid
//   cat "buffer"   unit_resident  buffer unit allocated -> retired
//
// plus instant events for drops, expiries, controller-side packet_in drops
// and channel faults. Sampling is deterministic and seeded: a flow is traced
// iff hash(flow_id, seed) % period == 0, so two runs of the same seed trace
// identical flows regardless of host or thread count.
//
// Like every obs layer, tracing rides the nullable-observer pattern: with no
// tracer wired, the datapath executes exactly the code it executes today.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "verify/observer.hpp"

namespace sdnbuf::obs {

// One key/value argument on a trace event. Values are either numbers or
// strings with static storage (string literals / interned component names).
struct TraceArg {
  const char* key;
  const char* str = nullptr;  // wins when non-null
  double num = 0.0;

  TraceArg(const char* k, const char* v) : key(k), str(v) {}
  TraceArg(const char* k, double v) : key(k), num(v) {}
};

class TraceWriter {
 public:
  TraceWriter() = default;
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  // Async-span begin/end ("b"/"e" phases). Spans match on (cat, id, name);
  // `id` must be unique among concurrently open spans of the same cat+name.
  void begin_span(const char* cat, const char* name, std::uint64_t id, sim::SimTime ts,
                  std::initializer_list<TraceArg> args = {});
  void end_span(const char* cat, const char* name, std::uint64_t id, sim::SimTime ts,
                std::initializer_list<TraceArg> args = {});

  // Instant event ("i" phase, global scope).
  void instant(const char* cat, const char* name, sim::SimTime ts,
               std::initializer_list<TraceArg> args = {});

  // Freeform metadata emitted next to traceEvents.
  void set_meta(const std::string& key, const std::string& value);

  [[nodiscard]] std::size_t event_count() const { return events_.size(); }
  [[nodiscard]] std::size_t begin_count() const { return begins_; }
  [[nodiscard]] std::size_t end_count() const { return ends_; }

  // {"displayTimeUnit": "ms", "meta": {...}, "traceEvents": [...]}
  void write_json(std::ostream& out) const;

  void reset();

 private:
  void push(char phase, const char* cat, const char* name, std::uint64_t id, bool has_id,
            sim::SimTime ts, std::initializer_list<TraceArg> args);

  std::vector<std::string> events_;  // pre-rendered JSON objects
  std::vector<std::pair<std::string, std::string>> meta_;
  std::size_t begins_ = 0;
  std::size_t ends_ = 0;
};

// Observer that renders datapath events into trace spans. It subscribes to
// switch 0 of a Fig. 1 run through ExperimentConfig::tracer.
class FlowTracer final : public verify::InvariantObserver {
 public:
  // `sample_period`: trace every flow whose hash lands on 0 mod period
  // (1 = trace everything). Warm-up traffic (kUntrackedFlow) is never traced.
  FlowTracer(TraceWriter& writer, std::uint64_t seed, std::uint32_t sample_period);

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

  // Whether `flow_id` falls in the deterministic sample.
  [[nodiscard]] bool sampled(std::uint64_t flow_id) const;

  // Force-closes every span still open (faulted / unanswered flows), so the
  // emitted trace always balances. Call once, after the simulation drains.
  void finalize(sim::SimTime now);

  // Control spans that opened (packet_in sent) and that closed with a
  // genuine response — the cross-check against DelayRecorder completions.
  [[nodiscard]] std::uint64_t control_spans_opened() const { return control_opened_; }
  [[nodiscard]] std::uint64_t control_spans_answered() const { return control_answered_; }

 private:
  [[nodiscard]] static std::uint64_t packet_span_id(const net::Packet& packet);
  void end_control_span(std::uint32_t xid, sim::SimTime now, const char* outcome);

  TraceWriter& writer_;
  std::uint64_t seed_;
  std::uint32_t period_;

  // Open-span bookkeeping, keyed the way the close-side events identify them.
  std::unordered_map<std::uint64_t, std::uint64_t> open_packets_;   // span id -> flow_id
  std::unordered_map<std::uint32_t, std::uint64_t> open_control_;   // xid -> flow_id
  std::unordered_map<std::uint32_t, std::uint64_t> open_buffers_;   // buffer_id -> span id
  std::uint64_t next_buffer_span_ = 1;
  std::uint64_t control_opened_ = 0;
  std::uint64_t control_answered_ = 0;
};

}  // namespace sdnbuf::obs
