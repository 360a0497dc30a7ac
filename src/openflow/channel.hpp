// The switch<->controller control channel.
//
// Models the TCP connection between an OpenFlow agent and the controller:
// each message occupies its exact OpenFlow wire size (`encoded_size`) plus
// the transport overhead tcpdump would see on a `net::Link` per direction
// (FIFO, bandwidth-limited). The typed message itself crosses the channel:
// the sender's object is moved into a per-direction in-flight queue and
// handed to the receiver's handler, so no message is encoded, decoded or
// copied on the way (only a fault-injected duplicate is a copy). The codec's
// encode/decode symmetry is checked where it matters, by the invariant
// registry's `codec-roundtrip` check on every message it observes. Per-type
// message counters feed the experiment reports.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/link.hpp"
#include "obs/instruments.hpp"
#include "openflow/messages.hpp"
#include "sim/simulator.hpp"
#include "util/ring_queue.hpp"
#include "util/rng.hpp"

namespace sdnbuf::of {

// Counts messages and payload bytes by type for one direction.
class MessageCounters {
 public:
  void record(MsgType type, std::size_t wire_bytes);

  [[nodiscard]] std::uint64_t count(MsgType type) const;
  [[nodiscard]] std::uint64_t bytes(MsgType type) const;
  [[nodiscard]] std::uint64_t total_count() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
  void reset();

 private:
  static constexpr std::size_t kSlots = 20;
  static_assert(kSlots >= kMsgTypeSlots, "MessageCounters must cover every MsgType");
  std::array<std::uint64_t, kSlots> counts_{};
  std::array<std::uint64_t, kSlots> bytes_{};
};

// A scheduled window (absolute simulation times) during which the control
// connection is down: nothing sent in either direction reaches the wire.
struct OutageWindow {
  sim::SimTime start;
  sim::SimTime end;  // exclusive
};

// Seeded channel fault injection. All probabilities are per message; loss
// and duplication are drawn independently per direction so asymmetric
// control paths (congested uplink, clean downlink) are expressible. The
// profile is inert by default — a Channel without one is byte-for-byte the
// reliable transport it always was.
struct FaultProfile {
  double loss_to_controller = 0.0;
  double loss_to_switch = 0.0;
  double duplicate_to_controller = 0.0;
  double duplicate_to_switch = 0.0;
  // Extra per-delivery jitter, uniform in [0, max_extra_delay]. Delivery
  // order within a direction is preserved (TCP does not reorder).
  sim::SimTime max_extra_delay;
  // Must be sorted by start and non-overlapping.
  std::vector<OutageWindow> outages;

  [[nodiscard]] bool any() const {
    return loss_to_controller > 0.0 || loss_to_switch > 0.0 || duplicate_to_controller > 0.0 ||
           duplicate_to_switch > 0.0 || max_extra_delay > sim::SimTime::zero() ||
           !outages.empty();
  }
  [[nodiscard]] bool in_outage(sim::SimTime now) const {
    for (const auto& w : outages) {
      if (now < w.start) return false;
      if (now < w.end) return true;
    }
    return false;
  }
};

struct ChannelFaultCounters {
  std::uint64_t lost_to_controller = 0;
  std::uint64_t lost_to_switch = 0;
  std::uint64_t duplicated_to_controller = 0;
  std::uint64_t duplicated_to_switch = 0;
  std::uint64_t outage_dropped_to_controller = 0;
  std::uint64_t outage_dropped_to_switch = 0;

  [[nodiscard]] std::uint64_t total_lost() const { return lost_to_controller + lost_to_switch; }
  [[nodiscard]] std::uint64_t total_duplicated() const {
    return duplicated_to_controller + duplicated_to_switch;
  }
  [[nodiscard]] std::uint64_t total_outage_dropped() const {
    return outage_dropped_to_controller + outage_dropped_to_switch;
  }
};

class Channel {
 public:
  // Delivered message plus its size on the wire (OpenFlow bytes + transport
  // framing), as a tcpdump capture would report it. The message is the
  // sender's object and dies after the call, so a handler may move out of it.
  using Handler = std::function<void(OfMessage&, std::size_t wire_bytes)>;

  // `to_controller` carries switch->controller traffic; `to_switch` the
  // reverse direction. Links are owned by the caller (the testbed).
  Channel(sim::Simulator& sim, net::Link& to_controller, net::Link& to_switch);

  void set_controller_handler(Handler h) { controller_handler_ = std::move(h); }
  void set_switch_handler(Handler h) { switch_handler_ = std::move(h); }

  // Sends and returns the wire size of the message (including framing).
  // Pass an rvalue to hand the message over without a copy.
  std::size_t send_from_switch(OfMessage msg);
  std::size_t send_from_controller(OfMessage msg);

  [[nodiscard]] const MessageCounters& to_controller_counters() const {
    return to_controller_counters_;
  }
  [[nodiscard]] const MessageCounters& to_switch_counters() const { return to_switch_counters_; }

  [[nodiscard]] net::Link& to_controller_link() { return to_controller_; }
  [[nodiscard]] net::Link& to_switch_link() { return to_switch_; }

  // Observation tap for captures: invoked synchronously at send time with
  // the direction (true = switch->controller), the message, its wire size,
  // and the send timestamp.
  using TapFn = std::function<void(bool to_controller, const OfMessage& msg,
                                   std::size_t wire_bytes, sim::SimTime when)>;
  void set_tap(TapFn tap) { tap_ = std::move(tap); }

  // Second, independent tap slot for the invariant-checking layer, so a
  // verification run can observe the channel while a ChannelCapture holds
  // the capture tap.
  void set_verify_tap(TapFn tap) { verify_tap_ = std::move(tap); }

  // Installs (or replaces) the fault profile; draws come from a dedicated
  // Rng stream so fault decisions never perturb the switch/controller cost
  // jitter streams. Outage windows are absolute simulation times.
  void set_fault_profile(FaultProfile profile, std::uint64_t seed);
  [[nodiscard]] const FaultProfile& fault_profile() const { return fault_profile_; }
  [[nodiscard]] const ChannelFaultCounters& fault_counters() const { return fault_counters_; }
  // False while an outage window covers `now`. Queried by the switch's
  // liveness machinery.
  [[nodiscard]] bool connection_up() const { return !fault_profile_.in_outage(sim_.now()); }

  // Fault observation tap: fires once per injected fault, at send time for
  // outage drops and duplicates, at send time of the doomed copy for losses.
  // For Duplicate it fires *before* the duplicate's capture/verify tap
  // records, so an observer can widen its accounting first.
  using FaultTapFn = std::function<void(bool to_controller, const OfMessage& msg, FaultKind kind,
                                        sim::SimTime when)>;
  void set_fault_tap(FaultTapFn tap) { fault_tap_ = std::move(tap); }

  // Metrics instruments (default-null bundle = disabled).
  void set_instruments(const obs::ChannelInstruments& instruments) { instr_ = instruments; }

  void reset_counters() {
    to_controller_counters_.reset();
    to_switch_counters_.reset();
    fault_counters_ = ChannelFaultCounters{};
  }

  // Allocates a fresh transaction id. The two endpoints draw from disjoint
  // spaces (switch odd, controller even), so one endpoint's ids depend only
  // on its own message history. Captures and traces record xids, so
  // renumbering would change those artifacts.
  [[nodiscard]] std::uint32_t next_xid() {
    const std::uint32_t xid = next_switch_xid_;
    next_switch_xid_ += 2;
    return xid;
  }
  [[nodiscard]] std::uint32_t next_controller_xid() {
    const std::uint32_t xid = next_controller_xid_;
    next_controller_xid_ += 2;
    return xid;
  }

 private:
  // One direction's messages between send and handler. The link is FIFO and
  // jitter never reorders, so each stage is a queue; the scheduled events
  // carry sequence numbers that are checked against the queue on pop.
  struct Direction {
    util::RingQueue<OfMessage> on_wire;   // sent, link delivery pending
    util::RingQueue<OfMessage> held;      // delivered, held back by jitter
    std::uint64_t on_wire_pushed = 0;
    std::uint64_t on_wire_popped = 0;
    std::uint64_t held_pushed = 0;
    std::uint64_t held_popped = 0;
    // Delivery-time floor: extra-delay jitter must not reorder messages.
    sim::SimTime deliver_floor;
  };

  std::size_t send(net::Link& link, MessageCounters& counters, OfMessage msg,
                   bool to_controller);
  // One wire transmission (original or duplicate): loss draw, delay draw,
  // link transit, in-order delivery to the handler.
  void transmit(net::Link& link, OfMessage msg, std::size_t wire_bytes, bool to_controller);
  // Link delivery of the message sent with sequence number `seq`.
  void arrive(bool to_controller, std::uint64_t seq, std::size_t wire_bytes, sim::SimTime extra,
              bool jittered);
  void deliver(bool to_controller, OfMessage& msg, std::size_t wire_bytes);
  [[nodiscard]] Direction& direction(bool to_controller) {
    return directions_[to_controller ? 1 : 0];
  }

  sim::Simulator& sim_;
  net::Link& to_controller_;
  net::Link& to_switch_;
  Handler controller_handler_;
  Handler switch_handler_;
  MessageCounters to_controller_counters_;
  MessageCounters to_switch_counters_;
  TapFn tap_;
  TapFn verify_tap_;
  FaultTapFn fault_tap_;
  obs::ChannelInstruments instr_;
  FaultProfile fault_profile_;
  ChannelFaultCounters fault_counters_;
  std::optional<util::Rng> fault_rng_;
  Direction directions_[2];  // [0] to_switch, [1] to_controller
  std::uint32_t next_switch_xid_ = 1;      // odd ids
  std::uint32_t next_controller_xid_ = 2;  // even ids
};

}  // namespace sdnbuf::of
