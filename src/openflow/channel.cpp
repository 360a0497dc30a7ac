#include "openflow/channel.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace sdnbuf::of {

void MessageCounters::record(MsgType type, std::size_t wire_bytes) {
  const auto slot = static_cast<std::size_t>(type);
  SDNBUF_CHECK(slot < kSlots);
  ++counts_[slot];
  bytes_[slot] += wire_bytes;
}

std::uint64_t MessageCounters::count(MsgType type) const {
  return counts_[static_cast<std::size_t>(type)];
}

std::uint64_t MessageCounters::bytes(MsgType type) const {
  return bytes_[static_cast<std::size_t>(type)];
}

std::uint64_t MessageCounters::total_count() const {
  std::uint64_t n = 0;
  for (auto c : counts_) n += c;
  return n;
}

std::uint64_t MessageCounters::total_bytes() const {
  std::uint64_t n = 0;
  for (auto b : bytes_) n += b;
  return n;
}

void MessageCounters::reset() {
  counts_.fill(0);
  bytes_.fill(0);
}

Channel::Channel(sim::Simulator& sim, net::Link& to_controller, net::Link& to_switch)
    : sim_(sim),
      to_controller_(to_controller),
      to_switch_(to_switch) {}

void Channel::set_fault_profile(FaultProfile profile, std::uint64_t seed) {
  for (std::size_t i = 0; i < profile.outages.size(); ++i) {
    SDNBUF_CHECK_MSG(profile.outages[i].start <= profile.outages[i].end,
                     "outage window ends before it starts");
    if (i > 0) {
      SDNBUF_CHECK_MSG(profile.outages[i - 1].end <= profile.outages[i].start,
                       "outage windows must be sorted and non-overlapping");
    }
  }
  fault_profile_ = std::move(profile);
  fault_rng_.emplace(seed);
  directions_[0].deliver_floor = directions_[1].deliver_floor = sim::SimTime::zero();
}

void Channel::transmit(net::Link& link, OfMessage msg, std::size_t wire_bytes,
                       bool to_controller) {
  const double loss_p =
      to_controller ? fault_profile_.loss_to_controller : fault_profile_.loss_to_switch;
  if (fault_rng_ && loss_p > 0.0 && fault_rng_->next_double() < loss_p) {
    auto& lost =
        to_controller ? fault_counters_.lost_to_controller : fault_counters_.lost_to_switch;
    ++lost;
    if (fault_tap_) fault_tap_(to_controller, msg, FaultKind::Loss, sim_.now());
    // The doomed copy still occupies the link: loss happens in transit, not
    // at the sender.
    link.send(wire_bytes, []() {});
    return;
  }
  const bool jittered = fault_rng_ && fault_profile_.max_extra_delay > sim::SimTime::zero();
  sim::SimTime extra;
  if (jittered) {
    extra = sim::SimTime::nanoseconds(static_cast<std::int64_t>(fault_rng_->next_below(
        static_cast<std::uint64_t>(fault_profile_.max_extra_delay.ns()) + 1)));
  }
  Direction& dir = direction(to_controller);
  const std::uint64_t seq = dir.on_wire_pushed;
  const auto sent = link.send_frame(wire_bytes, [this, to_controller, seq, wire_bytes, extra,
                                                 jittered]() {
    arrive(to_controller, seq, wire_bytes, extra, jittered);
  });
  // A frame the link dropped never arrives, so it never joins the queue.
  if (sent != net::Link::SendResult::Sent) return;
  dir.on_wire.push_back(std::move(msg));
  ++dir.on_wire_pushed;
}

void Channel::arrive(bool to_controller, std::uint64_t seq, std::size_t wire_bytes,
                     sim::SimTime extra, bool jittered) {
  // Runs at the receiving endpoint: the jitter floor belongs to the receiver.
  Direction& dir = direction(to_controller);
  SDNBUF_CHECK_MSG(seq == dir.on_wire_popped, "control channel delivered out of order");
  ++dir.on_wire_popped;
  OfMessage msg = dir.on_wire.pop_front();
  if (!jittered) {
    deliver(to_controller, msg, wire_bytes);
    return;
  }
  // Jitter must not reorder a direction's messages (TCP delivers in
  // order): never deliver before an earlier message's delivery time.
  sim::SimTime when = sim_.now() + extra;
  if (when < dir.deliver_floor) when = dir.deliver_floor;
  dir.deliver_floor = when;
  if (when <= sim_.now()) {
    deliver(to_controller, msg, wire_bytes);
    return;
  }
  const std::uint64_t held_seq = dir.held_pushed++;
  dir.held.push_back(std::move(msg));
  sim_.schedule(when - sim_.now(), [this, to_controller, held_seq, wire_bytes]() {
    sim::ScopedProfileTag tag{"channel"};
    Direction& d = direction(to_controller);
    SDNBUF_CHECK_MSG(held_seq == d.held_popped, "jittered delivery out of order");
    ++d.held_popped;
    OfMessage held = d.held.pop_front();
    deliver(to_controller, held, wire_bytes);
  });
}

void Channel::deliver(bool to_controller, OfMessage& msg, std::size_t wire_bytes) {
  Handler& handler = to_controller ? controller_handler_ : switch_handler_;
  if (handler) handler(msg, wire_bytes);
}

std::size_t Channel::send(net::Link& link, MessageCounters& counters, OfMessage msg,
                          bool to_controller) {
  // The frame occupies the message's exact OpenFlow size plus framing; the
  // bytes themselves are never built (the invariant registry checks that
  // encoded_size matches the codec on every message it observes).
  const std::size_t of_bytes = encoded_size(msg);
  SDNBUF_CHECK_MSG(of_bytes <= 0xffff, "OpenFlow message too long for 16-bit length");
  const std::size_t wire_bytes = of_bytes + kTransportOverhead;
  if (fault_profile_.in_outage(sim_.now())) {
    // Connection down: the message never reaches the wire, so it appears in
    // no counter or capture — exactly what tcpdump would (not) see.
    auto& dropped = to_controller ? fault_counters_.outage_dropped_to_controller
                                  : fault_counters_.outage_dropped_to_switch;
    ++dropped;
    if (fault_tap_) fault_tap_(to_controller, msg, FaultKind::Outage, sim_.now());
    return wire_bytes;
  }
  const double dup_p =
      to_controller ? fault_profile_.duplicate_to_controller : fault_profile_.duplicate_to_switch;
  const bool duplicate = fault_rng_ && dup_p > 0.0 && fault_rng_->next_double() < dup_p;
  counters.record(message_type(msg), wire_bytes);
  if (obs::Histogram* h =
          to_controller ? instr_.wire_bytes_to_controller : instr_.wire_bytes_to_switch;
      h != nullptr) {
    h->record(static_cast<double>(wire_bytes));
  }
  if (tap_) tap_(to_controller, msg, wire_bytes, sim_.now());
  if (verify_tap_) verify_tap_(to_controller, msg, wire_bytes, sim_.now());
  if (!duplicate) {
    transmit(link, std::move(msg), wire_bytes, to_controller);
    return wire_bytes;
  }
  OfMessage copy = msg;
  transmit(link, std::move(msg), wire_bytes, to_controller);
  auto& duped = to_controller ? fault_counters_.duplicated_to_controller
                              : fault_counters_.duplicated_to_switch;
  ++duped;
  // Fault tap first, then the duplicate's capture/verify records, so an
  // observer widens its accounting before seeing the second crossing.
  if (fault_tap_) fault_tap_(to_controller, copy, FaultKind::Duplicate, sim_.now());
  counters.record(message_type(copy), wire_bytes);
  if (tap_) tap_(to_controller, copy, wire_bytes, sim_.now());
  if (verify_tap_) verify_tap_(to_controller, copy, wire_bytes, sim_.now());
  transmit(link, std::move(copy), wire_bytes, to_controller);
  return wire_bytes;
}

std::size_t Channel::send_from_switch(OfMessage msg) {
  SDNBUF_TRACE("channel", "switch -> controller: " << msg_type_name(message_type(msg)));
  return send(to_controller_, to_controller_counters_, std::move(msg), /*to_controller=*/true);
}

std::size_t Channel::send_from_controller(OfMessage msg) {
  SDNBUF_TRACE("channel", "controller -> switch: " << msg_type_name(message_type(msg)));
  return send(to_switch_, to_switch_counters_, std::move(msg), /*to_controller=*/false);
}

}  // namespace sdnbuf::of
