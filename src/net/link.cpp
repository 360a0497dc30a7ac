#include "net/link.hpp"

#include <utility>

#include "util/check.hpp"

namespace sdnbuf::net {

double ByteTap::load_mbps(sim::SimTime start, sim::SimTime end) const {
  SDNBUF_CHECK(end > start);
  return static_cast<double>(bytes_) * 8.0 / (end - start).sec() / 1e6;
}

Link::Link(sim::Simulator& sim, std::string name, double bandwidth_bps,
           sim::SimTime propagation_delay)
    : sim_(sim),
      name_(std::move(name)),
      bandwidth_bps_(bandwidth_bps),
      propagation_delay_(propagation_delay) {
  SDNBUF_CHECK_MSG(bandwidth_bps_ > 0, "link bandwidth must be positive");
}

Link::SendResult Link::send_frame(std::uint64_t bytes, sim::EventFn on_delivered) {
  SDNBUF_CHECK_MSG(bytes > 0, "cannot send an empty frame");
  if (backlog_bytes_ + bytes > queue_limit_bytes_) {
    ++drops_;
    return SendResult::QueueDrop;
  }
  const sim::SimTime start =
      transmitter_free_at_ > sim_.now() ? transmitter_free_at_ : sim_.now();
  const sim::SimTime done_sending = start + sim::transmission_time(bytes, bandwidth_bps_);
  const sim::SimTime arrival = done_sending + propagation_delay_;
  // Fault-plane loss is decided at send time over the whole flight interval:
  // a frame that would be on the wire during any outage window is dropped,
  // covering in-flight loss without cancelling events. The frame never
  // occupies the transmitter, so the serialization clock is unaffected.
  if (faults_ != nullptr && faults_->down_during(start, arrival)) {
    ++fault_drops_;
    return SendResult::FaultDrop;
  }
  tap_.record(bytes);
  transmitter_free_at_ = done_sending;
  if (queue_limit_bytes_ != kUnlimited) {
    // The backlog counts bytes not yet clocked onto the wire. Only a capped
    // link pays the per-frame event that tracks it; on an uncapped link the
    // check above can never fire.
    backlog_bytes_ += bytes;
    sim_.schedule_at(done_sending, [this, bytes]() {
      SDNBUF_CHECK(backlog_bytes_ >= bytes);
      backlog_bytes_ -= bytes;
    });
  }
  // Wrapping the callback in a profile tag costs a heap allocation (an
  // EventFn nested inside an EventFn overflows the small buffer), so the
  // per-link attribution wrapper only exists when the simulator actually
  // has a profile sink; otherwise the callback schedules as-is,
  // allocation-free. The tag reads name_ at delivery time; the link
  // outlives every in-flight frame and the name is immutable after setup.
  sim::EventFn event;
  if (sim_.profile_sink() != nullptr) {
    event = [this, on_delivered = std::move(on_delivered)]() mutable {
      sim::ScopedProfileTag tag{name_.c_str()};
      if (on_delivered) on_delivered();
    };
  } else if (on_delivered) {
    event = std::move(on_delivered);
  } else {
    event = []() {};  // keep the delivery event so the sequence is unchanged
  }
  sim_.schedule_at(arrival, std::move(event));
  return SendResult::Sent;
}

}  // namespace sdnbuf::net
