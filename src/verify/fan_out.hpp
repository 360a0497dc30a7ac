// One switch's observer fan-out: every hook of the observation stream
// (observer.hpp) forwarded to each subscriber in subscription order.
//
// Subscribers are stored inline, so a fan-out never touches the heap and
// copies as a plain list; configs carry one as a switch's subscriber list.
// `core::FabricTestbed` composes one per switch and wires its `target()`
// into the switch's components, so a lone subscriber is called directly and
// a switch without subscribers points at nothing.
#pragma once

#include <array>
#include <cstddef>

#include "util/check.hpp"
#include "verify/observer.hpp"

namespace sdnbuf::verify {

class ObserverFanOut final : public InvariantObserver {
 public:
  // One of each subscriber kind: invariant registry, flow tracer, telemetry
  // fate adapter and delay recorder.
  static constexpr std::size_t kCapacity = 4;

  // Appends `observer`; null is ignored. Aborts past kCapacity.
  void subscribe(InvariantObserver* observer) {
    if (observer == nullptr) return;
    SDNBUF_CHECK_MSG(size_ < kCapacity, "too many subscribers on one switch");
    subscribers_[size_++] = observer;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // What a component should report to: null without subscribers, the lone
  // subscriber itself (no dispatch hop), or this fan-out.
  [[nodiscard]] InvariantObserver* target() {
    if (size_ == 0) return nullptr;
    return size_ == 1 ? subscribers_[0] : this;
  }

  void on_packet_injected(const net::Packet& packet, sim::SimTime now) override {
    for (InvariantObserver* s : *this) s->on_packet_injected(packet, now);
  }
  void on_packet_delivered(const net::Packet& packet, sim::SimTime now) override {
    for (InvariantObserver* s : *this) s->on_packet_delivered(packet, now);
  }
  void on_packet_dropped(const net::Packet& packet, const char* where, sim::SimTime now) override {
    for (InvariantObserver* s : *this) s->on_packet_dropped(packet, where, now);
  }
  void on_packet_arrival(std::uint64_t flow_id, sim::SimTime now) override {
    for (InvariantObserver* s : *this) s->on_packet_arrival(flow_id, now);
  }
  void on_packet_departure(std::uint64_t flow_id, sim::SimTime now) override {
    for (InvariantObserver* s : *this) s->on_packet_departure(flow_id, now);
  }
  void on_buffer_store(std::uint32_t buffer_id, const net::Packet& packet, bool new_unit,
                       bool flow_granularity, sim::SimTime now) override {
    for (InvariantObserver* s : *this) {
      s->on_buffer_store(buffer_id, packet, new_unit, flow_granularity, now);
    }
  }
  void on_buffer_release(std::uint32_t buffer_id, const net::Packet& packet,
                         sim::SimTime now) override {
    for (InvariantObserver* s : *this) s->on_buffer_release(buffer_id, packet, now);
  }
  void on_buffer_expire(std::uint32_t buffer_id, const net::Packet& packet,
                        sim::SimTime now) override {
    for (InvariantObserver* s : *this) s->on_buffer_expire(buffer_id, packet, now);
  }
  void on_buffer_unit_retired(std::uint32_t buffer_id, sim::SimTime now) override {
    for (InvariantObserver* s : *this) s->on_buffer_unit_retired(buffer_id, now);
  }
  void on_packet_in_sent(std::uint32_t xid, const net::Packet& packet, std::uint32_t buffer_id,
                         sim::SimTime now) override {
    for (InvariantObserver* s : *this) s->on_packet_in_sent(xid, packet, buffer_id, now);
  }
  void on_response_arrival(std::uint64_t flow_id, sim::SimTime now) override {
    for (InvariantObserver* s : *this) s->on_response_arrival(flow_id, now);
  }
  void on_pkt_in_dropped(std::uint32_t xid, std::uint32_t buffer_id, sim::SimTime now) override {
    for (InvariantObserver* s : *this) s->on_pkt_in_dropped(xid, buffer_id, now);
  }
  void on_control_message(bool to_controller, const of::OfMessage& msg, sim::SimTime now) override {
    for (InvariantObserver* s : *this) s->on_control_message(to_controller, msg, now);
  }
  void on_channel_fault(bool to_controller, const of::OfMessage& msg, of::FaultKind kind,
                        sim::SimTime now) override {
    for (InvariantObserver* s : *this) s->on_channel_fault(to_controller, msg, kind, now);
  }
  void on_mmu_admit(std::uint32_t queue, std::uint64_t native, std::uint64_t cells,
                    std::uint64_t queue_cells_after, std::uint64_t pool_cells_after,
                    sim::SimTime now) override {
    for (InvariantObserver* s : *this) {
      s->on_mmu_admit(queue, native, cells, queue_cells_after, pool_cells_after, now);
    }
  }
  void on_mmu_release(std::uint32_t queue, std::uint64_t native, std::uint64_t cells,
                      std::uint64_t queue_cells_after, std::uint64_t pool_cells_after,
                      sim::SimTime now) override {
    for (InvariantObserver* s : *this) {
      s->on_mmu_release(queue, native, cells, queue_cells_after, pool_cells_after, now);
    }
  }

 private:
  [[nodiscard]] InvariantObserver* const* begin() const { return subscribers_.data(); }
  [[nodiscard]] InvariantObserver* const* end() const { return subscribers_.data() + size_; }

  std::array<InvariantObserver*, kCapacity> subscribers_{};
  std::size_t size_ = 0;
};

}  // namespace sdnbuf::verify
