// Point-to-point unidirectional link with FIFO serialization.
//
// A link has a bandwidth and a propagation delay. Transmissions serialize:
// a frame starts when the transmitter becomes free, takes bytes*8/bandwidth
// to clock out, then arrives after the propagation delay. An optional
// transmit-queue byte limit models NIC ring exhaustion (drops are counted).
//
// `ByteTap` is the tcpdump stand-in: it observes every transmission on a
// link and accumulates bytes/frames so experiments can report link load in
// Mbps per direction, exactly as the paper measures control-path load.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/link_fault.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace sdnbuf::net {

class ByteTap {
 public:
  void record(std::uint64_t bytes) {
    bytes_ += bytes;
    ++frames_;
  }

  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint64_t frames() const { return frames_; }

  // Average load over [start, end] in Mbps.
  [[nodiscard]] double load_mbps(sim::SimTime start, sim::SimTime end) const;

  void reset() {
    bytes_ = 0;
    frames_ = 0;
  }

 private:
  std::uint64_t bytes_ = 0;
  std::uint64_t frames_ = 0;
};

class Link {
 public:
  Link(sim::Simulator& sim, std::string name, double bandwidth_bps,
       sim::SimTime propagation_delay);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  enum class SendResult : std::uint8_t {
    Sent,       // frame scheduled for delivery
    QueueDrop,  // transmit queue byte limit exceeded
    FaultDrop,  // link down for part of the frame's flight interval
  };

  // Queues `bytes` for transmission; `on_delivered` fires at the receiver
  // once the last bit has propagated. Returns false (and counts a drop)
  // if the transmit queue byte limit would be exceeded or the link's fault
  // schedule has it down during the frame's flight. `on_delivered` is a
  // move-only sim::EventFn so the per-hop path schedules without a heap
  // allocation for typical captures.
  bool send(std::uint64_t bytes, sim::EventFn on_delivered) {
    return send_frame(bytes, std::move(on_delivered)) == SendResult::Sent;
  }

  // As send(), but distinguishes the drop cause — callers that account
  // per-packet fates (egress scheduler, fabric injection) need to know
  // whether a lost frame died to the fault plane or to queue exhaustion.
  SendResult send_frame(std::uint64_t bytes, sim::EventFn on_delivered);

  // Attaches a fault schedule (owned by the caller, may be null). The
  // zero-schedule path is byte-identical to a link without one.
  void set_fault_schedule(const LinkFaultSchedule* faults) { faults_ = faults; }

  // Caps the untransmitted backlog; unlimited by default. Set it before the
  // first send: only a capped link tracks its backlog.
  void set_queue_limit_bytes(std::uint64_t limit) { queue_limit_bytes_ = limit; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double bandwidth_bps() const { return bandwidth_bps_; }
  [[nodiscard]] sim::SimTime propagation_delay() const { return propagation_delay_; }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t fault_drops() const { return fault_drops_; }
  // Bytes queued but not yet clocked onto the wire (always 0 when uncapped).
  [[nodiscard]] std::uint64_t backlog_bytes() const { return backlog_bytes_; }

  [[nodiscard]] ByteTap& tap() { return tap_; }
  [[nodiscard]] const ByteTap& tap() const { return tap_; }

 private:
  sim::Simulator& sim_;
  std::string name_;
  double bandwidth_bps_;
  sim::SimTime propagation_delay_;
  sim::SimTime transmitter_free_at_;
  static constexpr std::uint64_t kUnlimited = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t queue_limit_bytes_ = kUnlimited;
  std::uint64_t backlog_bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t fault_drops_ = 0;
  const LinkFaultSchedule* faults_ = nullptr;
  ByteTap tap_;
};

// A duplex link: two independent unidirectional channels sharing a name.
class DuplexLink {
 public:
  DuplexLink(sim::Simulator& sim, const std::string& name, double bandwidth_bps,
             sim::SimTime propagation_delay)
      : forward_(sim, name + ":fwd", bandwidth_bps, propagation_delay),
        reverse_(sim, name + ":rev", bandwidth_bps, propagation_delay) {}

  [[nodiscard]] Link& forward() { return forward_; }
  [[nodiscard]] Link& reverse() { return reverse_; }

  // Both directions fail together: a physical link outage takes down the
  // whole duplex pair.
  void set_fault_schedule(const LinkFaultSchedule* faults) {
    forward_.set_fault_schedule(faults);
    reverse_.set_fault_schedule(faults);
  }

 private:
  Link forward_;
  Link reverse_;
};

}  // namespace sdnbuf::net
