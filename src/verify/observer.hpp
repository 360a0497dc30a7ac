// The observation stream.
//
// `InvariantObserver` is the hook interface the datapath components call at
// every semantically meaningful transition: packet injection, switch
// arrival/departure, delivery and drop, buffer unit lifecycle (store /
// release / expire / retire), packet_in emission and its response,
// controller-side fault drops, every control-channel send and MMU charges.
// It is the simulator's one per-event observation path: the invariant
// registry, the flow tracer, the telemetry fate adapter and the Fig. 1
// delay recorder all subscribe to it. Every hook has an empty default body,
// so a subscriber overrides only what it reads.
//
// Components hold a nullable observer pointer and pay nothing when it is
// unset, so production runs are unaffected. One switch's subscribers are
// composed by `core::FabricTestbed` into a `verify::ObserverFanOut`
// (fan_out.hpp); a switch with a single subscriber points straight at it.
//
// The interface lives below switchd/controller/core in the dependency order
// (it only speaks net/openflow/sim vocabulary), which is what lets every
// layer report into one stream.
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "openflow/messages.hpp"
#include "sim/time.hpp"

namespace sdnbuf::verify {

class InvariantObserver {
 public:
  virtual ~InvariantObserver() = default;

  // --- payload path (testbed injection points and host sinks) ---
  virtual void on_packet_injected(const net::Packet& /*packet*/, sim::SimTime /*now*/) {}
  virtual void on_packet_delivered(const net::Packet& /*packet*/, sim::SimTime /*now*/) {}
  // `where` names the drop site ("no-actions", "unknown-port", "egress-queue", ...).
  virtual void on_packet_dropped(const net::Packet& /*packet*/, const char* /*where*/,
                                 sim::SimTime /*now*/) {}

  // --- switch pipeline (the §III.B delay points) ---
  // A packet of `flow_id` entered the switch (every packet, not just a
  // flow's first), and one left it through an egress queue.
  virtual void on_packet_arrival(std::uint64_t /*flow_id*/, sim::SimTime /*now*/) {}
  virtual void on_packet_departure(std::uint64_t /*flow_id*/, sim::SimTime /*now*/) {}

  // --- buffer unit lifecycle (PacketBufferManager / FlowBufferManager) ---
  // `new_unit` is true when the store allocated a fresh buffer_id slot;
  // `flow_granularity` distinguishes shared per-flow slots from per-packet
  // slots (they obey different stability rules).
  virtual void on_buffer_store(std::uint32_t /*buffer_id*/, const net::Packet& /*packet*/,
                               bool /*new_unit*/, bool /*flow_granularity*/,
                               sim::SimTime /*now*/) {}
  virtual void on_buffer_release(std::uint32_t /*buffer_id*/, const net::Packet& /*packet*/,
                                 sim::SimTime /*now*/) {}
  virtual void on_buffer_expire(std::uint32_t /*buffer_id*/, const net::Packet& /*packet*/,
                                sim::SimTime /*now*/) {}
  // The buffer_id slot stops being live (after a release_all / release /
  // expiry); reclaim-delay accounting is not the observer's concern.
  virtual void on_buffer_unit_retired(std::uint32_t /*buffer_id*/, sim::SimTime /*now*/) {}

  // --- control path ---
  // The switch emitted a packet_in for `packet` (metadata intact) under
  // `xid`; buffer_id is kNoBuffer for full-frame punts.
  virtual void on_packet_in_sent(std::uint32_t /*xid*/, const net::Packet& /*packet*/,
                                 std::uint32_t /*buffer_id*/, sim::SimTime /*now*/) {}
  // A flow_mod or packet_out reached the switch; `flow_id` is the flow of
  // the packet_in it answers by xid (kUntrackedFlow when none is pending).
  virtual void on_response_arrival(std::uint64_t /*flow_id*/, sim::SimTime /*now*/) {}
  // Controller-side fault injection silently discarded the packet_in.
  virtual void on_pkt_in_dropped(std::uint32_t /*xid*/, std::uint32_t /*buffer_id*/,
                                 sim::SimTime /*now*/) {}
  // Every message crossing the channel, at send time (wired via the
  // channel's verify tap).
  virtual void on_control_message(bool /*to_controller*/, const of::OfMessage& /*msg*/,
                                  sim::SimTime /*now*/) {}
  // A channel fault hit `msg`: lost in transit, never sent (outage), or
  // delivered twice (duplicate). Fires via the channel's fault tap; for
  // duplicates it fires before the duplicate's on_control_message.
  virtual void on_channel_fault(bool /*to_controller*/, const of::OfMessage& /*msg*/,
                                of::FaultKind /*kind*/, sim::SimTime /*now*/) {}

  // --- shared-memory MMU (DESIGN.md §16) ---
  // The MMU admitted / released a charge against queue `queue` (a per-switch
  // handle): `native` legacy units and `cells` pool cells, with the queue's
  // and pool's post-transition cell occupancies. A release may carry only
  // one currency (cells when the packet leaves, the native unit at deferred
  // reclaim).
  virtual void on_mmu_admit(std::uint32_t /*queue*/, std::uint64_t /*native*/,
                            std::uint64_t /*cells*/, std::uint64_t /*queue_cells_after*/,
                            std::uint64_t /*pool_cells_after*/, sim::SimTime /*now*/) {}
  virtual void on_mmu_release(std::uint32_t /*queue*/, std::uint64_t /*native*/,
                              std::uint64_t /*cells*/, std::uint64_t /*queue_cells_after*/,
                              std::uint64_t /*pool_cells_after*/, sim::SimTime /*now*/) {}
};

}  // namespace sdnbuf::verify
