#include "switchd/switch.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace sdnbuf::sw {

const char* buffer_mode_name(BufferMode mode) {
  switch (mode) {
    case BufferMode::NoBuffer: return "no-buffer";
    case BufferMode::PacketGranularity: return "packet-granularity";
    case BufferMode::FlowGranularity: return "flow-granularity";
  }
  return "?";
}

const char* fail_mode_name(ConnectionFailMode mode) {
  switch (mode) {
    case ConnectionFailMode::FailSecure: return "fail-secure";
    case ConnectionFailMode::FailStandalone: return "fail-standalone";
  }
  return "?";
}

const char* port_down_policy_name(PortDownPolicy policy) {
  switch (policy) {
    case PortDownPolicy::RePktIn: return "re-pktin";
    case PortDownPolicy::Drop: return "drop";
    case PortDownPolicy::HoldUntilRecovery: return "hold";
  }
  return "?";
}

Switch::Switch(sim::Simulator& sim, SwitchConfig config, std::uint64_t rng_seed)
    : sim_(sim),
      config_(std::move(config)),
      rng_(rng_seed),
      cpu_(sim, config_.name + ":cpu", config_.cpu_cores),
      bus_(sim, config_.name + ":bus", 1),
      table_(config_.flow_table_capacity, config_.eviction_policy, rng_seed * 31 + 17) {
  if (config_.mmu.enabled) {
    mmu_ = std::make_unique<mmu::SharedMemoryMmu>(sim_, config_.mmu, config_.name);
  }
  if (config_.buffer_mode == BufferMode::PacketGranularity) {
    packet_buffer_ = std::make_unique<PacketBufferManager>(sim_, config_.buffer_capacity,
                                                           config_.costs.buffer_reclaim_delay);
    if (mmu_ != nullptr) {
      packet_buffer_->attach_mmu(*mmu_, mmu_->register_queue(mmu::QueueKind::OfBuffer, 0, 0,
                                                             config_.buffer_capacity));
    }
  } else if (config_.buffer_mode == BufferMode::FlowGranularity) {
    flow_buffer_ = std::make_unique<FlowBufferManager>(sim_, config_.buffer_capacity,
                                                       config_.costs.buffer_reclaim_delay);
    if (mmu_ != nullptr) {
      flow_buffer_->attach_mmu(*mmu_, mmu_->register_queue(mmu::QueueKind::OfBuffer, 0, 0,
                                                           config_.buffer_capacity));
    }
  }
}

void Switch::attach_port(std::uint16_t port_no, net::Link& egress, DeliverFn deliver) {
  SDNBUF_CHECK_MSG(port_no != 0 && port_no < of::kPortMax, "invalid port number");
  // Built in place: moving a finished Port would reallocate its deque.
  const auto [it, inserted] = ports_.try_emplace(port_no);
  SDNBUF_CHECK_MSG(inserted, "port already attached");
  Port& port = it->second;
  port.egress = &egress;
  port.deliver = std::move(deliver);
  port.scheduler =
      std::make_unique<EgressScheduler>(sim_, config_.egress, egress, port.deliver);
  if (mmu_ != nullptr) port.scheduler->attach_mmu(*mmu_, port_no);
  // Frames the link's fault schedule eats after dequeue are this switch's
  // loss to account: without this the payload would vanish from the
  // conservation ledger.
  port.scheduler->set_drop_handler([this](const net::Packet& packet, const char* where) {
    ++counters_.link_dropped;
    ++counters_.packets_dropped;
    if (observer_ != nullptr) observer_->on_packet_dropped(packet, where, sim_.now());
  });
}

EgressScheduler& Switch::port_scheduler(std::uint16_t port_no) {
  const auto it = ports_.find(port_no);
  SDNBUF_CHECK_MSG(it != ports_.end(), "unknown port");
  return *it->second.scheduler;
}

void Switch::set_invariant_observer(verify::InvariantObserver* observer) {
  observer_ = observer;
  if (packet_buffer_ != nullptr) packet_buffer_->set_observer(observer);
  if (flow_buffer_ != nullptr) flow_buffer_->set_observer(observer);
  if (mmu_ != nullptr) mmu_->set_observer(observer);
}

void Switch::set_buffer_instruments(const obs::BufferInstruments& instruments) {
  if (packet_buffer_ != nullptr) packet_buffer_->set_instruments(instruments);
  if (flow_buffer_ != nullptr) flow_buffer_->set_instruments(instruments);
}

void Switch::connect(of::Channel& channel) {
  channel_ = &channel;
  channel.set_switch_handler(
      [this](of::OfMessage& msg, std::size_t) { on_control_message(msg); });
}

void Switch::start() {
  sweep_event_ = sim_.schedule(config_.sweep_interval, [this]() {
    sim::ScopedProfileTag tag{config_.name.c_str()};
    sweep();
  });
  if (config_.echo_interval > sim::SimTime::zero()) {
    echo_event_ = sim_.schedule(config_.echo_interval, [this]() {
      sim::ScopedProfileTag tag{config_.name.c_str()};
      echo_tick();
    });
  }
}

void Switch::stop() {
  running_ = false;
  sweep_event_.cancel();
  echo_event_.cancel();
}

sim::SimTime Switch::cost_us(double nominal_us) {
  return sim::SimTime::from_microseconds(nominal_us *
                                         rng_.lognormal(1.0, config_.costs.jitter_sigma));
}

sim::SimTime Switch::bus_time(std::size_t bytes) const {
  return sim::transmission_time(bytes, config_.costs.bus_bandwidth_bps);
}

void Switch::receive(std::uint16_t in_port, net::Packet packet) {
  ++counters_.packets_received;
  if (crashed_) {
    // A dead switch forwards nothing; the frame dies at the ingress pipeline.
    ++counters_.crash_dropped;
    ++counters_.packets_dropped;
    if (observer_ != nullptr) observer_->on_packet_dropped(packet, "switch-crashed", sim_.now());
    return;
  }
  ++packet.hops;
  if (packet.hops > config_.max_hops) {
    // The frame has visited more switches than any loop-free path allows:
    // it is circulating in a transient repair loop. Retire it here instead
    // of letting it refresh the looped rules' idle timers forever.
    ++counters_.hop_limit_dropped;
    ++counters_.packets_dropped;
    if (observer_ != nullptr) observer_->on_packet_dropped(packet, "hop-limit", sim_.now());
    return;
  }
  if (const auto it = ports_.find(in_port); it != ports_.end()) {
    ++it->second.rx_packets;
    it->second.rx_bytes += packet.frame_size;
  }
  if (recorder_ != nullptr) recorder_->on_first_packet_arrival(packet.flow_id, sim_.now());
  // Telemetry hooks, both inert (one integer compare) when disabled.
  if (config_.telemetry_int_depth != 0) packet.hop_arrived_at = sim_.now();
  if (config_.telemetry_sample_period != 0) maybe_sample(in_port, packet);

  // ASIC match stage: a fixed-latency hardware pipeline — deterministic, so
  // simultaneously arriving packets keep their arrival order.
  sim_.schedule(sim::SimTime::from_microseconds(config_.costs.asic_match_us),
                [this, in_port, packet = std::move(packet)]() mutable {
    sim::ScopedProfileTag tag{config_.name.c_str()};
    FlowEntry* entry = table_.lookup(packet, in_port, sim_.now());
    if (entry != nullptr) {
      ++counters_.table_hits;
      execute_actions(packet, entry->actions, in_port);
    } else {
      ++counters_.table_misses;
      handle_miss(in_port, std::move(packet));
    }
  });
}

void Switch::handle_miss(std::uint16_t in_port, net::Packet packet) {
  if (conn_state_ != ConnectionState::Connected) {
    handle_miss_degraded(in_port, packet);
    return;
  }
  switch (config_.buffer_mode) {
    case BufferMode::NoBuffer:
      miss_no_buffer(in_port, std::move(packet), /*buffer_exhausted=*/false);
      break;
    case BufferMode::PacketGranularity:
      miss_packet_granularity(in_port, std::move(packet));
      break;
    case BufferMode::FlowGranularity:
      miss_flow_granularity(in_port, std::move(packet));
      break;
  }
}

void Switch::handle_miss_degraded(std::uint16_t in_port, const net::Packet& packet) {
  if (config_.fail_mode == ConnectionFailMode::FailStandalone) {
    // Standalone fallback: forward without the controller. Flooding is the
    // L2 baseline a standalone learning switch degenerates to.
    ++counters_.standalone_forwarded;
    flood(packet, in_port);
    return;
  }
  ++counters_.failsecure_dropped;
  ++counters_.packets_dropped;
  if (observer_ != nullptr) observer_->on_packet_dropped(packet, "fail-secure", sim_.now());
}

void Switch::miss_no_buffer(std::uint16_t in_port, net::Packet packet, bool buffer_exhausted) {
  ++counters_.full_frame_pkt_ins;
  if (buffer_exhausted) {
    SDNBUF_DEBUG("switch", "buffer exhausted, full-frame packet_in for flow "
                               << packet.flow_key().to_string());
  }
  // The whole frame crosses the ASIC<->CPU bus, then the CPU builds a
  // packet_in that carries the entire frame.
  const std::uint32_t frame_size = packet.frame_size;
  bus_.submit(bus_time(frame_size), [this, in_port, packet = std::move(packet)]() mutable {
    const double encode_us = config_.costs.miss_base_us + config_.costs.pkt_in_base_us +
                             config_.costs.pkt_in_per_byte_us * packet.frame_size;
    cpu_.submit(cost_us(encode_us), [this, in_port, packet = std::move(packet)]() {
      send_packet_in(packet, in_port, of::kNoBuffer, packet.frame_size,
                     of::PacketInReason::NoMatch);
    });
  });
}

void Switch::miss_packet_granularity(std::uint16_t in_port, net::Packet packet) {
  SDNBUF_CHECK(packet_buffer_ != nullptr);
  const auto buffer_id = packet_buffer_->store(packet);
  if (!buffer_id) {
    // OpenFlow fallback: no free unit, send the entire frame.
    miss_no_buffer(in_port, std::move(packet), /*buffer_exhausted=*/true);
    return;
  }
  const std::size_t data_bytes = std::min<std::size_t>(config_.miss_send_len, packet.frame_size);
  // Only the captured headers cross the bus.
  bus_.submit(bus_time(data_bytes), [this, in_port, packet = std::move(packet), id = *buffer_id,
                                     data_bytes]() mutable {
    const double encode_us = config_.costs.miss_base_us + config_.costs.buffer_store_us +
                             config_.costs.pkt_in_base_us +
                             config_.costs.pkt_in_per_byte_us * static_cast<double>(data_bytes);
    cpu_.submit(cost_us(encode_us), [this, in_port, packet = std::move(packet), id, data_bytes]() {
      send_packet_in(packet, in_port, id, data_bytes, of::PacketInReason::NoMatch);
    });
  });
}

void Switch::miss_flow_granularity(std::uint16_t in_port, net::Packet packet) {
  SDNBUF_CHECK(flow_buffer_ != nullptr);
  const auto stored = flow_buffer_->store(packet, in_port);
  if (!stored) {
    miss_no_buffer(in_port, std::move(packet), /*buffer_exhausted=*/true);
    return;
  }
  if (stored->first_of_flow) {
    // Algorithm 1, lines 7-9: buffer, create the shared buffer_id, request.
    const std::size_t data_bytes =
        std::min<std::size_t>(config_.miss_send_len, packet.frame_size);
    bus_.submit(bus_time(data_bytes), [this, in_port, packet = std::move(packet),
                                       id = stored->buffer_id, data_bytes]() mutable {
      const double encode_us = config_.costs.miss_base_us + config_.costs.flow_map_lookup_us +
                               config_.costs.flow_map_store_us +
                               config_.costs.flow_first_packet_extra_us +
                               config_.costs.buffer_store_us + config_.costs.pkt_in_base_us +
                               config_.costs.pkt_in_per_byte_us * static_cast<double>(data_bytes);
      cpu_.submit(cost_us(encode_us),
                  [this, in_port, packet = std::move(packet), id, data_bytes]() {
        send_packet_in(packet, in_port, id, data_bytes, of::PacketInReason::NoMatch);
        flow_buffer_->mark_request_sent(id, sim_.now());
        schedule_flow_resend_check(id, in_port);
      });
    });
  } else {
    // Algorithm 1, lines 10-11: buffer silently; only the map lookup and the
    // store cost the CPU, nothing is sent.
    cpu_.submit(cost_us(config_.costs.flow_map_lookup_us + config_.costs.buffer_store_us),
                nullptr);
  }
}

sim::SimTime Switch::resend_timeout_for(unsigned resends) const {
  sim::SimTime timeout = config_.costs.flow_resend_timeout;
  for (unsigned i = 0; i < resends; ++i) {
    timeout = timeout.scaled(config_.costs.flow_resend_backoff);
    if (timeout >= config_.costs.flow_resend_timeout_cap) {
      return config_.costs.flow_resend_timeout_cap;
    }
  }
  return timeout;
}

void Switch::schedule_flow_resend_check(std::uint32_t buffer_id, std::uint16_t in_port) {
  sim_.schedule(resend_timeout_for(flow_buffer_->resend_count(buffer_id)),
                [this, buffer_id, in_port]() {
    sim::ScopedProfileTag tag{config_.name.c_str()};
    if (!running_) return;
    // While degraded the re-request protocol pauses; complete_reconnect()
    // restarts it for every still-live unit.
    if (conn_state_ != ConnectionState::Connected) return;
    const net::Packet* front = flow_buffer_ ? flow_buffer_->front_packet(buffer_id) : nullptr;
    if (front == nullptr) return;  // released in the meantime — no resend
    const unsigned resends = flow_buffer_->resend_count(buffer_id);
    const sim::SimTime timeout = resend_timeout_for(resends);
    const auto last = flow_buffer_->last_request_at(buffer_id);
    if (last && sim_.now() - *last < timeout) {
      schedule_flow_resend_check(buffer_id, in_port);
      return;
    }
    if (resends >= config_.costs.max_flow_resends) {
      // Algorithm 1's recovery has been exhausted: give the unit up and
      // account its packets instead of probing a silent controller forever.
      ++counters_.resend_cap_expired;
      counters_.buffered_packets_expired += flow_buffer_->expire_unit(buffer_id);
      ++counters_.buffer_units_expired;
      return;
    }
    // Algorithm 1, lines 12-13: the controller went silent; ask again.
    ++counters_.resend_pkt_ins;
    flow_buffer_->record_resend(buffer_id);
    const std::size_t data_bytes = std::min<std::size_t>(config_.miss_send_len, front->frame_size);
    const double encode_us = config_.costs.pkt_in_base_us +
                             config_.costs.pkt_in_per_byte_us * static_cast<double>(data_bytes);
    cpu_.submit(cost_us(encode_us), [this, in_port, packet = *front, buffer_id, data_bytes]() {
      if (flow_buffer_->front_packet(buffer_id) == nullptr) return;
      if (conn_state_ != ConnectionState::Connected) return;
      send_packet_in(packet, in_port, buffer_id, data_bytes, of::PacketInReason::FlowResend);
      flow_buffer_->mark_request_sent(buffer_id, sim_.now());
      schedule_flow_resend_check(buffer_id, in_port);
    });
  });
}

void Switch::echo_tick() {
  if (!running_) return;
  if (outstanding_echo_xid_) {
    // Previous probe is still unanswered — that is one miss.
    ++echo_misses_;
    if (conn_state_ == ConnectionState::Connected &&
        echo_misses_ >= config_.echo_miss_threshold) {
      enter_degraded();
    }
  }
  SDNBUF_CHECK_MSG(channel_ != nullptr, "liveness requires a connected channel");
  of::EchoRequest probe{channel_->next_xid()};
  outstanding_echo_xid_ = probe.xid;
  ++counters_.echo_requests_sent;
  channel_->send_from_switch(probe);
  echo_event_ = sim_.schedule(config_.echo_interval, [this]() {
    sim::ScopedProfileTag tag{config_.name.c_str()};
    echo_tick();
  });
}

void Switch::enter_degraded() {
  ++counters_.connection_losses;
  conn_state_ = ConnectionState::Degraded;
  SDNBUF_DEBUG("switch", "controller declared lost after " << echo_misses_
                             << " echo misses; degrading to "
                             << fail_mode_name(config_.fail_mode));
  if (config_.fail_mode == ConnectionFailMode::FailSecure) {
    // Nothing will ever release these units while the controller is gone,
    // and fail-secure buffers no new misses: expire everything now.
    if (packet_buffer_ != nullptr) {
      counters_.buffer_units_expired += packet_buffer_->units_in_use();
      counters_.buffered_packets_expired += packet_buffer_->expire_all();
    }
    if (flow_buffer_ != nullptr) {
      counters_.buffer_units_expired += flow_buffer_->units_in_use();
      counters_.buffered_packets_expired += flow_buffer_->expire_all();
    }
  }
  // Fail-standalone keeps the buffered units: the connection may come back
  // before buffer_expiry, and reconciliation can then recover them.
}

void Switch::begin_reconnect() {
  conn_state_ = ConnectionState::Reconnecting;
  of::Hello hello{channel_->next_xid()};
  pending_hello_xid_ = hello.xid;
  channel_->send_from_switch(hello);
}

void Switch::complete_reconnect() {
  conn_state_ = ConnectionState::Connected;
  echo_misses_ = 0;
  pending_hello_xid_.reset();
  ++counters_.reconnects;
  last_restored_at_ = sim_.now();
  // Reconcile buffer state stranded by the outage.
  if (flow_buffer_ != nullptr) {
    // Flow-granularity units are recoverable: re-request each live unit so
    // the controller can install the rule and release the whole flow.
    for (const std::uint32_t id : flow_buffer_->live_unit_ids()) {
      const net::Packet* front = flow_buffer_->front_packet(id);
      if (front == nullptr) continue;
      flow_buffer_->reset_request_state(id);
      ++counters_.reconcile_rerequests;
      const std::uint16_t in_port = flow_buffer_->in_port_of(id);
      const std::size_t data_bytes =
          std::min<std::size_t>(config_.miss_send_len, front->frame_size);
      const double encode_us =
          config_.costs.pkt_in_base_us +
          config_.costs.pkt_in_per_byte_us * static_cast<double>(data_bytes);
      cpu_.submit(cost_us(encode_us), [this, in_port, packet = *front, id, data_bytes]() {
        if (flow_buffer_->front_packet(id) == nullptr) return;
        if (conn_state_ != ConnectionState::Connected) return;
        send_packet_in(packet, in_port, id, data_bytes, of::PacketInReason::FlowResend);
        flow_buffer_->mark_request_sent(id, sim_.now());
        schedule_flow_resend_check(id, in_port);
      });
    }
  }
  if (packet_buffer_ != nullptr) {
    // Packet-granularity units are orphans: the controller's packet_outs for
    // them were lost in the outage and it will never re-issue one for an
    // unknown buffer_id. Expire them instead of leaking until the sweep.
    counters_.buffer_units_expired += packet_buffer_->units_in_use();
    const std::size_t orphans = packet_buffer_->expire_all();
    counters_.reconcile_expired += orphans;
    counters_.buffered_packets_expired += orphans;
  }
}

void Switch::send_packet_in(const net::Packet& packet, std::uint16_t in_port,
                            std::uint32_t buffer_id, std::size_t data_bytes,
                            of::PacketInReason reason) {
  SDNBUF_CHECK_MSG(channel_ != nullptr, "switch is not connected to a controller");
  of::PacketIn msg;
  msg.xid = channel_->next_xid();
  msg.buffer_id = buffer_id;
  msg.total_len = static_cast<std::uint16_t>(packet.frame_size);
  msg.in_port = in_port;
  msg.reason = reason;
  packet.serialize_into(data_bytes, msg.data);
  if (instr_.pkt_in_bytes != nullptr) {
    instr_.pkt_in_bytes->record(static_cast<double>(data_bytes));
  }
  pending_requests_[msg.xid] =
      PendingRequest{packet.flow_id, packet.seq_in_flow, packet.created_at, packet.tstack,
                     packet.hop_arrived_at};
  ++counters_.pkt_ins_sent;
  if (observer_ != nullptr) observer_->on_packet_in_sent(msg.xid, packet, buffer_id, sim_.now());
  channel_->send_from_switch(std::move(msg));
  if (recorder_ != nullptr) recorder_->on_packet_in_sent(packet.flow_id, sim_.now());
}

std::uint64_t Switch::flow_id_for_xid(std::uint32_t xid) const {
  const auto* pending = pending_for_xid(xid);
  return pending == nullptr ? metrics::kUntrackedFlow : pending->flow_id;
}

const Switch::PendingRequest* Switch::pending_for_xid(std::uint32_t xid) const {
  const auto it = pending_requests_.find(xid);
  return it == pending_requests_.end() ? nullptr : &it->second;
}

void Switch::on_control_message(of::OfMessage& msg) {
  if (crashed_) return;  // a dead switch consumes nothing
  if (auto* fm = std::get_if<of::FlowMod>(&msg)) {
    if (recorder_ != nullptr) {
      recorder_->on_response_arrival(flow_id_for_xid(fm->xid), sim_.now());
    }
    handle_flow_mod(std::move(*fm));
  } else if (auto* po = std::get_if<of::PacketOut>(&msg)) {
    if (recorder_ != nullptr) {
      recorder_->on_response_arrival(flow_id_for_xid(po->xid), sim_.now());
    }
    handle_packet_out(std::move(*po));
  } else if (const auto* echo = std::get_if<of::EchoRequest>(&msg)) {
    channel_->send_from_switch(of::EchoReply{echo->xid});
  } else if (const auto* reply = std::get_if<of::EchoReply>(&msg)) {
    ++counters_.echo_replies_received;
    if (outstanding_echo_xid_ && reply->xid == *outstanding_echo_xid_) {
      outstanding_echo_xid_.reset();
      echo_misses_ = 0;
    }
    // Any echo reply proves the channel is alive again; start the hello
    // re-handshake (idempotent while one is already pending).
    if (conn_state_ == ConnectionState::Degraded) {
      begin_reconnect();
    }
  } else if (const auto* feats = std::get_if<of::FeaturesRequest>(&msg)) {
    of::FeaturesReply reply;
    reply.xid = feats->xid;
    reply.datapath_id = config_.datapath_id;
    reply.n_buffers = config_.buffer_mode == BufferMode::NoBuffer
                          ? 0
                          : static_cast<std::uint32_t>(config_.buffer_capacity);
    reply.n_tables = 1;
    for (const auto& [port_no, port] : ports_) {
      reply.ports.push_back(port_desc(port_no, port));
    }
    channel_->send_from_switch(std::move(reply));
  } else if (const auto* fs = std::get_if<of::FlowStatsRequest>(&msg)) {
    handle_flow_stats(*fs);
  } else if (const auto* as = std::get_if<of::AggregateStatsRequest>(&msg)) {
    handle_aggregate_stats(*as);
  } else if (const auto* ps = std::get_if<of::PortStatsRequest>(&msg)) {
    handle_port_stats(*ps);
  } else if (const auto* barrier = std::get_if<of::BarrierRequest>(&msg)) {
    // Barrier semantics: previous messages are already processed in program
    // order (the channel is FIFO), so replying directly is faithful.
    channel_->send_from_switch(of::BarrierReply{barrier->xid});
  } else if (const auto* hello = std::get_if<of::Hello>(&msg)) {
    // The controller echoes our hello xid back to complete a re-handshake;
    // unsolicited hellos (initial handshake) need no reply from us.
    if (pending_hello_xid_ && hello->xid == *pending_hello_xid_ &&
        conn_state_ == ConnectionState::Reconnecting) {
      complete_reconnect();
    }
  }
}

void Switch::handle_flow_mod(of::FlowMod msg) {
  ++counters_.flow_mods_handled;
  cpu_.submit(cost_us(config_.costs.flow_mod_install_us), [this, msg = std::move(msg)]() mutable {
    switch (msg.command) {
      case of::FlowModCommand::Add:
      case of::FlowModCommand::Modify:
      case of::FlowModCommand::ModifyStrict: {
        FlowEntry entry;
        entry.match = msg.match;
        entry.priority = msg.priority;
        entry.actions = msg.actions;
        entry.cookie = msg.cookie;
        entry.idle_timeout_s = msg.idle_timeout_s;
        entry.hard_timeout_s = msg.hard_timeout_s;
        entry.flags = msg.flags;
        auto result = table_.add(std::move(entry), sim_.now());
        for (const auto& evicted : result.evicted) emit_flow_removed(evicted);
        break;
      }
      case of::FlowModCommand::Delete:
      case of::FlowModCommand::DeleteStrict: {
        const bool strict = msg.command == of::FlowModCommand::DeleteStrict;
        auto removed = table_.remove(msg.match,
                                     strict ? std::optional<std::uint16_t>{msg.priority}
                                            : std::nullopt,
                                     strict);
        for (const auto& r : removed) emit_flow_removed(r);
        break;
      }
    }
    // flow_mod may also name a buffered packet to which the new actions
    // apply (the OpenFlow one-message variant of install-and-release).
    if (msg.buffer_id != of::kNoBuffer) {
      of::PacketOut synthetic;
      synthetic.xid = msg.xid;
      synthetic.buffer_id = msg.buffer_id;
      synthetic.in_port = msg.match.in_port;
      synthetic.actions = std::move(msg.actions);
      handle_packet_out(std::move(synthetic));
    }
  });
}

void Switch::handle_packet_out(of::PacketOut msg) {
  ++counters_.pkt_outs_handled;
  const double exec_us = config_.costs.pkt_out_base_us +
                         config_.costs.pkt_out_per_byte_us * static_cast<double>(msg.data.size());
  cpu_.submit(cost_us(exec_us), [this, msg = std::move(msg)]() {
    if (msg.buffer_id == of::kNoBuffer) {
      // The frame travels in the message; it must cross the bus to reach
      // the ASIC before egress.
      auto parsed = net::Packet::parse(msg.data, static_cast<std::uint32_t>(msg.data.size()));
      if (!parsed) {
        ++counters_.packets_dropped;
        return;
      }
      // Wire bytes carry no simulator metadata; restore it from the pending
      // request this packet_out answers.
      if (const auto* pending = pending_for_xid(msg.xid); pending != nullptr) {
        parsed->flow_id = pending->flow_id;
        parsed->seq_in_flow = pending->seq_in_flow;
        parsed->created_at = pending->created_at;
        parsed->tstack = pending->tstack;
        parsed->hop_arrived_at = pending->hop_arrived_at;
      }
      bus_.submit(bus_time(msg.data.size()), [this, packet = std::move(*parsed),
                                              actions = msg.actions, in_port = msg.in_port]() {
        execute_actions(packet, actions, in_port);
      });
      return;
    }

    if (config_.buffer_mode == BufferMode::PacketGranularity) {
      SDNBUF_CHECK(packet_buffer_ != nullptr);
      auto packet = packet_buffer_->release(msg.buffer_id);
      if (!packet) {
        report_unknown_buffer(msg);
        return;
      }
      sim_.schedule(cost_us(config_.costs.buffer_release_us),
                    [this, packet = std::move(*packet), actions = msg.actions,
                     in_port = msg.in_port]() {
        sim::ScopedProfileTag tag{config_.name.c_str()};
        execute_actions(packet, actions, in_port);
      });
    } else if (config_.buffer_mode == BufferMode::FlowGranularity) {
      SDNBUF_CHECK(flow_buffer_ != nullptr);
      auto packets = flow_buffer_->release_all(msg.buffer_id);
      if (packets.empty()) {
        report_unknown_buffer(msg);
        return;
      }
      // Algorithm 2, lines 4-9: forward the buffered packets one by one,
      // each paying its release cost.
      sim::SimTime offset;
      for (auto& packet : packets) {
        offset += cost_us(config_.costs.buffer_release_us);
        sim_.schedule(offset, [this, packet = std::move(packet), actions = msg.actions,
                               in_port = msg.in_port]() {
          sim::ScopedProfileTag tag{config_.name.c_str()};
          execute_actions(packet, actions, in_port);
        });
      }
    } else {
      report_unknown_buffer(msg);
    }
  });
}

void Switch::report_unknown_buffer(const of::PacketOut& msg) {
  ++counters_.unknown_buffer_releases;
  if (channel_ == nullptr) return;
  // OFPET_BAD_REQUEST / OFPBRC_BUFFER_UNKNOWN with the offending message's
  // first bytes, per the specification.
  of::Error err;
  err.xid = msg.xid;
  err.type = of::ErrorType::BadRequest;
  err.code = of::ErrorCode::BufferUnknown;
  auto offending = of::encode_message(msg);
  offending.resize(std::min<std::size_t>(offending.size(), 64));
  err.data = std::move(offending);
  channel_->send_from_switch(std::move(err));
}

void Switch::execute_actions(const net::Packet& packet, const of::ActionList& actions,
                             std::uint16_t in_port) {
  if (actions.empty()) {
    ++counters_.packets_dropped;
    if (observer_ != nullptr) observer_->on_packet_dropped(packet, "no-actions", sim_.now());
    return;
  }
  // L2 rewrites apply to a private copy, made only once one applies;
  // outputs before it forward the original.
  std::optional<net::Packet> rewritten;
  for (const auto& action : actions) {
    const net::Packet& current = rewritten ? *rewritten : packet;
    if (const auto* out = std::get_if<of::OutputAction>(&action)) {
      if (out->port == of::kPortFlood || out->port == of::kPortAll) {
        flood(current, in_port);
      } else if (out->port == of::kPortController) {
        send_packet_in(current, in_port, of::kNoBuffer,
                       out->max_len != 0 ? out->max_len : current.frame_size,
                       of::PacketInReason::Action);
      } else if (out->port == of::kPortInPort) {
        egress(current, in_port, in_port);
      } else {
        egress(current, out->port, in_port);
      }
    } else if (const auto* src = std::get_if<of::SetDlSrcAction>(&action)) {
      if (!rewritten) rewritten.emplace(packet);
      rewritten->eth.src = src->mac;
    } else if (const auto* dst = std::get_if<of::SetDlDstAction>(&action)) {
      if (!rewritten) rewritten.emplace(packet);
      rewritten->eth.dst = dst->mac;
    }
  }
}

void Switch::egress(const net::Packet& packet, std::uint16_t out_port, std::uint16_t in_port) {
  const auto it = ports_.find(out_port);
  if (it == ports_.end()) {
    ++counters_.packets_dropped;
    if (observer_ != nullptr) observer_->on_packet_dropped(packet, "unknown-port", sim_.now());
    SDNBUF_WARN("switch", "egress to unknown port " << out_port);
    return;
  }
  Port& port = it->second;
  if (!port.up) {
    handle_port_down_packet(port, packet, in_port);
    return;
  }
  if (config_.telemetry_int_depth != 0 && packet.tstack.size() < config_.telemetry_int_depth) {
    // INT stamping: one copy, one stamp, bounded by the configured depth.
    // The queue depth is read before this packet joins the backlog.
    net::Packet stamped = packet;
    net::HopStamp stamp;
    stamp.switch_id = config_.datapath_id;
    stamp.in_port = in_port;
    stamp.out_port = out_port;
    stamp.queue_depth = static_cast<std::uint32_t>(port.scheduler->total_backlog_packets());
    stamp.buffer_units = static_cast<std::uint32_t>(buffer_units_in_use());
    if (mmu_ != nullptr) {
      // Sharing dynamics at enqueue: pool occupancy and this queue's current
      // admission ceiling (both before the packet joins the backlog).
      stamp.pool_cells = static_cast<std::uint32_t>(mmu_->pool_cells_used());
      stamp.queue_threshold =
          static_cast<std::uint32_t>(port.scheduler->mmu_threshold_for(packet));
    }
    stamp.arrived_at = packet.hop_arrived_at;
    stamp.departed_at = sim_.now();
    stamped.tstack.push_back(stamp);
    ++counters_.int_stamps_applied;
    enqueue_egress(port, stamped);
    return;
  }
  enqueue_egress(port, packet);
}

void Switch::enqueue_egress(Port& port, const net::Packet& packet) {
  if (!port.scheduler->enqueue(packet)) {
    ++port.tx_dropped;
    ++counters_.packets_dropped;
    if (observer_ != nullptr) observer_->on_packet_dropped(packet, "egress-queue", sim_.now());
    return;
  }
  ++counters_.packets_forwarded;
  if (recorder_ != nullptr) recorder_->on_packet_departure(packet.flow_id, sim_.now());
  ++port.tx_packets;
  port.tx_bytes += packet.frame_size;
}

bool Switch::sample_hit(const net::Packet& packet) const {
  // splitmix64 finalizer over (flow hash, sequence, salt): deterministic for
  // a fixed salt, independent of arrival order and host.
  std::uint64_t h = packet.flow_key().hash() ^
                    (std::uint64_t{packet.seq_in_flow} * 0x9e3779b97f4a7c15ULL) ^
                    config_.telemetry_sample_salt;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h % config_.telemetry_sample_period == 0;
}

void Switch::maybe_sample(std::uint16_t in_port, const net::Packet& packet) {
  if (channel_ == nullptr || conn_state_ != ConnectionState::Connected) return;
  if (!sample_hit(packet)) return;
  // Build the record now (arrival context), pay the encode cost on the
  // shared switch CPU, then ship it — the same contention path packet_ins
  // take, which is what makes aggressive sampling measurably expensive.
  of::FlowSample record;
  const net::FlowKey key = packet.flow_key();
  record.src_ip = key.src_ip.value();
  record.dst_ip = key.dst_ip.value();
  record.src_port = key.src_port;
  record.dst_port = key.dst_port;
  record.protocol = key.protocol;
  record.in_port = in_port;
  record.frame_bytes = static_cast<std::uint16_t>(
      std::min<std::uint32_t>(packet.frame_size, 0xffff));
  cpu_.submit(cost_us(config_.costs.sample_encode_us), [this, record]() mutable {
    if (channel_ == nullptr || conn_state_ != ConnectionState::Connected) return;
    record.xid = channel_->next_xid();
    record.sample_seq = static_cast<std::uint32_t>(counters_.flow_samples_sent);
    ++counters_.flow_samples_sent;
    channel_->send_from_switch(std::move(record));
  });
}

void Switch::flood(const net::Packet& packet, std::uint16_t in_port) {
  ++counters_.packets_flooded;
  bool sent = false;
  for (auto& [port_no, port] : ports_) {
    if (port_no == in_port) continue;
    if (!port.up) continue;  // a real switch never floods out a dead port
    sent = true;
    if (!port.scheduler->enqueue(packet)) {
      ++port.tx_dropped;
      ++counters_.packets_dropped;
      if (observer_ != nullptr) observer_->on_packet_dropped(packet, "flood-queue", sim_.now());
      continue;
    }
    if (recorder_ != nullptr) recorder_->on_packet_departure(packet.flow_id, sim_.now());
    ++counters_.packets_forwarded;
    ++port.tx_packets;
    port.tx_bytes += packet.frame_size;
  }
  if (!sent) {
    ++counters_.packets_dropped;
    if (observer_ != nullptr) observer_->on_packet_dropped(packet, "flood-no-ports", sim_.now());
  }
}

void Switch::handle_port_down_packet(Port& port, const net::Packet& packet,
                                     std::uint16_t in_port) {
  switch (config_.port_down_policy) {
    case PortDownPolicy::RePktIn:
      // The forwarding decision is stale; treat the packet as a fresh table
      // miss so the controller — which saw the port_status — answers with a
      // repaired route. Under flow granularity the re-misses of one flow
      // coalesce into a single buffer unit; under packet granularity each
      // consumes its own.
      ++counters_.port_down_repktin;
      handle_miss(in_port, packet);
      return;
    case PortDownPolicy::Drop:
      ++counters_.port_down_dropped;
      ++counters_.packets_dropped;
      if (observer_ != nullptr) observer_->on_packet_dropped(packet, "port-down", sim_.now());
      return;
    case PortDownPolicy::HoldUntilRecovery:
      ++counters_.port_down_held;
      port.held.push_back(HeldPacket{packet, in_port, sim_.now()});
      return;
  }
}

void Switch::set_port_state(std::uint16_t port_no, bool up) {
  const auto it = ports_.find(port_no);
  SDNBUF_CHECK_MSG(it != ports_.end(), "unknown port");
  Port& port = it->second;
  if (port.up == up) return;
  port.up = up;
  if (!crashed_) send_port_status(port_no, port, up);
  if (up && !port.held.empty()) {
    // Replay parked packets in arrival order through the normal egress path.
    std::deque<HeldPacket> held = std::move(port.held);
    port.held.clear();
    for (auto& h : held) {
      ++counters_.port_held_flushed;
      egress(h.packet, port_no, h.in_port);
    }
  }
}

bool Switch::port_up(std::uint16_t port_no) const {
  const auto it = ports_.find(port_no);
  SDNBUF_CHECK_MSG(it != ports_.end(), "unknown port");
  return it->second.up;
}

void Switch::send_port_status(std::uint16_t port_no, const Port& port, bool up) {
  if (channel_ == nullptr) return;
  of::PortStatus msg;
  msg.xid = channel_->next_xid();
  msg.reason = up ? of::PortStatusReason::Add : of::PortStatusReason::Delete;
  msg.desc = port_desc(port_no, port);
  ++counters_.port_status_sent;
  channel_->send_from_switch(std::move(msg));
}

of::PortDesc Switch::port_desc(std::uint16_t port_no, const Port& port) const {
  of::PortDesc desc;
  desc.port_no = port_no;
  desc.hw_addr = net::MacAddress::from_index(port_no);
  desc.name = "eth" + std::to_string(port_no);
  desc.curr_speed_mbps = static_cast<std::uint32_t>(port.egress->bandwidth_bps() / 1e6);
  desc.link_down = !port.up;
  return desc;
}

void Switch::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++counters_.crashes;
  // Volatile state dies with the process. Buffered units expire through the
  // managers so the invariant ledger records their packets as expired — no
  // unit leaks across the crash.
  if (packet_buffer_ != nullptr) {
    counters_.buffer_units_expired += packet_buffer_->units_in_use();
    counters_.buffered_packets_expired += packet_buffer_->expire_all();
  }
  if (flow_buffer_ != nullptr) {
    counters_.buffer_units_expired += flow_buffer_->units_in_use();
    counters_.buffered_packets_expired += flow_buffer_->expire_all();
  }
  for (auto& [port_no, port] : ports_) {
    (void)port_no;
    for (auto& h : port.held) {
      ++counters_.port_held_expired;
      ++counters_.packets_dropped;
      if (observer_ != nullptr) {
        observer_->on_packet_dropped(h.packet, "switch-crashed", sim_.now());
      }
    }
    port.held.clear();
  }
  // The flow table is RAM: gone. No flow_removed — a dead switch sends
  // nothing.
  table_.remove(of::Match::wildcard_all(), std::nullopt, /*strict=*/false);
  pending_requests_.clear();
  outstanding_echo_xid_.reset();
  pending_hello_xid_.reset();
  echo_misses_ = 0;
  echo_event_.cancel();
  conn_state_ = ConnectionState::Degraded;  // the control connection died too
}

void Switch::restart() {
  if (!crashed_) return;
  crashed_ = false;
  // Fresh process: rejoin through the hello re-handshake so the controller
  // purges its stale per-datapath bookkeeping and re-learns us.
  begin_reconnect();
  if (running_ && config_.echo_interval > sim::SimTime::zero()) {
    echo_event_ = sim_.schedule(config_.echo_interval, [this]() {
      sim::ScopedProfileTag tag{config_.name.c_str()};
      echo_tick();
    });
  }
}

void Switch::handle_flow_stats(const of::FlowStatsRequest& msg) {
  ++counters_.stats_requests_handled;
  const double service =
      config_.costs.stats_base_us + config_.costs.stats_per_entry_us * table_.size();
  cpu_.submit(cost_us(service), [this, msg]() {
    of::FlowStatsReply reply;
    reply.xid = msg.xid;
    for (const auto* entry : table_.entries()) {
      if (!msg.match.subsumes(entry->match)) continue;
      of::FlowStatsEntry e;
      e.match = entry->match;
      const sim::SimTime age = sim_.now() - entry->installed_at;
      e.duration_sec = static_cast<std::uint32_t>(age.sec());
      e.duration_nsec = static_cast<std::uint32_t>(age.ns() % 1'000'000'000);
      e.priority = entry->priority;
      e.idle_timeout_s = entry->idle_timeout_s;
      e.hard_timeout_s = entry->hard_timeout_s;
      e.cookie = entry->cookie;
      e.packet_count = entry->packet_count;
      e.byte_count = entry->byte_count;
      reply.flows.push_back(std::move(e));
    }
    channel_->send_from_switch(std::move(reply));
  });
}

void Switch::handle_aggregate_stats(const of::AggregateStatsRequest& msg) {
  ++counters_.stats_requests_handled;
  const double service =
      config_.costs.stats_base_us + config_.costs.stats_per_entry_us * table_.size();
  cpu_.submit(cost_us(service), [this, msg]() {
    of::AggregateStatsReply reply;
    reply.xid = msg.xid;
    for (const auto* entry : table_.entries()) {
      if (!msg.match.subsumes(entry->match)) continue;
      ++reply.flow_count;
      reply.packet_count += entry->packet_count;
      reply.byte_count += entry->byte_count;
    }
    channel_->send_from_switch(std::move(reply));
  });
}

void Switch::handle_port_stats(const of::PortStatsRequest& msg) {
  ++counters_.stats_requests_handled;
  const double service = config_.costs.stats_base_us +
                         config_.costs.stats_per_entry_us * static_cast<double>(ports_.size());
  cpu_.submit(cost_us(service), [this, msg]() {
    of::PortStatsReply reply;
    reply.xid = msg.xid;
    for (const auto& [port_no, port] : ports_) {
      if (msg.port_no != of::kPortNone && msg.port_no != port_no) continue;
      of::PortStatsEntry e;
      e.port_no = port_no;
      e.rx_packets = port.rx_packets;
      e.rx_bytes = port.rx_bytes;
      e.tx_packets = port.tx_packets;
      e.tx_bytes = port.tx_bytes;
      e.tx_dropped = port.tx_dropped;
      reply.ports.push_back(e);
    }
    channel_->send_from_switch(std::move(reply));
  });
}

void Switch::sweep() {
  for (const auto& removed : table_.expire(sim_.now())) emit_flow_removed(removed);
  const sim::SimTime cutoff = sim_.now() - config_.costs.buffer_expiry;
  if (cutoff > sim::SimTime::zero()) {
    if (packet_buffer_ != nullptr) {
      const std::size_t units_before = packet_buffer_->units_in_use();
      counters_.buffered_packets_expired += packet_buffer_->expire_older_than(cutoff);
      counters_.buffer_units_expired += units_before - packet_buffer_->units_in_use();
    }
    if (flow_buffer_ != nullptr) {
      const std::size_t units_before = flow_buffer_->units_in_use();
      counters_.buffered_packets_expired += flow_buffer_->expire_older_than(cutoff);
      counters_.buffer_units_expired += units_before - flow_buffer_->units_in_use();
    }
    // Packets parked by HoldUntilRecovery age out on the same clock as
    // buffered units: a port that stays down past buffer_expiry will not
    // deliver them anyway.
    for (auto& [port_no, port] : ports_) {
      (void)port_no;
      while (!port.held.empty() && port.held.front().held_at <= cutoff) {
        ++counters_.port_held_expired;
        ++counters_.packets_dropped;
        if (observer_ != nullptr) {
          observer_->on_packet_dropped(port.held.front().packet, "port-hold-expired", sim_.now());
        }
        port.held.pop_front();
      }
    }
  }
  if (running_) {
    sweep_event_ = sim_.schedule(config_.sweep_interval, [this]() {
      sim::ScopedProfileTag tag{config_.name.c_str()};
      sweep();
    });
  }
}

void Switch::emit_flow_removed(const RemovedEntry& removed) {
  const bool wants = (removed.entry.flags & of::kFlowModSendFlowRem) != 0;
  if (!wants && !config_.send_flow_removed) return;
  if (channel_ == nullptr) return;
  of::FlowRemoved msg;
  msg.xid = channel_->next_xid();
  msg.match = removed.entry.match;
  msg.cookie = removed.entry.cookie;
  msg.priority = removed.entry.priority;
  msg.reason = removed.reason;
  const sim::SimTime lifetime = sim_.now() - removed.entry.installed_at;
  msg.duration_sec = static_cast<std::uint32_t>(lifetime.sec());
  msg.duration_nsec = static_cast<std::uint32_t>(lifetime.ns() % 1'000'000'000);
  msg.idle_timeout_s = removed.entry.idle_timeout_s;
  msg.packet_count = removed.entry.packet_count;
  msg.byte_count = removed.entry.byte_count;
  ++counters_.flow_removed_sent;
  channel_->send_from_switch(std::move(msg));
}

void Switch::reset_counters() {
  counters_ = SwitchCounters{};
  // Per-port egress high-water marks re-base at the current backlog so a
  // measurement window that starts after warm-up reports its own bursts,
  // not the warm-up's.
  for (auto& [port_no, port] : ports_) {
    (void)port_no;
    port.scheduler->reset_highwater();
  }
  if (mmu_ != nullptr) mmu_->reset_counters();
}

std::size_t Switch::buffer_units_in_use() const {
  if (packet_buffer_ != nullptr) return packet_buffer_->units_in_use();
  if (flow_buffer_ != nullptr) return flow_buffer_->units_in_use();
  return 0;
}

const metrics::OccupancyTracker* Switch::buffer_occupancy() const {
  if (packet_buffer_ != nullptr) return &packet_buffer_->occupancy();
  if (flow_buffer_ != nullptr) return &flow_buffer_->occupancy();
  return nullptr;
}

}  // namespace sdnbuf::sw
