#include "sim/server.hpp"

#include <utility>

#include "util/check.hpp"

namespace sdnbuf::sim {

CpuServer::CpuServer(Simulator& sim, std::string name, unsigned cores)
    : sim_(sim), name_(std::move(name)), cores_(cores) {
  SDNBUF_CHECK_MSG(cores_ >= 1, "a server needs at least one core");
}

void CpuServer::submit(SimTime service, EventFn on_done) {
  SDNBUF_CHECK_MSG(service >= SimTime::zero(), "negative service time");
  Job job{service, sim_.now(), std::move(on_done)};
  if (busy_ < cores_) {
    start(std::move(job));
  } else {
    queue_.push_back(std::move(job));
  }
}

void CpuServer::start(Job job) {
  ++busy_;
  ++jobs_started_;
  wait_ms_.add((sim_.now() - job.enqueued_at).ms());
  std::uint32_t slot = 0;
  while (slot < in_service_.size() && in_service_[slot].busy) ++slot;
  if (slot == in_service_.size()) in_service_.emplace_back();
  InService& core = in_service_[slot];
  core.service = job.service;
  core.on_done = std::move(job.on_done);
  core.busy = true;
  sim_.schedule(job.service, [this, slot]() {
    ScopedProfileTag tag{name_.c_str()};
    on_complete(slot);
  });
}

void CpuServer::on_complete(std::uint32_t slot) {
  SDNBUF_CHECK(busy_ > 0 && in_service_[slot].busy);
  --busy_;
  ++jobs_completed_;
  InService& core = in_service_[slot];
  busy_time_ += core.service;
  EventFn on_done = std::move(core.on_done);
  core.busy = false;
  // Free core: pull the next queued job before running the completion
  // callback, so callback-triggered submissions queue fairly behind it.
  if (!queue_.empty()) start(queue_.pop_front());
  if (on_done) on_done();
}

double CpuServer::utilization_percent(SimTime window_start, SimTime window_end) const {
  SDNBUF_CHECK(window_end > window_start);
  const double window = (window_end - window_start).sec();
  return busy_time_.sec() / window * 100.0;
}

void CpuServer::reset_stats() {
  busy_time_ = SimTime::zero();
  jobs_started_ = 0;
  jobs_completed_ = 0;
  wait_ms_ = util::Summary{};
}

}  // namespace sdnbuf::sim
