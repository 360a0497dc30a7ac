// Queueing-station models for processing resources.
//
// `CpuServer` models a multi-core processor (c parallel servers, one FIFO
// queue): the switch CPU, the controller CPU, and — with one core — the
// ASIC<->CPU bus of the switch and similar serial resources. Jobs carry a
// pre-computed service time; the station provides queueing, busy-time
// accounting (for CPU-utilization metrics) and waiting-time statistics.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "util/stats.hpp"

namespace sdnbuf::sim {

class CpuServer {
 public:
  // `cores` >= 1. `name` is used only for diagnostics.
  CpuServer(Simulator& sim, std::string name, unsigned cores);

  CpuServer(const CpuServer&) = delete;
  CpuServer& operator=(const CpuServer&) = delete;

  // Enqueues a job. `on_done` runs when service completes (may be empty).
  void submit(SimTime service, std::function<void()> on_done);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] unsigned cores() const { return cores_; }

  // Total accumulated busy time across all cores (completed portions only).
  [[nodiscard]] SimTime busy_time() const { return busy_time_; }

  // Utilization over [window_start, window_end] as the OS would report a
  // process' CPU: 100% == one core fully busy, so an N-core station can
  // report up to N*100%. Only service completed within the window counts;
  // call after draining for end-of-run metrics.
  [[nodiscard]] double utilization_percent(SimTime window_start, SimTime window_end) const;

  [[nodiscard]] std::uint64_t jobs_started() const { return jobs_started_; }
  [[nodiscard]] std::uint64_t jobs_completed() const { return jobs_completed_; }

  // Waiting time (queue entry -> service start) statistics, in milliseconds.
  [[nodiscard]] const util::Summary& wait_ms() const { return wait_ms_; }

  // Resets counters/statistics (not the in-flight state; call when idle).
  void reset_stats();

 private:
  struct Job {
    SimTime service;
    SimTime enqueued_at;
    std::function<void()> on_done;
  };

  void start(Job job);
  void on_complete(SimTime service, std::function<void()> on_done);

  Simulator& sim_;
  std::string name_;
  unsigned cores_;
  unsigned busy_ = 0;
  std::deque<Job> queue_;
  SimTime busy_time_;
  std::uint64_t jobs_started_ = 0;
  std::uint64_t jobs_completed_ = 0;
  util::Summary wait_ms_;
};

}  // namespace sdnbuf::sim
