// Measurement plumbing for the benchmark driver: wall-clock helpers, an
// in-memory span recorder and a small JSON writer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);

// CPU seconds used by every thread of this process. The kernel leaves out
// time the hypervisor stole from the vCPUs.
[[nodiscard]] double process_cpu_seconds();

// Wall and CPU time since construction.
class Stopwatch {
 public:
  Stopwatch() : wall0_(Clock::now()), cpu0_(process_cpu_seconds()) {}
  [[nodiscard]] double wall_s() const { return seconds_since(wall0_); }
  [[nodiscard]] double cpu_s() const { return process_cpu_seconds() - cpu0_; }

 private:
  Clock::time_point wall0_;
  double cpu0_;
};

// num / den, or 0 when den is 0.
[[nodiscard]] inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// FNV-1a over text: the fingerprint every output check compares.
[[nodiscard]] std::string fnv1a_hex(std::string_view text);

// Spans recorded by the benchmark around each call into a simulator layer.
// A span's parent is the span open when it started; everything stays in
// memory until the report is written. A disabled recorder costs one branch.
class SpanRecorder {
 public:
  struct Record {
    std::string name;
    int parent = -1;  // index into records(), -1 for a root span
    double start_s = 0.0;  // since the recorder was created
    double end_s = 0.0;
  };

  class Span {
   public:
    Span(SpanRecorder* recorder, int index) : recorder_(recorder), index_(index) {}
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] Span span(std::string name);
  void set_enabled(bool enabled) { enabled_ = enabled; }

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  // Durations of every span called `name`, in recording order.
  [[nodiscard]] sdnbuf::util::Samples durations(std::string_view name) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;
};

// Streaming JSON writer with automatic comma placement.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void separate();
  std::string out_;
  bool need_comma_ = false;
};

}  // namespace perfbench
