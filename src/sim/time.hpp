// Simulation time: a strong integer-nanosecond type.
//
// One type serves as both time point and duration (the arithmetic the
// simulator needs never mixes incompatible units, and a single type keeps the
// API small). Integer nanoseconds make event ordering exact and runs
// bit-reproducible — no floating-point time drift.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "util/strings.hpp"

namespace sdnbuf::sim {

class SimTime {
 public:
  constexpr SimTime() = default;

  [[nodiscard]] static constexpr SimTime nanoseconds(std::int64_t v) { return SimTime{v}; }
  [[nodiscard]] static constexpr SimTime microseconds(std::int64_t v) { return SimTime{v * 1000}; }
  [[nodiscard]] static constexpr SimTime milliseconds(std::int64_t v) {
    return SimTime{v * 1'000'000};
  }
  [[nodiscard]] static constexpr SimTime seconds(std::int64_t v) {
    return SimTime{v * 1'000'000'000};
  }
  // From fractional seconds; rounds to the nearest nanosecond.
  [[nodiscard]] static SimTime from_seconds(double s) {
    return SimTime{static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5))};
  }
  [[nodiscard]] static SimTime from_microseconds(double us) { return from_seconds(us * 1e-6); }
  [[nodiscard]] static constexpr SimTime zero() { return SimTime{}; }
  [[nodiscard]] static constexpr SimTime max() { return SimTime{INT64_MAX}; }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double us() const { return static_cast<double>(ns_) / 1e3; }
  [[nodiscard]] constexpr double ms() const { return static_cast<double>(ns_) / 1e6; }
  [[nodiscard]] constexpr double sec() const { return static_cast<double>(ns_) / 1e9; }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime operator+(SimTime o) const { return SimTime{ns_ + o.ns_}; }
  constexpr SimTime operator-(SimTime o) const { return SimTime{ns_ - o.ns_}; }
  constexpr SimTime& operator+=(SimTime o) {
    ns_ += o.ns_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime o) {
    ns_ -= o.ns_;
    return *this;
  }
  [[nodiscard]] constexpr SimTime scaled(double f) const {
    return SimTime{static_cast<std::int64_t>(static_cast<double>(ns_) * f)};
  }

  [[nodiscard]] std::string to_string() const { return util::format_duration_ns(ns_); }

 private:
  constexpr explicit SimTime(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

// Serialization time of `bytes` at `bits_per_second` on a link or bus.
[[nodiscard]] inline SimTime transmission_time(std::uint64_t bytes, double bits_per_second) {
  return SimTime::from_seconds(static_cast<double>(bytes) * 8.0 / bits_per_second);
}

}  // namespace sdnbuf::sim
