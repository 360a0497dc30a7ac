// FIFO queue over a power-of-two ring that grows on first use.
//
// Unlike std::deque, an empty `RingQueue` owns no memory, so components that
// hold one (CPU stations, control channels) construct without allocating,
// and a steady-state queue reuses its ring instead of allocating blocks.
// Elements must be default-constructible and move-assignable: popped slots
// keep a moved-from value until reused.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace sdnbuf::util {

template <class T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  [[nodiscard]] T pop_front() {
    SDNBUF_CHECK(size_ > 0);
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return value;
  }

 private:
  static constexpr std::size_t kInitialSlots = 4;

  void grow() {
    std::vector<T> bigger(slots_.empty() ? kInitialSlots : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  // size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sdnbuf::util
