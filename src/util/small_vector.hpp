// Small-buffer-optimized vector of trivially copyable values.
//
// `SmallVector<T, N>` keeps up to N elements inline and moves them to one
// heap block when the N+1-th arrives, so the common short list (an OpenFlow
// action list is one or two actions) copies and moves without touching the
// heap. Only the operations the simulator uses are provided; elements must
// be trivially copyable and default-constructible, which keeps copies plain
// element assignments.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <type_traits>
#include <utility>

namespace sdnbuf::util {

template <class T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T> && std::is_default_constructible_v<T>,
                "SmallVector holds plain values");
  static_assert(N >= 1, "inline capacity must be at least one element");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() = default;
  SmallVector(std::initializer_list<T> init) { assign(init.begin(), init.end()); }
  SmallVector(const SmallVector& other) { assign(other.begin(), other.end()); }
  SmallVector(SmallVector&& other) noexcept { take(other); }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      heap_.reset();
      capacity_ = N;
      take(other);
    }
    return *this;
  }
  ~SmallVector() = default;

  [[nodiscard]] T* data() { return heap_ ? heap_.get() : inline_; }
  [[nodiscard]] const T* data() const { return heap_ ? heap_.get() : inline_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  // True while the elements live in the inline buffer (test hook).
  [[nodiscard]] bool is_inline() const { return !heap_; }

  [[nodiscard]] iterator begin() { return data(); }
  [[nodiscard]] iterator end() { return data() + size_; }
  [[nodiscard]] const_iterator begin() const { return data(); }
  [[nodiscard]] const_iterator end() const { return data() + size_; }

  [[nodiscard]] T& operator[](std::size_t i) { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] T& front() { return data()[0]; }
  [[nodiscard]] const T& front() const { return data()[0]; }
  [[nodiscard]] T& back() { return data()[size_ - 1]; }
  [[nodiscard]] const T& back() const { return data()[size_ - 1]; }

  void push_back(const T& value) {
    const T copy = value;  // `value` may alias an element a regrow frees
    if (size_ == capacity_) reallocate(2 * capacity_);
    data()[size_++] = copy;
  }
  template <class... Args>
  T& emplace_back(Args&&... args) {
    push_back(T(std::forward<Args>(args)...));
    return back();
  }
  void clear() { size_ = 0; }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  void assign(const T* first, const T* last) {
    const auto n = static_cast<std::size_t>(last - first);
    if (n > capacity_) {
      heap_ = std::make_unique<T[]>(n);
      capacity_ = static_cast<std::uint32_t>(n);
    }
    std::copy(first, last, data());
    size_ = static_cast<std::uint32_t>(n);
  }

  void take(SmallVector& other) {
    if (other.heap_) {
      heap_ = std::move(other.heap_);
      capacity_ = other.capacity_;
    } else {
      std::copy(other.inline_, other.inline_ + other.size_, inline_);
    }
    size_ = other.size_;
    other.size_ = 0;
    other.capacity_ = N;
  }

  void reallocate(std::size_t capacity) {
    auto bigger = std::make_unique<T[]>(capacity);
    std::copy(begin(), end(), bigger.get());
    heap_ = std::move(bigger);
    capacity_ = static_cast<std::uint32_t>(capacity);
  }

  std::unique_ptr<T[]> heap_;  // null while the elements fit inline
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
  T inline_[N]{};
};

}  // namespace sdnbuf::util
