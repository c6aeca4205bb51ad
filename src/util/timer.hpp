#pragma once

/// \file timer.hpp
/// Wall-clock timing helpers for the benchmark harness, the hybrid
/// GNS/MPM controller (which reports per-phase cost breakdowns) and the
/// wire's deadlines.

#include <chrono>

namespace gns {

/// Milliseconds from `then` to `now` (negative when `now` is earlier).
inline double ms_since(std::chrono::steady_clock::time_point then,
                       std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - then).count();
}

/// `t` plus `ms` milliseconds: a deadline.
inline std::chrono::steady_clock::time_point after_ms(
    std::chrono::steady_clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction or the last reset().
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates wall time across multiple start/stop windows; used for
/// phase breakdowns (e.g. MPM time vs GNS time inside the hybrid loop).
class AccumulatingTimer {
 public:
  /// Opens a window. Calling start() while a window is already open first
  /// accumulates the in-flight window (no time is silently discarded).
  void start() {
    if (running_) stop();
    timer_.reset();
    running_ = true;
  }

  void stop() {
    if (running_) {
      total_ += timer_.seconds();
      ++windows_;
      running_ = false;
    }
  }

  [[nodiscard]] double total_seconds() const { return total_; }
  [[nodiscard]] int windows() const { return windows_; }

 private:
  Timer timer_;
  double total_ = 0.0;
  int windows_ = 0;
  bool running_ = false;
};

/// RAII window on an AccumulatingTimer: start() on construction, stop() on
/// scope exit, so early returns and exceptions can't leak an open window.
class ScopedAccumulate {
 public:
  explicit ScopedAccumulate(AccumulatingTimer& timer) : timer_(timer) {
    timer_.start();
  }
  ~ScopedAccumulate() { timer_.stop(); }
  ScopedAccumulate(const ScopedAccumulate&) = delete;
  ScopedAccumulate& operator=(const ScopedAccumulate&) = delete;

 private:
  AccumulatingTimer& timer_;
};

}  // namespace gns
