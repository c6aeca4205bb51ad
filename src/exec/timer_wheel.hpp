#pragma once

/// \file timer_wheel.hpp
/// Hashed timer wheel with a dedicated tick thread.
///
/// Timers are hashed into kSlots buckets by due tick (1ms granularity);
/// insert and cancel are O(1) map + bucket operations. The tick thread
/// sleeps until the soonest armed deadline (indefinitely when idle — no
/// periodic wakeups), then advances the cursor slot by slot, firing every
/// entry whose due tick has passed. Fired callbacks are handed to a
/// dispatch function (the executor's submit) so the wheel thread never
/// runs user code and a slow callback cannot delay other timers.
///
/// cancel() returns true iff the callback will never run — the contract
/// exec::TaskGroup relies on: a successful cancel stops the timer counting
/// toward the group's wait().

#include <cstdint>
#include <functional>
#include <unordered_map>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace gns::exec {

class TimerWheel {
 public:
  using TimerId = std::uint64_t;
  using Clock = std::chrono::steady_clock;

  /// dispatch is invoked from the wheel thread with each fired callback;
  /// it must be cheap and non-blocking (typically Executor::submit).
  explicit TimerWheel(std::function<void(std::function<void()>)> dispatch);
  ~TimerWheel();

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  TimerId schedule_at(Clock::time_point due, std::function<void()> fn);

  /// True iff the callback will never run (it had not yet been handed to
  /// dispatch). False when it already fired, was already cancelled, or the
  /// id is unknown.
  bool cancel(TimerId id);

  /// Currently armed timers (diagnostics).
  std::size_t armed() const;

 private:
  static constexpr std::size_t kSlots = 256;
  static constexpr std::int64_t kTickNs = 1'000'000;  // 1ms granularity

  struct Entry {
    TimerId id;
    std::int64_t due_tick;
    std::function<void()> fn;
  };

  std::int64_t tick_of(Clock::time_point tp) const;
  void loop();

  std::function<void(std::function<void()>)> dispatch_;
  Clock::time_point epoch_;

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::vector<std::vector<Entry>> slots_;
  std::unordered_map<TimerId, std::size_t> slot_of_;  // id -> slot index
  TimerId next_id_ = 1;
  std::int64_t cursor_tick_ = 0;  // all ticks <= cursor have been processed
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace gns::exec
