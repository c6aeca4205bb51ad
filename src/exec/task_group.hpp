#pragma once

/// \file task_group.hpp
/// An owner scope for executor callbacks: an object hands its tasks and
/// timers to the executor through its TaskGroup, and wait() returns once
/// every submitted task and every timer not cancelled has finished, so the
/// owner can then be torn down. Tasks may submit successors or arm timers
/// on their own group; wait() waits for those too. A task's captures are
/// destroyed before it counts itself out, into a state block it keeps
/// alive, so the group may be destroyed as soon as wait() returns. Never
/// wait() inside one of the group's own tasks.

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>

#include "exec/executor.hpp"

namespace gns::exec {

class TaskGroup {
 public:
  using TimerId = Executor::TimerId;

  explicit TaskGroup(Executor& executor = Executor::global())
      : executor_(executor) {}
  ~TaskGroup() { wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void submit(std::function<void()> fn) {
    executor_.submit(counted(std::move(fn)));
  }
  TimerId schedule_at(TimerWheel::Clock::time_point due,
                      std::function<void()> fn) {
    return executor_.schedule_at(due, counted(std::move(fn)));
  }
  TimerId schedule_after(double delay_ms, std::function<void()> fn) {
    return executor_.schedule_after(delay_ms, counted(std::move(fn)));
  }

  /// True iff the timer's callback will never run; it then stops counting.
  /// False when it already fired (wait() still waits for it), was
  /// cancelled before, or is unknown.
  bool cancel(TimerId id) {
    if (!executor_.cancel_timer(id)) return false;
    state_->finish();
    return true;
  }

  void wait() {
    std::unique_lock<std::mutex> lk(state_->m);
    state_->cv.wait(lk, [this] { return state_->outstanding == 0; });
  }

 private:
  struct State {
    std::mutex m;
    std::condition_variable cv;
    int outstanding = 0;

    void finish() {
      std::lock_guard<std::mutex> lk(m);
      if (--outstanding == 0) cv.notify_all();
    }
  };

  std::function<void()> counted(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lk(state_->m);
      ++state_->outstanding;
    }
    return [state = state_, fn = std::move(fn)]() mutable {
      fn();
      fn = nullptr;  // the task's captures go before wait() can return
      state->finish();
    };
  }

  Executor& executor_;
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

}  // namespace gns::exec
