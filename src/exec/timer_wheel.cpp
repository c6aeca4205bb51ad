#include "exec/timer_wheel.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace gns::exec {

namespace {

obs::Counter& scheduled_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("exec.timer.scheduled");
  return c;
}
obs::Counter& fired_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("exec.timer.fired");
  return c;
}
obs::Counter& cancelled_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("exec.timer.cancelled");
  return c;
}

}  // namespace

TimerWheel::TimerWheel(std::function<void(std::function<void()>)> dispatch)
    : dispatch_(std::move(dispatch)),
      epoch_(Clock::now()),
      slots_(kSlots) {
  thread_ = std::thread([this] { loop(); });
}

TimerWheel::~TimerWheel() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::int64_t TimerWheel::tick_of(Clock::time_point tp) const {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_)
          .count();
  return ns <= 0 ? 0 : ns / kTickNs;
}

TimerWheel::TimerId TimerWheel::schedule_at(Clock::time_point due,
                                            std::function<void()> fn) {
  std::unique_lock<std::mutex> lk(m_);
  const TimerId id = next_id_++;
  // Round the due time UP to a tick boundary: a callback must never run
  // before its due point (deadline-capped batch windows rely on firing
  // meaning "the deadline has lapsed"). Entries at or before the cursor
  // land on the next unprocessed tick so the wheel thread cannot skip
  // them.
  const auto due_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(due - epoch_)
          .count();
  const std::int64_t due_ceil =
      due_ns <= 0 ? 0 : (due_ns + kTickNs - 1) / kTickNs;
  const std::int64_t due_tick = std::max(due_ceil, cursor_tick_ + 1);
  const std::size_t slot = static_cast<std::size_t>(due_tick) % kSlots;
  slots_[slot].push_back(Entry{id, due_tick, std::move(fn)});
  slot_of_.emplace(id, slot);
  lk.unlock();
  cv_.notify_all();
  scheduled_counter().add(1);
  return id;
}

bool TimerWheel::cancel(TimerId id) {
  std::lock_guard<std::mutex> lk(m_);
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return false;
  auto& bucket = slots_[it->second];
  for (auto eit = bucket.begin(); eit != bucket.end(); ++eit) {
    if (eit->id == id) {
      bucket.erase(eit);
      slot_of_.erase(it);
      cancelled_counter().add(1);
      return true;
    }
  }
  // Map said the timer exists but the bucket disagrees: it is being fired
  // right now (loop() removes bucket entries before unlocking).
  return false;
}

std::size_t TimerWheel::armed() const {
  std::lock_guard<std::mutex> lk(m_);
  return slot_of_.size();
}

void TimerWheel::loop() {
  std::unique_lock<std::mutex> lk(m_);
  while (!stop_) {
    if (slot_of_.empty()) {
      cv_.wait(lk, [this] { return stop_ || !slot_of_.empty(); });
      continue;
    }
    // Soonest armed deadline (armed count is small: batch windows +
    // in-flight request deadlines).
    std::int64_t soonest = INT64_MAX;
    for (const auto& [id, slot] : slot_of_) {
      for (const auto& e : slots_[slot])
        if (e.id == id) soonest = std::min(soonest, e.due_tick);
    }
    const auto wake = epoch_ + std::chrono::nanoseconds(soonest * kTickNs);
    if (Clock::now() < wake) {
      cv_.wait_until(lk, wake);
      continue;  // re-evaluate: new timers or stop may have arrived
    }
    // Advance the cursor, firing everything due. Collect under the lock,
    // dispatch outside it.
    const std::int64_t now_tick = tick_of(Clock::now());
    std::vector<Entry> due;
    while (cursor_tick_ < now_tick) {
      ++cursor_tick_;
      auto& bucket = slots_[static_cast<std::size_t>(cursor_tick_) % kSlots];
      for (std::size_t i = 0; i < bucket.size();) {
        if (bucket[i].due_tick <= cursor_tick_) {
          slot_of_.erase(bucket[i].id);
          due.push_back(std::move(bucket[i]));
          bucket[i] = std::move(bucket.back());
          bucket.pop_back();
        } else {
          ++i;
        }
      }
    }
    if (!due.empty()) {
      lk.unlock();
      // Fire in due order so two timers in the same batch keep their
      // deadline ordering.
      std::sort(due.begin(), due.end(),
                [](const Entry& a, const Entry& b) {
                  return a.due_tick < b.due_tick ||
                         (a.due_tick == b.due_tick && a.id < b.id);
                });
      for (auto& e : due) dispatch_(std::move(e.fn));
      fired_counter().add(static_cast<std::uint64_t>(due.size()));
      lk.lock();
    }
  }
}

}  // namespace gns::exec
