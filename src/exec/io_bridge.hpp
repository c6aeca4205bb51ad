#pragma once

/// \file io_bridge.hpp
/// Self-pipe poll bridge: readiness events on registered fds become
/// executor tasks.
///
/// One dedicated poller thread runs poll() over the armed watches plus an
/// internal wake pipe. When a watch fires it is disarmed (oneshot) and
/// its callback is submitted to the executor with the revents mask; the
/// callback re-arms via rearm() when it wants more events. Oneshot
/// semantics guarantee at most one in-flight callback task per watch, so
/// per-connection state needs no locking against the bridge itself (only
/// against timers the owner schedules separately).
///
/// The poller blocks in poll() with no timeout: watch(), rearm(), unwatch()
/// and stop() each write the wake pipe, and the constructor throws
/// std::system_error when that pipe cannot be made. stop() joins the poller
/// and then waits on the bridge's exec::TaskGroup of callback tasks, after
/// which the owner may destroy the bridge. rearm()/unwatch() on a stopped
/// bridge are harmless no-ops.

#include <atomic>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "exec/task_group.hpp"

namespace gns::exec {

class IoBridge {
 public:
  /// revents: the poll() revents mask (POLLIN/POLLOUT/POLLERR/POLLHUP/
  /// POLLNVAL). A watch whose fd goes invalid fires with POLLNVAL.
  using Callback = std::function<void(short)>;

  explicit IoBridge(Executor& executor);
  ~IoBridge();

  IoBridge(const IoBridge&) = delete;
  IoBridge& operator=(const IoBridge&) = delete;

  /// Registers fd, armed for `events`. Returns a watch id (> 0).
  int watch(int fd, short events, Callback cb);

  /// Re-arms a (disarmed) watch for `events`. Typically called at the end
  /// of the callback task.
  void rearm(int id, short events);

  /// Unregisters the watch; its callback will not be submitted again
  /// (an already-submitted callback task may still be running).
  void unwatch(int id);

  /// Joins the poller and waits for in-flight callback tasks to drain.
  /// Idempotent.
  void stop();

 private:
  struct Watch {
    int fd = -1;
    short events = 0;
    bool armed = false;
    Callback cb;  ///< copied per fire
  };

  void loop();
  void wake();

  TaskGroup tasks_;  ///< callback tasks handed to the executor
  std::mutex m_;
  std::unordered_map<int, Watch> watches_;
  int next_id_ = 1;
  int wake_fds_[2] = {-1, -1};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace gns::exec
