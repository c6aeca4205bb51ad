#include "exec/io_bridge.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace gns::exec {

namespace {

obs::Counter& events_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("exec.io.events");
  return c;
}

}  // namespace

IoBridge::IoBridge(Executor& executor) : tasks_(executor) {
  // Without the wake pipe a re-arm would never reach the poller.
  if (::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0)
    throw std::system_error(errno, std::generic_category(),
                            "IoBridge: wake pipe");
  thread_ = std::thread([this] { loop(); });
}

IoBridge::~IoBridge() {
  stop();
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
}

void IoBridge::wake() {
  // A full pipe (EAGAIN) is already readable: the poller wakes anyway.
  const char b = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &b, 1);
}

int IoBridge::watch(int fd, short events, Callback cb) {
  int id;
  {
    std::lock_guard<std::mutex> lk(m_);
    id = next_id_++;
    watches_[id] = Watch{fd, events, true, std::move(cb)};
  }
  wake();
  return id;
}

void IoBridge::rearm(int id, short events) {
  {
    std::lock_guard<std::mutex> lk(m_);
    auto it = watches_.find(id);
    if (it == watches_.end()) return;
    it->second.events = events;
    it->second.armed = true;
  }
  wake();
}

void IoBridge::unwatch(int id) {
  {
    std::lock_guard<std::mutex> lk(m_);
    watches_.erase(id);
  }
  wake();
}

void IoBridge::stop() {
  if (!stop_.exchange(true)) wake();  // a second caller still waits below
  if (thread_.joinable()) thread_.join();
  // Callback tasks already handed to the executor may still be queued or
  // running; once they finish the owner may tear down.
  tasks_.wait();
}

void IoBridge::loop() {
  std::vector<pollfd> fds;
  std::vector<int> ids;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    fds.clear();
    ids.clear();
    fds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    ids.push_back(0);
    {
      std::lock_guard<std::mutex> lk(m_);
      for (const auto& [id, w] : watches_) {
        if (!w.armed) continue;
        fds.push_back(pollfd{w.fd, w.events, 0});
        ids.push_back(id);
      }
    }
    // No timeout: watch, rearm, unwatch and stop all write the wake pipe.
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
    if (rc <= 0) continue;
    if ((fds[0].revents & POLLIN) != 0) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      const short re = fds[i].revents;
      if (re == 0) continue;
      Callback cb;
      {
        std::lock_guard<std::mutex> lk(m_);
        auto it = watches_.find(ids[i]);
        if (it == watches_.end() || !it->second.armed) continue;
        it->second.armed = false;  // oneshot: cb re-arms when ready
        cb = it->second.cb;
      }
      events_counter().add(1);
      tasks_.submit([cb = std::move(cb), re] { cb(re); });
    }
  }
}

}  // namespace gns::exec
