#include "harness.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

int supported_tail_percentile(std::size_t n, std::size_t min_beyond) {
  for (int q : {99, 95, 90, 75, 50}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= min_beyond) return q;
  }
  return 0;
}

std::vector<std::int64_t> open_loop_schedule(std::int64_t start_ns,
                                             double rate_rps,
                                             double duration_s) {
  std::vector<std::int64_t> due;
  if (!(rate_rps > 0.0)) return due;
  for (std::int64_t i = 0;; ++i) {
    const double offset_s = static_cast<double>(i) / rate_rps;
    if (offset_s >= duration_s) break;
    due.push_back(start_ns + static_cast<std::int64_t>(offset_s * 1e9));
  }
  return due;
}

std::vector<std::int64_t> poisson_schedule(
    std::int64_t start_ns, double rate_rps, double duration_s,
    const std::function<double()>& uniform01) {
  std::vector<std::int64_t> due;
  if (!(rate_rps > 0.0)) return due;
  for (double t = 0.0; t < duration_s;
       t += -std::log1p(-uniform01()) / rate_rps)
    due.push_back(start_ns + static_cast<std::int64_t>(t * 1e9));
  return due;
}

double latency_ms(const Outcome& o) {
  return o.done_ns > 0 ? static_cast<double>(o.done_ns - o.due_ns) * 1e-6
                       : 0.0;
}

double first_result_ms(const Outcome& o) {
  return o.first_ns > 0 ? static_cast<double>(o.first_ns - o.due_ns) * 1e-6
                        : 0.0;
}

double send_lag_ms(const Outcome& o) {
  return o.sent_ns > o.due_ns
             ? static_cast<double>(o.sent_ns - o.due_ns) * 1e-6
             : 0.0;
}

bool within_limit(const Outcome& o) {
  return o.ok && o.done_ns > 0 && latency_ms(o) <= o.limit_ms;
}

Summary summarize(const std::vector<Outcome>& outcomes) {
  Summary s;
  s.attempted = outcomes.size();
  for (const Outcome& o : outcomes) {
    if (o.ok) ++s.ok;
    else ++s.failed;
    if (within_limit(o)) {
      ++s.within;
      s.good_frames += static_cast<std::size_t>(o.frames);
    }
  }
  if (s.attempted > 0) {
    s.slo_share = static_cast<double>(s.within) / s.attempted;
    s.ok_share = static_cast<double>(s.ok) / s.attempted;
  }
  return s;
}

std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, cursor);
      hi = std::min(hi, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

int SpanLog::open(const std::string& name, int parent) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, t, 0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanLog::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

std::map<std::string, SpanLog::Total> SpanLog::totals() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_times_ns(all);
  std::map<std::string, Total> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].end_ns == 0) continue;  // still open
    Total& t = out[all[i].name];
    t.self_ms += self[i] * 1e-6;
    t.total_ms += static_cast<double>(all[i].end_ns - all[i].start_ns) * 1e-6;
    ++t.count;
  }
  return out;
}

}  // namespace perfbench
