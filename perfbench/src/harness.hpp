#pragma once

/// \file harness.hpp
/// Measurement rules of the benchmark, kept free of any repository type so
/// perfbench_selftest can pin them in isolation:
///  - percentiles by nearest rank, and the tail rule (the highest
///    percentile that still leaves at least ten samples beyond it);
///  - open-loop timing: a request is timed from when it was due, so a
///    stalled generator charges its stall to every request behind it;
///  - outcome accounting: a failed or refused request counts as attempted
///    and as missing its latency limit;
///  - spans: in-memory records with a parent link, and a span's self time
///    as its duration minus the part of it its children cover.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Percentiles ------------------------------------------------------------

/// Nearest-rank percentile (q in [0, 100]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Highest of {99, 95, 90, 75, 50} whose nearest-rank index leaves at least
/// `min_beyond` samples strictly above it in a sample of `n`; 0 when even
/// the median does not.
[[nodiscard]] int supported_tail_percentile(std::size_t n,
                                            std::size_t min_beyond = 10);

// ---- Open-loop schedule and outcomes ---------------------------------------

/// Due times of a fixed-rate open loop: start + i / rate for every i with
/// i / rate < duration.
[[nodiscard]] std::vector<std::int64_t> open_loop_schedule(
    std::int64_t start_ns, double rate_rps, double duration_s);

/// Due times of a Poisson open loop: exponential gaps of mean 1 / rate,
/// each -ln(1 - u) / rate for the next u in [0, 1) from `uniform01`. Random
/// phases keep a steady arrival rate from locking onto a periodic timer in
/// the system under test.
[[nodiscard]] std::vector<std::int64_t> poisson_schedule(
    std::int64_t start_ns, double rate_rps, double duration_s,
    const std::function<double()>& uniform01);

/// What happened to one request. Open-loop requests set due_ns to their
/// scheduled send time; closed-loop callers set it to the actual send.
struct Outcome {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t first_ns = 0;  ///< first result bytes (chunk); 0 = none
  std::int64_t done_ns = 0;   ///< terminal reply; 0 = never arrived
  bool ok = false;            ///< served ok AND passed the output gate
  double limit_ms = 0.0;      ///< per-request latency limit
  int frames = 0;             ///< predicted frames delivered
};

/// Latency from due time to the terminal reply.
[[nodiscard]] double latency_ms(const Outcome& o);
/// Latency from due time to the first result bytes.
[[nodiscard]] double first_result_ms(const Outcome& o);
/// How late the generator sent the request, in ms (>= 0).
[[nodiscard]] double send_lag_ms(const Outcome& o);
/// Ok and within the request's latency limit. Failures never are.
[[nodiscard]] bool within_limit(const Outcome& o);

struct Summary {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t within = 0;
  std::size_t failed = 0;
  double slo_share = 0.0;   ///< within / attempted
  double ok_share = 0.0;    ///< ok / attempted
  std::size_t good_frames = 0;  ///< frames of requests within their limit
};
[[nodiscard]] Summary summarize(const std::vector<Outcome>& outcomes);

// ---- Spans ------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the same log; -1 for a root
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals clipped to it. Indexed like `spans`.
[[nodiscard]] std::vector<double> self_times_ns(const std::vector<Span>& spans);

/// Thread-safe in-memory span log. Spans are written out only when the
/// run ends (see layer_totals).
class SpanLog {
 public:
  /// Opens a span and returns its id.
  int open(const std::string& name, int parent = -1);
  void close(int id);
  [[nodiscard]] std::vector<Span> spans() const;
  void clear();

  /// Sum of self time (ms) and span count per name, over closed spans.
  struct Total {
    double self_ms = 0.0;
    double total_ms = 0.0;
    std::size_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Total> totals() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span on a log; a null log makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int parent = -1)
      : log_(log), id_(log ? log->open(name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
