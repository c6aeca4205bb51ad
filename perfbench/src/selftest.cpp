// Self-tests of the benchmark's measurement rules (harness.hpp). run.py
// runs them before every benchmark run; a failure aborts the run.

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "harness.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED (line %d): %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void tail_percentile_rule() {
  // p90 of 100 samples leaves exactly 10 above it; p95 would leave 5.
  EXPECT(supported_tail_percentile(100) == 90);
  EXPECT(supported_tail_percentile(99) == 75);
  EXPECT(supported_tail_percentile(200) == 95);
  EXPECT(supported_tail_percentile(1000) == 99);
  EXPECT(supported_tail_percentile(20) == 50);
  EXPECT(supported_tail_percentile(19) == 0);
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT(near(percentile(v, 90), 90.0));
  EXPECT(near(percentile(v, 50), 50.0));
  EXPECT(near(median({5.0, 1.0, 3.0}), 3.0));
  EXPECT(near(percentile({}, 50), 0.0));
}

void open_loop_timing() {
  const auto due = open_loop_schedule(1'000, 10.0, 1.0);
  EXPECT(due.size() == 10);
  EXPECT(due.front() == 1'000);
  EXPECT(due.back() == 1'000 + 900'000'000);
  // A source that always yields 1 - 1/e gives gaps of exactly 1 / rate.
  const auto poisson = poisson_schedule(0, 4.0, 1.0, [] {
    return 1.0 - std::exp(-1.0);
  });
  EXPECT(poisson.size() == 4);
  EXPECT(std::llabs(poisson[3] - 750'000'000) < 1000);
  // Sent 50 ms late and answered 30 ms after sending: the request is
  // charged 80 ms, the stall included.
  Outcome o;
  o.due_ns = 0;
  o.sent_ns = 50'000'000;
  o.first_ns = 60'000'000;
  o.done_ns = 80'000'000;
  o.ok = true;
  EXPECT(near(latency_ms(o), 80.0));
  EXPECT(near(first_result_ms(o), 60.0));
  EXPECT(near(send_lag_ms(o), 50.0));
  o.limit_ms = 79.0;
  EXPECT(!within_limit(o));
  o.limit_ms = 80.0;
  EXPECT(within_limit(o));
}

void failures_miss_the_limit() {
  Outcome fast_fail;
  fast_fail.done_ns = 1'000'000;  // refused after 1 ms
  fast_fail.limit_ms = 100.0;
  fast_fail.frames = 8;
  EXPECT(!within_limit(fast_fail));
  Outcome lost;  // never answered
  lost.ok = false;
  lost.limit_ms = 100.0;
  EXPECT(!within_limit(lost));
  Outcome good;
  good.ok = true;
  good.done_ns = 2'000'000;
  good.limit_ms = 100.0;
  good.frames = 4;
  const Summary s = summarize({fast_fail, lost, good, good});
  EXPECT(s.attempted == 4);
  EXPECT(s.failed == 2);
  EXPECT(s.within == 2);
  EXPECT(near(s.slo_share, 0.5));
  EXPECT(near(s.ok_share, 0.5));
  EXPECT(s.good_frames == 8);
}

void span_self_time() {
  // Parent [0,100]; children overlap each other and one runs past the
  // parent's end: covered = [10,50] + [90,100] = 50.
  std::vector<Span> spans = {{"parent", 0, 100, -1},
                             {"a", 10, 30, 0},
                             {"b", 20, 50, 0},
                             {"c", 90, 120, 0},
                             {"a.inner", 12, 18, 1}};
  const auto self = self_times_ns(spans);
  EXPECT(near(self[0], 50.0));
  EXPECT(near(self[1], 14.0));  // 20 minus its 6 ns child
  EXPECT(near(self[2], 30.0));
  EXPECT(near(self[3], 30.0));
  EXPECT(near(self[4], 6.0));

  SpanLog log;
  {
    ScopedSpan outer(&log, "outer");
    ScopedSpan inner(&log, "inner", outer.id());
  }
  const auto recorded = log.spans();
  EXPECT(recorded.size() == 2);
  EXPECT(recorded[1].parent == 0);
  const auto totals = log.totals();
  EXPECT(totals.at("outer").count == 1);
  EXPECT(totals.at("outer").self_ms <= totals.at("outer").total_ms);
  ScopedSpan untraced(nullptr, "ignored");  // a null log records nothing
  EXPECT(log.spans().size() == 2);
}

}  // namespace

int main() {
  tail_percentile_rule();
  open_loop_timing();
  failures_miss_the_limit();
  span_self_time();
  if (g_failures == 0) std::printf("selftest: all harness checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
