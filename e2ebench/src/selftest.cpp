// Tests of the benchmark's own arithmetic: tail-percentile choice, span
// self time, ratios printed with their base, and the least-of-repeats CPU
// figures. Exits non-zero on failure.

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.hpp"
#include "spans.hpp"
#include "speed.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // descending: the functions must sort
}

void test_tail_percentile() {
  // 1000 samples: p99 is rank 990 and leaves exactly 10 beyond it; p99.9
  // would leave 1.
  e2e::Tail t = e2e::tail_percentile(ramp(1000), 99.9);
  expect(t.resolved && t.level == 99.0 && t.value == 990.0 && t.beyond == 10,
         "1000 samples -> p99 = 990 with 10 beyond");
  // 999 samples: p99 is rank 990, 9 beyond -> falls back to p95 (rank 950).
  t = e2e::tail_percentile(ramp(999), 99.9);
  expect(t.resolved && t.level == 95.0 && t.value == 950.0 && t.beyond == 49,
         "999 samples -> p95");
  // 10000 samples: p99.9 is rank 9990, exactly 10 beyond ...
  t = e2e::tail_percentile(ramp(10000), 99.9);
  expect(t.level == 99.9 && t.beyond == 10, "10000 samples -> p99.9");
  // ... unless the caller caps the level.
  t = e2e::tail_percentile(ramp(10000), 99.0);
  expect(t.level == 99.0 && t.value == 9900.0 && t.beyond == 100,
         "10000 samples capped at p99");
  // 40 samples: p75 (rank 30) leaves 10 beyond.
  t = e2e::tail_percentile(ramp(40), 99.0);
  expect(t.level == 75.0 && t.value == 30.0, "40 samples -> p75");
  t = e2e::tail_percentile(ramp(40), 50.0);
  expect(t.resolved && t.level == 50.0 && t.value == 20.0,
         "40 samples capped at p50");
  // 15 samples: not even the median has 10 beyond -> unresolved median.
  t = e2e::tail_percentile(ramp(15), 99.0);
  expect(!t.resolved && t.value == 8.0 && t.samples == 15,
         "15 samples -> unresolved, median shown");
  for (std::size_t n : {20u, 21u, 100u, 1000u, 1234u, 5000u}) {
    t = e2e::tail_percentile(ramp(n), 99.9);
    expect(!t.resolved || t.beyond >= 10,
           "every resolved tail has >= 10 samples beyond (n=" +
               std::to_string(n) + ")");
  }
  expect(e2e::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(e2e::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
}

e2e::Span span(const char* name, std::int64_t start, std::int64_t end,
               std::int32_t parent) {
  return e2e::Span{name, start, end, parent, 7};
}

void test_self_time() {
  // parent [0, 100) with children [10, 30) and [20, 50) overlapping (union
  // 40), a child [90, 120) running past the parent's end (clipped to 10),
  // and a grandchild [12, 18) inside the first child, which must not be
  // subtracted from the parent again.
  const std::vector<e2e::Span> spans = {
      span("parent", 0, 100, e2e::kNoParent),  // 0
      span("a", 10, 30, 0),                    // 1
      span("b", 20, 50, 0),                    // 2
      span("c", 90, 120, 0),                   // 3
      span("g", 12, 18, 1),                    // 4
  };
  const std::vector<std::int64_t> self = e2e::self_times(spans);
  expect(self[0] == 100 - 40 - 10, "parent self = 50 (union, clipped)");
  expect(self[1] == 20 - 6, "child a self excludes its grandchild");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 6,
         "leaf self = duration");
  const auto layers = e2e::layer_times(spans);
  expect(layers.at("parent").self_ns == 50 && layers.at("a").total_ns == 20,
         "layer totals");

  // Merging re-bases parent ids so they stay inside their own buffer.
  e2e::Tracer tracer(6);
  e2e::SpanBuffer first;
  const std::int32_t root = first.add("root", e2e::kNoParent, 1, 0, 10);
  first.add("kid", root, 1, 2, 4);
  tracer.merge(first);
  e2e::SpanBuffer second;
  const std::int32_t root2 = second.add("root", e2e::kNoParent, 2, 0, 10);
  second.add("kid", root2, 2, 5, 9);
  tracer.merge(second);
  const auto merged = tracer.spans();
  expect(merged.size() == 4 && merged[3].parent == 2, "merge re-bases parents");
  e2e::SpanBuffer third;  // 4 + 3 > capacity 6: dropped whole
  for (int i = 0; i < 3; ++i) third.add("x", e2e::kNoParent, 3, 0, 1);
  tracer.merge(third);
  expect(tracer.spans().size() == 4 && tracer.dropped() == 3,
         "over-capacity buffer dropped whole");
}

void test_ratio() {
  const e2e::Ratio r{30, 40};
  expect(r.value() == 0.75, "ratio value");
  expect(r.describe() == "0.7500 (30 / 40)", "ratio printed with its base");
  const e2e::Ratio empty{0, 0};
  expect(empty.value() == 0.0 && empty.describe() == "0.0000 (0 / 0)",
         "empty base prints as 0 with its base");
}

void test_least_of_repeats() {
  e2e::E2EAcc acc;
  // Two operations: the first timed in two pieces and annealing 100
  // iterations, the second in one piece with no annealing.
  acc.add_round({{1.0, 5.0}, {2.0}}, {100.0, 0.0});
  acc.add_round({{2.0, 3.0}, {1.0}}, {100.0, 0.0});
  acc.add_setups({0.3, 0.1});
  acc.add_setups({0.2, 0.4});
  const e2e::E2E e = e2e::summarize(acc);
  // Least per piece: op 0 = 1 + 3 = 4 ms, op 1 = 1 ms.
  expect(e.rounds == 2, "rounds counted");
  expect(e.op_p50_ms == 2.5, "p50 over the operations' least-piece sums");
  expect(e.ops_per_cpu_s == 400.0, "2 operations / 5 ms = 400 per CPU-s");
  expect(e.iters_per_cpu_s == 25000.0,
         "100 iterations / 4 ms of annealing operations = 25000 per CPU-s");
  expect(std::abs(e.setup_s - 0.15) < 1e-12,
         "set-up: median over set-ups of each one's least time");
  bool threw = false;
  try {
    acc.add_round({{1.0}, {1.0}}, {100.0, 0.0});
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "an operation split into other pieces is refused");

  e2e::HostSpeed speed;
  speed.sample(3);
  const e2e::E2E n = e2e::at_nominal_speed(e, speed);
  const double k = e2e::HostSpeed::kNominalMs / speed.least_ms();
  expect(speed.least_ms() > 0.0 && std::isfinite(speed.least_ms()),
         "reference kernel timed");
  expect(std::abs(n.op_p50_ms - e.op_p50_ms * k) < 1e-9 &&
             std::abs(n.ops_per_cpu_s - e.ops_per_cpu_s / k) < 1e-9,
         "times scale by nominal / least, rates by its inverse");
}

}  // namespace

int main() {
  test_tail_percentile();
  test_self_time();
  test_ratio();
  test_least_of_repeats();
  if (failures == 0) std::printf("e2ebench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
