#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2e {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

std::size_t nearest_rank(std::size_t n, double level) {
  // The epsilon keeps exact products (99.9% of 10000) from rounding up.
  const auto rank = static_cast<std::size_t>(
      std::ceil(level * static_cast<double>(n) / 100.0 - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

Tail tail_percentile(std::vector<double> samples, double max_level,
                     std::size_t min_beyond) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  static constexpr double kLevels[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (const double level : kLevels) {
    if (level > max_level) continue;
    const std::size_t rank = nearest_rank(samples.size(), level);
    if (samples.size() - rank >= min_beyond) {
      tail.level = level;
      tail.value = samples[rank - 1];
      tail.beyond = samples.size() - rank;
      tail.resolved = true;
      return tail;
    }
  }
  tail.level = 50.0;
  tail.value = median(samples);
  tail.beyond = samples.size() - nearest_rank(samples.size(), 50.0);
  return tail;
}

double Ratio::value() const {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::string Ratio::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.4f (%lld / %lld)", value(),
                static_cast<long long>(num), static_cast<long long>(den));
  return buf;
}

}  // namespace e2e
