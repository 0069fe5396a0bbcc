#include "speed.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "spans.hpp"

namespace e2e {

namespace {

struct XorShift {
  std::uint64_t s = 0x9E3779B97F4A7C15ULL;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

/// Repeated longest-path relaxations over a fixed 64-node DAG with random
/// weight changes kept or undone: branchy integer work in cache, like an
/// annealing loop on a small graph.
std::uint64_t relax_kernel(int steps) {
  constexpr int kNodes = 64;
  constexpr int kPreds = 4;
  XorShift rng;
  std::array<int, kNodes> weight{};
  std::array<int, kNodes> dist{};
  std::array<int, kNodes * kPreds> pred{};
  for (int v = 0; v < kNodes; ++v) {
    weight[v] = static_cast<int>(rng.next() % 100);
    for (int k = 0; k < kPreds; ++k) {
      pred[v * kPreds + k] = v > 0 ? static_cast<int>(rng.next() % v) : -1;
    }
  }
  std::uint64_t acc = 0;
  for (int step = 0; step < steps; ++step) {
    const int v = static_cast<int>(rng.next() % kNodes);
    const int old = weight[v];
    weight[v] = static_cast<int>(rng.next() % 100);
    for (int u = 0; u < kNodes; ++u) {
      int best = 0;
      for (int k = 0; k < kPreds; ++k) {
        const int p = pred[u * kPreds + k];
        if (p >= 0 && dist[p] > best) best = dist[p];
      }
      dist[u] = best + weight[u];
    }
    if (dist[kNodes - 1] > static_cast<int>(acc % 1000)) {
      acc += static_cast<std::uint64_t>(dist[kNodes - 1]);
    } else {
      weight[v] = old;
    }
  }
  return acc;
}

/// Sorting and hashing on freshly allocated containers: allocator and
/// memory traffic, like building and copying solutions.
std::uint64_t container_kernel(int n) {
  XorShift rng;
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.next();
  std::sort(v.begin(), v.end());
  std::unordered_map<std::uint64_t, int> counts;
  for (int i = 0; i < n / 4; ++i) {
    ++counts[v[rng.next() % v.size()] % 5000];
  }
  return v[v.size() / 2] + counts.size();
}

}  // namespace

void HostSpeed::sample(int samples) {
  for (int i = 0; i < samples; ++i) {
    const std::int64_t c0 = thread_cpu_ns();
    volatile std::uint64_t sink = relax_kernel(2000) + container_kernel(10000);
    (void)sink;
    least_ms_ = std::min(
        least_ms_, static_cast<double>(thread_cpu_ns() - c0) * 1e-6);
  }
}

}  // namespace e2e
