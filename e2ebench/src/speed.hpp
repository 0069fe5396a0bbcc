#pragma once
/// \file speed.hpp
/// \brief How fast the host ran during a benchmark run, read from a fixed
/// reference kernel.
///
/// The benchmark shares a few virtual CPUs of a busy host, and the CPU time
/// the same work takes there moves by 10-30% between runs minutes apart, as
/// the load on the physical cores changes. The reference kernel is the
/// benchmark's own code, never the program's: a change to rdse cannot move
/// it. Sampled between rounds, its least CPU time in a run tells how fast
/// the host was in that run's fastest stretch, which is also where the
/// least times of the program's own pieces of work come from. The gated CPU
/// times are scaled by nominal / least, so a figure reads as it would on a
/// host where the kernel takes kNominalMs.

#include <limits>

namespace e2e {

class HostSpeed {
 public:
  /// A little under the kernel's least CPU time per run on the 4-vCPU
  /// 2.1 GHz Xeon host the benchmark's bounds were set on (0.88-0.97), in ms.
  static constexpr double kNominalMs = 0.85;

  /// Run the kernel `samples` times on the calling thread and keep the
  /// least CPU time.
  void sample(int samples = 40);
  /// Least CPU time of one kernel run so far, in ms.
  [[nodiscard]] double least_ms() const { return least_ms_; }
  /// kNominalMs / least_ms(): multiply a CPU time measured in this run by
  /// it (divide a rate) to read it at the nominal speed.
  [[nodiscard]] double scale() const { return kNominalMs / least_ms_; }

 private:
  double least_ms_ = std::numeric_limits<double>::infinity();
};

}  // namespace e2e
