#pragma once
/// \file stats.hpp
/// \brief Sample statistics the benchmark reports: medians, the highest
/// percentile that still has enough samples beyond it, and ratios that carry
/// their base.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// Median of the samples (mean of the two middle values for even counts);
/// 0 for an empty vector.
[[nodiscard]] double median(std::vector<double> samples);

/// A tail latency together with the evidence behind it.
struct Tail {
  double level = 0.0;       ///< percentile, e.g. 99
  double value = 0.0;
  std::size_t beyond = 0;   ///< samples strictly ranked above the value
  std::size_t samples = 0;
  /// False when not even the median has `min_beyond` samples beyond it;
  /// `value` is then the median.
  bool resolved = false;
};

/// The highest of the levels 99.9, 99, 95, 90, 75 and 50, none above
/// `max_level`, whose nearest-rank value (1-based rank ceil(level / 100 * n)
/// of the sorted samples) leaves at least `min_beyond` samples ranked above
/// it — a tail that rests on fewer samples than that is noise, not a
/// percentile. The cap lets a caller keep the level fixed while the sample
/// count moves with throughput.
[[nodiscard]] Tail tail_percentile(std::vector<double> samples,
                                   double max_level,
                                   std::size_t min_beyond = 10);

/// A ratio that is always printed with its base.
struct Ratio {
  std::int64_t num = 0;
  std::int64_t den = 0;
  /// num / den, or 0 when the base is empty.
  [[nodiscard]] double value() const;
  /// "0.7500 (30 / 40)".
  [[nodiscard]] std::string describe() const;
};

}  // namespace e2e
