#pragma once
/// \file bench_common.hpp
/// \brief Shared scaffolding for the experiment harnesses: scale knobs
/// (environment / command line) and uniform headers.
///
/// Knobs (command line beats environment):
///   --runs    / RDSE_RUNS     repetitions per sweep point (paper: 100)
///   --iters   / RDSE_ITERS    cooling iterations per exploration
///   --full    / RDSE_FULL     paper-scale settings (runs=100)
///   --seed    / RDSE_SEED     base seed
///   --threads / RDSE_THREADS  sweep worker threads (0 = hardware; results
///                             are identical for any value)
///
/// Counts are range-checked (a negative seed or thread count is refused,
/// not wrapped); a bad option prints the error and the usage and exits 2.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "util/assert.hpp"
#include "util/cli.hpp"

namespace rdse::bench {

struct Scale {
  int runs = 20;
  std::int64_t iters = 15'000;
  std::int64_t warmup = 1'200;
  std::uint64_t seed = 1;
  unsigned threads = 0;
  bool full = false;
};

inline constexpr const char* kScaleUsage =
    R"(options (command line beats environment):
  --runs N     / RDSE_RUNS     repetitions per sweep point
  --iters N    / RDSE_ITERS    cooling iterations per exploration
  --warmup N                   warm-up iterations              [1200]
  --full       / RDSE_FULL     paper-scale settings (runs=100)
  --seed S     / RDSE_SEED     base seed                       [1]
  --threads N  / RDSE_THREADS  sweep worker threads (0 = hardware)
)";

/// Parse a harness's options with `parse`. --help / -h prints `usage` and
/// exits 0; a malformed or out-of-range option prints the error and
/// `usage` and exits 2 instead of escaping as an uncaught exception.
template <typename Parse>
auto parse_or_exit(int argc, char** argv, std::string_view usage,
                   Parse parse) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0] << " [options]\n" << usage;
      std::exit(0);
    }
  }
  try {
    return parse();
  } catch (const Error& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n\nusage: " << argv[0]
              << " [options]\n"
              << usage;
    std::exit(2);
  }
}

inline Scale parse_scale(int argc, char** argv, int default_runs = 20,
                         std::int64_t default_iters = 15'000) {
  return parse_or_exit(argc, argv, kScaleUsage, [&] {
    static constexpr std::string_view kBoolFlags[] = {"full"};
    const Options opts = Options::parse(argc, argv, kBoolFlags);
    Scale s;
    s.full = opts.get_flag("full", "RDSE_FULL");
    s.runs = get_int_as<int>(opts, "runs", s.full ? 100 : default_runs, 0,
                             "negative run count", "RDSE_RUNS");
    s.iters = get_int_as<std::int64_t>(opts, "iters", default_iters, 0,
                                       "negative count", "RDSE_ITERS");
    s.warmup =
        get_int_as<std::int64_t>(opts, "warmup", 1'200, 0, "negative count");
    s.seed = get_int_as<std::uint64_t>(opts, "seed", 1, 0, "negative seed",
                                       "RDSE_SEED");
    s.threads = get_int_as<unsigned>(opts, "threads", 0, 0,
                                     "negative thread count", "RDSE_THREADS");
    return s;
  });
}

inline void print_header(const std::string& experiment_id,
                         const std::string& paper_artifact,
                         const Scale& scale) {
  std::cout << "\n############################################################"
            << "\n# " << experiment_id << " — " << paper_artifact
            << "\n# runs=" << scale.runs << " iters=" << scale.iters
            << " warmup=" << scale.warmup << " seed=" << scale.seed
            << (scale.full ? " (paper scale)" : "")
            << "\n############################################################\n";
}

}  // namespace rdse::bench
