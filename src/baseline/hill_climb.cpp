#include "baseline/hill_climb.hpp"

namespace rdse {

MapperResult run_hill_climb(const TaskGraph& tg, const Architecture& arch,
                            std::int64_t iterations, std::uint64_t seed,
                            const CancelToken* cancel) {
  ExplorerConfig config;
  config.seed = seed;
  config.iterations = iterations;
  config.warmup_iterations = 0;  // greedy search needs no statistics
  config.schedule = ScheduleKind::kGreedy;
  config.record_trace = false;
  config.cancel = cancel;
  const RunResult run = Explorer(tg, arch).run(config);
  MapperResult result = mapper_result_from_run(run);
  result.counters.set("initial_makespan_ms",
                      to_ms(run.initial_metrics.makespan));
  return result;
}

}  // namespace rdse
