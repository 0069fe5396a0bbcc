#include "serve/service.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <span>
#include <utility>
#include <vector>

#include "arch/architecture.hpp"
#include "baseline/mapper.hpp"
#include "core/report.hpp"
#include "core/sweep_engine.hpp"
#include "model/registry.hpp"
#include "serve/persist.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace rdse::serve {

namespace {

/// Deterministic per-run metrics block (no wall-clock fields: cached and
/// fresh responses must be byte-identical).
JsonValue metrics_payload(const Metrics& m, TimeNs deadline) {
  JsonValue doc = JsonValue::object();
  doc.set("makespan_ms", to_ms(m.makespan));
  doc.set("init_reconfig_ms", to_ms(m.init_reconfig));
  doc.set("dyn_reconfig_ms", to_ms(m.dyn_reconfig));
  doc.set("contexts", static_cast<std::int64_t>(m.n_contexts));
  doc.set("hw_tasks", static_cast<std::int64_t>(m.hw_tasks));
  doc.set("sw_tasks", static_cast<std::int64_t>(m.sw_tasks));
  if (deadline > 0) {
    doc.set("deadline_met", m.makespan <= deadline);
  }
  return doc;
}

/// Strip the volatile (wall-clock, thread-count) fields from a sweep
/// artifact so the payload is a pure function of the request.
void strip_volatile_sweep_fields(JsonValue& doc) {
  doc.erase("wall_seconds");
  doc.erase("threads");
  if (JsonValue* points = doc.find("points")) {
    for (JsonValue& point : points->items()) {
      point.erase("mean_wall_seconds");
    }
  }
}

std::string plain_response(RequestOp op, JsonValue payload) {
  JsonValue doc = JsonValue::object();
  doc.set("ok", true);
  doc.set("op", to_string(op));
  doc.set("result", std::move(payload));
  return doc.dump();
}

}  // namespace

ExplorationService::ExplorationService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_capacity),
      pool_(config_.workers == 0 ? 1 : config_.workers),
      start_time_(std::chrono::steady_clock::now()),
      persist_log_(config_.persist_path, cache_db_header()) {
  load_persisted_cache();
  if (!config_.journal_path.empty()) {
    journal_ = std::make_unique<WorkJournal>(config_.journal_path);
    if (!journal_->pending().empty()) {
      // Crash recovery: re-run the accepted-but-never-answered work in the
      // background so startup is not gated on it.
      replay_thread_ = std::thread([this] { replay_journal(); });
    }
  }
}

ExplorationService::~ExplorationService() {
  begin_drain();
  if (replay_thread_.joinable()) replay_thread_.join();
  // ThreadPool's destructor drains the queue and joins the workers; every
  // pending handle() caller is blocked on its job's future, which resolves
  // before the pool goes down.
}

void ExplorationService::begin_drain() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) return;
    draining_ = true;
  }
  // Final compaction: persists hit recency, drops dead records and
  // rewrites any result whose append failed transiently.
  compact_persisted_cache();
  if (journal_) (void)journal_->flush();
}

void ExplorationService::reload() {
  compact_persisted_cache();
  if (journal_) (void)journal_->flush();
}

void ExplorationService::journal_event(std::string_view event,
                                       const std::string& key) {
  if (journal_) (void)journal_->append(event, key);
}

void ExplorationService::replay_journal() {
  for (const std::string& key : journal_->pending()) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (draining_) return;
    }
    Request request;
    try {
      request = parse_request(JsonValue::parse(key));
    } catch (const Error&) {
      // Schema drift: a key this build cannot parse would otherwise be
      // re-attempted on every restart. Close it out instead.
      journal_event("cancelled", key);
      continue;
    }
    const std::string response = run_work_request(request);
    // A fresh execution journals its own transitions. Two outcomes need
    // closing out here: a cache hit (the work completed before the crash
    // but its 'completed' entry never hit the disk) and a definitive error
    // (re-running cannot help). A backpressure rejection carries
    // retry_after_ms and stays pending for the next startup instead.
    try {
      const JsonValue doc = JsonValue::parse(response);
      const JsonValue* ok = doc.find("ok");
      const bool succeeded = ok != nullptr &&
                             ok->kind() == JsonValue::Kind::kBool &&
                             ok->as_bool();
      if (succeeded) {
        const JsonValue* cached = doc.find("cached");
        if (cached != nullptr && cached->kind() == JsonValue::Kind::kBool &&
            cached->as_bool()) {
          journal_event("completed", key);
        }
      } else if (doc.find("retry_after_ms") == nullptr) {
        bool draining = false;
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          draining = draining_;
        }
        // During a drain the error is "shutting down", not a verdict on
        // the work — leave the entry pending for the next startup.
        if (!draining) journal_event("cancelled", key);
      }
    } catch (const std::exception&) {
      // Unparseable response line: leave the entry pending.
    }
  }
}

void ExplorationService::load_persisted_cache() {
  if (config_.persist_path.empty()) return;
  LoadedCacheDb db = load_cache_db(config_.persist_path);
  // The entries are oldest first; inserting them in order restores the
  // original LRU order (and lets the configured capacity trim the cold
  // end).
  for (auto& [key, payload] : db.entries) {
    cache_.insert(key, std::move(payload));
  }
  const std::lock_guard<std::mutex> lock(persist_mutex_);
  persist_loaded_ = db.entries.size();
  persist_skipped_ = db.skipped;
  persist_records_ = db.entries.size() + db.dead;
  // A clean, compact file costs no startup write; anything else is
  // rewritten before the first append lands in it.
  persist_dirty_ = db.legacy || db.skipped > 0 ||
                   persist_records_ > cache_.stats().entries;
  if (persist_dirty_) compact_persisted_cache_locked();
}

void ExplorationService::persist_fresh_result(const std::string& key,
                                              const std::string& payload) {
  if (config_.persist_path.empty()) return;
  const std::lock_guard<std::mutex> lock(persist_mutex_);
  if (persist_log_.append(cache_db_record(key, payload))) {
    ++persist_saves_;
    ++persist_records_;
  } else {
    // The file lacks this entry until the next compaction writes it.
    ++persist_save_failures_;
  }
  // Fixed rule: compact once the dead records outnumber the live entries.
  const std::size_t live = cache_.stats().entries;
  if (persist_dirty_ || persist_records_ > 2 * live) {
    compact_persisted_cache_locked();
  }
}

void ExplorationService::compact_persisted_cache() {
  if (config_.persist_path.empty()) return;
  const std::lock_guard<std::mutex> lock(persist_mutex_);
  compact_persisted_cache_locked();
}

void ExplorationService::compact_persisted_cache_locked() {
  auto entries = cache_.export_entries();  // MRU first
  std::reverse(entries.begin(), entries.end());
  if (save_cache_db(config_.persist_path, entries)) {
    ++persist_compactions_;
    persist_records_ = entries.size();
    persist_dirty_ = false;
  } else {
    ++persist_save_failures_;
    persist_dirty_ = true;
  }
  // Even a failed rename may have put a new inode at the path; the old fd
  // would append to the unlinked file.
  persist_log_.reopen();
}

ServiceStats ExplorationService::stats() const {
  ServiceStats s;
  s.cache = cache_.stats();
  const auto now = std::chrono::steady_clock::now();
  s.uptime_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    now - start_time_)
                    .count();
  s.journal_enabled = journal_ != nullptr;
  if (journal_) s.journal = journal_->counters();
  const std::lock_guard<std::mutex> lock(mutex_);
  s.queue_depth = waiting_;
  s.in_flight = in_flight_;
  s.in_flight_requests.reserve(in_flight_jobs_.size());
  for (const auto& [id, job] : in_flight_jobs_) {
    ServiceStats::InFlightInfo info;
    info.fingerprint = job.fingerprint;
    info.age_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now - job.started)
                      .count();
    s.in_flight_requests.push_back(std::move(info));
  }
  s.queue_capacity = config_.queue_capacity;
  s.workers = pool_.size();
  s.requests_total = requests_total_;
  s.completed = completed_;
  s.rejected = rejected_;
  s.errors = errors_;
  s.cancelled = cancelled_;
  s.persist_enabled = !config_.persist_path.empty();
  {
    const std::lock_guard<std::mutex> plock(persist_mutex_);
    s.persist_loaded = persist_loaded_;
    s.persist_skipped = persist_skipped_;
    s.persist_saves = persist_saves_;
    s.persist_compactions = persist_compactions_;
    s.persist_save_failures = persist_save_failures_;
  }
  return s;
}

JsonValue ExplorationService::status_payload() const {
  const ServiceStats s = stats();
  JsonValue cache = JsonValue::object();
  cache.set("hits", static_cast<std::int64_t>(s.cache.hits));
  cache.set("misses", static_cast<std::int64_t>(s.cache.misses));
  cache.set("evictions", static_cast<std::int64_t>(s.cache.evictions));
  cache.set("entries", static_cast<std::int64_t>(s.cache.entries));
  cache.set("capacity", static_cast<std::int64_t>(s.cache.capacity));
  JsonValue queue = JsonValue::object();
  queue.set("depth", static_cast<std::int64_t>(s.queue_depth));
  queue.set("in_flight", static_cast<std::int64_t>(s.in_flight));
  queue.set("capacity", static_cast<std::int64_t>(s.queue_capacity));
  queue.set("workers", static_cast<std::int64_t>(s.workers));
  JsonValue requests = JsonValue::object();
  requests.set("total", static_cast<std::int64_t>(s.requests_total));
  requests.set("completed", static_cast<std::int64_t>(s.completed));
  requests.set("rejected", static_cast<std::int64_t>(s.rejected));
  requests.set("errors", static_cast<std::int64_t>(s.errors));
  requests.set("cancelled", static_cast<std::int64_t>(s.cancelled));
  JsonValue doc = JsonValue::object();
  doc.set("uptime_ms", s.uptime_ms);
  doc.set("cache", std::move(cache));
  doc.set("queue", std::move(queue));
  doc.set("requests", std::move(requests));
  JsonValue in_flight = JsonValue::array();
  for (const ServiceStats::InFlightInfo& info : s.in_flight_requests) {
    JsonValue row = JsonValue::object();
    row.set("key", info.fingerprint);
    row.set("age_ms", info.age_ms);
    in_flight.push_back(std::move(row));
  }
  doc.set("in_flight_requests", std::move(in_flight));
  if (s.journal_enabled) {
    JsonValue journal = JsonValue::object();
    journal.set("replayed", static_cast<std::int64_t>(s.journal.replayed));
    journal.set("skipped", static_cast<std::int64_t>(s.journal.skipped));
    journal.set("compactions",
                static_cast<std::int64_t>(s.journal.compactions));
    journal.set("appends", static_cast<std::int64_t>(s.journal.appends));
    journal.set("append_failures",
                static_cast<std::int64_t>(s.journal.append_failures));
    doc.set("journal", std::move(journal));
  }
  if (s.persist_enabled) {
    JsonValue persist = JsonValue::object();
    persist.set("loaded", static_cast<std::int64_t>(s.persist_loaded));
    persist.set("skipped", static_cast<std::int64_t>(s.persist_skipped));
    persist.set("saves", static_cast<std::int64_t>(s.persist_saves));
    persist.set("compactions",
                static_cast<std::int64_t>(s.persist_compactions));
    persist.set("save_failures",
                static_cast<std::int64_t>(s.persist_save_failures));
    doc.set("persist", std::move(persist));
  }
  return doc;
}

ExplorationService::Handled ExplorationService::handle(
    const std::string& line) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++requests_total_;
  }
  Handled handled;
  Request request;
  try {
    request = parse_request(JsonValue::parse(line));
  } catch (const Error& e) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++errors_;
    handled.response = make_error_response(e.what());
    return handled;
  }
  handled.op = request.op;
  switch (request.op) {
    case RequestOp::kStatus:
      handled.response = plain_response(request.op, status_payload());
      handled.ok = true;
      return handled;
    case RequestOp::kPing:
    case RequestOp::kShutdown:
      // Shutdown sequencing (stop accepting, drain) is the server's job;
      // the service just acknowledges.
      handled.response = plain_response(request.op, JsonValue::object());
      handled.ok = true;
      return handled;
    case RequestOp::kExplore:
    case RequestOp::kSweep:
      break;
  }
  handled.response = run_work_request(request);
  handled.ok = handled.response.rfind("{\"ok\": true", 0) == 0;
  return handled;
}

std::string ExplorationService::run_work_request(const Request& request) {
  if (request.iterations + request.warmup > config_.max_iterations) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++errors_;
    return make_error_response(
        "request exceeds the per-run iteration cap (" +
        std::to_string(config_.max_iterations) + ")");
  }

  const std::string key = canonical_key(request);
  const std::string fingerprint = fnv1a64_hex(key);
  if (auto hit = cache_.lookup(key)) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++completed_;
    return make_result_response(request.op, true, fingerprint, *hit);
  }

  // Admission: bounded waiting set with immediate backpressure.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      ++errors_;
      return make_error_response("service is shutting down");
    }
    if (waiting_ >= config_.queue_capacity) {
      ++rejected_;
      return make_error_response("request queue is full",
                                 config_.retry_after_ms);
    }
    ++waiting_;
  }
  // Write-ahead: the acceptance is journaled before the job is submitted,
  // so a crash from here on leaves a pending entry that startup replays.
  journal_event("accepted", key);

  // Per-request deadline token, shared by reference with the worker: the
  // caller blocks on the future until the worker resolves it, so the
  // token outlives the job.
  CancelToken token;
  if (request.timeout_ms > 0) token.set_deadline_after_ms(request.timeout_ms);

  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  pool_.submit([this, &request, &promise, &token, &key, &fingerprint] {
    std::uint64_t job_id = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --waiting_;
      if (draining_) {
        // Queued before the drain began, picked up after: cancel without
        // executing so shutdown is not gated on cold queue entries.
        promise.set_exception(
            std::make_exception_ptr(Cancelled("cancelled")));
        return;
      }
      ++in_flight_;
      job_id = ++next_job_id_;
      in_flight_jobs_.emplace(
          job_id,
          InFlightJob{fingerprint, std::chrono::steady_clock::now()});
    }
    journal_event("started", key);
    if (config_.on_job_start) config_.on_job_start();
    std::string payload;
    std::exception_ptr failure;
    try {
      throw_if_cancelled(&token);  // don't start work past the deadline
      payload = execute(request, &token).dump();
    } catch (...) {
      failure = std::current_exception();
    }
    {
      // Drop the in-flight count *before* resolving the promise: once the
      // caller unblocks, stats() must no longer show this job as running.
      const std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      in_flight_jobs_.erase(job_id);
    }
    if (failure) {
      promise.set_exception(failure);
    } else {
      promise.set_value(std::move(payload));
    }
  });

  try {
    std::string payload = future.get();
    cache_.insert(key, payload);
    persist_fresh_result(key, payload);
    journal_event("completed", key);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++completed_;
    }
    return make_result_response(request.op, false, fingerprint, payload);
  } catch (const Cancelled& e) {
    // Deterministic, payload-free error: a deadline-expired or
    // drain-cancelled run never leaks a partial result and is never
    // cached. The client is told, so the journal entry is closed out.
    journal_event("cancelled", key);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++cancelled_;
    return make_error_response(e.what());
  } catch (const Error& e) {
    journal_event("cancelled", key);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++errors_;
    return make_error_response(e.what());
  }
}

JsonValue ExplorationService::execute(const Request& request,
                                      const CancelToken* cancel) const {
  const ModelSpec model = load_model_spec(request.model);
  ExplorerConfig config;
  config.seed = request.seed;
  config.iterations = request.iterations;
  config.warmup_iterations = request.warmup;
  config.schedule = request.schedule;
  config.batch = request.batch;
  config.record_trace = false;
  config.cancel = cancel;

  if (request.op == RequestOp::kExplore) {
    // Every strategy — the annealer included — runs through the mapper
    // registry, so the service has exactly one explore code path.
    const std::unique_ptr<Mapper> mapper = make_mapper(request.mapper);
    const Architecture arch = make_cpu_fpga_architecture(
        request.clbs, model.tr_per_clb, model.bus_bytes_per_second);
    const SweepEngine engine(config_.run_threads);
    const std::vector<MapperResult> results =
        engine.run_mapper_many(*mapper, model.app.graph, arch, config,
                               request.runs);
    JsonValue doc = JsonValue::object();
    doc.set("model", model.app.name);
    doc.set("mapper", request.mapper);
    doc.set("clbs", static_cast<std::int64_t>(request.clbs));
    doc.set("runs", static_cast<std::int64_t>(request.runs));
    doc.set("deadline_ms", to_ms(model.app.deadline));
    if (request.runs == 1) {
      doc.set("best", metrics_payload(results.front().best_metrics,
                                      model.app.deadline));
    } else {
      JsonValue agg = JsonValue::object();
      aggregate_to_json(aggregate_mapper_results(results, model.app.deadline),
                        agg);
      agg.erase("mean_wall_seconds");  // payloads are pure functions
      doc.set("aggregate", std::move(agg));
    }
    return doc;
  }

  SweepSpec spec;
  if (request.axis == "device-size") {
    std::vector<std::int32_t> sizes = request.sizes;
    if (sizes.empty()) {
      sizes = {100,  200,  400,  600,  800,  1000, 1500,
               2000, 3000, 4000, 5000, 7000, 10000};
    }
    spec = device_size_sweep(sizes, model.tr_per_clb,
                             model.bus_bytes_per_second, config,
                             request.runs, model.app.deadline);
  } else {
    std::vector<ScheduleKind> kinds = request.schedules;
    if (kinds.empty()) {
      kinds = {ScheduleKind::kModifiedLam, ScheduleKind::kLamDelosme,
               ScheduleKind::kGeometric, ScheduleKind::kGreedy};
    }
    spec = schedule_sweep(
        kinds,
        make_cpu_fpga_architecture(request.clbs, model.tr_per_clb,
                                   model.bus_bytes_per_second),
        config, request.runs, model.app.deadline);
  }
  const SweepEngine engine(config_.run_threads);
  const SweepResult result = engine.run(model.app.graph, spec);
  JsonValue doc = sweep_to_json(result);
  doc.set("model", model.app.name);
  strip_volatile_sweep_fields(doc);
  return doc;
}

}  // namespace rdse::serve
