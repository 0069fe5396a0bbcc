/// Fault-injection suite for the fault-tolerant serve stack: crash-safe
/// cache persistence (rdse.cachedb.v2, append per miss, compaction, v1
/// migration, a seeded mutation test), the util/faultfs write/fsync/rename
/// shim, request deadlines with cooperative cancellation, and drain
/// semantics. Every injected storage fault must degrade to "cache miss,
/// correct answer" — never a crash, never a wrong payload. Runs under ASan
/// and TSan in CI (the `test_serve` prefix selects it for the TSan job).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/journal.hpp"
#include "serve/persist.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/faultfs.hpp"
#include "util/json.hpp"
#include "util/record_log.hpp"
#include "util/rng.hpp"

namespace rdse::serve {
namespace {

using Entries = std::vector<std::pair<std::string, std::string>>;

std::string db_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  ::unlink(path.c_str());
  ::unlink((path + ".tmp").c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

/// Every faultfs test disarms on entry and exit so a failing test cannot
/// poison its neighbours.
class FaultFsTest : public ::testing::Test {
 protected:
  void SetUp() override { faultfs::clear(); }
  void TearDown() override { faultfs::clear(); }
};

// ------------------------------------------------------------ persistence

/// The same lines under the v1 header: a v1 file is these records, MRU
/// first.
void write_v1_file(const std::string& path, const Entries& mru_first) {
  ASSERT_TRUE(save_cache_db(path, mru_first));
  const std::string v2 = read_file(path);
  write_file(path, "{\"format\": \"rdse.cachedb.v1\"}" +
                       v2.substr(v2.find('\n')));
}

TEST(ServePersist, SaveAndLoadRoundTripOldestFirst) {
  const std::string path = db_path("cachedb-roundtrip.json");
  const Entries entries = {{"key-a", "payload-a"},
                           {"key-b", "payload {\"nested\": [1, 2]}"},
                           {"key-c", ""}};
  ASSERT_TRUE(save_cache_db(path, entries));
  const LoadedCacheDb db = load_cache_db(path);
  EXPECT_EQ(db.skipped, 0u);
  EXPECT_EQ(db.dead, 0u);
  EXPECT_FALSE(db.legacy);
  EXPECT_EQ(db.entries, entries);
  const std::string text = read_file(path);
  EXPECT_EQ(text.rfind("{\"format\": \"rdse.cachedb.v2\"}\n", 0), 0u)
      << text;
}

TEST(ServePersist, V1FileLoadsInMruOrder) {
  const std::string path = db_path("cachedb-v1.json");
  write_v1_file(path, Entries{{"key-a", "payload-a"},
                              {"key-b", "payload-b"},
                              {"key-c", "payload-c"}});
  const LoadedCacheDb db = load_cache_db(path);
  EXPECT_TRUE(db.legacy);
  EXPECT_EQ(db.skipped, 0u);
  // MRU first on disk, oldest first in memory.
  EXPECT_EQ(db.entries, (Entries{{"key-c", "payload-c"},
                                 {"key-b", "payload-b"},
                                 {"key-a", "payload-a"}}));
}

TEST(ServePersist, MissingFileLoadsEmpty) {
  const LoadedCacheDb db =
      load_cache_db(db_path("cachedb-never-written.json"));
  EXPECT_TRUE(db.entries.empty());
  EXPECT_EQ(db.skipped, 0u);
}

TEST(ServePersist, GarbageFileRecoversNothingButNeverThrows) {
  const std::string path = db_path("cachedb-garbage.json");
  write_file(path, "this is not json\n{\"nor\": \"a cachedb\"}\n\x01\x02\n");
  const LoadedCacheDb db = load_cache_db(path);
  EXPECT_TRUE(db.entries.empty());
  EXPECT_EQ(db.skipped, 3u);
}

TEST(ServePersist, ForeignFormatHeaderVoidsEveryLine) {
  const std::string path = db_path("cachedb-foreign.json");
  ASSERT_TRUE(save_cache_db(path, Entries{{"k", "p"}}));
  const std::string good = read_file(path);
  const std::size_t nl = good.find('\n');
  ASSERT_NE(nl, std::string::npos);
  // Same entry lines under a future format version: not trustworthy.
  write_file(path,
             "{\"format\": \"rdse.cachedb.v9\"}" + good.substr(nl));
  const LoadedCacheDb db = load_cache_db(path);
  EXPECT_TRUE(db.entries.empty());
  EXPECT_EQ(db.skipped, 2u);  // header + the voided entry
}

TEST(ServePersist, TruncatedTailLosesOnlyTheCutLine) {
  const std::string path = db_path("cachedb-truncated.json");
  ASSERT_TRUE(save_cache_db(
      path, Entries{{"k1", "p1"}, {"k2", "p2"}, {"k3", "p3"}}));
  const std::string text = read_file(path);
  // Cut mid-way through the last entry line — the torn tail a crash or a
  // short write leaves behind.
  write_file(path, text.substr(0, text.size() - 10));
  const LoadedCacheDb db = load_cache_db(path);
  ASSERT_EQ(db.entries.size(), 2u);
  EXPECT_EQ(db.entries[0].first, "k1");
  EXPECT_EQ(db.entries[1].first, "k2");
  EXPECT_EQ(db.skipped, 1u);
}

TEST(ServePersist, TamperedPayloadFailsTheChecksum) {
  const std::string path = db_path("cachedb-tampered.json");
  ASSERT_TRUE(save_cache_db(path, Entries{{"k1", "honest payload"}}));
  std::string text = read_file(path);
  const std::size_t at = text.find("honest");
  ASSERT_NE(at, std::string::npos);
  text[at] = 'H';  // one flipped bit of payload
  write_file(path, text);
  const LoadedCacheDb db = load_cache_db(path);
  EXPECT_TRUE(db.entries.empty());
  EXPECT_EQ(db.skipped, 1u);
}

TEST(ServePersist, DuplicateKeyKeepsTheLastWrite) {
  // Records are oldest first, so when the log carries the same key twice
  // the LAST occurrence is the fresh payload, and its position is the key's
  // recency; the stale earlier copy is dead.
  const std::string path = db_path("cachedb-dupkey.json");
  ASSERT_TRUE(save_cache_db(path, Entries{{"hot-key", "stale-payload"},
                                          {"other", "payload"},
                                          {"hot-key", "fresh-payload"}}));
  const LoadedCacheDb db = load_cache_db(path);
  EXPECT_EQ(db.entries, (Entries{{"other", "payload"},
                                 {"hot-key", "fresh-payload"}}));
  EXPECT_EQ(db.dead, 1u);  // the stale duplicate
  EXPECT_EQ(db.skipped, 0u);
}

TEST(ServePersist, V1DuplicateKeyKeepsTheFreshMruOccurrence) {
  // Regression: a v1 file is MRU first, so when it carries the same key
  // twice the FIRST occurrence is the fresh payload — a stale later
  // duplicate must not shadow it in the rebuilt cache.
  const std::string path = db_path("cachedb-v1-dupkey.json");
  write_v1_file(path, Entries{{"hot-key", "fresh-payload"},
                              {"other", "payload"},
                              {"hot-key", "stale-payload"}});
  const LoadedCacheDb db = load_cache_db(path);
  EXPECT_TRUE(db.legacy);
  EXPECT_EQ(db.entries, (Entries{{"other", "payload"},
                                 {"hot-key", "fresh-payload"}}));
  EXPECT_EQ(db.dead, 1u);  // the stale duplicate
  EXPECT_EQ(db.skipped, 0u);
}

TEST(ServePersist, AppendedRecordsReplayWithTheLastWriteWinning) {
  const std::string path = db_path("cachedb-append.json");
  ASSERT_TRUE(save_cache_db(path, Entries{{"a", "a1"}, {"b", "b1"}}));
  {
    RecordAppender log(path, cache_db_header());
    ASSERT_TRUE(log.append(cache_db_record("c", "c1")));
    ASSERT_TRUE(log.append(cache_db_record("a", "a2")));
  }
  const LoadedCacheDb db = load_cache_db(path);
  // "a" was rewritten last: it is the most recent entry, with its new
  // payload, and its first record is dead.
  EXPECT_EQ(db.entries, (Entries{{"b", "b1"}, {"c", "c1"}, {"a", "a2"}}));
  EXPECT_EQ(db.dead, 1u);
  EXPECT_EQ(db.skipped, 0u);
}

TEST(ServePersist, AppendStartsANewFileWithItsHeader) {
  const std::string path = db_path("cachedb-append-new.json");
  {
    RecordAppender log(path, cache_db_header());
    ASSERT_TRUE(log.append(cache_db_record("k", "p")));
  }
  EXPECT_EQ(read_file(path), cache_db_header() + cache_db_record("k", "p"));
}

TEST(ServePersist, TornAppendedTailIsSkippedAndTheNextAppendSurvives) {
  const std::string path = db_path("cachedb-torn-append.json");
  ASSERT_TRUE(save_cache_db(path, Entries{{"a", "a1"}}));
  {
    RecordAppender log(path, cache_db_header());
    ASSERT_TRUE(log.append(cache_db_record("b", "b1")));
  }
  // A crash mid-append: the last record lost its end, newline included.
  const std::string text = read_file(path);
  write_file(path, text.substr(0, text.size() - 7));
  LoadedCacheDb db = load_cache_db(path);
  EXPECT_EQ(db.entries, (Entries{{"a", "a1"}}));
  EXPECT_EQ(db.skipped, 1u);

  // The next append starts on a fresh line instead of extending the torn
  // one.
  {
    RecordAppender log(path, cache_db_header());
    ASSERT_TRUE(log.append(cache_db_record("c", "c1")));
  }
  db = load_cache_db(path);
  EXPECT_EQ(db.entries, (Entries{{"a", "a1"}, {"c", "c1"}}));
  EXPECT_EQ(db.skipped, 1u);
}

/// Count of non-blank lines after the first — what the loader must account
/// for as entries, dead records or skipped lines.
std::uint64_t body_lines(const std::string& text) {
  std::uint64_t lines = 0;
  std::size_t start = text.find('\n');
  while (start != std::string::npos) {
    const std::size_t end = text.find('\n', start + 1);
    const std::size_t len =
        (end == std::string::npos ? text.size() : end) - start - 1;
    if (len > 0) ++lines;
    start = end;
  }
  return lines;
}

TEST(ServePersist, SeededMutantsLoadVerifiedEntriesOrCountSkips) {
  // The cache-DB slice of the on-disk parser fuzzer: bit flips, truncations
  // and splices of a valid v2 file, from fixed seeds. Every mutant must
  // load without throwing, return only entries whose checksums verify
  // (here: exact original pairs), and account for every other line as
  // dead or skipped.
  const std::string path = db_path("cachedb-mutant.json");
  Entries original;
  for (int i = 0; i < 6; ++i) {
    original.emplace_back(
        R"({"op": "explore", "seed": )" + std::to_string(i) + "}",
        R"({"best": {"makespan_ms": )" + std::to_string(40 + i) + "}}");
  }
  original.emplace_back(original[1].first, "rewritten payload");
  ASSERT_TRUE(save_cache_db(path, original));
  const std::string valid = read_file(path);
  const std::string header = valid.substr(0, valid.find('\n'));

  constexpr int kMutants = 600;
  for (int seed = 1; seed <= kMutants; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    std::string mutant = valid;
    const int edits = static_cast<int>(rng.uniform_int(1, 3));
    for (int e = 0; e < edits && !mutant.empty(); ++e) {
      switch (rng.index(3)) {
        case 0: {  // flip one bit
          const std::size_t at = rng.index(mutant.size());
          mutant[at] = static_cast<char>(mutant[at] ^ (1 << rng.index(8)));
          break;
        }
        case 1:  // truncate
          mutant.resize(rng.index(mutant.size() + 1));
          break;
        default: {  // splice a copy of one span into another place
          const std::size_t from = rng.index(mutant.size());
          const std::size_t len = 1 + rng.index(mutant.size() - from);
          const std::string span = mutant.substr(from, len);
          mutant.insert(rng.index(mutant.size() + 1), span);
          break;
        }
      }
    }
    write_file(path, mutant);

    LoadedCacheDb db;
    ASSERT_NO_THROW(db = load_cache_db(path)) << "seed " << seed;
    for (const auto& entry : db.entries) {
      EXPECT_NE(std::find(original.begin(), original.end(), entry),
                original.end())
          << "seed " << seed << ": unverified entry " << entry.first;
    }
    if (mutant.empty()) {
      EXPECT_TRUE(db.entries.empty()) << "seed " << seed;
      EXPECT_EQ(db.skipped, 0u) << "seed " << seed;
      continue;
    }
    const std::uint64_t body = body_lines(mutant);
    const bool accounted = db.entries.size() + db.dead + db.skipped == body;
    const bool voided = db.entries.empty() && db.dead == 0 &&
                        db.skipped == 1 + body;
    EXPECT_TRUE(accounted || voided) << "seed " << seed;
    if (mutant.substr(0, mutant.find('\n')) == header) {
      EXPECT_TRUE(accounted) << "seed " << seed;
    }
  }
}

// -------------------------------------------------------------- faultfs

TEST_F(FaultFsTest, ParsePlanReadsModesAndRejectsUnknownOnes) {
  const faultfs::FaultPlan plan =
      faultfs::parse_plan("fail_write:2,torn_rename:1");
  EXPECT_EQ(plan.fail_write_nth, 2);
  EXPECT_EQ(plan.torn_rename_nth, 1);
  EXPECT_TRUE(plan.armed());
  EXPECT_FALSE(faultfs::parse_plan("").armed());
  EXPECT_THROW((void)faultfs::parse_plan("melt_cpu:1"), Error);
  EXPECT_THROW((void)faultfs::parse_plan("fail_write:zero"), Error);
  EXPECT_THROW((void)faultfs::parse_plan("fail_write"), Error);
}

TEST_F(FaultFsTest, EnvVarArmsThePlanOnce) {
  ::setenv("RDSE_FAULTFS", "fail_fsync:3", 1);
  EXPECT_TRUE(faultfs::arm_from_env());
  ::unsetenv("RDSE_FAULTFS");
  EXPECT_FALSE(faultfs::arm_from_env());
}

/// Arm one fault mode against a save over an existing good database and
/// check the failure left the previous file fully intact.
void expect_save_fails_keeping_previous(const faultfs::FaultPlan& plan) {
  const std::string path = db_path("cachedb-fault.json");
  const Entries original = {{"old-key", "old-payload"}};
  ASSERT_TRUE(save_cache_db(path, original));

  faultfs::set_plan(plan);
  EXPECT_FALSE(save_cache_db(path, Entries{{"new-key", "new-payload"}}));
  EXPECT_GE(faultfs::counters().faults_fired, 1u);
  faultfs::clear();

  const LoadedCacheDb db = load_cache_db(path);
  EXPECT_EQ(db.entries, original);
  EXPECT_EQ(db.skipped, 0u);
  // The failed attempt's temp file was cleaned up.
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
}

TEST_F(FaultFsTest, FailedWriteKeepsThePreviousDatabase) {
  faultfs::FaultPlan plan;
  plan.fail_write_nth = 1;
  expect_save_fails_keeping_previous(plan);
}

TEST_F(FaultFsTest, ShortWriteKeepsThePreviousDatabase) {
  faultfs::FaultPlan plan;
  plan.short_write_nth = 1;  // torn bytes land in the temp file only
  expect_save_fails_keeping_previous(plan);
}

TEST_F(FaultFsTest, FailedFsyncKeepsThePreviousDatabase) {
  faultfs::FaultPlan plan;
  plan.fail_fsync_nth = 1;
  expect_save_fails_keeping_previous(plan);
}

TEST_F(FaultFsTest, FailedRenameKeepsThePreviousDatabase) {
  faultfs::FaultPlan plan;
  plan.fail_rename_nth = 1;
  expect_save_fails_keeping_previous(plan);
}

TEST_F(FaultFsTest, TornRenameCommitsARecoverableTruncatedFile) {
  const std::string path = db_path("cachedb-torn.json");
  const Entries entries = {{"k1", "p1"}, {"k2", "p2"}, {"k3", "p3"},
                           {"k4", "p4"}, {"k5", "p5"}};
  faultfs::FaultPlan plan;
  plan.torn_rename_nth = 1;
  faultfs::set_plan(plan);
  EXPECT_FALSE(save_cache_db(path, entries));  // the caller sees the fault
  faultfs::clear();

  // ...but half the file *was* committed — the crash-between-write-back-
  // and-commit shape. The loader recovers the surviving MRU prefix and
  // skips at most the one line the cut landed in.
  const LoadedCacheDb db = load_cache_db(path);
  EXPECT_LT(db.entries.size(), entries.size());
  EXPECT_LE(db.skipped, 1u);
  for (std::size_t i = 0; i < db.entries.size(); ++i) {
    EXPECT_EQ(db.entries[i], entries[i]) << i;
  }
}

TEST_F(FaultFsTest, FailedFirstAppendLeavesAnEmptyFileForTheNextOne) {
  // A failed append that was starting the file must not leave a torn
  // header behind (that would void every later record): the file goes back
  // to empty and the next append writes the header again.
  const std::string path = db_path("cachedb-first-append-fault.json");
  RecordAppender log(path, cache_db_header());
  faultfs::FaultPlan plan;
  plan.short_write_nth = 1;
  faultfs::set_plan(plan);
  EXPECT_FALSE(log.append(cache_db_record("lost", "p")));
  faultfs::clear();
  EXPECT_EQ(read_file(path), "");
  ASSERT_TRUE(log.append(cache_db_record("kept", "p")));
  EXPECT_EQ(load_cache_db(path).entries, (Entries{{"kept", "p"}}));
}

// ------------------------------------------- service-level persistence

std::string explore_line(int seed) {
  return R"({"op": "explore", "clbs": 400, "iters": 600, "warmup": 100, )"
         R"("seed": )" +
         std::to_string(seed) + "}";
}

ServiceConfig fast_config() {
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  config.cache_capacity = 16;
  return config;
}

std::string as_cached(std::string response) {
  const std::size_t at = response.find(R"("cached": false)");
  EXPECT_NE(at, std::string::npos);
  response.replace(at, 15, R"("cached": true)");
  return response;
}

TEST_F(FaultFsTest, CacheSurvivesARestartBitIdentically) {
  ServiceConfig config = fast_config();
  config.persist_path = db_path("cachedb-restart.json");

  std::string fresh;
  {
    ExplorationService service(config);
    const auto handled = service.handle(explore_line(42));
    ASSERT_TRUE(handled.ok) << handled.response;
    fresh = handled.response;
    EXPECT_GE(service.stats().persist_saves, 1u);
  }  // destructor ~ "clean exit"; the database was written at insert time

  ExplorationService restarted(config);
  const ServiceStats stats = restarted.stats();
  EXPECT_EQ(stats.persist_loaded, 1u);
  EXPECT_EQ(stats.persist_skipped, 0u);
  const auto hit = restarted.handle(explore_line(42));
  ASSERT_TRUE(hit.ok) << hit.response;
  EXPECT_EQ(as_cached(fresh), hit.response);
  EXPECT_EQ(restarted.stats().cache.hits, 1u);
}

TEST_F(FaultFsTest, CorruptDatabaseDegradesToAMissWithCorrectAnswer) {
  ServiceConfig config = fast_config();
  config.persist_path = db_path("cachedb-corrupt.json");
  write_file(config.persist_path, "total garbage\nmore garbage\n");

  ExplorationService service(config);
  EXPECT_EQ(service.stats().persist_loaded, 0u);
  EXPECT_EQ(service.stats().persist_skipped, 2u);

  // The answer is still computed fresh and correct.
  const auto handled = service.handle(explore_line(5));
  ASSERT_TRUE(handled.ok) << handled.response;
  EXPECT_NE(handled.response.find(R"("cached": false)"), std::string::npos);

  // And the next save replaces the corrupt file with a loadable one.
  const LoadedCacheDb db = load_cache_db(config.persist_path);
  EXPECT_EQ(db.entries.size(), 1u);
  EXPECT_EQ(db.skipped, 0u);
}

TEST_F(FaultFsTest, EveryInjectedFaultDegradesToMissNotWrongPayload) {
  // The acceptance gate: under each fault mode the service keeps
  // answering correctly; after a restart the worst case is a cache miss
  // that recomputes the same bytes.
  const char* specs[] = {"fail_write:1", "short_write:1", "fail_fsync:1",
                         "fail_rename:1", "torn_rename:1"};
  std::string reference;
  for (const char* spec : specs) {
    ServiceConfig config = fast_config();
    config.persist_path = db_path("cachedb-degrade.json");

    faultfs::set_plan(faultfs::parse_plan(spec));
    std::string fresh;
    {
      ExplorationService service(config);
      const auto handled = service.handle(explore_line(9));
      ASSERT_TRUE(handled.ok) << spec << ": " << handled.response;
      fresh = handled.response;
      // The write and fsync faults hit the miss's append; the rename
      // faults hit the drain compaction.
      service.begin_drain();
      EXPECT_GE(service.stats().persist_save_failures, 1u) << spec;
    }
    faultfs::clear();
    if (reference.empty()) reference = fresh;
    EXPECT_EQ(reference, fresh) << spec;  // same bytes under every fault

    ExplorationService restarted(config);
    const auto again = restarted.handle(explore_line(9));
    ASSERT_TRUE(again.ok) << spec << ": " << again.response;
    // Loaded-from-disk hit or recomputed miss — either way the payload
    // bytes match the fresh run exactly.
    if (again.response.find(R"("cached": true)") != std::string::npos) {
      EXPECT_EQ(as_cached(fresh), again.response) << spec;
    } else {
      EXPECT_EQ(fresh, again.response) << spec;
    }
  }
}

/// The on-disk image a kill -9 would leave right now: a byte copy taken
/// while the service is alive, so its drain compaction never reaches it.
std::string crash_image(const std::string& path, const std::string& name) {
  const std::string image = db_path(name);
  write_file(image, read_file(path));
  return image;
}

/// A fast deterministic-mapper request; distinct `clbs` give distinct keys.
std::string heft_line(int clbs) {
  return R"({"op": "explore", "mapper": "heft", "clbs": )" +
         std::to_string(clbs) + "}";
}

std::vector<std::string> loaded_keys(const std::string& path) {
  std::vector<std::string> keys;
  for (const auto& entry : load_cache_db(path).entries) {
    keys.push_back(entry.first);
  }
  return keys;
}

std::string heft_key(int clbs) {
  return canonical_key(parse_request(JsonValue::parse(heft_line(clbs))));
}

TEST_F(FaultFsTest, MissesAppendAndACrashImageRestoresTheLruOrder) {
  ServiceConfig config = fast_config();
  config.cache_capacity = 2;
  config.persist_path = db_path("cachedb-append-crash.json");
  std::string image;
  {
    ExplorationService service(config);
    for (const int clbs : {400, 500, 600}) {
      ASSERT_TRUE(service.handle(heft_line(clbs)).ok);
    }
    // A hit changes recency in memory only; the log keeps write order.
    ASSERT_TRUE(service.handle(heft_line(500)).ok);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.persist_saves, 3u);  // one append per fresh result
    EXPECT_EQ(stats.persist_compactions, 0u);  // 1 dead < 2 live
    image = crash_image(config.persist_path, "cachedb-append-image.json");
  }
  EXPECT_EQ(loaded_keys(image),
            (std::vector<std::string>{heft_key(400), heft_key(500),
                                      heft_key(600)}));

  config.persist_path = image;
  ExplorationService restarted(config);
  const ServiceStats stats = restarted.stats();
  EXPECT_EQ(stats.persist_loaded, 3u);
  EXPECT_EQ(stats.cache.entries, 2u);  // capacity trimmed the oldest
  // Three records for two live entries: the startup compaction rewrote
  // the file, oldest first.
  EXPECT_EQ(stats.persist_compactions, 1u);
  EXPECT_EQ(loaded_keys(image),
            (std::vector<std::string>{heft_key(500), heft_key(600)}));
  EXPECT_NE(restarted.handle(heft_line(600)).response.find(
                R"("cached": true)"),
            std::string::npos);
  EXPECT_NE(restarted.handle(heft_line(400)).response.find(
                R"("cached": false)"),
            std::string::npos);
}

TEST_F(FaultFsTest, DeadRecordsOutnumberingLiveEntriesTriggerACompaction) {
  ServiceConfig config = fast_config();
  config.cache_capacity = 2;
  config.persist_path = db_path("cachedb-dead-rule.json");
  ExplorationService service(config);
  for (const int clbs : {400, 500, 600, 700}) {
    ASSERT_TRUE(service.handle(heft_line(clbs)).ok);
  }
  EXPECT_EQ(service.stats().persist_compactions, 0u);  // 2 dead, 2 live
  ASSERT_TRUE(service.handle(heft_line(800)).ok);      // 3 dead, 2 live
  EXPECT_EQ(service.stats().persist_compactions, 1u);
  EXPECT_EQ(service.stats().persist_saves, 5u);
  const LoadedCacheDb db = load_cache_db(config.persist_path);
  EXPECT_EQ(db.dead, 0u);
  EXPECT_EQ(loaded_keys(config.persist_path),
            (std::vector<std::string>{heft_key(700), heft_key(800)}));
}

TEST_F(FaultFsTest, CleanCompactFileCostsNoStartupWrite) {
  ServiceConfig config = fast_config();
  config.persist_path = db_path("cachedb-no-startup-write.json");
  {
    ExplorationService fresh(config);  // missing file: nothing written
    EXPECT_EQ(fresh.stats().persist_compactions, 0u);
    EXPECT_NE(::access(config.persist_path.c_str(), F_OK), 0);
    ASSERT_TRUE(fresh.handle(heft_line(400)).ok);
  }  // drain compaction: one record, one live entry
  ExplorationService restarted(config);
  EXPECT_EQ(restarted.stats().persist_loaded, 1u);
  EXPECT_EQ(restarted.stats().persist_compactions, 0u);
}

TEST_F(FaultFsTest, AppendAfterACompactionReachesTheRenamedFile) {
  // Regression guard: a compaction renames a new inode over the path, so
  // an append through the fd opened before it would land in the unlinked
  // file and vanish.
  ServiceConfig config = fast_config();
  config.persist_path = db_path("cachedb-compact-append.json");
  std::string image;
  {
    ExplorationService service(config);
    ASSERT_TRUE(service.handle(heft_line(400)).ok);  // opens the fd
    service.reload();                                // SIGHUP compaction
    ASSERT_TRUE(service.handle(heft_line(500)).ok);  // appends after it
    EXPECT_EQ(service.stats().persist_compactions, 1u);
    EXPECT_EQ(service.stats().persist_saves, 2u);
    image = crash_image(config.persist_path, "cachedb-compact-image.json");
  }
  config.persist_path = image;
  ExplorationService restarted(config);
  EXPECT_EQ(restarted.stats().persist_loaded, 2u);
  EXPECT_NE(restarted.handle(heft_line(500)).response.find(
                R"("cached": true)"),
            std::string::npos);
}

TEST_F(FaultFsTest, V1DatabaseLoadsInMruOrderAndIsRewrittenAsV2) {
  ServiceConfig config = fast_config();
  config.cache_capacity = 2;
  config.persist_path = db_path("cachedb-v1-service.json");
  write_v1_file(config.persist_path, Entries{{"hot", "p-hot"},
                                             {"warm", "p-warm"},
                                             {"cold", "p-cold"}});
  ExplorationService service(config);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.persist_loaded, 3u);
  EXPECT_EQ(stats.persist_compactions, 1u);
  EXPECT_EQ(stats.cache.entries, 2u);  // the cold end was trimmed
  const std::string text = read_file(config.persist_path);
  EXPECT_EQ(text.rfind(cache_db_header(), 0), 0u) << text;
  const LoadedCacheDb db = load_cache_db(config.persist_path);
  EXPECT_FALSE(db.legacy);
  EXPECT_EQ(db.entries, (Entries{{"warm", "p-warm"}, {"hot", "p-hot"}}));
}

TEST_F(FaultFsTest, ConcurrentMissesAcrossCompactionsLoseNoLiveEntry) {
  // Misses from several threads race SIGHUP compactions; the crash image
  // taken afterwards must still hold every live entry.
  ServiceConfig config = fast_config();
  config.workers = 3;
  config.queue_capacity = 64;
  config.cache_capacity = 64;
  config.persist_path = db_path("cachedb-concurrent.json");
  constexpr int kClients = 3;
  constexpr int kPerClient = 16;
  std::string image;
  {
    ExplorationService service(config);
    std::atomic<bool> done{false};
    std::thread compactor([&] {
      while (!done.load()) {
        service.reload();
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&service, c] {
        for (int i = 0; i < kPerClient; ++i) {
          const int k = c * kPerClient + i;
          EXPECT_TRUE(service.handle(heft_line(100 + 10 * k)).ok);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    done = true;
    compactor.join();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.persist_saves, kClients * kPerClient);
    EXPECT_GE(stats.persist_compactions, 1u);
    EXPECT_EQ(stats.persist_save_failures, 0u);
    image = crash_image(config.persist_path, "cachedb-concurrent-image.json");
  }
  config.persist_path = image;
  ExplorationService restarted(config);
  EXPECT_EQ(restarted.stats().persist_loaded, kClients * kPerClient);
  for (int k = 0; k < kClients * kPerClient; ++k) {
    EXPECT_NE(restarted.handle(heft_line(100 + 10 * k)).response.find(
                  R"("cached": true)"),
              std::string::npos)
        << k;
  }
}

TEST_F(FaultFsTest, FailedAppendIsCountedAndHealedByTheDrainCompaction) {
  ServiceConfig config = fast_config();
  config.persist_path = db_path("cachedb-append-fault.json");
  {
    ExplorationService service(config);
    ASSERT_TRUE(service.handle(heft_line(400)).ok);
    faultfs::FaultPlan plan;
    plan.fail_write_nth = 1;
    faultfs::set_plan(plan);
    ASSERT_TRUE(service.handle(heft_line(500)).ok);  // still answered
    faultfs::clear();
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.persist_saves, 1u);
    EXPECT_EQ(stats.persist_save_failures, 1u);
    // The file lacks the failed entry but is otherwise intact.
    LoadedCacheDb db = load_cache_db(config.persist_path);
    EXPECT_EQ(db.entries.size(), 1u);
    EXPECT_EQ(db.skipped, 0u);

    service.begin_drain();
    stats = service.stats();
    EXPECT_EQ(stats.persist_compactions, 1u);
    EXPECT_EQ(stats.persist_saves, 1u);  // compactions are not saves
    db = load_cache_db(config.persist_path);
    EXPECT_EQ(db.entries.size(), 2u);
  }
  ExplorationService restarted(config);
  EXPECT_EQ(restarted.stats().persist_loaded, 2u);
}

// ------------------------------------------------- write-ahead journal

std::string canonical_explore_key(int seed) {
  return canonical_key(parse_request(JsonValue::parse(explore_line(seed))));
}

TEST_F(FaultFsTest, JournalReplaysOpenWorkAndCompactsClosedWork) {
  const std::string path = db_path("journal-roundtrip.ndjson");
  {
    WorkJournal journal(path);
    EXPECT_TRUE(journal.pending().empty());
    EXPECT_TRUE(journal.append("accepted", "key-done"));
    EXPECT_TRUE(journal.append("started", "key-done"));
    EXPECT_TRUE(journal.append("accepted", "key-open"));
    EXPECT_TRUE(journal.append("completed", "key-done"));
    EXPECT_TRUE(journal.append("accepted", "key-cancelled"));
    EXPECT_TRUE(journal.append("cancelled", "key-cancelled"));
    EXPECT_TRUE(journal.flush());
    EXPECT_EQ(journal.counters().appends, 6u);
    EXPECT_EQ(journal.counters().append_failures, 0u);
  }  // ~ "crash after these appends"

  WorkJournal reopened(path);
  // Only the accepted-but-never-finished key is replayed; completed and
  // cancelled work is closed and compacted away.
  ASSERT_EQ(reopened.pending().size(), 1u);
  EXPECT_EQ(reopened.pending()[0], "key-open");
  EXPECT_EQ(reopened.counters().replayed, 1u);
  EXPECT_EQ(reopened.counters().skipped, 0u);
  EXPECT_EQ(reopened.counters().compactions, 1u);
  // The compacted file carries only the open entry (plus the header).
  const std::string text = read_file(path);
  EXPECT_EQ(text.rfind(kJournalFormat, 0), 0u);
  EXPECT_NE(text.find("key-open"), std::string::npos);
  EXPECT_EQ(text.find("key-done"), std::string::npos);
  EXPECT_EQ(text.find("key-cancelled"), std::string::npos);
}

TEST_F(FaultFsTest, JournalForeignFormatThrowsGarbageLinesSkip) {
  const std::string foreign = db_path("journal-foreign.ndjson");
  write_file(foreign, "rdse.journal.v9\n");
  EXPECT_THROW(WorkJournal{foreign}, Error);

  // Torn and tampered lines are skipped individually; intact entries around
  // them survive.
  const std::string path = db_path("journal-garbage.ndjson");
  {
    WorkJournal journal(path);
    EXPECT_TRUE(journal.append("accepted", "good-key"));
  }
  std::string text = read_file(path);
  text += "not json at all\n";
  text += R"({"seq": 9, "event": "accepted", "key": "forged", )"
          R"("checksum": "0000000000000000"})"
          "\n";
  text += text.substr(text.find('\n') + 1, 20);  // torn final line
  write_file(path, text);

  WorkJournal reopened(path);
  ASSERT_EQ(reopened.pending().size(), 1u);
  EXPECT_EQ(reopened.pending()[0], "good-key");
  EXPECT_EQ(reopened.counters().skipped, 3u);
}

TEST_F(FaultFsTest, JournalAppendFaultDegradesAndRecovers) {
  const std::string path = db_path("journal-append-fault.ndjson");
  WorkJournal journal(path);

  faultfs::FaultPlan plan;
  plan.fail_write_nth = 1;
  faultfs::set_plan(plan);
  EXPECT_FALSE(journal.append("accepted", "lost-key"));
  faultfs::clear();
  EXPECT_EQ(journal.counters().append_failures, 1u);

  // The journal keeps working after the fault, and the recovery byte keeps
  // the file parseable: a reopen replays exactly the surviving entry.
  EXPECT_TRUE(journal.append("accepted", "kept-key"));
  EXPECT_EQ(journal.counters().appends, 1u);

  WorkJournal reopened(path);
  ASSERT_EQ(reopened.pending().size(), 1u);
  EXPECT_EQ(reopened.pending()[0], "kept-key");
}

TEST_F(FaultFsTest, ServiceReplaysAcceptedWorkAfterACrash) {
  // The crash shape: work was journaled "accepted" (and even "started") but
  // the process died before "completed". On restart the service re-executes
  // it in the background and closes it out.
  ServiceConfig config = fast_config();
  config.journal_path = db_path("journal-crash.ndjson");
  const std::string key = canonical_explore_key(17);
  {
    WorkJournal journal(config.journal_path);
    ASSERT_TRUE(journal.append("accepted", key));
    ASSERT_TRUE(journal.append("started", key));
  }  // kill -9 here

  {
    ExplorationService service(config);
    const ServiceStats stats = service.stats();
    EXPECT_TRUE(stats.journal_enabled);
    EXPECT_EQ(stats.journal.replayed, 1u);
    EXPECT_GE(stats.uptime_ms, 0);
    // The replay thread re-runs the work; wait for it to complete.
    for (int i = 0; i < 2'000 && service.stats().completed == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(service.stats().completed, 1u);
    // The re-run landed in the cache: the original client retrying its
    // request gets an O(1) hit.
    const auto hit = service.handle(explore_line(17));
    ASSERT_TRUE(hit.ok) << hit.response;
    EXPECT_NE(hit.response.find(R"("cached": true)"), std::string::npos);
  }

  // After the clean restart nothing is left to replay.
  ExplorationService restarted(config);
  EXPECT_EQ(restarted.stats().journal.replayed, 0u);
}

TEST_F(FaultFsTest, ServicePoisonJournalEntryIsCancelledNotFatal) {
  // An unparseable key (schema drift, corruption that passed the line
  // checksum) must be closed out as cancelled — not crash the service, not
  // stay pending forever.
  ServiceConfig config = fast_config();
  config.journal_path = db_path("journal-poison.ndjson");
  {
    WorkJournal journal(config.journal_path);
    ASSERT_TRUE(journal.append("accepted", "{\"op\": \"no-such-op\"}"));
  }
  {
    ExplorationService service(config);
    EXPECT_EQ(service.stats().journal.replayed, 1u);
    // Poison is answered with a journaled "cancelled"; wait for it.
    for (int i = 0; i < 2'000 && service.stats().journal.appends == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // The service still answers real work.
    EXPECT_TRUE(service.handle(explore_line(2)).ok);
  }
  ExplorationService restarted(config);
  EXPECT_EQ(restarted.stats().journal.replayed, 0u);
}

// -------------------------------------------------- deadlines and drain

TEST(ServeDeadline, ExpiredDeadlineReturnsErrorAndFreesTheWorker) {
  ServiceConfig config = fast_config();
  config.max_iterations = std::int64_t{1} << 40;
  ExplorationService service(config);

  // A run that would take minutes, against a 25 ms deadline.
  const std::string line =
      R"({"op": "explore", "clbs": 2000, "iters": 500000000, )"
      R"("timeout_ms": 25})";
  const auto t0 = std::chrono::steady_clock::now();
  const auto handled = service.handle(line);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_FALSE(handled.ok);
  const JsonValue doc = JsonValue::parse(handled.response);
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").as_string(), "deadline exceeded");
  EXPECT_EQ(doc.find("result"), nullptr);  // never a partial payload
  // Cooperative cancellation is not instant, but it is bounded: orders of
  // magnitude under the full run, generous enough for sanitizer builds.
  EXPECT_LT(elapsed, 10'000) << "cancellation took " << elapsed << " ms";

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.in_flight, 0u);  // the worker was freed
  EXPECT_EQ(stats.cache.entries, 0u);  // deadline responses are not cached

  // The worker is genuinely reusable: a small request still completes.
  EXPECT_TRUE(service.handle(explore_line(1)).ok);
}

TEST(ServeDeadline, GenerousDeadlineDoesNotPerturbThePayload) {
  ExplorationService service(fast_config());
  const auto plain = service.handle(explore_line(3));
  ASSERT_TRUE(plain.ok);

  ServiceConfig config = fast_config();
  ExplorationService with_deadline(config);
  const std::string line =
      R"({"op": "explore", "clbs": 400, "iters": 600, "warmup": 100, )"
      R"("seed": 3, "timeout_ms": 600000})";
  const auto timed = with_deadline.handle(line);
  ASSERT_TRUE(timed.ok) << timed.response;
  // timeout_ms is an execution knob: same cache key, same payload bytes.
  EXPECT_EQ(plain.response, timed.response);
  const auto hit = with_deadline.handle(explore_line(3));
  ASSERT_TRUE(hit.ok);
  EXPECT_NE(hit.response.find(R"("cached": true)"), std::string::npos);
}

TEST(ServeDeadline, DrainCancelsQueuedButUnstartedWork) {
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.cache_capacity = 16;
  config.on_job_start = [released] { released.wait(); };
  ExplorationService service(config);

  auto run = [&service](int seed) {
    return service.handle(explore_line(seed));
  };
  std::future<ExplorationService::Handled> first =
      std::async(std::launch::async, run, 1);
  while (service.stats().in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::future<ExplorationService::Handled> second =
      std::async(std::launch::async, run, 2);
  while (service.stats().queue_depth == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The drain begins while the second request is queued but unstarted:
  // it must be cancelled at pickup, not executed.
  service.begin_drain();
  release.set_value();

  const auto a = first.get();  // already in flight: completes normally
  EXPECT_TRUE(a.ok) << a.response;
  const auto b = second.get();
  EXPECT_FALSE(b.ok);
  EXPECT_EQ(JsonValue::parse(b.response).at("error").as_string(),
            "cancelled");

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

}  // namespace
}  // namespace rdse::serve
