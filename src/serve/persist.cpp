#include "serve/persist.hpp"

#include <algorithm>
#include <exception>
#include <string_view>
#include <unordered_set>

#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/record_log.hpp"

namespace rdse::serve {

namespace {

constexpr RecordFields kCacheFields{"key", "payload"};

/// 2 or 1 for our own header line, 0 for anything else.
int header_version(const std::string& line) {
  try {
    const JsonValue doc = JsonValue::parse(line);
    if (doc.kind() != JsonValue::Kind::kObject) return 0;
    const JsonValue* format = doc.find("format");
    if (format == nullptr || format->kind() != JsonValue::Kind::kString) {
      return 0;
    }
    if (format->as_string() == kCacheDbFormat) return 2;
    if (format->as_string() == kCacheDbFormatV1) return 1;
    return 0;
  } catch (const std::exception&) {
    return 0;
  }
}

}  // namespace

LoadedCacheDb load_cache_db(const std::string& path) {
  LoadedCacheDb out;
  RecordScan scan = scan_records(path, kCacheFields);
  if (!scan.header) return out;  // missing or empty file: nothing to load
  const int version = header_version(*scan.header);
  if (version == 0) {
    // A foreign or future-format file voids every line: without the
    // version handshake the entry layout is not trustworthy even when
    // individual checksums happen to verify.
    out.skipped = 1 + scan.records.size() + scan.skipped;
    return out;
  }
  out.skipped = scan.skipped;
  out.legacy = version == 1;
  std::vector<Record>& records = scan.records;
  // v1 is MRU first: reversed, it is the same chronological log as v2.
  if (out.legacy) std::reverse(records.begin(), records.end());

  // The last write of a key wins: walking newest to oldest, each key's
  // first sighting is live and every earlier copy is dead.
  std::vector<bool> live(records.size());
  std::unordered_set<std::string_view> seen;
  for (std::size_t i = records.size(); i-- > 0;) {
    live[i] = seen.insert(records[i].first).second;
    if (!live[i]) ++out.dead;
  }
  out.entries.reserve(seen.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (live[i]) out.entries.push_back(std::move(records[i]));
  }
  return out;
}

std::string cache_db_header() {
  std::string header = "{\"format\": \"";
  header += kCacheDbFormat;
  header += "\"}\n";
  return header;
}

std::string cache_db_record(const std::string& key,
                            const std::string& payload) {
  return encode_record(JsonValue::object(), kCacheFields, key, payload);
}

bool save_cache_db(
    const std::string& path,
    std::span<const std::pair<std::string, std::string>> entries) {
  std::string data = cache_db_header();
  for (const auto& [key, payload] : entries) {
    data += cache_db_record(key, payload);
  }
  return write_file_atomic(path, data);
}

}  // namespace rdse::serve
