#include "util/record_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <exception>
#include <fstream>

#include "util/atomic_file.hpp"
#include "util/faultfs.hpp"
#include "util/hash.hpp"

namespace rdse {

namespace {

/// Parse and verify one record line; nullopt on anything malformed.
std::optional<Record> parse_record(const std::string& line,
                                   RecordFields fields) {
  try {
    const JsonValue doc = JsonValue::parse(line);
    if (doc.kind() != JsonValue::Kind::kObject) return std::nullopt;
    const JsonValue* first = doc.find(fields.first);
    const JsonValue* second = doc.find(fields.second);
    const JsonValue* checksum = doc.find("checksum");
    for (const JsonValue* v : {first, second, checksum}) {
      if (v == nullptr || v->kind() != JsonValue::Kind::kString) {
        return std::nullopt;
      }
    }
    if (checksum->as_string() !=
        record_checksum(first->as_string(), second->as_string())) {
      return std::nullopt;
    }
    return Record{first->as_string(), second->as_string()};
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

std::string record_checksum(std::string_view first, std::string_view second) {
  std::string joined;
  joined.reserve(first.size() + 1 + second.size());
  joined += first;
  joined += '\n';
  joined += second;
  return fnv1a64_hex(joined);
}

std::string encode_record(JsonValue prefix, RecordFields fields,
                          const std::string& first,
                          const std::string& second) {
  prefix.set(std::string(fields.first), first);
  prefix.set(std::string(fields.second), second);
  prefix.set("checksum", record_checksum(first, second));
  std::string line = prefix.dump();
  line += '\n';
  return line;
}

RecordScan scan_records(const std::string& path, RecordFields fields) {
  RecordScan out;
  std::ifstream in(path);
  std::string line;
  if (!in.is_open() || !std::getline(in, line)) return out;
  out.header = line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (auto record = parse_record(line, fields)) {
      out.records.push_back(std::move(*record));
    } else {
      ++out.skipped;
    }
  }
  return out;
}

RecordAppender::RecordAppender(std::string path, std::string header)
    : path_(std::move(path)), header_(std::move(header)) {}

RecordAppender::~RecordAppender() { reopen(); }

bool RecordAppender::open() {
  fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) return false;
  struct stat st = {};
  char last = '\n';
  if (::fstat(fd_, &st) != 0 ||
      (st.st_size > 0 && ::pread(fd_, &last, 1, st.st_size - 1) != 1)) {
    reopen();
    return false;
  }
  if (st.st_size == 0) {
    lead_ = header_;
  } else {
    lead_ = last == '\n' ? "" : "\n";
  }
  return true;
}

bool RecordAppender::append(std::string_view lines) {
  if (fd_ < 0 && !open()) return false;
  std::string framed;
  if (!lead_.empty()) {
    framed = lead_;
    framed += lines;
    lines = framed;
  }
  if (write_all_fd(fd_, lines) && faultfs::fsync(fd_) == 0) {
    lead_.clear();
    return true;
  }
  // Raw syscalls: the recovery must not be subject to the same injected
  // fault plan it is recovering from.
  if (lead_ == header_) {
    // This append was starting the file: back to empty, so the next one
    // writes the header again.
    (void)!::ftruncate(fd_, 0);
  } else {
    (void)!::write(fd_, "\n", 1);
    lead_.clear();
  }
  return false;
}

bool RecordAppender::sync() { return fd_ < 0 || faultfs::fsync(fd_) == 0; }

void RecordAppender::reopen() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

}  // namespace rdse
