#include "serve/journal.hpp"

#include <unordered_map>
#include <utility>

#include "util/assert.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace rdse::serve {

namespace {

constexpr RecordFields kJournalFields{"event", "key"};

std::string entry_line(std::uint64_t seq, std::string_view event,
                       const std::string& key) {
  JsonValue seq_member = JsonValue::object();
  seq_member.set("seq", static_cast<std::int64_t>(seq));
  return encode_record(std::move(seq_member), kJournalFields,
                       std::string(event), key);
}

bool known_event(const std::string& event) {
  return event == "accepted" || event == "started" || event == "completed" ||
         event == "cancelled";
}

std::string journal_header() {
  std::string header = kJournalFormat;
  header += '\n';
  return header;
}

}  // namespace

WorkJournal::WorkJournal(std::string path)
    : path_(std::move(path)), log_(path_, journal_header()) {
  // ---- replay ----
  const RecordScan scan = scan_records(path_, kJournalFields);
  // A header that is some other format must be rejected loudly; an empty
  // file (crash between create and first write) is simply fresh.
  if (scan.header && *scan.header != kJournalFormat) {
    throw Error("journal: '" + path_ + "' has a foreign format tag (want " +
                std::string(kJournalFormat) + ")");
  }
  counters_.skipped = scan.skipped;
  std::vector<std::string> order;  // keys in first-accepted order
  std::unordered_map<std::string, bool> open_state;  // key -> still pending
  for (const auto& [event, key] : scan.records) {
    if (!known_event(event)) {
      ++counters_.skipped;
      continue;
    }
    const bool pending = event == "accepted" || event == "started";
    const auto it = open_state.find(key);
    if (it == open_state.end()) {
      open_state.emplace(key, pending);
      order.push_back(key);
    } else {
      it->second = pending;  // last transition wins
    }
  }
  for (const std::string& key : order) {
    if (open_state[key]) pending_.push_back(key);
  }
  counters_.replayed = pending_.size();

  // ---- compact ----
  // Rewrite the file with only the still-pending entries (re-sequenced), so
  // completed work does not accumulate. On a storage fault the old file is
  // left as-is — replay stays correct, just un-compacted — and appends
  // continue against it.
  std::string data = journal_header();
  for (const std::string& key : pending_) {
    data += entry_line(++seq_, "accepted", key);
  }
  if (write_file_atomic(path_, data)) {
    if (scan.header) ++counters_.compactions;
  } else {
    ++counters_.append_failures;
  }
}

bool WorkJournal::append(std::string_view event, const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!log_.append(entry_line(++seq_, event, key))) {
    ++counters_.append_failures;
    return false;
  }
  ++counters_.appends;
  return true;
}

bool WorkJournal::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return log_.sync();
}

WorkJournal::Counters WorkJournal::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace rdse::serve
