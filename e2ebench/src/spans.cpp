#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace e2e {

std::int32_t SpanBuffer::open(const char* name, std::int32_t parent,
                              std::uint64_t job) {
  const std::int64_t t = now_ns();
  return add(name, parent, job, t, t);
}

std::int32_t SpanBuffer::add(const char* name, std::int32_t parent,
                             std::uint64_t job, std::int64_t start_ns,
                             std::int64_t end_ns) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, job});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::merge(SpanBuffer& buffer) {
  std::vector<Span> local = buffer.take();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() + local.size() > capacity_) {
    dropped_ += local.size();
    return;
  }
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span& s : local) {
    if (s.parent != kNoParent) s.parent += base;
    spans_.push_back(s);
  }
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

bool Tracer::write_csv(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  out << "id,parent,job,name,start_ns,end_ns\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << i << ',' << s.parent << ',' << s.job << ',' << s.name << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  }
  out.flush();
  return out.good();
}

std::vector<std::int64_t> self_times(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, LayerTime> layer_times(std::span<const Span> spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = out[spans[i].name];
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
    ++t.count;
  }
  return out;
}

}  // namespace e2e
