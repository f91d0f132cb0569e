#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace sato::perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

// Buffers live until process exit: a thread's buffer must outlive the
// thread so Collect can read it after the join.
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<std::vector<Span>>>& AllBuffers() {
  static std::vector<std::unique_ptr<std::vector<Span>>> buffers;
  return buffers;
}

thread_local std::vector<Span>* t_buffer = nullptr;

std::vector<Span>* ThreadBuffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<std::vector<Span>>();
    buffer->reserve(1 << 14);
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    t_buffer = buffer.get();
    AllBuffers().push_back(std::move(buffer));
  }
  return t_buffer;
}

}  // namespace

uint64_t Tracer::NewId() {
  if (!enabled()) return 0;
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::RecordWithId(uint64_t id, const char* name, uint64_t start_ns,
                          uint64_t end_ns, uint64_t parent,
                          uint64_t request) {
  if (id == 0) return;
  ThreadBuffer()->push_back(Span{name, start_ns, end_ns, id, parent, request});
}

uint64_t Tracer::Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                        uint64_t parent, uint64_t request) {
  const uint64_t id = NewId();
  RecordWithId(id, name, start_ns, end_ns, parent, request);
  return id;
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : AllBuffers()) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

bool Tracer::Write(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (const Span& s : spans) {
    out << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.name
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

std::map<std::string, SpanTotals> Tracer::Totals(
    const std::vector<Span>& spans, uint64_t from_ns, uint64_t to_ns) {
  // Children grouped by parent, so each span's covered time is the union
  // of its direct children's intervals clipped to the parent.
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    if (s.start_ns < from_ns || s.start_ns >= to_ns) continue;
    const uint64_t duration = s.end_ns - s.start_ns;
    uint64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<uint64_t, uint64_t>> intervals;
      for (const Span* c : it->second) {
        const uint64_t lo = std::max(c->start_ns, s.start_ns);
        const uint64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
      std::sort(intervals.begin(), intervals.end());
      uint64_t reach = 0;
      for (const auto& [lo, hi] : intervals) {
        const uint64_t from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
      }
    }
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_ms += duration / 1e6;
    t.self_ms += (duration - covered) / 1e6;
  }
  return totals;
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t parent, uint64_t request)
    : name_(name), parent_(parent), request_(request) {
  Tracer& tracer = GlobalTracer();
  if (tracer.enabled()) {
    id_ = tracer.NewId();
    start_ns_ = NowNs();
  }
}

ScopedSpan::~ScopedSpan() {
  if (id_ != 0) {
    GlobalTracer().RecordWithId(id_, name_, start_ns_, NowNs(), parent_,
                                request_);
  }
}

}  // namespace sato::perfbench
