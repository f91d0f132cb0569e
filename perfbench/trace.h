#ifndef SATO_PERFBENCH_TRACE_H_
#define SATO_PERFBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced runs. Spans are
// recorded only around calls the benchmark itself makes into the library
// (library code carries no tracing). Each thread appends to its own
// buffer, so recording takes no lock after a thread's first span; all
// buffers are merged and written out once the run ends.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sato::perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
uint64_t NowNs();

struct Span {
  const char* name = "";  ///< string literal: the layer call being timed
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;        ///< unique within the run, never 0
  uint64_t parent = 0;    ///< id of the enclosing span; 0 for a root
  uint64_t request = 0;   ///< request / table / pass id shared by a tree
};

/// Per-name totals over a set of spans. Self time is each span's duration
/// minus the part of its interval covered by its direct children.
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  /// Recording is off until Enable(true); a disabled tracer returns id 0
  /// from Begin and ignores End, so untraced runs pay one relaxed load.
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a finished span; returns its id (0 when disabled).
  uint64_t Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                  uint64_t parent, uint64_t request);

  /// Reserves an id for a span whose end is not known yet (a parent that
  /// is recorded after its children). Returns 0 when disabled.
  uint64_t NewId();

  /// Records a span under an id from NewId (no-op for id 0).
  void RecordWithId(uint64_t id, const char* name, uint64_t start_ns,
                    uint64_t end_ns, uint64_t parent, uint64_t request);

  /// Every span recorded so far, from all threads. Call once recording
  /// threads have been joined.
  std::vector<Span> Collect() const;

  /// Writes one tab-separated line per span (id, parent, request, name,
  /// start, end) to `path`. Returns false when the file cannot be written.
  static bool Write(const std::vector<Span>& spans, const std::string& path);

  /// Totals per span name, restricted to spans starting in [from, to).
  static std::map<std::string, SpanTotals> Totals(
      const std::vector<Span>& spans, uint64_t from_ns, uint64_t to_ns);

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
};

/// The process-wide tracer the workloads record into.
Tracer& GlobalTracer();

/// RAII span: measures from construction to destruction when tracing is
/// on. `id()` can be passed as the parent of nested spans.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t parent, uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t parent_;
  uint64_t request_;
  uint64_t id_ = 0;
  uint64_t start_ns_ = 0;
};

}  // namespace sato::perfbench

#endif  // SATO_PERFBENCH_TRACE_H_
