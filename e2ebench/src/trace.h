#ifndef WCBENCH_TRACE_H_
#define WCBENCH_TRACE_H_

// Benchmark-side tracing: spans recorded around the benchmark's own calls
// into each library layer (the library itself carries no tracing). Spans
// live in memory and are written once, at exit, as a Chrome trace_event
// JSON file. A disabled Tracer records nothing; its scopes cost one branch.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace wcbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // loop index, or the serving session id
  std::string layer;     // dump, log, core, relational, serve, bench
  std::string name;
  int64_t start_ns = 0;  // relative to the tracer's origin
  int64_t end_ns = 0;
  /// True for a span whose duration comes from a counter the library
  /// returned (e.g. IngestStats::log_write_seconds) rather than from the
  /// benchmark's own clock; it is placed at its parent's start.
  bool attributed = false;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// RAII span. Spans nest by lexical scope on the (single) benchmark
  /// thread that records them.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer, const char* name,
          uint64_t request);
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes the span before the end of its lexical scope (idempotent).
    void End();

    /// Sets the request id once it is known (a session id is assigned by
    /// the call the span times).
    void SetRequest(uint64_t request);

   private:
    Tracer* tracer_;  // null when disabled
    size_t index_ = 0;
  };

  Scope Open(const char* layer, const char* name, uint64_t request = 0) {
    return Scope(this, layer, name, request);
  }

  /// Records `seconds` of time spent in `layer` inside the innermost open
  /// span, as an attributed child span.
  void Attribute(const char* layer, const char* name, double seconds);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: each span's duration minus the durations of its
  /// direct children, summed per layer.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes the spans as Chrome trace_event JSON ("X" complete events,
  /// microsecond timestamps). Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices into spans_ of the open scopes
};

}  // namespace wcbench

#endif  // WCBENCH_TRACE_H_
