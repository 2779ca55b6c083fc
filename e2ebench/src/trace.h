#ifndef SEMITRI_E2EBENCH_TRACE_H_
#define SEMITRI_E2EBENCH_TRACE_H_

// Span recorder for the traced run. The benchmark opens a span around
// each call it makes into a layer (and the counting Env opens one
// around each filesystem call the library makes, see kHarness); a span
// records its name, start, end, parent span, the fix or trajectory id it
// served, and the allocation counter (and in a counted pass the
// instruction counter) at both ends. Spans stay in memory during a pass. At the end
// of a pass they are folded into per-name self costs (a span's cost
// minus its children's), and the first timed pass's spans are kept for
// writing out when the run ends.
//
// Single-threaded: the feeder thread is the only one that records.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "counters.h"

namespace e2ebench {

// Self cost of one call name, summed over its spans.
struct CallCost {
  double ns = 0.0;
  double instr = 0.0;
  double allocs = 0.0;
};

class Tracer {
 public:
  // Name of the root span of every pass; its self time is the part of
  // the pass no layer call covers.
  static constexpr const char* kOther = "other";
  // Name of the spans around the benchmark's own work inside a layer
  // call (its in-memory Env); their self cost is added to kOther.
  static constexpr const char* kHarness = "bench.env";

  // `counter` must outlive the tracer.
  explicit Tracer(const InstructionCounter* counter) : counter_(counter) {}

  // Starts recording a pass. `expected_spans` sizes the span buffer up
  // front so that recording does not allocate inside the pass. A
  // counter read costs about a microsecond, so a pass either times its
  // spans (clock and allocation counter only) or also counts their
  // instructions (`count_instructions`), never both at full accuracy.
  void BeginPass(size_t expected_spans, bool count_instructions);
  // Stops recording and adds the pass's self costs to *costs (keyed by
  // span name; the root and kHarness spans are keyed kOther).
  void EndPass(std::map<std::string, CallCost>* costs);

  // -1 when no pass is being recorded.
  int Begin(const char* name, int64_t subject);
  void End(int span);
  // Names a span after the fact (a Feed's kind is known on return).
  void Rename(int span, const char* name);

  // Writes the first timed (not counted) pass as JSON lines, one span
  // per line, a span's parent given by its line number; false on I/O
  // error.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    int64_t subject;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t instr_start;
    uint64_t instr_end;
    uint64_t allocs_start;
    uint64_t allocs_end;
  };

  const InstructionCounter* counter_;
  std::vector<Span> spans_;
  std::vector<Span> kept_;
  int current_ = -1;
  bool recording_ = false;
  bool count_instructions_ = false;
};

// Opens a span for the enclosing scope; a no-op for a null tracer or
// when no pass is being recorded.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int64_t subject)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->Begin(name, subject) : -1) {}
  ~SpanScope() {
    if (span_ >= 0) tracer_->End(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void Rename(const char* name) {
    if (span_ >= 0) tracer_->Rename(span_, name);
  }

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace e2ebench

#endif  // SEMITRI_E2EBENCH_TRACE_H_
