#include "trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>

namespace e2ebench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Tracer::BeginPass(size_t expected_spans, bool count_instructions) {
  spans_.clear();
  spans_.reserve(expected_spans + 1);
  recording_ = true;
  count_instructions_ = count_instructions;
  current_ = -1;
  current_ = Begin(kOther, -1);
}

int Tracer::Begin(const char* name, int64_t subject) {
  if (!recording_) return -1;
  Span span;
  span.name = name;
  span.parent = current_;
  span.subject = subject;
  span.allocs_start = ReadAllocs().allocs;
  span.instr_start = count_instructions_ ? counter_->Read() : 0;
  span.start_ns = NowNs();
  span.end_ns = span.start_ns;
  span.instr_end = span.instr_start;
  span.allocs_end = span.allocs_start;
  spans_.push_back(span);
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::End(int index) {
  if (!recording_ || index < 0) return;
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  span.instr_end = count_instructions_ ? counter_->Read() : 0;
  span.allocs_end = ReadAllocs().allocs;
  current_ = span.parent;
}

void Tracer::Rename(int index, const char* name) {
  if (recording_ && index >= 0) spans_[static_cast<size_t>(index)].name = name;
}

void Tracer::EndPass(std::map<std::string, CallCost>* costs) {
  if (!recording_) return;
  End(0);
  recording_ = false;
  const size_t n = spans_.size();
  std::vector<CallCost> self(n);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    CallCost total;
    total.ns = static_cast<double>(s.end_ns - s.start_ns);
    total.instr = static_cast<double>(s.instr_end - s.instr_start);
    total.allocs = static_cast<double>(s.allocs_end - s.allocs_start);
    self[i].ns += total.ns;
    self[i].instr += total.instr;
    self[i].allocs += total.allocs;
    if (s.parent >= 0) {
      CallCost& parent = self[static_cast<size_t>(s.parent)];
      parent.ns -= total.ns;
      parent.instr -= total.instr;
      parent.allocs -= total.allocs;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const char* name = spans_[i].name;
    CallCost& out =
        (*costs)[std::strcmp(name, kHarness) == 0 ? kOther : name];
    out.ns += self[i].ns;
    out.instr += self[i].instr;
    out.allocs += self[i].allocs;
  }
  if (kept_.empty() && !count_instructions_) kept_.swap(spans_);
  spans_.clear();
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  for (const Span& s : kept_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"subject\": %lld, \"allocs\": %llu}\n",
                 s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent,
                 static_cast<long long>(s.subject),
                 static_cast<unsigned long long>(s.allocs_end -
                                                 s.allocs_start));
  }
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
