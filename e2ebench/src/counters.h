#ifndef SEMITRI_E2EBENCH_COUNTERS_H_
#define SEMITRI_E2EBENCH_COUNTERS_H_

// Work counters of the benchmark process:
//   * user-space instructions retired, read from a perf_event_open
//     hardware counter on this process (threads it starts later are
//     inherited into the same count);
//   * heap allocations and bytes, counted by the global operator new
//     that counters.cc links into the benchmark binary.
//
// Wall clock on a shared machine swings with CPU frequency and
// co-tenants; instruction counts repeat to a fraction of a percent, so
// every workload reports both.

#include <cstdint>
#include <memory>
#include <string>

namespace e2ebench {

struct AllocCounts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

// Allocations made through operator new since process start, all
// threads.
AllocCounts ReadAllocs();

class InstructionCounter {
 public:
  // Opens and starts the counter; null with *error set when the kernel
  // refuses it (no PMU, perf_event_paranoid too high, seccomp).
  static std::unique_ptr<InstructionCounter> Open(std::string* error);

  ~InstructionCounter();
  InstructionCounter(const InstructionCounter&) = delete;
  InstructionCounter& operator=(const InstructionCounter&) = delete;

  // Instructions retired in user space so far by this thread and by
  // every thread it started that has exited. A read(2) costs about a
  // microsecond in a virtual machine (rdpmc traps and costs more).
  uint64_t Read() const;

 private:
  explicit InstructionCounter(int fd) : fd_(fd) {}
  int fd_;
};

// Checks that a loop of known length counts as expected, on this
// thread and on a worker thread, and that allocations are counted.
// False with *error describing the mismatch.
bool SelfCheck(const InstructionCounter& counter, std::string* error);

// ru_maxrss of this process, in MiB.
double PeakRssMb();

}  // namespace e2ebench

#endif  // SEMITRI_E2EBENCH_COUNTERS_H_
