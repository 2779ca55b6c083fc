#include "counters.h"

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

// Runs `iterations` of a two-instruction loop (dec + jnz).
void FixedLoop(uint64_t iterations) {
#if defined(__x86_64__)
  asm volatile("1: dec %0\n\tjnz 1b" : "+r"(iterations) : : "cc");
#elif defined(__aarch64__)
  asm volatile("1: subs %0, %0, #1\n\tb.ne 1b" : "+r"(iterations) : : "cc");
#else
#error "e2ebench's counter self-check needs x86-64 or aarch64"
#endif
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = CountedAlignedAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = CountedAlignedAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace e2ebench {

AllocCounts ReadAllocs() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

std::unique_ptr<InstructionCounter> InstructionCounter::Open(
    std::string* error) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  // Threads created after this point count into the same event.
  attr.inherit = 1;
  long fd = ::syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1,
                      /*group_fd=*/-1, /*flags=*/0UL);
  if (fd < 0) {
    *error = std::string("perf_event_open(instructions) failed: ") +
             std::strerror(errno);
    return nullptr;
  }
  int ifd = static_cast<int>(fd);
  if (::ioctl(ifd, PERF_EVENT_IOC_RESET, 0) != 0 ||
      ::ioctl(ifd, PERF_EVENT_IOC_ENABLE, 0) != 0) {
    *error = std::string("cannot start the instruction counter: ") +
             std::strerror(errno);
    ::close(ifd);
    return nullptr;
  }
  return std::unique_ptr<InstructionCounter>(new InstructionCounter(ifd));
}

InstructionCounter::~InstructionCounter() { ::close(fd_); }

uint64_t InstructionCounter::Read() const {
  uint64_t value = 0;
  if (::read(fd_, &value, sizeof(value)) != sizeof(value)) return 0;
  return value;
}

bool SelfCheck(const InstructionCounter& counter, std::string* error) {
  constexpr uint64_t kIterations = 20'000'000;
  constexpr uint64_t kExpected = 2 * kIterations;
  // Counter reads, the call and the loop set-up cost a few hundred
  // instructions; thread start and join cost more.
  constexpr uint64_t kSlack = 5'000;
  constexpr uint64_t kThreadSlack = 400'000;

  uint64_t before = counter.Read();
  FixedLoop(kIterations);
  uint64_t own = counter.Read() - before;
  if (own < kExpected || own > kExpected + kSlack) {
    *error = "instruction counter self-check: a loop of " +
             std::to_string(kExpected) + " instructions counted " +
             std::to_string(own);
    return false;
  }

  before = counter.Read();
  std::thread worker([] { FixedLoop(kIterations); });
  worker.join();
  uint64_t threaded = counter.Read() - before;
  if (threaded < kExpected || threaded > kExpected + kThreadSlack) {
    *error = "instruction counter self-check: a worker thread's loop of " +
             std::to_string(kExpected) + " instructions counted " +
             std::to_string(threaded);
    return false;
  }

  constexpr int kAllocs = 1000;
  std::vector<void*> blocks;
  blocks.reserve(kAllocs);
  AllocCounts a0 = ReadAllocs();
  for (int i = 0; i < kAllocs; ++i) blocks.push_back(::operator new(24));
  AllocCounts a1 = ReadAllocs();
  for (void* p : blocks) ::operator delete(p);
  if (a1.allocs - a0.allocs != kAllocs ||
      a1.bytes - a0.bytes != 24u * kAllocs) {
    *error = "allocation counter self-check: 1000 allocations of 24 bytes "
             "counted " + std::to_string(a1.allocs - a0.allocs) + " / " +
             std::to_string(a1.bytes - a0.bytes) + " bytes";
    return false;
  }
  return true;
}

double PeakRssMb() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace e2ebench
