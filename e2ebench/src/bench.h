#ifndef SEMITRI_E2EBENCH_BENCH_H_
#define SEMITRI_E2EBENCH_BENCH_H_

// Shared harness of the end-to-end benchmark: run options, the seeded
// world and corpora, world loading (the set-up every workload times),
// the pass schedule, and the result every workload fills in.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "counters.h"
#include "datagen/presets.h"
#include "poi/poi_set.h"
#include "region/region_set.h"
#include "road/road_network.h"
#include "trace.h"

namespace e2ebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // A few-second corpus for the benchmark's own test.
  bool small = false;
  // Scratch directory for world files and durable state; created empty
  // and removed when the run ends.
  std::string workdir;
  // Where the traced run writes its spans ("" = nowhere).
  std::string spans_path;
};

// What a workload hands back. In a timed run `metrics` holds the
// end-to-end metrics, in a traced run the per-layer ones.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  // Failed output checks, one line each.
  std::vector<std::string> check_failures;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      check_failures.push_back(what);
    }
  }
};

struct Context {
  Options options;
  const InstructionCounter* instructions = nullptr;
  Tracer* tracer = nullptr;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

// --- inputs ------------------------------------------------------------

// The synthetic city the corpora move in (datagen only; its time counts
// in no metric).
semitri::datagen::World MakeWorld();

// Milan private cars: many objects, ~40 s sampling, POI errand stops.
semitri::datagen::Dataset MakeCars(const semitri::datagen::World& world,
                                   const Options& options, int cars,
                                   int days);
// Lausanne taxis: few objects, 1 s sampling, long shifts.
semitri::datagen::Dataset MakeTaxis(const semitri::datagen::World& world,
                                    const Options& options, int taxis,
                                    int days, double shift_hours);

size_t LongestTrack(const semitri::datagen::Dataset& dataset);

// Writes the world's semantic sources as the CSV files io::Load* reads.
// False (with *error) on I/O failure.
bool SaveWorld(const semitri::datagen::World& world, const std::string& dir,
               std::string* error);

// The world as the program sees it: loaded back from the CSV files.
struct LoadedWorld {
  semitri::region::RegionSet regions;
  semitri::road::RoadNetwork roads;
  semitri::poi::PoiSet pois = semitri::poi::PoiSet::MilanCategories();
};

// Cost of a once-per-run call, median over the set-up repetitions.
struct OnceCost {
  double ms = 0.0;
  double instr = 0.0;
  double allocs = 0.0;
};

struct SetupCost {
  double seconds = 0.0;   // median of load + open
  OnceCost load_world;    // io::Load*
  OnceCost open;          // pipeline constructor / ShardCluster::Open
};

// Loads the world `repetitions` times, each followed by `open` (which
// builds and drops what the workload serves from), and returns the
// medians. *world holds the last load. False (with *error) when a load
// or an open fails.
bool MeasureSetup(const Context& ctx, const std::string& world_dir,
                  int repetitions,
                  const std::function<bool(const LoadedWorld&, std::string*)>&
                      open,
                  LoadedWorld* world, SetupCost* cost, std::string* error);

// --- passes ------------------------------------------------------------

enum class PassKind {
  kUntraced,
  kTimed,    // spans record time and allocations
  kCounted,  // spans also record instructions (slower: counter reads)
};

// Timed passes, after the workload's untimed warm-up pass, until
// `seconds` have gone by (at least kMinPasses). A traced run cycles
// untraced, timed and counted passes; the untraced ones give the
// tracing overhead.
class PassSchedule {
 public:
  static constexpr int kMinPasses = 3;

  explicit PassSchedule(const Options& options) : options_(options) {}

  // Whether another timed pass should run; starts the clock on first
  // call.
  bool Next();
  PassKind kind() const;

 private:
  const Options& options_;
  Clock::time_point start_;
  int index_ = -1;
};

// What the passes of a traced run add up to.
class LayerCosts {
 public:
  // Ends the tracer's pass (unless `kind` is kUntraced) and records the
  // pass's fixes and wall time.
  void EndPass(PassKind kind, Tracer* tracer, double fixes, double seconds);

  // Per-layer metrics: self time and allocations per fix from the timed
  // passes, instructions per fix from the counted ones; the set-up
  // calls; and the tracing overhead (untraced vs timed fixes/s).
  void AddMetrics(const SetupCost& setup, Result* result) const;

 private:
  std::map<std::string, CallCost> timed_, counted_;
  double timed_fixes_ = 0.0, counted_fixes_ = 0.0;
  std::vector<double> untraced_fps_, timed_fps_;
};

// Adds the end-to-end metrics every workload reports. peak_rss_mb is
// ru_maxrss less `disk_stand_in_mb`, the most the workload's in-memory
// Env held at once (bytes a real filesystem keeps in the page cache).
void AddEndToEnd(const SetupCost& setup, const std::vector<double>& pass_fps,
                 double instructions, double fixes,
                 std::vector<double> result_latency_ms, Result* result,
                 double disk_stand_in_mb = 0.0);

// Sets a once-per-run call's metrics (ms, instr, allocs).
void AddOnceCost(const std::string& call, const OnceCost& cost,
                 Result* result);

// --- workloads ---------------------------------------------------------

// Each returns false (with *error) when the run cannot go on: inputs
// cannot be written, the world cannot be loaded. Failed operations and
// failed output checks land in *result instead.
bool RunBatchCars(const Context& ctx, Result* result, std::string* error);
bool RunLiveTaxi(const Context& ctx, Result* result, std::string* error);
bool RunClusterCarsDurable(const Context& ctx, Result* result,
                           std::string* error);

}  // namespace e2ebench

#endif  // SEMITRI_E2EBENCH_BENCH_H_
