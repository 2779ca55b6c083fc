#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "common/rng.h"
#include "io/world_io.h"

namespace e2ebench {

namespace datagen = semitri::datagen;
namespace io = semitri::io;

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  size_t index = rank == 0 ? 0 : rank - 1;
  if (index >= samples.size()) index = samples.size() - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

datagen::World MakeWorld() {
  datagen::WorldConfig config;
  // One fixed city; the seed draws the fleet's movements in it. A city
  // per seed would make the figures measure the street layout drawn
  // rather than the code.
  config.seed = 2011;
  config.extent_meters = 8000.0;
  config.num_pois = 8000;
  return datagen::WorldGenerator(config).Generate();
}

datagen::Dataset MakeCars(const datagen::World& world, const Options& options,
                          int cars, int days) {
  datagen::DatasetFactory factory(&world, options.seed * 1000003ULL + 17);
  return factory.MilanPrivateCars(cars, days);
}

datagen::Dataset MakeTaxis(const datagen::World& world,
                           const Options& options, int taxis, int days,
                           double shift_hours) {
  // A few long shifts: the re-annotation cost grows with the square of
  // a shift's episode count, so a fleet schedule drawn per seed swings
  // the per-fix cost by a fifth from seed to seed. The schedule is drawn
  // once; the seed draws sub-metre receiver noise added to every fix,
  // which moves a few episode boundaries.
  datagen::DatasetFactory factory(&world, /*seed=*/29);
  datagen::Dataset dataset = factory.LausanneTaxis(taxis, days, shift_hours);
  semitri::common::Rng noise(options.seed * 1000003ULL + 29);
  for (datagen::SimulatedTrack& track : dataset.tracks) {
    for (semitri::core::GpsPoint& fix : track.points) {
      fix.position.x += noise.Gaussian(0.0, 0.5);
      fix.position.y += noise.Gaussian(0.0, 0.5);
    }
  }
  return dataset;
}

size_t LongestTrack(const datagen::Dataset& dataset) {
  size_t longest = 0;
  for (const datagen::SimulatedTrack& track : dataset.tracks) {
    longest = std::max(longest, track.points.size());
  }
  return longest;
}

namespace {

std::string RegionsPath(const std::string& dir) { return dir + "/regions.csv"; }
std::string RoadsPath(const std::string& dir) { return dir + "/roads.csv"; }
std::string PoisPath(const std::string& dir) { return dir + "/pois.csv"; }
std::string CategoriesPath(const std::string& dir) {
  return dir + "/poi_categories.csv";
}

}  // namespace

bool SaveWorld(const datagen::World& world, const std::string& dir,
               std::string* error) {
  semitri::common::Status status =
      io::SaveRegions(world.regions, RegionsPath(dir));
  if (status.ok()) status = io::SaveRoadNetwork(world.roads, RoadsPath(dir));
  if (status.ok()) {
    status = io::SavePois(world.pois, PoisPath(dir), CategoriesPath(dir));
  }
  if (!status.ok()) {
    *error = "cannot write the world files: " + status.ToString();
    return false;
  }
  return true;
}

bool MeasureSetup(const Context& ctx, const std::string& world_dir,
                  int repetitions,
                  const std::function<bool(const LoadedWorld&, std::string*)>&
                      open,
                  LoadedWorld* world, SetupCost* cost, std::string* error) {
  std::vector<double> total_s, load_ms, load_instr, load_allocs, open_ms,
      open_instr, open_allocs;
  for (int r = 0; r < repetitions; ++r) {
    uint64_t a0 = ReadAllocs().allocs;
    uint64_t i0 = ctx.instructions->Read();
    Clock::time_point t0 = Clock::now();
    auto regions = io::LoadRegions(RegionsPath(world_dir));
    auto roads = io::LoadRoadNetwork(RoadsPath(world_dir));
    auto pois = io::LoadPois(PoisPath(world_dir), CategoriesPath(world_dir));
    double load_s = SecondsSince(t0);
    uint64_t i1 = ctx.instructions->Read();
    uint64_t a1 = ReadAllocs().allocs;
    if (!regions.ok() || !roads.ok() || !pois.ok()) {
      *error = "world load failed: " +
               (!regions.ok() ? regions.status()
                              : !roads.ok() ? roads.status() : pois.status())
                   .ToString();
      return false;
    }
    LoadedWorld loaded{std::move(regions.value()), std::move(roads.value()),
                       std::move(pois.value())};
    Clock::time_point t1 = Clock::now();
    if (!open(loaded, error)) return false;
    double open_s = SecondsSince(t1);
    uint64_t i2 = ctx.instructions->Read();
    uint64_t a2 = ReadAllocs().allocs;
    total_s.push_back(load_s + open_s);
    load_ms.push_back(load_s * 1e3);
    load_instr.push_back(static_cast<double>(i1 - i0));
    load_allocs.push_back(static_cast<double>(a1 - a0));
    open_ms.push_back(open_s * 1e3);
    open_instr.push_back(static_cast<double>(i2 - i1));
    open_allocs.push_back(static_cast<double>(a2 - a1));
    if (r + 1 == repetitions) *world = std::move(loaded);
  }
  cost->seconds = Median(total_s);
  cost->load_world = {Median(load_ms), Median(load_instr),
                      Median(load_allocs)};
  cost->open = {Median(open_ms), Median(open_instr), Median(open_allocs)};
  return true;
}

bool PassSchedule::Next() {
  if (index_ < 0) start_ = Clock::now();
  ++index_;
  return index_ < kMinPasses || SecondsSince(start_) < options_.seconds;
}

PassKind PassSchedule::kind() const {
  if (!options_.trace) return PassKind::kUntraced;
  switch (index_ % 3) {
    case 0:
      return PassKind::kUntraced;
    case 1:
      return PassKind::kTimed;
    default:
      return PassKind::kCounted;
  }
}

void LayerCosts::EndPass(PassKind kind, Tracer* tracer, double fixes,
                         double seconds) {
  switch (kind) {
    case PassKind::kUntraced:
      untraced_fps_.push_back(fixes / seconds);
      break;
    case PassKind::kTimed:
      tracer->EndPass(&timed_);
      timed_fixes_ += fixes;
      timed_fps_.push_back(fixes / seconds);
      break;
    case PassKind::kCounted:
      tracer->EndPass(&counted_);
      counted_fixes_ += fixes;
      break;
  }
}

void LayerCosts::AddMetrics(const SetupCost& setup, Result* result) const {
  for (const auto& [call, cost] : timed_) {
    result->metrics[call + ".ns_per_fix"] = cost.ns / timed_fixes_;
    result->metrics[call + ".allocs_per_fix"] = cost.allocs / timed_fixes_;
  }
  for (const auto& [call, cost] : counted_) {
    result->metrics[call + ".instr_per_fix"] = cost.instr / counted_fixes_;
  }
  AddOnceCost("io.load_world", setup.load_world, result);
  AddOnceCost("core.open", setup.open, result);
  result->metrics["trace.overhead_pct"] =
      (Median(untraced_fps_) / Median(timed_fps_) - 1.0) * 100.0;
}

void AddEndToEnd(const SetupCost& setup, const std::vector<double>& pass_fps,
                 double instructions, double fixes,
                 std::vector<double> result_latency_ms, Result* result,
                 double disk_stand_in_mb) {
  result->metrics["setup_s"] = setup.seconds;
  result->metrics["fixes_per_s"] = Median(pass_fps);
  result->metrics["instructions_per_fix"] = instructions / fixes;
  result->metrics["peak_rss_mb"] = PeakRssMb() - disk_stand_in_mb;
  result->metrics["result_latency_p50_ms"] =
      Percentile(result_latency_ms, 0.50);
  result->metrics["result_latency_p90_ms"] =
      Percentile(std::move(result_latency_ms), 0.90);
}

void AddOnceCost(const std::string& call, const OnceCost& cost,
                 Result* result) {
  result->metrics[call + ".ms"] = cost.ms;
  result->metrics[call + ".instr"] = cost.instr;
  result->metrics[call + ".allocs"] = cost.allocs;
}

}  // namespace e2ebench
