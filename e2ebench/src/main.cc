// SeMiTri end-to-end benchmark.
//
//   e2ebench --workload <batch_cars|live_taxi|cluster_cars_durable>
//            --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//            [--spans <file>] [--small]
//
// A timed run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer ones. Progress and check details go
// to stderr; the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The run exits 1 without that line when it cannot measure (no
// instruction counter, inputs cannot be written, bad arguments).
// e2ebench/run.py builds this binary and is the command to use.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace e2ebench {
namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
};

// Every run prints every metric of its kind; a workload that does not
// reach a layer reports 0 for it.
std::vector<MetricSpec> EndToEnd() {
  return {{"setup_s", "s"},
          {"fixes_per_s", "1/s"},
          {"instructions_per_fix", "instr/fix"},
          {"peak_rss_mb", "MB"},
          {"result_latency_p50_ms", "ms"},
          {"result_latency_p90_ms", "ms"}};
}

std::vector<MetricSpec> PerLayer() {
  std::vector<MetricSpec> specs;
  for (const char* call :
       {"traj.identify", "traj.compute_episode", "region.landuse_join",
        "road.map_match", "poi.point_annotation", "store.put",
        "stream.feed_detector", "stream.feed_episode", "stream.feed_finalize",
        "shard.feed", "shard.checkpoint", "other"}) {
    specs.push_back({std::string(call) + ".ns_per_fix", "ns/fix"});
    specs.push_back({std::string(call) + ".instr_per_fix", "instr/fix"});
    specs.push_back({std::string(call) + ".allocs_per_fix", "allocs/fix"});
  }
  for (const char* call : {"io.load_world", "core.open", "shard.restart"}) {
    specs.push_back({std::string(call) + ".ms", "ms"});
    specs.push_back({std::string(call) + ".instr", "instr"});
    specs.push_back({std::string(call) + ".allocs", "count"});
  }
  specs.insert(specs.end(),
               {{"stream.landuse_join.ns_per_fix", "ns/fix"},
                {"stream.map_match.ns_per_fix", "ns/fix"},
                {"stream.point_annotation.ns_per_fix", "ns/fix"},
                {"stream.store_episode.ns_per_fix", "ns/fix"},
                {"stream.store_match_result.ns_per_fix", "ns/fix"},
                {"stream.finalize_trajectory.ns_per_fix", "ns/fix"},
                {"stream.reannotated_points_per_fix", "points/fix"},
                {"stream.passes_per_episode", "passes/episode"},
                {"stream.finalize_latency_p50_ms", "ms"},
                {"store.wal_bytes_per_fix", "B/fix"},
                {"shard.shipped_bytes_per_fix", "B/fix"},
                {"store.syncs_per_fix", "syncs/fix"},
                {"poi.stop_category_accuracy", "fraction"},
                {"road.mode_accuracy", "fraction"},
                {"trace.overhead_pct", "%"}});
  return specs;
}

void Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <batch_cars|live_taxi|"
               "cluster_cars_durable> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir> [--spans <file>] [--small]\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--small") {
      options->small = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' ||
          !(options->seconds > 0.0 && options->seconds <= 3600.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--workdir") {
      options->workdir = value;
      have_workdir = !value.empty();
    } else if (flag == "--spans") {
      options->spans_path = value;
    } else {
      return false;
    }
  }
  return have_workload && have_workdir;
}

// Removes the scratch directory however main returns.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

 private:
  std::string path_;
};

int Run(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  bool (*workload)(const Context&, Result*, std::string*) = nullptr;
  if (options.workload == "batch_cars") {
    workload = RunBatchCars;
  } else if (options.workload == "live_taxi") {
    workload = RunLiveTaxi;
  } else if (options.workload == "cluster_cars_durable") {
    workload = RunClusterCarsDurable;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  std::string error;
  std::unique_ptr<InstructionCounter> counter =
      InstructionCounter::Open(&error);
  if (counter == nullptr || !SelfCheck(*counter, &error)) {
    std::fprintf(stderr, "e2ebench: %s; no metric reported\n",
                 error.c_str());
    return 1;
  }

  ScratchDir scratch(options.workdir);
  Tracer tracer(counter.get());
  Context ctx{options, counter.get(), &tracer};
  Result result;
  if (!workload(ctx, &result, &error)) {
    std::fprintf(stderr, "e2ebench %s: %s\n", options.workload.c_str(),
                 error.c_str());
    return 1;
  }
  for (const std::string& failure : result.check_failures) {
    std::fprintf(stderr, "CHECK FAILED (%s): %s\n", options.workload.c_str(),
                 failure.c_str());
  }
  if (options.trace && !options.spans_path.empty() &&
      !tracer.Write(options.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n",
                 options.spans_path.c_str());
    return 1;
  }

  const std::vector<MetricSpec> specs = options.trace ? PerLayer() : EndToEnd();
  std::map<std::string, double> values = result.metrics;
  for (const MetricSpec& spec : specs) {
    auto it = values.find(spec.name);
    if (it == values.end()) {
      if (!options.trace) {
        std::fprintf(stderr, "workload did not measure %s\n",
                     spec.name.c_str());
        return 1;
      }
      continue;
    }
    if (!std::isfinite(it->second)) {
      std::fprintf(stderr, "%s is not finite\n", spec.name.c_str());
      return 1;
    }
    values.erase(it);
  }
  if (!values.empty()) {
    std::fprintf(stderr, "unlisted metric %s\n", values.begin()->first.c_str());
    return 1;
  }

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = result.metrics.find(specs[i].name);
    double value = it == result.metrics.end() ? 0.0 : it->second;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + specs[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  try {
    return e2ebench::Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
