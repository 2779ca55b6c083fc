// batch_cars: Milan private cars annotated offline, one trajectory at a
// time on one thread (TrajectoryIdentifier::Identify, then
// SemiTriPipeline::ProcessTrajectory) into an in-memory store. Nearly
// all the work is in traj/region/road/poi/hmm/store; none is in stream
// or shard, so a session or WAL change should leave this workload
// unchanged.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "core/pipeline.h"
#include "core/stages.h"
#include "road/transport_mode.h"
#include "store/semantic_trajectory_store.h"
#include "traj/identification.h"

namespace e2ebench {

namespace core = semitri::core;
namespace datagen = semitri::datagen;
namespace store = semitri::store;
namespace road = semitri::road;
namespace traj = semitri::traj;

namespace {

// Ground-truth floors the annotation must reach on every seed: the
// lowest value seen over seeds 1-10 of the full corpus (0.564 and
// 0.651), rounded down by five to six points.
constexpr double kStopCategoryAccuracyFloor = 0.50;
// The mode classifier has no car class (it labels fast road movement
// "bus"), so exact mode accuracy on cars reads 0. The floor applies to
// the share of car moves given a motor-road mode (bus or car).
constexpr double kMotorModeShareFloor = 0.60;

// The span each default stage is recorded under.
const char* StageSpan(const std::string& stage) {
  if (stage == core::kStageComputeEpisode) return "traj.compute_episode";
  if (stage == core::kStageLanduseJoin) return "region.landuse_join";
  if (stage == core::kStageMapMatch) return "road.map_match";
  if (stage == core::kStagePointAnnotation) return "poi.point_annotation";
  if (stage == core::kStageStoreEpisode || stage == core::kStageStoreMatch ||
      stage == core::kStageStoreInterpretation) {
    return "store.put";
  }
  return nullptr;
}

struct Stage {
  std::string name;
  const char* span;
};

// ProcessTrajectory, stage by stage: the same context and the same
// stage order, with a span around each stage.
semitri::common::Status ProcessTraced(const core::SemiTriPipeline& pipeline,
                                      const std::vector<Stage>& stages,
                                      const core::RawTrajectory& raw,
                                      Tracer* tracer) {
  core::AnnotationContext context;
  context.raw = &raw;
  context.store = pipeline.store();
  context.profiler = pipeline.profiler();
  for (const Stage& stage : stages) {
    SpanScope span(tracer, stage.span, raw.id);
    SEMITRI_RETURN_IF_ERROR(pipeline.graph().RunStage(stage.name, context));
  }
  return semitri::common::Status::OK();
}

struct Pass {
  double seconds = 0.0;
  double instructions = 0.0;
  double fixes = 0.0;
  std::vector<double> latency_ms;
  // Identified trajectories per object, kept for the output checks.
  std::vector<std::vector<core::RawTrajectory>> identified;
  // With keep_cleaned (untraced passes only): the cleaned trace each
  // ProcessTrajectory call returned, by trajectory id.
  bool keep_cleaned = false;
  std::map<core::TrajectoryId, core::RawTrajectory> cleaned;
};

// Index of the first fix of `track` at or after `time`.
size_t LowerBound(const datagen::SimulatedTrack& track, double time) {
  auto it = std::lower_bound(
      track.points.begin(), track.points.end(), time,
      [](const core::GpsPoint& p, double t) { return p.time < t; });
  return static_cast<size_t>(it - track.points.begin());
}

// The runs of `points` the identifier must keep, as [begin, end) index
// pairs, worked out from its documented rules: a new run starts after a
// gap longer than max_gap_seconds, a jump longer than
// max_spatial_gap_meters or a period boundary, and a run with fewer
// than min_points fixes or shorter than min_duration_seconds is
// rejected.
std::vector<std::pair<size_t, size_t>> ExpectedRuns(
    const traj::IdentificationConfig& config,
    const std::vector<core::GpsPoint>& points) {
  std::vector<std::pair<size_t, size_t>> kept;
  size_t begin = 0;
  for (size_t k = 0; k <= points.size(); ++k) {
    bool split = k == points.size();
    if (!split && k > begin) {
      const core::GpsPoint& prev = points[k - 1];
      const core::GpsPoint& p = points[k];
      split = (config.max_gap_seconds > 0.0 &&
               p.time - prev.time > config.max_gap_seconds) ||
              (config.max_spatial_gap_meters > 0.0 &&
               p.position.DistanceTo(prev.position) >
                   config.max_spatial_gap_meters) ||
              (config.period_seconds > 0.0 &&
               traj::PeriodIndex(p.time, config.period_seconds) !=
                   traj::PeriodIndex(prev.time, config.period_seconds));
    }
    if (!split) continue;
    if (k > begin && k - begin >= config.min_points &&
        points[k - 1].time - points[begin].time >=
            config.min_duration_seconds) {
      kept.emplace_back(begin, k);
    }
    begin = k;
  }
  return kept;
}

// Checks an untraced pass's store against the corpus, the cleaned
// traces ProcessTrajectory returned and the simulator's ground truth.
void CheckOutputs(const datagen::Dataset& cars,
                  const traj::IdentificationConfig& identification,
                  const Pass& pass, const store::SemanticTrajectoryStore& out,
                  Result* result, double* stop_accuracy,
                  double* mode_accuracy) {
  size_t fed = 0, identified = 0, rejected = 0, stored = 0, cleaned_away = 0;
  size_t trajectories = 0;
  size_t stops_evaluated = 0, stops_correct = 0;
  size_t moves_evaluated = 0, moves_correct = 0, moves_motor = 0;
  bool identify_ok = true, cleaned_ok = true, tiled = true, present = true;
  for (size_t i = 0; i < cars.tracks.size(); ++i) {
    const datagen::SimulatedTrack& track = cars.tracks[i];
    fed += track.points.size();
    // Identification keeps exactly the expected runs, in order.
    const auto runs = ExpectedRuns(identification, track.points);
    identify_ok = identify_ok && runs.size() == pass.identified[i].size();
    size_t kept = 0;
    for (size_t r = 0; r < runs.size(); ++r) {
      kept += runs[r].second - runs[r].first;
      identify_ok =
          identify_ok && r < pass.identified[i].size() &&
          std::equal(track.points.begin() +
                         static_cast<std::ptrdiff_t>(runs[r].first),
                     track.points.begin() +
                         static_cast<std::ptrdiff_t>(runs[r].second),
                     pass.identified[i][r].points.begin(),
                     pass.identified[i][r].points.end());
    }
    rejected += track.points.size() - kept;
    for (const core::RawTrajectory& raw : pass.identified[i]) {
      ++trajectories;
      identified += raw.size();
      auto cleaned = out.GetRawTrajectory(raw.id);
      auto episodes = out.GetEpisodes(raw.id);
      auto returned = pass.cleaned.find(raw.id);
      if (!cleaned.ok() || !episodes.ok() || returned == pass.cleaned.end()) {
        present = false;
        continue;
      }
      // The store holds the cleaned trace the call returned. Cleaning
      // drops fixes and smooths positions but keeps timestamps: that
      // trace is a subsequence of the fed one.
      cleaned_ok = cleaned_ok && cleaned->points == returned->second.points;
      size_t j = 0;
      for (const core::GpsPoint& p : returned->second.points) {
        while (j < raw.size() && raw.points[j].time != p.time) ++j;
        cleaned_ok = cleaned_ok && j < raw.size();
        ++j;
      }
      stored += cleaned->size();
      cleaned_away += raw.size() - std::min(raw.size(),
                                            returned->second.size());
      // Episodes tile the stored trace in time order.
      size_t next = 0;
      double time = -1e300;
      for (const core::Episode& e : *episodes) {
        tiled = tiled && e.begin == next && e.end > e.begin &&
                e.time_in >= time && e.time_out >= e.time_in;
        next = e.end;
        time = e.time_out;
      }
      tiled = tiled && next == cleaned->size();

      auto point = out.GetInterpretation(raw.id, "point");
      if (point.ok()) {
        for (const core::SemanticEpisode& ep : point->episodes) {
          for (const datagen::TruthStop& truth : track.stops) {
            if (truth.poi_category < 0) continue;
            double overlap = std::min(ep.time_out, truth.time_out) -
                             std::max(ep.time_in, truth.time_in);
            if (overlap < 0.5 * (truth.time_out - truth.time_in)) continue;
            ++stops_evaluated;
            if (ep.FindAnnotation("poi_category_id") ==
                std::to_string(truth.poi_category)) {
              ++stops_correct;
            }
            break;
          }
        }
      }
      auto line = out.GetInterpretation(raw.id, "line");
      if (line.ok()) {
        for (const core::SemanticEpisode& ep : line->episodes) {
          const std::string& mode = ep.FindAnnotation("transport_mode");
          if (mode.empty()) continue;
          // Majority true mode of the fixes the episode spans.
          std::vector<size_t> votes(6, 0);
          for (size_t k = LowerBound(track, ep.time_in);
               k < track.points.size() && track.points[k].time <= ep.time_out;
               ++k) {
            if (track.truth[k].mode.has_value()) {
              ++votes[static_cast<size_t>(*track.truth[k].mode)];
            }
          }
          size_t best = static_cast<size_t>(
              std::max_element(votes.begin(), votes.end()) - votes.begin());
          if (votes[best] == 0) continue;
          ++moves_evaluated;
          const auto truth = static_cast<road::TransportMode>(best);
          if (mode == road::TransportModeName(truth)) ++moves_correct;
          if ((truth == road::TransportMode::kCar ||
               truth == road::TransportMode::kBus) &&
              (mode == "car" || mode == "bus")) {
            ++moves_motor;
          }
        }
      }
    }
  }
  *stop_accuracy = stops_evaluated == 0
                       ? 0.0
                       : static_cast<double>(stops_correct) /
                             static_cast<double>(stops_evaluated);
  *mode_accuracy = moves_evaluated == 0
                       ? 0.0
                       : static_cast<double>(moves_correct) /
                             static_cast<double>(moves_evaluated);
  const double motor_share = moves_evaluated == 0
                                ? 0.0
                                : static_cast<double>(moves_motor) /
                                      static_cast<double>(moves_evaluated);
  std::fprintf(stderr,
               "batch_cars check: %zu fixes fed, %zu in %zu trajectories "
               "(%zu rejected by identification), %zu stored, %zu removed "
               "by cleaning; stop-category accuracy %.4f (%zu stops), mode "
               "accuracy %.4f, motor-road mode share %.4f (%zu moves)\n",
               fed, identified, trajectories, fed - identified, stored,
               cleaned_away, *stop_accuracy, stops_evaluated, *mode_accuracy,
               motor_share, moves_evaluated);
  result->Check(identify_ok && identified + rejected == fed,
                "identification did not keep exactly the runs its rules "
                "allow (" + std::to_string(fed - identified) +
                    " fixes dropped, " + std::to_string(rejected) +
                    " expected)");
  result->Check(present, "a processed trajectory is missing from the store");
  result->Check(out.num_trajectories() == trajectories,
                "store holds " + std::to_string(out.num_trajectories()) +
                    " trajectories, " + std::to_string(trajectories) +
                    " were processed");
  result->Check(cleaned_ok, "a stored trace differs from the cleaned trace "
                            "ProcessTrajectory returned, or is not a "
                            "subsequence of the fed fixes");
  result->Check(out.num_gps_records() == stored &&
                    stored + cleaned_away + rejected == fed,
                "fed fixes are not all stored, cleaned or rejected");
  result->Check(tiled, "episodes do not tile their trajectory in time order");
  result->Check(*stop_accuracy >= kStopCategoryAccuracyFloor,
                "stop-category accuracy " + std::to_string(*stop_accuracy) +
                    " is below the floor");
  result->Check(motor_share >= kMotorModeShareFloor,
                "motor-road mode share " + std::to_string(motor_share) +
                    " is below the floor");
}

}  // namespace

bool RunBatchCars(const Context& ctx, Result* result, std::string* error) {
  const Options& options = ctx.options;
  datagen::World world = MakeWorld();
  datagen::Dataset cars = MakeCars(world, options, options.small ? 100 : 200,
                                   options.small ? 2 : 7);
  if (!SaveWorld(world, options.workdir, error)) return false;

  LoadedWorld w;
  SetupCost setup;
  auto open = [](const LoadedWorld& lw, std::string*) {
    store::SemanticTrajectoryStore sink;
    core::SemiTriPipeline pipeline(&lw.regions, &lw.roads, &lw.pois,
                                   core::PipelineConfig{}, &sink);
    return pipeline.graph().finalized();
  };
  if (!MeasureSetup(ctx, options.workdir, 7, open, &w, &setup, error)) {
    return false;
  }

  std::vector<Stage> stages;
  traj::IdentificationConfig identification;
  {
    store::SemanticTrajectoryStore sink;
    core::SemiTriPipeline pipeline(&w.regions, &w.roads, &w.pois,
                                   core::PipelineConfig{}, &sink);
    identification = pipeline.identifier().config();
    for (const std::string& name : pipeline.graph().ExecutionOrder()) {
      const char* span = StageSpan(name);
      if (span == nullptr) {
        *error = "no span for pipeline stage " + name;
        return false;
      }
      stages.push_back({name, span});
    }
  }
  const size_t total_fixes = cars.TotalRecords();

  auto run_pass = [&](store::SemanticTrajectoryStore* sink, PassKind kind,
                      Pass* pass) {
    core::SemiTriPipeline pipeline(&w.regions, &w.roads, &w.pois,
                                   core::PipelineConfig{}, sink);
    const bool traced = kind != PassKind::kUntraced;
    Tracer* tracer = traced ? ctx.tracer : nullptr;
    if (traced) {
      ctx.tracer->BeginPass(total_fixes / 4 + 1000,
                            kind == PassKind::kCounted);
    }
    pass->identified.assign(cars.tracks.size(), {});
    pass->latency_ms.clear();
    const uint64_t i0 = ctx.instructions->Read();
    const Clock::time_point t0 = Clock::now();
    size_t most = 0;
    for (size_t i = 0; i < cars.tracks.size(); ++i) {
      const datagen::SimulatedTrack& track = cars.tracks[i];
      SpanScope span(tracer, "traj.identify", track.object_id);
      pass->identified[i] = pipeline.identifier().Identify(
          track.object_id, track.points,
          static_cast<core::TrajectoryId>(track.object_id) * 1000);
      most = std::max(most, pass->identified[i].size());
    }
    // Round-robin across objects, one trajectory per call.
    for (size_t k = 0; k < most; ++k) {
      for (const std::vector<core::RawTrajectory>& trajectories :
           pass->identified) {
        if (k >= trajectories.size()) continue;
        const core::RawTrajectory& raw = trajectories[k];
        const Clock::time_point c0 = Clock::now();
        bool ok;
        if (traced) {
          ok = ProcessTraced(pipeline, stages, raw, tracer).ok();
        } else {
          auto processed = pipeline.ProcessTrajectory(raw);
          ok = processed.ok();
          if (ok && pass->keep_cleaned) {
            pass->cleaned.emplace(raw.id,
                                  std::move(processed.value().cleaned));
          }
        }
        pass->latency_ms.push_back(SecondsSince(c0) * 1e3);
        ++result->attempted;
        if (!ok) ++result->failed;
      }
    }
    pass->seconds = SecondsSince(t0);
    pass->instructions =
        static_cast<double>(ctx.instructions->Read() - i0);
    pass->fixes = static_cast<double>(total_fixes);
  };

  // The untimed warm-up pass is the one checked; every timed pass, on
  // a fresh store, must store exactly what it did.
  store::SemanticTrajectoryStore checked;
  double stop_accuracy = 0.0, mode_accuracy = 0.0;
  {
    Pass warm;
    warm.keep_cleaned = true;
    run_pass(&checked, PassKind::kUntraced, &warm);
    result->attempted = 0;
    result->failed = 0;
    CheckOutputs(cars, identification, warm, checked, result, &stop_accuracy,
                 &mode_accuracy);
  }
  std::vector<double> fps, latency_ms;
  LayerCosts layers;
  double instructions = 0.0, fixes = 0.0;
  bool identical = true;
  PassSchedule schedule(options);
  while (schedule.Next()) {
    store::SemanticTrajectoryStore sink;
    Pass pass;
    run_pass(&sink, schedule.kind(), &pass);
    layers.EndPass(schedule.kind(), ctx.tracer, pass.fixes, pass.seconds);
    fps.push_back(pass.fixes / pass.seconds);
    instructions += pass.instructions;
    fixes += pass.fixes;
    latency_ms.insert(latency_ms.end(), pass.latency_ms.begin(),
                      pass.latency_ms.end());
    // Traced passes run the stages one by one.
    identical = identical && sink.ContentEquals(checked);
  }
  result->Check(identical, "a timed pass stored different content than the "
                           "checked warm-up pass");
  std::fprintf(stderr,
               "batch_cars: %zu fixes, %zu trajectories per pass, %zu "
               "passes\n",
               total_fixes, latency_ms.size() / fps.size(), fps.size());

  if (!options.trace) {
    AddEndToEnd(setup, fps, instructions, fixes, std::move(latency_ms),
                result);
  } else {
    layers.AddMetrics(setup, result);
    result->metrics["poi.stop_category_accuracy"] = stop_accuracy;
    result->metrics["road.mode_accuracy"] = mode_accuracy;
  }
  return true;
}

}  // namespace e2ebench
