// live_taxi: Lausanne taxis (few objects, 1 s sampling, long shifts,
// many episodes per trajectory) fed fix by fix through
// stream::SessionManager::Feed into an in-memory store. The long open
// trajectories make the provisional re-annotation after every closed
// episode dominate, so a change to that path shows here and not on
// batch_cars.

#include <cstdio>
#include <string>
#include <vector>

#include "analytics/latency_profiler.h"
#include "bench.h"
#include "core/pipeline.h"
#include "core/stages.h"
#include "store/semantic_trajectory_store.h"
#include "stream/annotation_session.h"
#include "stream/session_manager.h"

namespace e2ebench {

namespace analytics = semitri::analytics;
namespace core = semitri::core;
namespace datagen = semitri::datagen;
namespace store = semitri::store;
namespace stream = semitri::stream;

namespace {

// Profiler stages a session records (finalization runs the pipeline's
// stages under their own names) and the metric each one feeds. The
// provisional-pass stage is left out: a session records one sample per
// episode the pass covered, so its total counts a pass several times.
const std::pair<const char*, const char*> kProfiledStages[] = {
    {core::kStageLanduseJoin, "stream.landuse_join.ns_per_fix"},
    {core::kStageMapMatch, "stream.map_match.ns_per_fix"},
    {core::kStagePointAnnotation, "stream.point_annotation.ns_per_fix"},
    {core::kStageStoreEpisode, "stream.store_episode.ns_per_fix"},
    {core::kStageStoreMatch, "stream.store_match_result.ns_per_fix"},
    {stream::kStreamStageFinalizeTrajectory,
     "stream.finalize_trajectory.ns_per_fix"},
};

int64_t FixId(core::ObjectId object, size_t k) {
  return (static_cast<int64_t>(object) << 32) | static_cast<int64_t>(k);
}

struct Pass {
  double seconds = 0.0;
  double instructions = 0.0;
  std::vector<double> episode_ms;
  std::vector<double> finalize_ms;
  stream::SessionManager::Stats stats;
};

}  // namespace

bool RunLiveTaxi(const Context& ctx, Result* result, std::string* error) {
  const Options& options = ctx.options;
  datagen::World world = MakeWorld();
  datagen::Dataset taxis =
      options.small ? MakeTaxis(world, options, 2, 1, 2.0)
                    : MakeTaxis(world, options, 4, 2, 6.0);
  if (!SaveWorld(world, options.workdir, error)) return false;

  LoadedWorld w;
  SetupCost setup;
  auto open = [](const LoadedWorld& lw, std::string*) {
    store::SemanticTrajectoryStore sink;
    core::SemiTriPipeline pipeline(&lw.regions, &lw.roads, &lw.pois,
                                   core::PipelineConfig{}, &sink);
    stream::SessionManager manager(&pipeline);
    return manager.ActiveSessions() == 0;
  };
  if (!MeasureSetup(ctx, options.workdir, 7, open, &w, &setup, error)) {
    return false;
  }
  const size_t total_fixes = taxis.TotalRecords();
  const size_t longest = LongestTrack(taxis);
  const stream::SessionManagerConfig manager_config;

  // The offline reference: ProcessStream per object, trajectory ids in
  // the same per-object blocks the session manager assigns.
  store::SemanticTrajectoryStore reference;
  {
    core::SemiTriPipeline pipeline(&w.regions, &w.roads, &w.pois,
                                   core::PipelineConfig{}, &reference);
    for (const datagen::SimulatedTrack& track : taxis.tracks) {
      auto done = pipeline.ProcessStream(
          track.object_id, track.points,
          track.object_id * manager_config.ids_per_object);
      if (!done.ok()) {
        *error = "offline reference failed: " + done.status().ToString();
        return false;
      }
    }
  }

  auto run_pass = [&](store::SemanticTrajectoryStore* sink,
                      analytics::LatencyProfiler* profiler, PassKind kind,
                      Pass* pass) {
    core::SemiTriPipeline pipeline(&w.regions, &w.roads, &w.pois,
                                   core::PipelineConfig{}, sink, profiler);
    stream::SessionManager manager(&pipeline, manager_config);
    const bool traced = kind != PassKind::kUntraced;
    Tracer* tracer = traced ? ctx.tracer : nullptr;
    if (traced) {
      ctx.tracer->BeginPass(total_fixes + 1000, kind == PassKind::kCounted);
    }
    const uint64_t i0 = ctx.instructions->Read();
    const Clock::time_point t0 = Clock::now();
    for (size_t k = 0; k < longest; ++k) {
      for (const datagen::SimulatedTrack& track : taxis.tracks) {
        if (k >= track.points.size()) continue;
        SpanScope span(tracer, "stream.feed_detector",
                       FixId(track.object_id, k));
        const Clock::time_point c0 = Clock::now();
        auto fed = manager.Feed(track.object_id, track.points[k]);
        const double ms = SecondsSince(c0) * 1e3;
        ++result->attempted;
        if (!fed.ok()) {
          ++result->failed;
        } else if (fed->trajectory_closed) {
          span.Rename("stream.feed_finalize");
          pass->finalize_ms.push_back(ms);
        } else if (fed->episodes_closed > 0) {
          span.Rename("stream.feed_episode");
          pass->episode_ms.push_back(ms);
        }
      }
    }
    for (const datagen::SimulatedTrack& track : taxis.tracks) {
      SpanScope span(tracer, "stream.feed_finalize",
                     FixId(track.object_id, track.points.size()));
      const Clock::time_point c0 = Clock::now();
      semitri::common::Status closed = manager.Close(track.object_id);
      pass->finalize_ms.push_back(SecondsSince(c0) * 1e3);
      ++result->attempted;
      if (!closed.ok()) ++result->failed;
    }
    pass->seconds = SecondsSince(t0);
    pass->instructions =
        static_cast<double>(ctx.instructions->Read() - i0);
    pass->stats = manager.stats();
  };

  {
    store::SemanticTrajectoryStore sink;
    Pass warm;
    run_pass(&sink, nullptr, PassKind::kUntraced, &warm);
    result->attempted = 0;
    result->failed = 0;
  }
  std::vector<double> fps, episode_ms, finalize_ms;
  LayerCosts layers;
  // Profiler stage totals over the timed passes.
  std::map<std::string, double> stage_seconds;
  double instructions = 0.0, fixes = 0.0, timed_fixes = 0.0;
  size_t episodes = 0, provisional_passes = 0;
  bool equal = true;
  PassSchedule schedule(options);
  while (schedule.Next()) {
    store::SemanticTrajectoryStore sink;
    analytics::LatencyProfiler profiler;
    Pass pass;
    const PassKind kind = schedule.kind();
    run_pass(&sink, kind == PassKind::kTimed ? &profiler : nullptr, kind,
             &pass);
    layers.EndPass(kind, ctx.tracer, static_cast<double>(total_fixes),
                   pass.seconds);
    if (kind == PassKind::kTimed) {
      timed_fixes += static_cast<double>(total_fixes);
      for (const auto& [stage, metric] : kProfiledStages) {
        stage_seconds[metric] += profiler.Total(stage);
      }
    }
    episodes += pass.stats.episodes_closed;
    provisional_passes += pass.stats.annotation_passes;
    fps.push_back(static_cast<double>(total_fixes) / pass.seconds);
    instructions += pass.instructions;
    fixes += static_cast<double>(total_fixes);
    episode_ms.insert(episode_ms.end(), pass.episode_ms.begin(),
                      pass.episode_ms.end());
    finalize_ms.insert(finalize_ms.end(), pass.finalize_ms.begin(),
                       pass.finalize_ms.end());
    equal = equal && sink.ContentEquals(reference);
  }
  result->Check(equal, "the streaming store differs from the offline "
                       "ProcessStream store");
  std::fprintf(stderr,
               "live_taxi: %zu fixes, %zu objects, %zu passes; %zu episode "
               "and %zu finalize samples\n",
               total_fixes, taxis.tracks.size(), fps.size(),
               episode_ms.size(), finalize_ms.size());

  if (!options.trace) {
    AddEndToEnd(setup, fps, instructions, fixes, std::move(episode_ms),
                result);
    return true;
  }
  layers.AddMetrics(setup, result);
  for (const auto& [metric, seconds] : stage_seconds) {
    result->metrics[metric] = seconds * 1e9 / timed_fixes;
  }
  result->metrics["stream.passes_per_episode"] =
      episodes == 0 ? 0.0
                    : static_cast<double>(provisional_passes) /
                          static_cast<double>(episodes);
  // A pass closes only 8 trajectories (4 taxis x 2 shifts), so only the
  // median over the passes' finalize calls is reported.
  result->metrics["stream.finalize_latency_p50_ms"] =
      Percentile(finalize_ms, 0.50);

  // Points each provisional pass re-annotates: the cleaned prefix of the
  // open trajectory, read from the session's live view. Sessions are
  // fed directly here (a SessionManager does not expose them); this
  // counting pass is not timed.
  core::SemiTriPipeline pipeline(&w.regions, &w.roads, &w.pois,
                                 core::PipelineConfig{});
  std::vector<std::unique_ptr<stream::AnnotationSession>> sessions;
  for (const datagen::SimulatedTrack& track : taxis.tracks) {
    sessions.push_back(std::make_unique<stream::AnnotationSession>(
        &pipeline, track.object_id, manager_config.session,
        track.object_id * manager_config.ids_per_object));
  }
  double reannotated = 0.0;
  for (size_t k = 0; k < longest; ++k) {
    for (size_t i = 0; i < taxis.tracks.size(); ++i) {
      if (k >= taxis.tracks[i].points.size()) continue;
      auto fed = sessions[i]->Feed(taxis.tracks[i].points[k]);
      if (!fed.ok()) {
        *error = "counting pass failed: " + fed.status().ToString();
        return false;
      }
      if (fed->episodes_closed > 0) {
        reannotated +=
            static_cast<double>(sessions[i]->partial().cleaned.size());
      }
    }
  }
  result->metrics["stream.reannotated_points_per_fix"] =
      reannotated / static_cast<double>(total_fixes);
  return true;
}

}  // namespace e2ebench
