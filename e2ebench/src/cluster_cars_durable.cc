// cluster_cars_durable: Milan cars through shard::ShardCluster::Feed
// with a WAL per shard and standby shipping, written through an
// in-memory Env (mem_env.h says why not the real filesystem).
// CheckpointAll() -- the ack point ShardRuntime::Checkpoint documents --
// runs after every fixed block of fixes, and the run ends by killing and
// restarting every shard. Writing costs WAL framing, CRC, checkpoint
// serialization, seal and ship; recovery reads the same on-disk codec
// back, so a codec or group-commit change that speeds writes but slows
// recovery shows here.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/pipeline.h"
#include "counting_env.h"
#include "mem_env.h"
#include "shard/cluster.h"
#include "store/semantic_trajectory_store.h"
#include "stream/session_manager.h"

namespace e2ebench {

namespace core = semitri::core;
namespace datagen = semitri::datagen;
namespace shard = semitri::shard;
namespace store = semitri::store;
namespace stream = semitri::stream;

namespace {

constexpr size_t kShards = 2;

int64_t FixId(core::ObjectId object, size_t k) {
  return (static_cast<int64_t>(object) << 32) | static_cast<int64_t>(k);
}

struct Pass {
  double seconds = 0.0;
  double instructions = 0.0;
  std::vector<double> ack_ms;
  uint64_t wal_bytes = 0;
  uint64_t syncs = 0;
  uint64_t shipped_bytes = 0;
};

}  // namespace

bool RunClusterCarsDurable(const Context& ctx, Result* result,
                           std::string* error) {
  const Options& options = ctx.options;
  datagen::World world = MakeWorld();
  datagen::Dataset cars = MakeCars(world, options, options.small ? 16 : 300,
                                   options.small ? 2 : 5);
  // Fixes fed between two CheckpointAll() acks: a tenth of the corpus,
  // so every pass acks ten equal blocks whatever the seed (the tenth
  // after every object is closed).
  const size_t block = (cars.TotalRecords() + 9) / 10;
  if (!SaveWorld(world, options.workdir, error)) return false;

  MemEnv disk;
  CountingEnv env(&disk, ctx.tracer);
  auto cluster_config = [&](const std::string& dir) {
    shard::ShardClusterConfig config;
    config.num_shards = kShards;
    config.base_dir = dir;
    config.ship_wal = true;
    config.env = &env;
    return config;
  };

  LoadedWorld w;
  SetupCost setup;
  int setups = 0;
  auto open = [&](const LoadedWorld& lw, std::string* why) {
    std::string dir = options.workdir + "/setup-" + std::to_string(setups++);
    bool ok = false;
    {
      auto cluster = shard::ShardCluster::Open(&lw.regions, &lw.roads,
                                               &lw.pois, cluster_config(dir));
      ok = cluster.ok();
      if (!ok) *why = "cluster open failed: " + cluster.status().ToString();
    }
    return env.RemoveDirRecursive(dir).ok() && ok;
  };
  if (!MeasureSetup(ctx, options.workdir, 7, open, &w, &setup, error)) {
    return false;
  }
  const size_t total_fixes = cars.TotalRecords();
  const size_t longest = LongestTrack(cars);

  // The uninterrupted reference: one SessionManager, the same feed
  // order, in memory.
  store::SemanticTrajectoryStore reference;
  {
    core::SemiTriPipeline pipeline(&w.regions, &w.roads, &w.pois,
                                   core::PipelineConfig{}, &reference);
    stream::SessionManager manager(&pipeline);
    for (size_t k = 0; k < longest; ++k) {
      for (const datagen::SimulatedTrack& track : cars.tracks) {
        if (k >= track.points.size()) continue;
        if (!manager.Feed(track.object_id, track.points[k]).ok()) {
          *error = "reference feed failed";
          return false;
        }
      }
    }
    for (const datagen::SimulatedTrack& track : cars.tracks) {
      if (!manager.Close(track.object_id).ok()) {
        *error = "reference close failed";
        return false;
      }
    }
  }

  int pass_number = 0;
  LayerCosts layers;
  // One pass on a fresh cluster directory; the previous pass's is
  // removed first.
  auto run_pass = [&](PassKind kind, Pass* pass,
                      std::unique_ptr<shard::ShardCluster>* out) -> bool {
    if (pass_number > 0 &&
        !env.RemoveDirRecursive(options.workdir + "/pass-" +
                                std::to_string(pass_number - 1))
             .ok()) {
      *error = "cannot remove the previous pass's directory";
      return false;
    }
    const std::string dir =
        options.workdir + "/pass-" + std::to_string(pass_number++);
    auto opened = shard::ShardCluster::Open(&w.regions, &w.roads, &w.pois,
                                            cluster_config(dir));
    if (!opened.ok()) {
      *error = "cluster open failed: " + opened.status().ToString();
      return false;
    }
    std::unique_ptr<shard::ShardCluster> cluster = std::move(opened.value());
    const bool traced = kind != PassKind::kUntraced;
    Tracer* tracer = traced ? ctx.tracer : nullptr;
    const CountingEnv::Counts before = env.counts();
    if (traced) {
      ctx.tracer->BeginPass(total_fixes * 2 + 10000,
                            kind == PassKind::kCounted);
    }

    std::vector<Clock::time_point> unacked;
    unacked.reserve(block + cars.tracks.size());
    auto checkpoint = [&]() {
      SpanScope span(tracer, "shard.checkpoint", -1);
      semitri::common::Status status = cluster->CheckpointAll();
      const Clock::time_point acked = Clock::now();
      ++result->attempted;
      if (!status.ok()) ++result->failed;
      for (const Clock::time_point& start : unacked) {
        pass->ack_ms.push_back(
            std::chrono::duration<double, std::milli>(acked - start).count());
      }
      unacked.clear();
    };

    const uint64_t i0 = ctx.instructions->Read();
    const Clock::time_point t0 = Clock::now();
    for (size_t k = 0; k < longest; ++k) {
      for (const datagen::SimulatedTrack& track : cars.tracks) {
        if (k >= track.points.size()) continue;
        {
          SpanScope span(tracer, "shard.feed", FixId(track.object_id, k));
          unacked.push_back(Clock::now());
          auto fed = cluster->Feed(track.object_id, track.points[k]);
          ++result->attempted;
          if (!fed.ok()) ++result->failed;
        }
        if (unacked.size() == block) checkpoint();
      }
    }
    for (const datagen::SimulatedTrack& track : cars.tracks) {
      ++result->attempted;
      if (!cluster->CloseObject(track.object_id).ok()) ++result->failed;
    }
    checkpoint();
    pass->seconds = SecondsSince(t0);
    pass->instructions = static_cast<double>(ctx.instructions->Read() - i0);
    layers.EndPass(kind, ctx.tracer, static_cast<double>(total_fixes),
                   pass->seconds);

    pass->wal_bytes = env.counts().wal_bytes - before.wal_bytes;
    pass->syncs = env.counts().syncs - before.syncs;
    for (size_t s = 0; s < kShards; ++s) {
      if (const shard::WalShipper* shipper = cluster->runtime(s)->shipper()) {
        pass->shipped_bytes += shipper->total_bytes_shipped();
      }
    }

    store::SemanticTrajectoryStore merged;
    semitri::common::Status status = cluster->MergeStores(&merged);
    result->Check(status.ok() && merged.ContentEquals(reference),
                  "merged shard stores differ from the uninterrupted "
                  "reference (lost acknowledged fixes)");
    if (merged.num_gps_records() != reference.num_gps_records()) {
      std::fprintf(stderr, "cluster: %zu of %zu reference fixes missing\n",
                   reference.num_gps_records() - merged.num_gps_records(),
                   reference.num_gps_records());
    }
    *out = std::move(cluster);
    return true;
  };

  std::unique_ptr<shard::ShardCluster> cluster;
  {
    Pass warm;
    if (!run_pass(PassKind::kUntraced, &warm, &cluster)) return false;
    result->attempted = 0;
    result->failed = 0;
  }
  std::vector<double> fps, ack_ms;
  double instructions = 0.0, fixes = 0.0;
  uint64_t wal_bytes = 0, syncs = 0, shipped_bytes = 0;
  PassSchedule schedule(options);
  while (schedule.Next()) {
    Pass pass;
    cluster.reset();
    if (!run_pass(schedule.kind(), &pass, &cluster)) return false;
    fps.push_back(static_cast<double>(total_fixes) / pass.seconds);
    instructions += pass.instructions;
    fixes += static_cast<double>(total_fixes);
    ack_ms.insert(ack_ms.end(), pass.ack_ms.begin(), pass.ack_ms.end());
    wal_bytes += pass.wal_bytes;
    syncs += pass.syncs;
    shipped_bytes += pass.shipped_bytes;
  }

  // The run ends by killing and restarting every shard of the last
  // pass's cluster; each recovered store must equal the one the killed
  // runtime held in memory.
  OnceCost restart;
  bool recovered = true;
  for (size_t s = 0; s < kShards; ++s) {
    std::shared_ptr<shard::ShardRuntime> killed = cluster->runtime(s);
    if (!cluster->KillShard(s).ok()) {
      *error = "kill of shard " + std::to_string(s) + " failed";
      return false;
    }
    const uint64_t a0 = ReadAllocs().allocs;
    const uint64_t r0 = ctx.instructions->Read();
    const Clock::time_point c0 = Clock::now();
    semitri::common::Status restarted = cluster->RestartShard(s);
    restart.ms += SecondsSince(c0) * 1e3;
    restart.instr += static_cast<double>(ctx.instructions->Read() - r0);
    restart.allocs += static_cast<double>(ReadAllocs().allocs - a0);
    ++result->attempted;
    if (!restarted.ok()) {
      ++result->failed;
      recovered = false;
      continue;
    }
    recovered = recovered &&
                cluster->runtime(s)->store()->ContentEquals(*killed->store());
  }
  result->Check(recovered, "a restarted shard's store differs from its "
                           "store before the kill");
  std::fprintf(stderr,
               "cluster_cars_durable: %zu fixes, %zu objects, %zu shards, "
               "ack every %zu fixes, %zu passes, %zu ack samples, restart "
               "of every shard %.1f ms; in-memory Env peak %.1f MB\n",
               total_fixes, cars.tracks.size(), kShards, block, fps.size(),
               ack_ms.size(), restart.ms,
               static_cast<double>(MemEnv::PeakHeldBytes()) / (1 << 20));

  if (!options.trace) {
    AddEndToEnd(setup, fps, instructions, fixes, std::move(ack_ms), result,
                static_cast<double>(MemEnv::PeakHeldBytes()) / (1 << 20));
    return true;
  }
  layers.AddMetrics(setup, result);
  AddOnceCost("shard.restart", restart, result);
  result->metrics["store.wal_bytes_per_fix"] =
      static_cast<double>(wal_bytes) / fixes;
  result->metrics["shard.shipped_bytes_per_fix"] =
      static_cast<double>(shipped_bytes) / fixes;
  result->metrics["store.syncs_per_fix"] = static_cast<double>(syncs) / fixes;
  return true;
}

}  // namespace e2ebench
