// Tests for the self-tuning subsystem (src/tune/) and its actuators:
// histogram quantile helpers, BufferPool::Resize, Memtable::SetCapacity,
// the DenseFile tuning knobs (J floor, certifier recalibration, drain
// batch, staging capacity), the AdaptiveController's hysteresis-damped
// decisions over synthetic signals, and the ShardedDenseFile wiring
// (frame moves with exact conservation, the publish cadence).

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dense_file.h"
#include "gtest/gtest.h"
#include "ingest/memtable.h"
#include "obs/bound_certifier.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "shard/sharded_dense_file.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "tune/controller.h"
#include "tune/tune_options.h"
#include "util/random.h"
#include "workload/workload.h"

namespace dsf {
namespace {

// ---------------------------------------------------------------------------
// Histogram quantiles (the controller's windowed-p99 signal).

TEST(QuantileTest, EmptyAndClamping) {
  std::array<int64_t, kHistogramBuckets> buckets{};
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 0.99), 0);

  buckets[3] = 10;  // values in [8, 16), upper edge 15
  // q is clamped into [0, 1]; any quantile of a single-bucket
  // distribution is that bucket's upper edge.
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, -0.5), 15);
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 0.0), 15);
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 0.5), 15);
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 1.0), 15);
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 7.0), 15);
}

TEST(QuantileTest, RankWalksBucketBoundaries) {
  std::array<int64_t, kHistogramBuckets> buckets{};
  buckets[0] = 98;  // [0, 2)
  buckets[5] = 1;   // [32, 64)
  buckets[9] = 1;   // [512, 1024)
  // 100 observations: ranks 1..98 in bucket 0, 99 in bucket 5, 100 in
  // bucket 9.
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 0.50), 1);
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 0.98), 1);
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 0.99), 63);
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 1.0), 1023);
}

TEST(QuantileTest, UpperEdgeNeverUnderstates) {
  Histogram h;
  h.Observe(100);  // bucket 6: [64, 128), upper edge 127
  h.Observe(100);
  h.Observe(1000);  // bucket 9: [512, 1024), upper edge 1023
  // Estimates sit at or above the true quantile, within 2x.
  EXPECT_EQ(h.ApproxQuantile(0.5), 127);
  EXPECT_EQ(h.ApproxQuantile(0.99), 1023);
  EXPECT_GE(h.ApproxQuantile(0.99), 1000);
  EXPECT_LE(h.ApproxQuantile(0.99), 2 * 1000);
}

TEST(QuantileTest, TopBucketSaturates) {
  std::array<int64_t, kHistogramBuckets> buckets{};
  buckets[kHistogramBuckets - 1] = 1;
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 0.99),
            std::numeric_limits<int64_t>::max());
}

TEST(QuantileTest, WindowDiffIsExact) {
  // The controller diffs two cumulative snapshots; bucket counts merge
  // and diff exactly, so the window quantile sees only the new
  // observations.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Observe(1);  // old regime: tiny
  const std::array<int64_t, kHistogramBuckets> before = h.BucketCounts();
  for (int i = 0; i < 50; ++i) h.Observe(500);  // new regime: bucket 8
  const std::array<int64_t, kHistogramBuckets> after = h.BucketCounts();

  std::array<int64_t, kHistogramBuckets> window{};
  for (int b = 0; b < kHistogramBuckets; ++b) {
    window[static_cast<size_t>(b)] = after[static_cast<size_t>(b)] -
                                     before[static_cast<size_t>(b)];
  }
  // Cumulative p99 is polluted by the old observations' mass; the
  // window p99 is purely the new regime.
  EXPECT_EQ(Histogram::QuantileFromBuckets(window, 0.5), 511);
  EXPECT_EQ(Histogram::QuantileFromBuckets(window, 0.99), 511);
}

// ---------------------------------------------------------------------------
// BufferPool::Resize (the frame-donation actuator).

class PoolResizeTest : public ::testing::Test {
 protected:
  PoolResizeTest() : file_(/*num_pages=*/64, /*page_capacity=*/8) {}

  std::unique_ptr<BufferPool> MakePool(int64_t frames) {
    BufferPool::Options options;
    options.num_frames = frames;
    return std::make_unique<BufferPool>(&file_, options);
  }

  PageFile file_;
};

TEST_F(PoolResizeTest, GrowAddsFreeFrames) {
  auto pool = MakePool(2);
  ASSERT_TRUE(pool->PinRead(1).ok());
  ASSERT_TRUE(pool->PinRead(2).ok());
  EXPECT_TRUE(pool->Resize(5).ok());
  EXPECT_EQ(pool->num_frames(), 5);
  // Old residents survive a grow.
  ASSERT_TRUE(pool->PinRead(1).ok());
  EXPECT_EQ(pool->stats().hits, 1);
}

TEST_F(PoolResizeTest, ShrinkFlushesDirtyVictims) {
  auto pool = MakePool(4);
  // Dirty every frame so the departing tail frames are dirty victims.
  for (Address a = 5; a <= 8; ++a) {
    StatusOr<PageGuard> g = pool->PinWrite(a);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(
        g->mutable_page()->Insert(Record{Key{10 * a}, Key{10 * a}}).ok());
  }
  EXPECT_EQ(file_.stats().page_writes, 0);  // write-back still deferred
  EXPECT_TRUE(pool->Resize(1).ok());
  EXPECT_EQ(pool->num_frames(), 1);
  // Dirty victims forced the safe-order flush: everything landed on the
  // device before the tail frames were dropped.
  EXPECT_GE(file_.stats().page_writes, 4);
  for (Address a = 5; a <= 8; ++a) {
    EXPECT_EQ(file_.Peek(a).MinKey(), static_cast<Key>(10 * a));
  }
}

TEST_F(PoolResizeTest, RefusesWhileGuardsLive) {
  auto pool = MakePool(4);
  StatusOr<PageGuard> g = pool->PinRead(3);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(pool->Resize(2).code() == StatusCode::kFailedPrecondition);
  EXPECT_TRUE(pool->Resize(8).code() == StatusCode::kFailedPrecondition);
  g->Release();
  EXPECT_TRUE(pool->Resize(2).ok());
  EXPECT_EQ(pool->num_frames(), 2);
}

TEST_F(PoolResizeTest, RejectsNonPositive) {
  auto pool = MakePool(4);
  EXPECT_TRUE(pool->Resize(0).IsInvalidArgument());
  EXPECT_TRUE(pool->Resize(-3).IsInvalidArgument());
  EXPECT_EQ(pool->num_frames(), 4);
}

// ---------------------------------------------------------------------------
// Memtable::SetCapacity clamps (staged entries are never dropped).

TEST(MemtableCapacityTest, ClampsToFloorAndFill) {
  Memtable::Options options;
  options.max_entries = 16;
  Memtable table(options);
  EXPECT_EQ(table.SetCapacity(8), 8);
  EXPECT_EQ(table.SetCapacity(0), 1);   // floor: at least one entry
  EXPECT_EQ(table.SetCapacity(-5), 1);
  EXPECT_EQ(table.SetCapacity(16), 16);
  for (Key k = 1; k <= 6; ++k) {
    ASSERT_TRUE(table.Add(Record{k, k}, StagedEntry::Kind::kInsert).ok());
  }
  // A shrink below the current fill lands AT the fill — the auditor's
  // size <= capacity invariant holds and nothing staged is dropped.
  EXPECT_EQ(table.SetCapacity(2), 6);
  EXPECT_EQ(table.size(), 6);
}

// ---------------------------------------------------------------------------
// DenseFile actuators: J floor, certifier recalibration, drain knobs.

DenseFile::Options SmallControl2(bool certify) {
  DenseFile::Options options;
  options.num_pages = 32;
  options.d = 4;
  options.D = 20;
  options.policy = DenseFile::Policy::kControl2;
  options.certify_bound = certify;
  return options;
}

TEST(DenseFileTuneTest, MaintenanceJFloorIsTheOpenTimeDefault) {
  auto file = std::move(*DenseFile::Create(SmallControl2(true)));
  const int64_t default_j = file->maintenance_j();
  EXPECT_EQ(file->maintenance_j_floor(), default_j);
  // Theorem 5.5's floor: never below the resolved default.
  EXPECT_TRUE(file->SetMaintenanceJ(default_j - 1).IsInvalidArgument());
  EXPECT_TRUE(file->SetMaintenanceJ(1).IsInvalidArgument());
  EXPECT_TRUE(file->SetMaintenanceJ(default_j).ok());
  EXPECT_TRUE(file->SetMaintenanceJ(2 * default_j).ok());
  EXPECT_EQ(file->maintenance_j(), 2 * default_j);
  EXPECT_EQ(file->maintenance_j_floor(), default_j);
}

TEST(DenseFileTuneTest, MaintenanceJRejectedOffControl2) {
  DenseFile::Options options = SmallControl2(false);
  options.policy = DenseFile::Policy::kControl1;
  auto file = std::move(*DenseFile::Create(options));
  EXPECT_TRUE(file->SetMaintenanceJ(100).IsInvalidArgument());
}

// The satellite-2 regression: after a J retune, subsequent commands are
// checked against the NEW budget (one unbroken watch, switch on the
// record) — not the stale open-time envelope.
TEST(DenseFileTuneTest, PostTuneCommandsCheckedAgainstNewBudget) {
  auto file = std::move(*DenseFile::Create(SmallControl2(true)));
  const int64_t k = file->block_size();
  const int64_t default_j = file->maintenance_j();
  const int64_t old_budget = file->bound_budget();
  EXPECT_EQ(old_budget, BoundCertifier::BudgetFor(k, default_j));

  ASSERT_TRUE(file->Insert(100, 1).ok());
  const BoundReport* report = file->bound_report();
  ASSERT_NE(report, nullptr);
  const int64_t checked_before = report->commands_checked;
  EXPECT_EQ(report->recalibrations, 0);

  const int64_t new_j = default_j + 5;
  ASSERT_TRUE(file->SetMaintenanceJ(new_j).ok());
  // The envelope moved with (K, J), coverage counters kept running.
  EXPECT_EQ(file->bound_budget(), BoundCertifier::BudgetFor(k, new_j));
  EXPECT_EQ(report->budget, BoundCertifier::BudgetFor(k, new_j));
  EXPECT_EQ(report->J, new_j);
  EXPECT_GE(report->recalibrations, 1);

  ASSERT_TRUE(file->Insert(200, 2).ok());
  EXPECT_EQ(report->commands_checked, checked_before + 1);
  EXPECT_TRUE(report->ok());
}

TEST(DenseFileTuneTest, CompactRecalibratesTheEnvelope) {
  auto file = std::move(*DenseFile::Create(SmallControl2(true)));
  for (Key k = 1; k <= 20; ++k) ASSERT_TRUE(file->Insert(k, k).ok());
  const BoundReport* report = file->bound_report();
  ASSERT_NE(report, nullptr);
  ASSERT_TRUE(file->Compact().ok());
  EXPECT_GE(report->recalibrations, 1);
  EXPECT_TRUE(report->ok());
}

TEST(DenseFileTuneTest, DrainBatchOverrideAndRestore) {
  DenseFile::Options options = SmallControl2(false);
  options.staging_entries = 16;
  auto file = std::move(*DenseFile::Create(options));
  const int64_t auto_batch = file->drain_batch();
  ASSERT_GE(auto_batch, 4);

  file->SetDrainBatch(2 * auto_batch);
  EXPECT_EQ(file->drain_batch(), 2 * auto_batch);
  // The trigger follows the batch: max(batch, capacity / 2).
  EXPECT_EQ(file->drain_trigger(),
            std::max<int64_t>(2 * auto_batch, 16 / 2));
  file->SetDrainBatch(0);  // restore the auto default
  EXPECT_EQ(file->drain_batch(), auto_batch);
}

TEST(DenseFileTuneTest, StagingCapacityRetarget) {
  DenseFile::Options options = SmallControl2(false);
  options.staging_entries = 16;
  auto file = std::move(*DenseFile::Create(options));
  EXPECT_EQ(file->SetStagingCapacity(32), 32);
  EXPECT_EQ(file->SetStagingCapacity(8), 8);
  // Staging off: the knob reports 0 and stays a no-op.
  auto plain = std::move(*DenseFile::Create(SmallControl2(false)));
  EXPECT_EQ(plain->SetStagingCapacity(32), 0);
  EXPECT_TRUE(plain->ResizeCache(4).code() == StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// AdaptiveController decisions over synthetic signals.

TuneOptions FastTuning() {
  TuneOptions options;
  options.enabled = true;
  options.consecutive_ticks = 2;
  options.cooldown_ticks = 2;
  options.min_miss_signal = 8;
  options.min_frames_per_shard = 1;
  options.min_staging_entries = 8;
  return options;
}

std::vector<TuneShardSignals> TwoShards() {
  std::vector<TuneShardSignals> signals(2);
  for (auto& s : signals) {
    s.pool_frames = 8;
    s.staging_capacity = 32;
    s.drain_batch = 8;
    s.j = 13;
    s.default_j = 13;
  }
  return signals;
}

TEST(ControllerTest, FirstTickOnlySeeds) {
  AdaptiveController controller(FastTuning(), 2, nullptr);
  EXPECT_TRUE(controller.Tick(TwoShards()).empty());
  EXPECT_EQ(controller.stats().ticks, 1);
}

TEST(ControllerTest, PoolMoveNeedsConsecutiveAgreeingTicks) {
  AdaptiveController controller(FastTuning(), 2, nullptr);
  std::vector<TuneShardSignals> signals = TwoShards();
  controller.Tick(signals);  // seed

  signals[0].pool_misses += 100;
  EXPECT_TRUE(controller.Tick(signals).empty());  // streak 1 of 2

  signals[0].pool_misses += 100;
  const TuneDecision decision = controller.Tick(signals);  // streak 2: fire
  ASSERT_EQ(decision.frame_moves.size(), 1u);
  EXPECT_EQ(decision.frame_moves[0].from, 1);
  EXPECT_EQ(decision.frame_moves[0].to, 0);
  // A quarter of the donor's 8 frames.
  EXPECT_EQ(decision.frame_moves[0].frames, 2);

  // Cooldown: the same imbalance does not fire again immediately.
  signals[0].pool_misses += 100;
  EXPECT_TRUE(controller.Tick(signals).frame_moves.empty());
}

TEST(ControllerTest, PoolMoveRespectsDonorFloor) {
  TuneOptions options = FastTuning();
  options.consecutive_ticks = 1;
  options.cooldown_ticks = 0;
  AdaptiveController controller(options, 2, nullptr);
  std::vector<TuneShardSignals> signals = TwoShards();
  signals[1].pool_frames = 1;  // donor already at the floor
  controller.Tick(signals);
  signals[0].pool_misses += 100;
  // No donor above min_frames_per_shard: nothing to move.
  EXPECT_TRUE(controller.Tick(signals).frame_moves.empty());
}

TEST(ControllerTest, NoisyWindowBelowMissFloorNeverFires) {
  TuneOptions options = FastTuning();
  options.consecutive_ticks = 1;
  options.cooldown_ticks = 0;
  AdaptiveController controller(options, 2, nullptr);
  std::vector<TuneShardSignals> signals = TwoShards();
  controller.Tick(signals);
  for (int i = 0; i < 5; ++i) {
    signals[0].pool_misses += options.min_miss_signal - 1;
    EXPECT_TRUE(controller.Tick(signals).frame_moves.empty());
  }
}

TEST(ControllerTest, RegretfulMoveSuspendsTheBalancer) {
  TuneOptions options = FastTuning();
  AdaptiveController controller(options, 2, nullptr);
  std::vector<TuneShardSignals> signals = TwoShards();
  controller.Tick(signals);  // seed
  signals[0].pool_misses += 100;
  controller.Tick(signals);
  signals[0].pool_misses += 100;
  ASSERT_EQ(controller.Tick(signals).frame_moves.size(), 1u);

  // The recipient's misses never improve (its working set dwarfs any
  // pool): once judged, the balancer suspends moves well past the
  // plain cooldown, then must re-arm a full streak before firing.
  for (int i = 0; i < options.pool_regret_backoff_ticks + 2; ++i) {
    signals[0].pool_misses += 100;
    EXPECT_TRUE(controller.Tick(signals).frame_moves.empty()) << i;
  }
  signals[0].pool_misses += 100;
  EXPECT_EQ(controller.Tick(signals).frame_moves.size(), 1u);
}

TEST(ControllerTest, AbsorptionShrinksDrainBatch) {
  AdaptiveController controller(FastTuning(), 2, nullptr);
  std::vector<TuneShardSignals> signals = TwoShards();
  controller.Tick(signals);  // seed

  // Staged inserts keep dying to later deletes in memory while the
  // buffer sits well under pressure: the batch jumps straight to the
  // floor so the buffer stays fuller and absorbs more.
  for (int tick = 0; tick < 2; ++tick) {
    signals[0].staging_entries = 10;
    signals[0].staging_puts += 20;
    signals[0].staging_annihilations += 5;
    const TuneDecision decision = controller.Tick(signals);
    if (tick == 0) {
      EXPECT_TRUE(decision.drain_changes.empty());  // streak 1 of 2
      continue;
    }
    ASSERT_EQ(decision.drain_changes.size(), 1u);
    EXPECT_EQ(decision.drain_changes[0].shard, 0);
    EXPECT_EQ(decision.drain_changes[0].batch, 2);  // min_drain_batch
  }
}

TEST(ControllerTest, DrainRaiseOnPressureThenRestoreWhenIdle) {
  AdaptiveController controller(FastTuning(), 2, nullptr);
  std::vector<TuneShardSignals> signals = TwoShards();
  controller.Tick(signals);  // seed

  // Shard 0 under pressure: >= 3/4 full, arrivals outpacing drains.
  signals[0].staging_entries = 30;
  signals[0].staging_puts += 100;
  signals[0].drained_entries += 10;
  EXPECT_TRUE(controller.Tick(signals).drain_changes.empty());
  signals[0].staging_puts += 100;
  signals[0].drained_entries += 10;
  TuneDecision decision = controller.Tick(signals);
  ASSERT_EQ(decision.drain_changes.size(), 1u);
  EXPECT_EQ(decision.drain_changes[0].shard, 0);
  EXPECT_EQ(decision.drain_changes[0].batch, 16);  // doubled
  // Shard 1 idles near-empty with spare capacity: donation proposed.
  ASSERT_EQ(decision.staging_moves.size(), 1u);
  EXPECT_EQ(decision.staging_moves[0].from, 1);
  EXPECT_EQ(decision.staging_moves[0].to, 0);
  EXPECT_EQ(decision.staging_moves[0].entries, (32 - 8) / 2);

  // Pressure clears: after consecutive idle ticks (and cooldown), the
  // batch restores to the auto default.
  signals[0].staging_entries = 2;
  TuneDecision restore;
  for (int i = 0; i < 6 && restore.drain_changes.empty(); ++i) {
    restore = controller.Tick(signals);
  }
  ASSERT_EQ(restore.drain_changes.size(), 1u);
  EXPECT_EQ(restore.drain_changes[0].shard, 0);
  EXPECT_EQ(restore.drain_changes[0].batch, 0);  // 0 = auto default
}

TEST(ControllerTest, HeadroomCollapseOrdersRecalibration) {
  AdaptiveController controller(FastTuning(), 2, nullptr);
  std::vector<TuneShardSignals> signals = TwoShards();
  signals[0].budget = 54;  // K=1, J=13: 4J+2
  signals[1].budget = 54;
  controller.Tick(signals);  // seed

  // Window p99 estimate 63 (bucket [32,64)) >= 0.85 * 54: collapse.
  signals[0].access_buckets[5] += 100;
  EXPECT_TRUE(controller.Tick(signals).recalibrations.empty());
  signals[0].access_buckets[5] += 100;
  const TuneDecision decision = controller.Tick(signals);
  ASSERT_EQ(decision.recalibrations.size(), 1u);
  EXPECT_EQ(decision.recalibrations[0].shard, 0);
  EXPECT_TRUE(decision.recalibrations[0].compact);
  // First response is Compact alone; the J raise waits for a repeat.
  EXPECT_EQ(decision.recalibrations[0].set_j, 0);
}

TEST(ControllerTest, RepeatedCollapseRaisesJThenCalmRestores) {
  TuneOptions options = FastTuning();
  options.consecutive_ticks = 1;
  options.cooldown_ticks = 1;
  AdaptiveController controller(options, 1, nullptr);
  std::vector<TuneShardSignals> signals(1);
  signals[0].pool_frames = 8;
  signals[0].j = 13;
  signals[0].default_j = 13;
  signals[0].budget = 54;
  controller.Tick(signals);  // seed

  // First collapse: Compact only.
  signals[0].access_buckets[5] += 100;
  TuneDecision first = controller.Tick(signals);
  ASSERT_EQ(first.recalibrations.size(), 1u);
  EXPECT_EQ(first.recalibrations[0].set_j, 0);

  // Sustained collapse: the second firing escalates to a J raise
  // (doubled, still under default * j_max_multiplier).
  TuneDecision second;
  for (int i = 0; i < 4 && second.recalibrations.empty(); ++i) {
    signals[0].access_buckets[5] += 100;
    second = controller.Tick(signals);
  }
  ASSERT_EQ(second.recalibrations.size(), 1u);
  EXPECT_EQ(second.recalibrations[0].set_j, 26);
  EXPECT_LE(second.recalibrations[0].set_j,
            13 * options.j_max_multiplier);

  // Calm windows with J above the default: restore to the floor, no
  // Compact needed to narrow an envelope.
  signals[0].j = 26;
  TuneDecision restore;
  for (int i = 0; i < 8 && restore.recalibrations.empty(); ++i) {
    restore = controller.Tick(signals);
  }
  ASSERT_EQ(restore.recalibrations.size(), 1u);
  EXPECT_EQ(restore.recalibrations[0].set_j, 13);
  EXPECT_FALSE(restore.recalibrations[0].compact);
}

TEST(ControllerTest, UncertifiedShardsNeverTriggerHeadroom) {
  TuneOptions options = FastTuning();
  options.consecutive_ticks = 1;
  options.cooldown_ticks = 0;
  AdaptiveController controller(options, 1, nullptr);
  std::vector<TuneShardSignals> signals(1);
  signals[0].pool_frames = 8;
  signals[0].budget = 0;  // certification off
  controller.Tick(signals);
  signals[0].access_buckets[10] += 1000;
  EXPECT_TRUE(controller.Tick(signals).recalibrations.empty());
}

TEST(ControllerTest, GaugesPublishedIntoRegistry) {
  MetricsRegistry registry;
  AdaptiveController controller(FastTuning(), 2, &registry);
  controller.Tick(TwoShards());
  controller.RecordApplied(/*actuations=*/3, /*frames_moved=*/2,
                           /*recalibrations=*/1);

  const MetricsSnapshot snapshot = registry.Snapshot();
  bool saw_ticks = false;
  bool saw_actuations = false;
  for (const auto& counter : snapshot.counters) {
    if (counter.name == kMetricTuneTicks) {
      saw_ticks = true;
      EXPECT_EQ(counter.value, 1);
    }
    if (counter.name == kMetricTuneActuations) {
      saw_actuations = true;
      EXPECT_EQ(counter.value, 3);
    }
  }
  EXPECT_TRUE(saw_ticks);
  EXPECT_TRUE(saw_actuations);
  bool saw_frames = false;
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name == std::string(kMetricTunePoolFrames) +
                          "{shard=\"0\"}") {
      saw_frames = true;
      EXPECT_EQ(gauge.value, 8);
    }
  }
  EXPECT_TRUE(saw_frames);
}

// ---------------------------------------------------------------------------
// ShardedDenseFile wiring: frame moves with conservation, cadence.

ShardedDenseFile::Options TwoShardOptions() {
  ShardedDenseFile::Options options;
  options.num_shards = 2;
  options.key_space = 2000;
  options.shard.num_pages = 48;
  options.shard.d = 4;
  options.shard.D = 20;
  options.shard.policy = DenseFile::Policy::kControl2;
  options.shard.cache_frames = 4;
  return options;
}

TEST(ShardedTuneTest, ForceTickMovesFramesTowardTheHotShard) {
  ShardedDenseFile::Options options = TwoShardOptions();
  options.tuning.enabled = true;
  options.tuning.tick_every_commands = 1 << 30;  // manual ticks only
  options.tuning.consecutive_ticks = 1;
  options.tuning.cooldown_ticks = 0;
  options.tuning.min_miss_signal = 4;
  auto file = std::move(*ShardedDenseFile::Create(options));
  ASSERT_NE(file->tuner(), nullptr);

  file->ForceTuneTick();  // seed the window
  // All traffic into shard 1 (keys > 1001): spread inserts miss the
  // 4-frame pool constantly while shard 0 stays silent.
  for (Key k = 0; k < 120; ++k) {
    ASSERT_TRUE(file->Insert(1010 + 8 * k, 1).ok());
  }
  file->ForceTuneTick();

  EXPECT_GT(file->shard_cache_frames(1), 4);
  EXPECT_LT(file->shard_cache_frames(0), 4);
  // Conservation: every frame the donor gave, the recipient got.
  EXPECT_EQ(file->shard_cache_frames(0) + file->shard_cache_frames(1), 8);
  EXPECT_GT(file->tuner()->stats().applied_actuations, 0);
  EXPECT_GT(file->tuner()->stats().applied_frames_moved, 0);
}

TEST(ShardedTuneTest, TickCadencePiggybacksOnCommands) {
  ShardedDenseFile::Options options = TwoShardOptions();
  options.tuning.enabled = true;
  options.tuning.tick_every_commands = 16;
  auto file = std::move(*ShardedDenseFile::Create(options));
  for (Key k = 1; k <= 40; ++k) {
    ASSERT_TRUE(file->Insert(10 * k, 1).ok());
  }
  // 40 commands at one tick per 16: the boundary-crossing commands
  // ticked the controller (2 ticks), nobody else did.
  EXPECT_EQ(file->tuner()->stats().ticks, 2);
}

TEST(ShardedTuneTest, ManualShardResizeActuator) {
  auto file = std::move(*ShardedDenseFile::Create(TwoShardOptions()));
  ASSERT_TRUE(file->ResizeShardCache(0, 1).ok());
  ASSERT_TRUE(file->ResizeShardCache(1, 7).ok());
  EXPECT_EQ(file->shard_cache_frames(0), 1);
  EXPECT_EQ(file->shard_cache_frames(1), 7);
}

// Satellite 3: PublishMetrics on a command cadence instead of manual
// calls, with bounded staleness.
TEST(ShardedTuneTest, PublishCadenceAndStaleness) {
  MetricsRegistry registry;
  ShardedDenseFile::Options options = TwoShardOptions();
  options.shard.metrics = &registry;
  options.publish_metrics_every = 4;
  auto file = std::move(*ShardedDenseFile::Create(options));

  const auto shard_records = [&](int shard) -> int64_t {
    const std::string name = std::string(kMetricShardRecords) +
                             "{shard=\"" + std::to_string(shard) + "\"}";
    for (const auto& gauge : registry.Snapshot().gauges) {
      if (gauge.name == name) return gauge.value;
    }
    return -1;  // not yet published
  };

  ASSERT_TRUE(file->Insert(10, 1).ok());
  ASSERT_TRUE(file->Insert(20, 1).ok());
  ASSERT_TRUE(file->Insert(30, 1).ok());
  // Three commands: below the cadence, nothing published yet.
  EXPECT_EQ(shard_records(0), -1);

  ASSERT_TRUE(file->Insert(40, 1).ok());
  // The fourth command crossed the boundary and published.
  EXPECT_EQ(shard_records(0), 4);

  ASSERT_TRUE(file->Insert(50, 1).ok());
  ASSERT_TRUE(file->Insert(60, 1).ok());
  // Staleness is bounded by the cadence: the gauge still shows the
  // publish-time value until the next boundary...
  EXPECT_EQ(shard_records(0), 4);
  ASSERT_TRUE(file->Insert(70, 1).ok());
  ASSERT_TRUE(file->Insert(80, 1).ok());
  // ...which refreshes it.
  EXPECT_EQ(shard_records(0), 8);
}

TEST(ShardedTuneTest, NoTunerWithoutOptIn) {
  auto file = std::move(*ShardedDenseFile::Create(TwoShardOptions()));
  EXPECT_EQ(file->tuner(), nullptr);
  file->ForceTuneTick();  // no-op, no crash
  for (Key k = 1; k <= 20; ++k) {
    ASSERT_TRUE(file->Insert(10 * k, 1).ok());
  }
}

// End-to-end safety: a tuning storm (tight cadence, aggressive knobs,
// certified, audited) never breaches the envelope or corrupts state.
TEST(ShardedTuneTest, CertifiedAuditedRetuningStaysClean) {
  MetricsRegistry registry;
  ShardedDenseFile::Options options = TwoShardOptions();
  options.shard.metrics = &registry;
  options.shard.certify_bound = true;
  options.shard.audit_every_command = true;
  options.shard.staging_entries = 16;
  options.tuning.enabled = true;
  options.tuning.tick_every_commands = 8;
  options.tuning.consecutive_ticks = 1;
  options.tuning.cooldown_ticks = 1;
  options.tuning.min_miss_signal = 1;
  auto file = std::move(*ShardedDenseFile::Create(options));

  Rng rng(7);
  const Trace trace = UniformMix(400, 0.5, 0.2, 2000, rng);
  for (const Op& op : trace) {
    switch (op.kind) {
      case Op::Kind::kInsert:
        IgnoreStatus(file->Insert(op.record));
        break;
      case Op::Kind::kDelete:
        IgnoreStatus(file->Delete(op.record.key));
        break;
      default:
        IgnoreStatus(file->Get(op.record.key));
        break;
    }
  }
  ASSERT_TRUE(file->FlushStaging().ok());
  EXPECT_TRUE(file->ValidateInvariants().ok());
  // Zero certified-bound violations across all shards while retuning.
  for (const auto& counter : registry.Snapshot().counters) {
    if (counter.name.rfind(kMetricBoundViolations, 0) == 0) {
      EXPECT_EQ(counter.value, 0) << counter.name;
    }
  }
  // Frames conserved through however many moves the storm made.
  EXPECT_EQ(file->shard_cache_frames(0) + file->shard_cache_frames(1), 8);
}

// The TSan storm: concurrent writers and readers while the controller
// ticks on a tight cadence and an outside thread forces extra ticks.
// Exercises every actuator path (pool resize, drain batch, staging
// capacity, publish) against live commands; run under
// -DDSF_SANITIZE=thread this is the tuning data-race detector.
TEST(ShardedTuneTest, ConcurrentCommandsDuringRetuning) {
  MetricsRegistry registry;
  ShardedDenseFile::Options options = TwoShardOptions();
  options.shard.metrics = &registry;
  options.shard.certify_bound = true;
  options.shard.staging_entries = 16;
  options.publish_metrics_every = 16;
  options.tuning.enabled = true;
  options.tuning.tick_every_commands = 32;
  options.tuning.consecutive_ticks = 1;
  options.tuning.cooldown_ticks = 0;
  options.tuning.min_miss_signal = 1;
  auto file = std::move(*ShardedDenseFile::Create(options));

  std::atomic<bool> stop{false};
  std::thread writer_low([&] {
    for (Key k = 1; k <= 150; ++k) {
      IgnoreStatus(file->Insert(6 * k, 1));  // shard 0 keys
    }
  });
  std::thread writer_high([&] {
    for (Key k = 1; k <= 150; ++k) {
      IgnoreStatus(file->Insert(1001 + 6 * k, 1));  // shard 1 keys
    }
  });
  std::thread reader([&] {
    Rng rng(3);
    while (!stop.load(std::memory_order_acquire)) {
      IgnoreStatus(file->Get(static_cast<Key>(1 + rng.Uniform(2000))));
    }
  });
  for (int i = 0; i < 50; ++i) {
    file->ForceTuneTick();
    std::this_thread::yield();
  }
  writer_low.join();
  writer_high.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  ASSERT_TRUE(file->FlushStaging().ok());
  EXPECT_TRUE(file->ValidateInvariants().ok());
  EXPECT_EQ(file->shard_cache_frames(0) + file->shard_cache_frames(1), 8);
  for (const auto& counter : registry.Snapshot().counters) {
    if (counter.name.rfind(kMetricBoundViolations, 0) == 0) {
      EXPECT_EQ(counter.value, 0) << counter.name;
    }
  }
}

}  // namespace
}  // namespace dsf
