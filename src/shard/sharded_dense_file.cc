#include "shard/sharded_dense_file.h"

#include <algorithm>
#include <limits>
#include <string>

#include "analysis/auditor.h"
#include "ingest/memtable.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tune/controller.h"

namespace dsf {

namespace {
constexpr Key kMaxKey = std::numeric_limits<Key>::max();

// The metric label qualifying shard i's series: `shard="i"`.
std::string ShardLabel(int shard) {
  return "shard=\"" + std::to_string(shard) + "\"";
}

// One kSharedRead span per point read when tracing is on: `a` is the
// branch taken (0 = shared lock, 1 = epoch pool hit, 2 = epoch miss
// blocking on the shared lock), `b` the shard index. CommandTracer is
// internally locked, so concurrent readers may record freely.
void TraceReadBranch(CommandTracer* tracer, int branch, int shard) {
  if (tracer == nullptr) return;
  SpanEvent event;
  event.kind = SpanKind::kSharedRead;
  event.a = branch;
  event.b = shard;
  tracer->Record(event);
}
}  // namespace

ShardedDenseFile::MultiShardLock::MultiShardLock(
    const std::vector<std::unique_ptr<Shard>>& shards, int first, int last,
    bool exclusive)
    : shards_(shards), first_(first), last_(last), exclusive_(exclusive) {
  // Ascending acquisition — the one global lock order (DrainRotate and
  // every point operation hold a single lock, trivially consistent with
  // any total order), hence no deadlock between overlapping range ops.
  for (int i = first_; i <= last_; ++i) {
    SharedMutex& mu = shards_[static_cast<size_t>(i)]->mu;
    if (exclusive_) {
      mu.Lock();
    } else {
      mu.ReaderLock();
    }
  }
}

ShardedDenseFile::MultiShardLock::~MultiShardLock() {
  for (int i = last_; i >= first_; --i) {
    SharedMutex& mu = shards_[static_cast<size_t>(i)]->mu;
    if (exclusive_) {
      mu.Unlock();
    } else {
      mu.ReaderUnlock();
    }
  }
}

StatusOr<std::unique_ptr<ShardedDenseFile>> ShardedDenseFile::Create(
    const Options& options) {
  const int s = options.num_shards;
  if (s < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  std::vector<Key> splitters = options.splitters;
  if (splitters.empty() && s > 1) {
    // Uniform split of [1, key_space] (or of the whole 64-bit space).
    const Key space = options.key_space == 0 ? kMaxKey : options.key_space;
    if (space < static_cast<Key>(s)) {
      return Status::InvalidArgument("key_space smaller than num_shards");
    }
    const Key step = space / static_cast<Key>(s);
    for (int i = 1; i < s; ++i) {
      splitters.push_back(step * static_cast<Key>(i) + 1);
    }
  }
  if (static_cast<int>(splitters.size()) != s - 1) {
    return Status::InvalidArgument("need exactly num_shards - 1 splitters");
  }
  for (size_t i = 1; i < splitters.size(); ++i) {
    if (splitters[i - 1] >= splitters[i]) {
      return Status::InvalidArgument("splitters must strictly ascend");
    }
  }
  DenseFile::Options shard_options = options.shard;
  if (shard_options.backend_factory != nullptr) {
    return Status::InvalidArgument(
        "set shard_backend_factory, not shard.backend_factory: every shard "
        "needs its own backend, an ordinal-blind factory would open one "
        "file pair for all of them");
  }
  if (options.cache_bytes < 0) {
    return Status::InvalidArgument("cache_bytes must be >= 0");
  }
  if (options.cache_bytes > 0 && shard_options.cache_frames == 0) {
    // Split the byte budget evenly: each shard is an independent device
    // with its own pool. A frame holds one physical page of D+1 records.
    const int64_t frame_bytes =
        (shard_options.D + 1) * static_cast<int64_t>(sizeof(Record));
    shard_options.cache_frames =
        std::max<int64_t>(1, options.cache_bytes / s / frame_bytes);
  }
  if (options.staging_bytes < 0) {
    return Status::InvalidArgument("staging_bytes must be >= 0");
  }
  const bool split_staging = options.staging_bytes > 0 &&
                             shard_options.staging_entries == 0 &&
                             shard_options.staging_bytes == 0;
  int64_t staging_base = 0;
  int64_t staging_extra = 0;
  if (split_staging) {
    // The budget buys floor(staging_bytes / entry) staged entries total.
    // Divide them as evenly as possible; the remainder goes one entry
    // each to the first shards, so no slice of the budget is silently
    // dropped (an even split used to lose up to S-1 entries). A budget
    // whose per-shard share cannot hold even one entry is a
    // configuration error, not something to round up: rounding would
    // manufacture capacity the caller never paid for.
    const int64_t entry_bytes = static_cast<int64_t>(sizeof(StagedEntry));
    if (options.staging_bytes / s < entry_bytes) {
      return Status::InvalidArgument(
          "staging_bytes too small: per-shard budget (staging_bytes / "
          "num_shards) must hold at least one staged entry");
    }
    const int64_t total_entries = options.staging_bytes / entry_bytes;
    staging_base = total_entries / s;
    staging_extra = total_entries % s;
  }
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(static_cast<size_t>(s));
  int64_t resolved_block_size = 0;
  for (int i = 0; i < s; ++i) {
    DenseFile::Options per_shard = shard_options;
    if (split_staging) {
      per_shard.staging_entries =
          staging_base + (i < static_cast<int>(staging_extra) ? 1 : 0);
    }
    if (per_shard.metrics != nullptr || per_shard.tracer != nullptr ||
        per_shard.certify_bound) {
      // Every shard publishes the same catalog names; series differ only
      // by the shard label, so dashboards scale with S for free.
      per_shard.metrics_label = ShardLabel(i);
    }
    if (options.shard_backend_factory != nullptr) {
      // Bind the ordinal so each shard's DenseFile opens its own device.
      const auto& factory = options.shard_backend_factory;
      per_shard.backend_factory = [factory, i](int64_t num_pages,
                                               int64_t page_capacity) {
        return factory(i, num_pages, page_capacity);
      };
    }
    StatusOr<std::unique_ptr<DenseFile>> file =
        DenseFile::Create(per_shard);
    if (!file.ok()) return file.status();
    resolved_block_size = (*file)->block_size();
    shards.push_back(std::make_unique<Shard>(std::move(*file)));
  }
  Options resolved = options;
  resolved.splitters = splitters;
  resolved.shard.block_size = resolved_block_size;
  resolved.shard.cache_frames = shard_options.cache_frames;
  // When the byte budget was split, the first staging_extra shards hold
  // one entry more than this base (remainder distribution above).
  resolved.shard.staging_entries =
      split_staging ? staging_base : shard_options.staging_entries;
  std::unique_ptr<ShardedDenseFile> file(new ShardedDenseFile(
      resolved, std::move(splitters), std::move(shards)));
  file->staging_ = split_staging || shard_options.staging_entries > 0 ||
                   shard_options.staging_bytes > 0;
  if (options.shard.metrics != nullptr) {
    MetricsRegistry& reg = *options.shard.metrics;
    const std::string& label = options.shard.metrics_label;
    file->m_read_shared_ =
        reg.FindOrCreateCounter(kMetricReadLockShared, label);
    file->m_read_epoch_hits_ =
        reg.FindOrCreateCounter(kMetricReadLockEpochHits, label);
    file->m_read_epoch_fallbacks_ =
        reg.FindOrCreateCounter(kMetricReadLockEpochFallbacks, label);
    // Same handles the shards publish into (label-matched), so the
    // signal collector reads per-shard access distributions without
    // snapshotting the whole registry.
    file->m_shard_access_.reserve(static_cast<size_t>(s));
    for (int i = 0; i < s; ++i) {
      file->m_shard_access_.push_back(
          reg.FindOrCreateHistogram(kMetricCommandAccesses, ShardLabel(i)));
    }
  }
  if (options.tuning.enabled) {
    file->tuner_ = std::make_unique<AdaptiveController>(
        options.tuning, s, options.shard.metrics);
  }
  return file;
}

ShardedDenseFile::ShardedDenseFile(const Options& options,
                                   std::vector<Key> splitters,
                                   std::vector<std::unique_ptr<Shard>> shards)
    : options_(options),
      splitters_(std::move(splitters)),
      shards_(std::move(shards)) {}

ShardedDenseFile::~ShardedDenseFile() = default;

std::vector<Key> ShardedDenseFile::LearnSplitters(
    const std::vector<Record>& sample, int num_shards) {
  std::vector<Key> splitters;
  if (num_shards <= 1) return splitters;
  splitters.reserve(static_cast<size_t>(num_shards - 1));
  const int64_t n = static_cast<int64_t>(sample.size());
  for (int i = 1; i < num_shards; ++i) {
    Key boundary;
    if (n == 0) {
      // No sample: fall back to a uniform split of the full key space.
      boundary = (kMaxKey / static_cast<Key>(num_shards)) * static_cast<Key>(i);
    } else {
      boundary = sample[static_cast<size_t>(
                            static_cast<int64_t>(i) * n / num_shards)]
                     .key;
    }
    // A boundary that does not strictly exceed the previous one (heavy
    // duplicates in the sample, or a quantile at the very bottom of the
    // key space) would carve out an empty or useless range. Skip it and
    // return fewer splitters — fewer, balanced shards beat the nominal
    // count: manufacturing `back + 1` boundaries routes at most one key
    // per extra shard, and overflows once back reaches kMaxKey.
    if (boundary == 0 ||
        (!splitters.empty() && boundary <= splitters.back())) {
      continue;
    }
    splitters.push_back(boundary);
  }
  return splitters;
}

int ShardedDenseFile::ShardOf(Key key) const {
  return static_cast<int>(
      std::upper_bound(splitters_.begin(), splitters_.end(), key) -
      splitters_.begin());
}

Key ShardedDenseFile::ShardLowerBound(int shard) const {
  return shard == 0 ? 0 : splitters_[static_cast<size_t>(shard - 1)];
}

Key ShardedDenseFile::ShardUpperBound(int shard) const {
  return shard == num_shards() - 1 ? kMaxKey
                                   : splitters_[static_cast<size_t>(shard)];
}

Status ShardedDenseFile::Insert(const Record& record) {
  Status s;
  {
    Shard& shard = *shards_[static_cast<size_t>(ShardOf(record.key))];
    WriterMutexLock lock(shard.mu);
    s = shard.file->Insert(record);
  }
  // Owning lock released: spend this command's piggyback drain budget on
  // the next shard round-robin so idle shards' staging never starves.
  DrainRotate();
  MaybeTune();
  return s;
}

Status ShardedDenseFile::Delete(Key key) {
  Status s;
  {
    Shard& shard = *shards_[static_cast<size_t>(ShardOf(key))];
    WriterMutexLock lock(shard.mu);
    s = shard.file->Delete(key);
  }
  DrainRotate();
  MaybeTune();
  return s;
}

void ShardedDenseFile::DrainRotate() {
  if (!staging_ || num_shards() <= 1) return;
  const int target = static_cast<int>(
      rotate_.fetch_add(1, std::memory_order_relaxed) %
      static_cast<int64_t>(num_shards()));
  Shard& shard = *shards_[static_cast<size_t>(target)];
  WriterMutexLock lock(shard.mu);
  // Only drain a buffer that has reached its trigger: the rotation
  // guards against a shard whose write traffic dried up while staged
  // entries pile at the trigger — not against entries merely existing
  // (those drain on the shard's own commands, or at FlushStaging).
  // Below-trigger peeks make the rotation a near-free lock-and-look.
  if (!shard.file->staging_wants_drain()) return;
  // A drain error on an independent shard is not this command's fault to
  // report: the entry stays staged and the error resurfaces (with the
  // right attribution) on that shard's own next command or flush.
  IgnoreStatus(shard.file->DrainStep());
}

void ShardedDenseFile::MaybeTune() {
  const int64_t publish = options_.publish_metrics_every;
  if (tuner_ == nullptr && publish <= 0) return;
  const int64_t seq =
      command_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (publish > 0 && seq % publish == 0) PublishMetrics();
  // tick_every via the controller's copy: it sanitized the options.
  if (tuner_ != nullptr &&
      seq % tuner_->options().tick_every_commands == 0) {
    ForceTuneTick();
  }
}

void ShardedDenseFile::ForceTuneTick() {
  if (tuner_ == nullptr) return;
  const TuneDecision decision = tuner_->Tick(CollectTuneSignals());
  if (!decision.empty()) ApplyTuneDecision(decision);
}

std::vector<TuneShardSignals> ShardedDenseFile::CollectTuneSignals() const {
  std::vector<TuneShardSignals> signals(
      static_cast<size_t>(num_shards()));
  for (int i = 0; i < num_shards(); ++i) {
    TuneShardSignals& s = signals[static_cast<size_t>(i)];
    const Shard& shard = *shards_[static_cast<size_t>(i)];
    ReaderMutexLock lock(shard.mu);
    const DenseFile& f = *shard.file;
    s.commands = f.command_stats().commands;
    const BufferPool::Stats cache = f.cache_stats();
    s.pool_hits = cache.hits;
    s.pool_misses = cache.misses;
    s.pool_frames = f.cache_frames();
    s.pool_dirty = f.cache_dirty_frames();
    const StagingStats staging = f.staging_stats();
    s.staging_puts = staging.puts;
    s.drained_entries = staging.drained_entries;
    s.staging_annihilations = staging.annihilations;
    s.staging_entries = staging.entries;
    s.staging_capacity = staging.capacity;
    s.drain_batch = f.drain_batch();
    s.records = f.size();
    s.j = f.maintenance_j();
    s.default_j = f.maintenance_j_floor();
    s.budget = f.bound_budget();
    if (static_cast<size_t>(i) < m_shard_access_.size() &&
        m_shard_access_[static_cast<size_t>(i)] != nullptr) {
      s.access_buckets =
          m_shard_access_[static_cast<size_t>(i)]->BucketCounts();
    }
  }
  return signals;
}

void ShardedDenseFile::ApplyTuneDecision(const TuneDecision& decision) {
  CommandTracer* tracer = options_.shard.tracer;
  int64_t actuations = 0;
  int64_t frames_moved = 0;
  int64_t recalibrations = 0;
  // One kTune span per applied actuation: `a` = actuator (0 frame move,
  // 1 drain batch, 2 staging move, 3 J change, 4 re-calibration
  // compact), `b` the actuator-specific detail.
  const auto trace = [tracer](int actuator, int64_t detail) {
    if (tracer == nullptr) return;
    SpanEvent event;
    event.kind = SpanKind::kTune;
    event.a = actuator;
    event.b = detail;
    tracer->Record(event);
  };

  for (const TuneDecision::FrameMove& move : decision.frame_moves) {
    // Shrink the donor first and grant the recipient exactly what came
    // out — apply-time clamping keeps the global frame budget conserved
    // even if signals went stale between tick and apply.
    int64_t moved = 0;
    int64_t donor_before = 0;
    {
      Shard& from = *shards_[static_cast<size_t>(move.from)];
      WriterMutexLock lock(from.mu);
      donor_before = from.file->cache_frames();
      const int64_t target =
          std::max(tuner_->options().min_frames_per_shard,
                   donor_before - move.frames);
      if (target < donor_before && from.file->ResizeCache(target).ok()) {
        moved = donor_before - target;
      }
    }
    if (moved <= 0) continue;
    bool granted = false;
    {
      Shard& to = *shards_[static_cast<size_t>(move.to)];
      WriterMutexLock lock(to.mu);
      granted =
          to.file->ResizeCache(to.file->cache_frames() + moved).ok();
    }
    if (!granted) {
      // Recipient refused (live pins from a cursor): hand the frames
      // back so no slice of the budget is stranded.
      Shard& from = *shards_[static_cast<size_t>(move.from)];
      WriterMutexLock lock(from.mu);
      IgnoreStatus(from.file->ResizeCache(donor_before));
      continue;
    }
    ++actuations;
    frames_moved += moved;
    trace(0, moved);
  }

  for (const TuneDecision::DrainChange& change : decision.drain_changes) {
    Shard& shard = *shards_[static_cast<size_t>(change.shard)];
    WriterMutexLock lock(shard.mu);
    shard.file->SetDrainBatch(change.batch);
    ++actuations;
    trace(1, shard.file->drain_batch());
  }

  for (const TuneDecision::StagingMove& move : decision.staging_moves) {
    int64_t freed = 0;
    {
      Shard& from = *shards_[static_cast<size_t>(move.from)];
      WriterMutexLock lock(from.mu);
      if (from.file->staging() == nullptr) continue;
      const int64_t before = from.file->staging()->capacity();
      const int64_t target = std::max(
          tuner_->options().min_staging_entries, before - move.entries);
      if (target < before) {
        // SetCapacity clamps to the current fill, so `freed` is what
        // actually came out, never entries the buffer still holds.
        freed = before - from.file->SetStagingCapacity(target);
      }
    }
    if (freed <= 0) continue;
    Shard& to = *shards_[static_cast<size_t>(move.to)];
    WriterMutexLock lock(to.mu);
    if (to.file->staging() == nullptr) continue;
    to.file->SetStagingCapacity(to.file->staging()->capacity() + freed);
    ++actuations;
    trace(2, freed);
  }

  for (const TuneDecision::Recalibration& recal : decision.recalibrations) {
    Shard& shard = *shards_[static_cast<size_t>(recal.shard)];
    WriterMutexLock lock(shard.mu);
    bool applied = false;
    if (recal.set_j > 0 &&
        shard.file->SetMaintenanceJ(recal.set_j).ok()) {
      applied = true;
      trace(3, recal.set_j);
    }
    if (recal.compact && shard.file->Compact().ok()) {
      applied = true;
      trace(4, recal.shard);
    }
    if (applied) {
      ++actuations;
      ++recalibrations;
    }
  }

  tuner_->RecordApplied(actuations, frames_moved, recalibrations);
}

StatusOr<Value> ShardedDenseFile::Get(Key key) const {
  const int index = ShardOf(key);
  const Shard& shard = *shards_[static_cast<size_t>(index)];
  if (options_.exclusive_reads) {
    WriterMutexLock lock(shard.mu);
    return shard.file->Get(key);
  }
  // Branch 0 — uncontended (or reader-shared) shard: a shared hold lets
  // any number of point reads overlap each other and the range scans.
  if (shard.mu.ReaderTryLock()) {
    StatusOr<Value> result = shard.file->Get(key);
    shard.mu.ReaderUnlock();
    if (m_read_shared_ != nullptr) m_read_shared_->Increment();
    TraceReadBranch(options_.shard.tracer, 0, index);
    return result;
  }
  // Branch 1 — a writer holds the shard: epoch-validated read straight
  // from the buffer pool. Positive hits only; a miss proves nothing
  // (page not resident, frame mid-write, staged entries pending), so it
  // cannot answer "not found".
  Value value = 0;
  if (shard.epoch->TryEpochGet(key, &value)) {
    if (m_read_epoch_hits_ != nullptr) m_read_epoch_hits_->Increment();
    TraceReadBranch(options_.shard.tracer, 1, index);
    return value;
  }
  // Branch 2 — epoch miss: queue behind the writer like before.
  if (m_read_epoch_fallbacks_ != nullptr) {
    m_read_epoch_fallbacks_->Increment();
  }
  TraceReadBranch(options_.shard.tracer, 2, index);
  ReaderMutexLock lock(shard.mu);
  return shard.file->Get(key);
}

bool ShardedDenseFile::Contains(Key key) const {
  const int index = ShardOf(key);
  const Shard& shard = *shards_[static_cast<size_t>(index)];
  if (options_.exclusive_reads) {
    WriterMutexLock lock(shard.mu);
    return shard.file->Contains(key);
  }
  // Same three branches as Get; see there for the rationale.
  if (shard.mu.ReaderTryLock()) {
    const bool found = shard.file->Contains(key);
    shard.mu.ReaderUnlock();
    if (m_read_shared_ != nullptr) m_read_shared_->Increment();
    TraceReadBranch(options_.shard.tracer, 0, index);
    return found;
  }
  Value value = 0;
  if (shard.epoch->TryEpochGet(key, &value)) {
    if (m_read_epoch_hits_ != nullptr) m_read_epoch_hits_->Increment();
    TraceReadBranch(options_.shard.tracer, 1, index);
    return true;
  }
  if (m_read_epoch_fallbacks_ != nullptr) {
    m_read_epoch_fallbacks_->Increment();
  }
  TraceReadBranch(options_.shard.tracer, 2, index);
  ReaderMutexLock lock(shard.mu);
  return shard.file->Contains(key);
}

Status ShardedDenseFile::Scan(Key lo, Key hi,
                              std::vector<Record>* out) const {
  if (lo > hi) return Status::OK();
  const int first = ShardOf(lo);
  const int last = ShardOf(hi);
  // All affected shards locked shared for the whole scan: concurrent
  // point reads still overlap, while a racing DeleteRange (which takes
  // the same set exclusive) is either entirely before or entirely after
  // this snapshot — never interleaved shard-by-shard. Shards partition
  // the key space in order, so appending per-shard results in ascending
  // shard order yields global key order.
  MultiShardLock lock(shards_, first, last,
                      /*exclusive=*/options_.exclusive_reads);
  for (int i = first; i <= last; ++i) {
    const Shard& shard = *shards_[static_cast<size_t>(i)];
    DSF_RETURN_IF_ERROR(shard.epoch->Scan(lo, hi, out));
  }
  return Status::OK();
}

StatusOr<std::vector<Record>> ShardedDenseFile::ScanAll() const {
  std::vector<Record> out;
  DSF_RETURN_IF_ERROR(Scan(0, kMaxKey, &out));
  return out;
}

void ShardedDenseFile::SetFaultPolicy(int shard,
                                      std::shared_ptr<FaultPolicy> policy) {
  Shard& s = *shards_[static_cast<size_t>(shard)];
  WriterMutexLock lock(s.mu);
  s.file->set_fault_policy(std::move(policy));
}

StatusOr<RepairReport> ShardedDenseFile::CheckAndRepair() {
  RepairReport total;
  for (const auto& shard : shards_) {
    WriterMutexLock lock(shard->mu);
    StatusOr<RepairReport> part = shard->file->CheckAndRepair();
    if (!part.ok()) return part.status();
    total.blocks_scanned += part->blocks_scanned;
    total.calibrator_resyncs += part->calibrator_resyncs;
    total.duplicate_records_dropped += part->duplicate_records_dropped;
    total.misordered_blocks += part->misordered_blocks;
    total.overfull_pages += part->overfull_pages;
    total.packing_violations += part->packing_violations;
    // Addresses are shard-local; the union still counts every torn slot.
    total.corrupt_pages.insert(total.corrupt_pages.end(),
                               part->corrupt_pages.begin(),
                               part->corrupt_pages.end());
    total.rewrote_file = total.rewrote_file || part->rewrote_file;
    total.warning_state_rebuilt =
        total.warning_state_rebuilt || part->warning_state_rebuilt;
  }
  return total;
}

Status ShardedDenseFile::Flush() {
  Status first_error = Status::OK();
  for (const auto& shard : shards_) {
    WriterMutexLock lock(shard->mu);
    const Status s = shard->file->Flush();
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

void ShardedDenseFile::DiscardCaches() {
  for (const auto& shard : shards_) {
    WriterMutexLock lock(shard->mu);
    shard->file->DiscardCache();
  }
}

Status ShardedDenseFile::FlushStaging() {
  Status first_error = Status::OK();
  for (const auto& shard : shards_) {
    WriterMutexLock lock(shard->mu);
    const Status s = shard->file->FlushStaging();
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

void ShardedDenseFile::DiscardStaging() {
  for (const auto& shard : shards_) {
    WriterMutexLock lock(shard->mu);
    shard->file->DiscardStaging();
  }
}

StagingStats ShardedDenseFile::staging_stats() const {
  StagingStats total;
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(shard->mu);
    total += shard->file->staging_stats();
  }
  return total;
}

StagingStats ShardedDenseFile::shard_staging_stats(int shard) const {
  const Shard& s = *shards_[static_cast<size_t>(shard)];
  ReaderMutexLock lock(s.mu);
  return s.file->staging_stats();
}

BufferPool::Stats ShardedDenseFile::cache_stats() const {
  BufferPool::Stats total;
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(shard->mu);
    total += shard->file->cache_stats();
  }
  return total;
}

StatusOr<int64_t> ShardedDenseFile::DeleteRange(Key lo, Key hi) {
  if (lo > hi) return static_cast<int64_t>(0);
  int64_t removed = 0;
  const int first = ShardOf(lo);
  const int last = ShardOf(hi);
  // Every affected shard stays locked exclusive until the whole range is
  // deleted. Before this, shards were tombstoned one lock at a time, so
  // a concurrent Scan over the same range (or even a single-threaded
  // interleaving via the piggybacked drain) could observe a half-deleted
  // prefix; now a scan orders entirely before or after the range op.
  MultiShardLock lock(shards_, first, last, /*exclusive=*/true);
  for (int i = first; i <= last; ++i) {
    Shard& shard = *shards_[static_cast<size_t>(i)];
    StatusOr<int64_t> part = shard.held_file()->DeleteRange(lo, hi);
    if (!part.ok()) return part.status();
    removed += *part;
  }
  return removed;
}

Status ShardedDenseFile::InsertBatch(const std::vector<Record>& records) {
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i - 1].key >= records[i].key) {
      return Status::InvalidArgument(
          "batch records must be strictly ascending by key");
    }
  }
  // Ascending records route to ascending shards: each shard's share is a
  // contiguous slice ending where keys reach its upper bound.
  size_t begin = 0;
  for (int i = 0; i < num_shards() && begin < records.size(); ++i) {
    size_t end = records.size();
    if (i < num_shards() - 1) {
      end = static_cast<size_t>(
          std::lower_bound(records.begin() + static_cast<int64_t>(begin),
                           records.end(), Record{ShardUpperBound(i), 0},
                           RecordKeyLess) -
          records.begin());
    }
    if (end > begin) {
      // Ascent was validated once above, so each shard takes its slice
      // through the sorted fast path — a pointer range straight into the
      // caller's vector, no defensive copy and no re-validation.
      Shard& shard = *shards_[static_cast<size_t>(i)];
      WriterMutexLock lock(shard.mu);
      DSF_RETURN_IF_ERROR(
          shard.file->InsertBatchSorted(records.data() + begin,
                                        records.data() + end));
    }
    begin = end;
  }
  return Status::OK();
}

Status ShardedDenseFile::BulkLoad(const std::vector<Record>& records) {
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i - 1].key >= records[i].key) {
      return Status::InvalidArgument(
          "bulk load records must be strictly ascending by key");
    }
  }
  size_t begin = 0;
  for (int i = 0; i < num_shards(); ++i) {
    size_t end = records.size();
    if (i < num_shards() - 1) {
      end = static_cast<size_t>(
          std::lower_bound(records.begin() + static_cast<int64_t>(begin),
                           records.end(), Record{ShardUpperBound(i), 0},
                           RecordKeyLess) -
          records.begin());
    }
    const std::vector<Record> slice(
        records.begin() + static_cast<int64_t>(begin),
        records.begin() + static_cast<int64_t>(end));
    Shard& shard = *shards_[static_cast<size_t>(i)];
    WriterMutexLock lock(shard.mu);
    DSF_RETURN_IF_ERROR(shard.file->BulkLoad(slice));
    begin = end;
  }
  return Status::OK();
}

Status ShardedDenseFile::Compact() {
  for (const auto& shard : shards_) {
    WriterMutexLock lock(shard->mu);
    DSF_RETURN_IF_ERROR(shard->file->Compact());
  }
  return Status::OK();
}

Status ShardedDenseFile::ValidateInvariants() const {
  for (int i = 0; i < num_shards(); ++i) {
    const Shard& shard = *shards_[static_cast<size_t>(i)];
    WriterMutexLock lock(shard.mu);
    DSF_RETURN_IF_ERROR(shard.file->ValidateInvariants());
    // Routing invariant also covers the staging buffer: a staged key
    // that drains into a foreign range would break the global order.
    const Memtable* staging = shard.file->staging();
    if (staging != nullptr && !staging->empty()) {
      const Key staged_min = staging->entries().front().record.key;
      const Key staged_max = staging->entries().back().record.key;
      if (staged_min < ShardLowerBound(i) ||
          (i < num_shards() - 1 && staged_max >= ShardUpperBound(i))) {
        return Status::Corruption("shard " + std::to_string(i) +
                                  " staged keys outside its routed range");
      }
    }
    // Routing invariant: every stored key lies in the shard's range.
    const Calibrator& cal = shard.file->control().calibrator();
    if (cal.TotalRecords() == 0) continue;
    const Key min_key = cal.MinKeyOf(cal.root());
    const Key max_key = cal.MaxKeyOf(cal.root());
    if (min_key < ShardLowerBound(i) ||
        (i < num_shards() - 1 && max_key >= ShardUpperBound(i))) {
      return Status::Corruption("shard " + std::to_string(i) +
                                " holds keys outside its routed range");
    }
  }
  return Status::OK();
}

AuditReport ShardedDenseFile::Audit() const {
  AuditReport report;
  for (int i = 0; i < num_shards(); ++i) {
    const Shard& shard = *shards_[static_cast<size_t>(i)];
    WriterMutexLock lock(shard.mu);
    report.Merge(shard.file->Audit(), i);
    // Staged keys obey the same routing boundary as durable ones.
    const Memtable* staging = shard.file->staging();
    if (staging != nullptr && !staging->empty()) {
      ++report.checks_run;
      const Key staged_min = staging->entries().front().record.key;
      const Key staged_max = staging->entries().back().record.key;
      if (staged_min < ShardLowerBound(i) ||
          (i < num_shards() - 1 && staged_max >= ShardUpperBound(i))) {
        AuditViolation v;
        v.kind = AuditViolationKind::kShardBoundaryViolation;
        v.shard = i;
        v.detail = "staged keys [" + std::to_string(staged_min) + "," +
                   std::to_string(staged_max) + "] outside routed range [" +
                   std::to_string(ShardLowerBound(i)) + "," +
                   std::to_string(ShardUpperBound(i)) + ")";
        report.violations.push_back(std::move(v));
      }
    }
    // Boundary disjointness: the shard's whole key range (root fences)
    // must sit inside [ShardLowerBound, ShardUpperBound) — ranges of
    // distinct shards cannot overlap.
    ++report.checks_run;
    const Calibrator& cal = shard.file->control().calibrator();
    if (cal.TotalRecords() == 0) continue;
    const Key min_key = cal.MinKeyOf(cal.root());
    const Key max_key = cal.MaxKeyOf(cal.root());
    if (min_key < ShardLowerBound(i) ||
        (i < num_shards() - 1 && max_key >= ShardUpperBound(i))) {
      AuditViolation v;
      v.kind = AuditViolationKind::kShardBoundaryViolation;
      v.shard = i;
      v.detail = "keys [" + std::to_string(min_key) + "," +
                 std::to_string(max_key) + "] outside routed range [" +
                 std::to_string(ShardLowerBound(i)) + "," +
                 std::to_string(ShardUpperBound(i)) + ")";
      report.violations.push_back(std::move(v));
    }
  }
  return report;
}

int64_t ShardedDenseFile::size() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(shard->mu);
    total += shard->file->size();
  }
  return total;
}

int64_t ShardedDenseFile::capacity() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    // Capacity is immutable, but the guarded file pointer is reached
    // under the lock so the access stays analyzable (and uncontended
    // lock acquisition is trivially cheap on this cold path).
    ReaderMutexLock lock(shard->mu);
    total += shard->file->capacity();
  }
  return total;
}

IoStats ShardedDenseFile::io_stats() const {
  IoStats total;
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(shard->mu);
    total += shard->file->io_stats();
  }
  return total;
}

CommandStats ShardedDenseFile::command_stats() const {
  CommandStats total;
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(shard->mu);
    const CommandStats& s = shard->file->command_stats();
    total.commands += s.commands;
    total.total_accesses += s.total_accesses;
    total.max_command_accesses =
        std::max(total.max_command_accesses, s.max_command_accesses);
  }
  return total;
}

void ShardedDenseFile::SetAccessLatency(std::chrono::nanoseconds latency) {
  for (const auto& shard : shards_) {
    WriterMutexLock lock(shard->mu);
    shard->file->control().file().set_access_latency(latency);
  }
}

void ShardedDenseFile::SetDiskModel(const DiskModel& model, bool sleep) {
  for (const auto& shard : shards_) {
    WriterMutexLock lock(shard->mu);
    shard->file->control().file().set_disk_model(model, sleep);
  }
}

void ShardedDenseFile::PublishMetrics() const {
  MetricsRegistry* registry = options_.shard.metrics;
  if (registry == nullptr) return;
  int64_t total = 0;
  int64_t heaviest = 0;
  for (int i = 0; i < num_shards(); ++i) {
    const int64_t n = shard_size(i);
    registry->FindOrCreateGauge(kMetricShardRecords, ShardLabel(i))->Set(n);
    total += n;
    heaviest = std::max(heaviest, n);
  }
  // 1000 * (most loaded / mean); an empty file reads as balanced.
  const int64_t imbalance =
      total == 0 ? 1000
                 : heaviest * 1000 * static_cast<int64_t>(num_shards()) /
                       total;
  registry->FindOrCreateGauge(kMetricShardImbalance)->Set(imbalance);
}

void ShardedDenseFile::ResetStats() {
  for (const auto& shard : shards_) {
    WriterMutexLock lock(shard->mu);
    shard->file->ResetIoStats();
    shard->file->ResetCommandStats();
  }
}

IoStats ShardedDenseFile::shard_io_stats(int shard) const {
  const Shard& s = *shards_[static_cast<size_t>(shard)];
  ReaderMutexLock lock(s.mu);
  return s.file->io_stats();
}

CommandStats ShardedDenseFile::shard_command_stats(int shard) const {
  const Shard& s = *shards_[static_cast<size_t>(shard)];
  ReaderMutexLock lock(s.mu);
  return s.file->command_stats();
}

int64_t ShardedDenseFile::shard_size(int shard) const {
  const Shard& s = *shards_[static_cast<size_t>(shard)];
  ReaderMutexLock lock(s.mu);
  return s.file->size();
}

Status ShardedDenseFile::ResizeShardCache(int shard, int64_t frames) {
  Shard& s = *shards_[static_cast<size_t>(shard)];
  WriterMutexLock lock(s.mu);
  return s.file->ResizeCache(frames);
}

int64_t ShardedDenseFile::shard_cache_frames(int shard) const {
  const Shard& s = *shards_[static_cast<size_t>(shard)];
  ReaderMutexLock lock(s.mu);
  return s.file->cache_frames();
}

int64_t ShardedDenseFile::shard_drain_batch(int shard) const {
  const Shard& s = *shards_[static_cast<size_t>(shard)];
  ReaderMutexLock lock(s.mu);
  return s.file->drain_batch();
}

int64_t ShardedDenseFile::shard_staging_capacity(int shard) const {
  const Shard& s = *shards_[static_cast<size_t>(shard)];
  ReaderMutexLock lock(s.mu);
  return s.file->staging() == nullptr ? 0 : s.file->staging()->capacity();
}

int64_t ShardedDenseFile::shard_maintenance_j(int shard) const {
  const Shard& s = *shards_[static_cast<size_t>(shard)];
  ReaderMutexLock lock(s.mu);
  return s.file->maintenance_j();
}

}  // namespace dsf
