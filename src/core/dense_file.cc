#include "core/dense_file.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "analysis/auditor.h"
#include "core/control1.h"
#include "core/control2.h"
#include "core/local_shift.h"
#include "obs/metric_names.h"
#include "util/math.h"

namespace dsf {

StatusOr<int64_t> DenseFile::AutoBlockSize(int64_t num_pages, int64_t d,
                                           int64_t D) {
  if (num_pages < 1 || d < 1 || D <= d) {
    return Status::InvalidArgument("need num_pages >= 1 and 1 <= d < D");
  }
  for (int64_t k = 1; k <= num_pages; ++k) {
    if (num_pages % k != 0) continue;
    const int64_t blocks = num_pages / k;
    const int64_t L = std::max<int64_t>(1, CeilLog2(blocks));
    if (k * (D - d) > 3 * L) return k;
  }
  return Status::InvalidArgument(
      "no divisor of num_pages satisfies K*(D-d) > 3*ceil(log(M/K))");
}

StatusOr<std::unique_ptr<DenseFile>> DenseFile::Create(
    const Options& options) {
  int64_t block_size = options.block_size;
  if (block_size == 0) {
    if (options.policy == Policy::kLocalShift) {
      block_size = 1;  // needs no gap condition, hence no macro-blocks
    } else {
      StatusOr<int64_t> k =
          AutoBlockSize(options.num_pages, options.d, options.D);
      if (!k.ok()) return k.status();
      block_size = *k;
    }
  }
  ControlBase::Config config;
  config.num_pages = options.num_pages;
  config.d = options.d;
  config.D = options.D;
  config.block_size = block_size;
  config.smart_placement = options.smart_placement;
  if (options.cache_frames < 0) {
    return Status::InvalidArgument("cache_frames must be >= 0");
  }
  config.cache_frames = options.cache_frames;
  config.cache_eviction = options.cache_eviction;
  if (options.staging_entries < 0 || options.staging_bytes < 0 ||
      options.drain_batch < 0) {
    return Status::InvalidArgument(
        "staging_entries / staging_bytes / drain_batch must be >= 0");
  }

  // The device exists before the page file does, so a durable file
  // never allocates an in-memory page image.
  config.backend_factory = options.backend_factory;

  std::unique_ptr<ControlBase> control;
  // CONTROL 2's resolved J, captured for the bound certifier; 0 for the
  // other policies (they are certified against the CONTROL 2 envelope at
  // the recommended J for the same geometry).
  int64_t control2_j = 0;
  switch (options.policy) {
    case Policy::kControl1: {
      StatusOr<std::unique_ptr<Control1>> c =
          Control1::Create(config);
      if (!c.ok()) return c.status();
      control = std::move(*c);
      break;
    }
    case Policy::kControl2: {
      Control2::Options c2;
      c2.config = config;
      c2.J = options.J;
      StatusOr<std::unique_ptr<Control2>> c =
          Control2::Create(c2);
      if (!c.ok()) return c.status();
      control2_j = (*c)->J();
      control = std::move(*c);
      break;
    }
    case Policy::kLocalShift: {
      StatusOr<std::unique_ptr<LocalShift>> c =
          LocalShift::Create(config);
      if (!c.ok()) return c.status();
      control = std::move(*c);
      break;
    }
  }
  Options resolved = options;
  resolved.block_size = block_size;
  std::unique_ptr<DenseFile> file(
      new DenseFile(resolved, std::move(control)));
  // The J the Theorem-5.7 envelope is evaluated at — shared by the bound
  // certifier and the drain scheduler's step budget, and retunable later
  // through SetMaintenanceJ (never below this resolved default).
  file->certified_j_ =
      control2_j > 0 ? control2_j
                     : file->control_->logical_spec().RecommendedJ(
                           Control2::kDefaultJSafety);
  file->default_j_ = file->certified_j_;
  if (options.certify_bound) {
    file->certifier_ = std::make_unique<BoundCertifier>(
        options.num_pages, options.d, options.D, block_size,
        file->certified_j_);
  }
  if (options.staging_entries > 0 || options.staging_bytes > 0) {
    Memtable::Options staging;
    staging.max_entries = options.staging_entries;
    staging.max_bytes = options.staging_bytes;
    file->staging_ = std::make_unique<Memtable>(staging);
    file->drain_batch_override_ = options.drain_batch;
  }
  file->SyncTuningDerivedState(/*recalibrate=*/false);
  if (options.metrics != nullptr || options.tracer != nullptr ||
      file->certifier_ != nullptr) {
    file->control_->SetObservability(options.metrics, options.tracer,
                                     file->certifier_.get(),
                                     options.metrics_label);
  }
  if (options.metrics != nullptr && file->staging_ != nullptr) {
    MetricsRegistry& reg = *options.metrics;
    const std::string& label = options.metrics_label;
    file->m_staging_puts_ = reg.FindOrCreateCounter(kMetricStagingPuts, label);
    file->m_staging_hits_ = reg.FindOrCreateCounter(kMetricStagingHits, label);
    file->m_staging_annihilations_ =
        reg.FindOrCreateCounter(kMetricStagingAnnihilations, label);
    file->m_staging_drain_steps_ =
        reg.FindOrCreateCounter(kMetricStagingDrainSteps, label);
    file->m_staging_drained_ =
        reg.FindOrCreateCounter(kMetricStagingDrainedEntries, label);
    file->m_staging_entries_ =
        reg.FindOrCreateGauge(kMetricStagingEntries, label);
  }
  return file;
}

StatusOr<Value> DenseFile::Get(Key key) const {
  if (staging_ != nullptr) {
    const StagedEntry* entry = staging_->Find(key);
    if (entry != nullptr) {
      BumpHit();
      if (entry->kind == StagedEntry::Kind::kTombstone) {
        return Status::NotFound("key absent");
      }
      return entry->record.value;
    }
  }
  StatusOr<Record> r = control_->Get(key);
  if (!r.ok()) return r.status();
  return r->value;
}

bool DenseFile::Contains(Key key) const {
  if (staging_ != nullptr) {
    const StagedEntry* entry = staging_->Find(key);
    if (entry != nullptr) {
      BumpHit();
      return entry->kind != StagedEntry::Kind::kTombstone;
    }
  }
  return control_->Contains(key);
}

Status DenseFile::Scan(Key lo, Key hi, std::vector<Record>* out) const {
  if (staging_ == nullptr || staging_->empty()) {
    return control_->Scan(lo, hi, out);
  }
  if (lo > hi) return Status::OK();
  std::vector<Record> file_part;
  DSF_RETURN_IF_ERROR(control_->Scan(lo, hi, &file_part));
  const std::vector<StagedEntry>& entries = staging_->entries();
  size_t oi = static_cast<size_t>(staging_->LowerBound(lo));
  size_t fi = 0;
  int64_t consulted = 0;
  out->reserve(out->size() + file_part.size() +
               (entries.size() - oi));  // inserts can only add
  while (true) {
    const bool overlay_ok =
        oi < entries.size() && entries[oi].record.key <= hi;
    const bool file_ok = fi < file_part.size();
    if (!overlay_ok && !file_ok) break;
    if (!overlay_ok ||
        (file_ok && file_part[fi].key < entries[oi].record.key)) {
      out->push_back(file_part[fi++]);
      continue;
    }
    const StagedEntry& entry = entries[oi++];
    ++consulted;
    if (file_ok && file_part[fi].key == entry.record.key) ++fi;
    if (entry.kind == StagedEntry::Kind::kTombstone) continue;
    out->push_back(entry.record);
  }
  BumpHit(consulted);
  return Status::OK();
}

StatusOr<std::vector<Record>> DenseFile::ScanAll() const {
  if (staging_ == nullptr || staging_->empty()) return control_->ScanAll();
  std::vector<Record> out;
  DSF_RETURN_IF_ERROR(Scan(0, std::numeric_limits<Key>::max(), &out));
  return out;
}

Cursor DenseFile::NewCursor(Key start) const {
  Cursor cursor = [&]() -> Cursor {
    if (staging_ == nullptr || staging_->empty()) {
      return control_->NewCursor(start);
    }
    const std::vector<StagedEntry>& entries = staging_->entries();
    std::vector<StagedEntry> overlay(
        entries.begin() + staging_->LowerBound(start), entries.end());
    return Cursor(control_.get(), start, std::move(overlay));
  }();
  // Register the cursor so piggyback drains suspend until it dies — a
  // drain's SHIFTs can push records forward across the cursor's block
  // frontier, double-visiting them (see the NewCursor contract in
  // dense_file.h and the regression in tests/cursor_range_test.cc).
  live_cursors_.fetch_add(1, std::memory_order_acq_rel);
  cursor.live_counter_ = &live_cursors_;
  return cursor;
}

bool DenseFile::TryEpochGet(Key key, Value* value) const {
  BufferPool* pool = control_->pool();
  if (pool == nullptr) return false;
  // A staged tombstone/update must shadow the durable twin; that merge
  // needs the locked view, so any observable staging occupancy forces
  // the fallback (zero concurrent with a writer's very first stage is
  // fine — the lookup linearizes before that incomplete command).
  if (staging_size_relaxed() != 0) return false;
  Record r{0, 0};
  if (!pool->TryEpochGet(key, &r)) return false;
  *value = r.value;
  return true;
}

AuditReport DenseFile::Audit() const {
  AuditReport report = Auditor::AuditControl(*control_);
  if (staging_ != nullptr) {
    report.Merge(Auditor::AuditStaging(*staging_, *control_), -1);
  }
  return report;
}

Status DenseFile::ValidateInvariants() const {
  DSF_RETURN_IF_ERROR(control_->ValidateInvariants());
  if (staging_ != nullptr) {
    DSF_RETURN_IF_ERROR(staging_->ValidateOrder());
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<DenseFile>> DenseFile::Open(const Options& options) {
  if (options.backend_factory == nullptr) {
    return Status::InvalidArgument(
        "DenseFile::Open needs a backend_factory (use Create for a pure "
        "in-memory file)");
  }
  StatusOr<std::unique_ptr<DenseFile>> file_or = Create(options);
  DSF_RETURN_IF_ERROR(file_or.status());
  std::unique_ptr<DenseFile> file = std::move(file_or).value();
  // Create put the device behind the page file; the calibrator and
  // warning state are still empty. The repair pass reads every page once
  // to rebuild them and fixes crash damage — including quarantining
  // slots that failed their checksum (recorded in
  // corrupt_pages_at_open()).
  StatusOr<RepairReport> report = file->CheckAndRepair();
  DSF_RETURN_IF_ERROR(report.status());
  file->open_repair_report_ = *report;
  return file;
}

namespace {

// The device failed the command: an access failed (kIoError) or a slot
// failed its integrity check (kCorruption).
bool IsDeviceFault(const Status& s) {
  return s.IsIoError() || s.IsCorruption();
}

}  // namespace

Status DenseFile::MaybeAudit(Status s) const {
  if (!options_.audit_every_command) return s;
  // A command that died on a device fault (or ran out of pool frames
  // mid-flight) leaves the file legitimately out of invariants until
  // CheckAndRepair; auditing that state would report the fault's damage
  // as corruption. Every other outcome — success or a user-level
  // rejection — must leave a fully consistent file.
  if (IsDeviceFault(s) || s.IsResourceExhausted()) return s;
  const Status audit = Audit().ToStatus();
  if (!audit.ok() && s.ok()) return audit;
  return s;
}

Status DenseFile::Insert(const Record& record) {
  if (staging_ == nullptr) return MaybeAudit(control_->Insert(record));
  Status s = StageInsert(record);
  if (!IsDeviceFault(s)) {
    // Piggyback: every command pays a slice of the drain debt (a
    // rejected stage still triggers it — the buffer is just as full).
    const Status drain = MaybeDrain();
    if (s.ok() && !drain.ok()) s = drain;
  }
  return MaybeAudit(s);
}

Status DenseFile::Delete(Key key) {
  if (staging_ == nullptr) return MaybeAudit(control_->Delete(key));
  Status s = StageDelete(key);
  if (!IsDeviceFault(s)) {
    const Status drain = MaybeDrain();
    if (s.ok() && !drain.ok()) s = drain;
  }
  return MaybeAudit(s);
}

Status DenseFile::StageInsert(const Record& record) {
  // Same rejection order as the un-staged command (and ReferenceModel):
  // capacity first, then duplicate — against the *merged* view.
  if (size() >= capacity()) {
    return Status::CapacityExceeded("file already holds N = d*M records");
  }
  const StagedEntry* entry = staging_->Find(record.key);
  if (entry != nullptr) {
    if (entry->kind == StagedEntry::Kind::kTombstone) {
      // Insert over a pending delete of a durable record: the net effect
      // is a value replacement — an update of the durable twin.
      staging_->Reassign(record.key, record, StagedEntry::Kind::kUpdate);
      BumpPut();
      return Status::OK();
    }
    return Status::AlreadyExists("key already present");
  }
  // One accounted probe classifies the key against the durable file —
  // what keeps the entry-kind invariants honest (kInsert ⇔ absent).
  StatusOr<Record> durable = control_->Get(record.key);
  if (!durable.ok() && !durable.status().IsNotFound()) {
    return durable.status();  // device fault mid-probe
  }
  if (durable.ok()) return Status::AlreadyExists("key already present");
  DSF_RETURN_IF_ERROR(EnsureStagingRoom());
  DSF_RETURN_IF_ERROR(staging_->Add(record, StagedEntry::Kind::kInsert));
  BumpPut();
  return Status::OK();
}

Status DenseFile::StageDelete(Key key) {
  const StagedEntry* entry = staging_->Find(key);
  if (entry != nullptr) {
    switch (entry->kind) {
      case StagedEntry::Kind::kTombstone:
        return Status::NotFound("key absent");
      case StagedEntry::Kind::kInsert:
        // Annihilation: the staged insert dies in place — this pair of
        // mutations never costs a page access.
        staging_->Erase(key);
        ++staging_stats_.annihilations;
        if (m_staging_annihilations_ != nullptr) {
          m_staging_annihilations_->Increment();
        }
        SyncStagingGauge();
        return Status::OK();
      case StagedEntry::Kind::kUpdate:
        staging_->Reassign(key, Record{key, 0},
                           StagedEntry::Kind::kTombstone);
        BumpPut();
        return Status::OK();
    }
  }
  StatusOr<Record> durable = control_->Get(key);
  if (!durable.ok()) return durable.status();  // NotFound or device fault
  DSF_RETURN_IF_ERROR(EnsureStagingRoom());
  DSF_RETURN_IF_ERROR(
      staging_->Add(Record{key, 0}, StagedEntry::Kind::kTombstone));
  BumpPut();
  return Status::OK();
}

Status DenseFile::MaybeDrain() {
  if (staging_ == nullptr || staging_->size() < drain_trigger_) {
    return Status::OK();
  }
  // Piggyback drains suspend while a cursor is live: draining moves
  // staged entries into the file mid-iteration, and the SHIFTs that
  // placement triggers can push records forward across the cursor's
  // block frontier — the cursor would visit them twice. The buffer
  // simply runs hotter until the cursor dies (EnsureStagingRoom's
  // force drain, on a completely full buffer, still fires).
  if (live_cursors() > 0) return Status::OK();
  return DrainStepInternal();
}

Status DenseFile::EnsureStagingRoom() {
  if (!staging_->full()) return Status::OK();
  DSF_RETURN_IF_ERROR(DrainStepInternal());
  if (staging_->full()) {
    return Status::ResourceExhausted("staging drain freed no room");
  }
  return Status::OK();
}

Status DenseFile::DrainStep() { return MaybeAudit(DrainStepInternal()); }

Status DenseFile::FlushStaging() {
  if (staging_ == nullptr || staging_->empty()) return Status::OK();
  return MaybeAudit(FlushStagingInternal());
}

Status DenseFile::FlushStagingInternal() {
  while (staging_ != nullptr && !staging_->empty()) {
    DSF_RETURN_IF_ERROR(DrainStepInternal());
  }
  // The staging durability point: close the drain window (if one is
  // open) so every drained record actually reaches the device.
  if (control_->flush_deferred()) return control_->EndFlushDeferral();
  return Status::OK();
}

Status DenseFile::DrainStepInternal() {
  if (staging_ == nullptr || staging_->empty()) return Status::OK();
  const IoStats step_start = control_->file().stats();
  // Drain steps run inside one long-lived flush-deferral window: N
  // inserts into the same hot block cost one physical write-back
  // instead of N, and the window spans *across* steps — with staging
  // enabled the durability point is Flush()/FlushStaging(), not the
  // individual step, so closing the window per step would only buy
  // device traffic, not safety. The window closes at
  // FlushStagingInternal (and on cache discard / repair). Each command
  // is still individually certified (EndCommand feeds the certifier
  // the logical delta regardless of deferral).
  if (!control_->flush_deferred()) control_->BeginFlushDeferral();
  Status apply = Status::OK();
  int64_t drained = 0;
  while (drained < drain_batch_ && !staging_->empty()) {
    apply = ApplyStaged(staging_->front());
    if (!apply.ok()) break;  // entry stays staged; retried after repair
    staging_->PopFront();
    ++drained;
    const IoStats so_far = control_->file().stats() - step_start;
    if (so_far.TotalLogical() >= drain_access_budget_) break;
  }
  ++staging_stats_.drain_steps;
  staging_stats_.drained_entries += drained;
  if (m_staging_drain_steps_ != nullptr) m_staging_drain_steps_->Increment();
  if (m_staging_drained_ != nullptr && drained > 0) {
    m_staging_drained_->Increment(drained);
  }
  SyncStagingGauge();
  control_->RecordDrainSpan(drained, staging_->size(),
                            control_->file().stats() - step_start);
  return apply;
}

Status DenseFile::ApplyStaged(const StagedEntry& entry) {
  switch (entry.kind) {
    case StagedEntry::Kind::kInsert: {
      Status s = control_->Insert(entry.record);
      if (s.IsCapacityExceeded()) {
        // The merged-capacity accounting admits file_size + inserts >
        // N = d*M only when tombstones cover the overshoot: apply one to
        // free a durable slot, then retry.
        DSF_RETURN_IF_ERROR(ApplyFirstTombstone());
        s = control_->Insert(entry.record);
      }
      // Already durable: a drain step interrupted after the write but
      // before the pop (transient fault) re-applies on retry.
      if (s.IsAlreadyExists()) return Status::OK();
      // A freshly drained insert was never durability-promised (the
      // point is Flush/FlushStaging): tell the pool so in-window shifts
      // of this record don't pin the write-back order.
      if (s.ok() && control_->pool() != nullptr && control_->flush_deferred()) {
        control_->pool()->NoteVolatile(entry.record.key);
      }
      return s;
    }
    case StagedEntry::Kind::kUpdate: {
      Status s = control_->Delete(entry.record.key);
      if (!s.ok() && !s.IsNotFound()) return s;
      return control_->Insert(entry.record);
    }
    case StagedEntry::Kind::kTombstone: {
      const Status s = control_->Delete(entry.record.key);
      if (s.IsNotFound()) return Status::OK();  // interrupted-step replay
      return s;
    }
  }
  return Status::OK();
}

Status DenseFile::ApplyFirstTombstone() {
  for (const StagedEntry& entry : staging_->entries()) {
    if (entry.kind != StagedEntry::Kind::kTombstone) continue;
    const Key key = entry.record.key;
    const Status s = control_->Delete(key);
    if (!s.ok() && !s.IsNotFound()) return s;
    staging_->Erase(key);
    ++staging_stats_.drained_entries;
    if (m_staging_drained_ != nullptr) m_staging_drained_->Increment();
    return Status::OK();
  }
  return Status::Corruption(
      "file at capacity during drain with no staged tombstone");
}

void DenseFile::DiscardStaging() {
  if (staging_ == nullptr) return;
  staging_->Clear();
  SyncStagingGauge();
}

void DenseFile::ReconcileStagingWithFile() {
  std::vector<Key> drop;
  std::vector<Key> demote;  // kUpdate whose delete half committed
  for (const StagedEntry& entry : staging_->entries()) {
    const bool durable = control_->PeekContains(entry.record.key);
    switch (entry.kind) {
      case StagedEntry::Kind::kInsert:
        // The interrupted step committed it (staged and durable values
        // are the same write).
        if (durable) drop.push_back(entry.record.key);
        break;
      case StagedEntry::Kind::kUpdate:
        if (!durable) demote.push_back(entry.record.key);
        break;
      case StagedEntry::Kind::kTombstone:
        if (!durable) drop.push_back(entry.record.key);
        break;
    }
  }
  for (const Key key : drop) staging_->Erase(key);
  for (const Key key : demote) {
    const StagedEntry* entry = staging_->Find(key);
    staging_->Reassign(key, entry->record, StagedEntry::Kind::kInsert);
  }
  SyncStagingGauge();
}

StagingStats DenseFile::staging_stats() const {
  StagingStats stats = staging_stats_;
  stats.hits = staging_hits_.load(std::memory_order_relaxed);
  stats.entries = staging_size();
  if (staging_ != nullptr) stats.capacity = staging_->capacity();
  return stats;
}

void DenseFile::BumpPut() {
  ++staging_stats_.puts;
  if (m_staging_puts_ != nullptr) m_staging_puts_->Increment();
  SyncStagingGauge();
}

void DenseFile::BumpHit(int64_t n) const {
  if (n <= 0) return;
  // Relaxed atomic: concurrent shared-lock readers hit the staging
  // buffer simultaneously; each increment stays exact.
  staging_hits_.fetch_add(n, std::memory_order_relaxed);
  if (m_staging_hits_ != nullptr) m_staging_hits_->Increment(n);
}

void DenseFile::SyncStagingGauge() {
  staging_stats_.entries = staging_ == nullptr ? 0 : staging_->size();
  // Release-publish the occupancy for lock-free epoch-read gating
  // (staging_size_relaxed); every staging mutation path ends here.
  staging_gauge_.store(staging_stats_.entries, std::memory_order_release);
  if (m_staging_entries_ != nullptr) {
    m_staging_entries_->Set(staging_stats_.entries);
  }
}

StatusOr<int64_t> DenseFile::DeleteRange(Key lo, Key hi) {
  if (staging_ == nullptr) {
    StatusOr<int64_t> n = control_->DeleteRange(lo, hi);
    const Status audited = MaybeAudit(n.ok() ? Status::OK() : n.status());
    if (!audited.ok()) return audited;
    return n;
  }
  if (lo > hi) return static_cast<int64_t>(0);
  // Resolve the staged side first: inserts in range die in place without
  // a page access, updates collapse into the durable deletion below, and
  // tombstoned records were never visible (the durable delete of their
  // twin must not be counted).
  int64_t staged_inserts = 0;
  int64_t staged_tombstones = 0;
  std::vector<Key> doomed;
  const std::vector<StagedEntry>& entries = staging_->entries();
  for (int64_t i = staging_->LowerBound(lo);
       i < staging_->size() &&
       entries[static_cast<size_t>(i)].record.key <= hi;
       ++i) {
    const StagedEntry& entry = entries[static_cast<size_t>(i)];
    doomed.push_back(entry.record.key);
    if (entry.kind == StagedEntry::Kind::kInsert) ++staged_inserts;
    if (entry.kind == StagedEntry::Kind::kTombstone) ++staged_tombstones;
  }
  for (const Key key : doomed) staging_->Erase(key);
  if (!doomed.empty()) SyncStagingGauge();
  StatusOr<int64_t> n = control_->DeleteRange(lo, hi);
  Status s = n.ok() ? Status::OK() : n.status();
  if (s.ok()) {
    const Status drain = MaybeDrain();
    if (!drain.ok()) s = drain;
  }
  const Status audited = MaybeAudit(s);
  if (!audited.ok()) return audited;
  return *n + staged_inserts - staged_tombstones;
}

Status DenseFile::InsertBatch(const std::vector<Record>& records) {
  if (staging_ != nullptr) DSF_RETURN_IF_ERROR(FlushStagingInternal());
  return MaybeAudit(control_->InsertBatch(records));
}

Status DenseFile::InsertBatchSorted(const Record* begin, const Record* end) {
  if (staging_ != nullptr) DSF_RETURN_IF_ERROR(FlushStagingInternal());
  return MaybeAudit(control_->InsertBatchSorted(begin, end));
}

Status DenseFile::Compact() {
  Status s = MaybeAudit(control_->Compact());
  // A wholesale reorganization is a (re-)calibration point: recompute
  // the certifier envelope from the live (K, J) rather than trusting the
  // open-time values — the invariant is that the budget being enforced
  // always matches the state the commands actually run against.
  if (s.ok()) SyncTuningDerivedState(/*recalibrate=*/true);
  return s;
}

void DenseFile::SyncTuningDerivedState(bool recalibrate) {
  const int64_t k = control_->block_size();
  // Per-step drain budget = the per-command envelope K*(4J+2): a step
  // never asks for more logical accesses than the worst single command
  // is allowed (soft cap: the command that crosses the line completes
  // and is still individually certified). The auto batch divides the
  // budget by 4K — roughly J typical inserts (read + write + a SHIFT
  // cycle's traffic each) per step.
  drain_access_budget_ = BoundCertifier::BudgetFor(k, certified_j_);
  if (staging_ != nullptr) {
    drain_batch_ = drain_batch_override_ > 0
                       ? drain_batch_override_
                       : std::max<int64_t>(4, drain_access_budget_ / (4 * k));
    drain_trigger_ = std::max(drain_batch_, staging_->capacity() / 2);
  }
  if (recalibrate && certifier_ != nullptr) {
    certifier_->Recalibrate(k, certified_j_);
  }
}

Status DenseFile::SetMaintenanceJ(int64_t j) {
  if (options_.policy != Policy::kControl2) {
    return Status::InvalidArgument("maintenance J is a CONTROL 2 knob; " +
                                   control_->Name() + " has no J");
  }
  if (j < default_j_) {
    return Status::InvalidArgument(
        "J=" + std::to_string(j) + " below the resolved default " +
        std::to_string(default_j_) + " (Theorem 5.5's floor)");
  }
  static_cast<Control2*>(control_.get())->SetMaintenanceJ(j);
  certified_j_ = j;
  SyncTuningDerivedState(/*recalibrate=*/true);
  return Status::OK();
}

void DenseFile::SetDrainBatch(int64_t batch) {
  if (staging_ == nullptr) return;
  drain_batch_override_ = batch > 0 ? batch : 0;
  SyncTuningDerivedState(/*recalibrate=*/false);
}

int64_t DenseFile::SetStagingCapacity(int64_t entries) {
  if (staging_ == nullptr) return 0;
  const int64_t installed = staging_->SetCapacity(entries);
  SyncTuningDerivedState(/*recalibrate=*/false);
  return installed;
}

Status DenseFile::ResizeCache(int64_t new_frames) {
  if (control_->pool() == nullptr) {
    return Status::FailedPrecondition(
        "cache resize on a file opened without a buffer pool");
  }
  return control_->pool()->Resize(new_frames);
}

Status DenseFile::BulkLoad(const std::vector<Record>& records) {
  // A load replaces the file's contents wholesale; staged mutations
  // against the old contents are meaningless afterwards.
  DiscardStaging();
  return MaybeAudit(control_->BulkLoad(records));
}

Status DenseFile::Flush() {
  if (staging_ != nullptr) DSF_RETURN_IF_ERROR(FlushStagingInternal());
  return control_->Flush();
}

StatusOr<RepairReport> DenseFile::CheckAndRepair() {
  StatusOr<RepairReport> report = control_->CheckAndRepair();
  if (!report.ok()) return report;
  // An interrupted drain step may have committed a staged prefix (or the
  // delete half of an update); re-classify what is still staged against
  // the repaired file so the kind invariants hold before the audit.
  if (staging_ != nullptr) ReconcileStagingWithFile();
  // Post-repair state must be auditor-certified, not merely
  // ValidateInvariants-clean (the repair path already guarantees the
  // latter).
  const Status audited = MaybeAudit(Status::OK());
  if (!audited.ok()) return audited;
  return report;
}

}  // namespace dsf
