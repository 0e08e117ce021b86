// DenseFile — the public entry point of libdsf.
//
// A (d,D)-dense sequential file over M pages: at most d*M records total,
// at most D records per page, all records in ascending key order across
// consecutive page addresses. Point updates are maintained by Willard's
// CONTROL 2 (worst-case O(log^2 M / (D-d)) page accesses per command) or,
// optionally, by the amortized CONTROL 1.
//
// Quick start:
//
//   dsf::DenseFile::Options options;
//   options.num_pages = 1024;   // M
//   options.d = 16;             // min headroom: file holds <= d*M records
//   options.D = 64;             // page capacity
//   auto file = dsf::DenseFile::Create(options).value();
//   file->Insert(42, 420).ok();
//   std::vector<dsf::Record> out;
//   file->Scan(0, 100, &out).ok();          // stream retrieval, in order
//   file->io_stats().page_reads;            // accounted page accesses
//
// When D - d <= 3*ceil(log M) the gap condition (5.1) fails; Create()
// automatically selects a macro-block size K per Theorem 5.7 (or honors an
// explicit Options::block_size).

#ifndef DSF_CORE_DENSE_FILE_H_
#define DSF_CORE_DENSE_FILE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/control_base.h"
#include "ingest/memtable.h"
#include "util/status.h"

namespace dsf {

struct AuditReport;

class DenseFile {
 public:
  enum class Policy {
    kControl2,    // worst-case maintenance (the paper's contribution)
    kControl1,    // amortized maintenance (Section 3 baseline)
    kLocalShift,  // padded-list neighbor shifting: expected O(1) under
                  // uniform updates ([Fr79]/[HKW86]), worst-case O(M)
  };

  struct Options {
    int64_t num_pages = 0;  // M
    int64_t d = 0;          // density floor parameter (capacity = d*M)
    int64_t D = 0;          // page capacity
    Policy policy = Policy::kControl2;
    // SHIFT cycles per command for CONTROL 2; 0 = recommended default.
    int64_t J = 0;
    // Macro-block size K; 0 = choose automatically (1 when the gap
    // condition D-d > 3*ceil(log(M/K)) already holds).
    int64_t block_size = 0;
    // Non-paper insert placement heuristic (see ControlBase::Config).
    bool smart_placement = false;
    // Buffer-pool frames between the algorithms and the device; 0 (the
    // default) disables caching entirely. With a pool, io_stats() splits
    // into logical (requested) and physical (device) accesses, reads hit
    // resident pages for free, and dirty pages are flushed in crash-safe
    // order at the end of each command. See docs/CACHING.md.
    int64_t cache_frames = 0;
    BufferPool::Eviction cache_eviction = BufferPool::Eviction::kClock;
    // Run the full invariant auditor (analysis/auditor.h) after every
    // mutating command that completed without a device fault, surfacing
    // any violation as a Corruption status. O(M) per command — a test
    // and fuzzing harness, not a production setting.
    bool audit_every_command = false;

    // --- Ingest staging (src/ingest/; see docs/INGEST.md) ---
    // Mount a sorted in-memory staging buffer (memtable) in front of the
    // file: point writes land there in zero page accesses and a bounded
    // drain scheduler moves them into the file through ordinary certified
    // commands, one deferred pool flush per step. Reads see the merged
    // view. 0 (default) disables staging entirely. Staged entries are
    // volatile until drained — call FlushStaging() for durability points.
    int64_t staging_entries = 0;
    // Byte-denominated alternative budget (entries * sizeof(StagedEntry));
    // the effective capacity is the smaller of the two set budgets.
    // ShardedDenseFile splits its staging_bytes across shards into this.
    int64_t staging_bytes = 0;
    // Max staged entries applied per drain step; 0 = auto-size so a step
    // of typical inserts stays inside the CONTROL 2 per-command budget
    // K*(4J+2) (the step also stops early when its logical accesses reach
    // that budget — see docs/INGEST.md for the math).
    int64_t drain_batch = 0;

    // --- Durable storage (src/storage/; see docs/STORAGE.md) ---
    // Factory for the durable device behind the page file, called once
    // at Create with the file's physical geometry (num_pages, page
    // capacity D+1). The device holds the pages — no in-memory image is
    // kept besides the pool's frames — so every device write is
    // persisted in crash-safe order and fdatasync barriers fire at the
    // documented durability points. Null (the default) keeps the file a
    // pure in-memory simulation. Use FileBackend::CreateFactory for a
    // fresh file pair and DenseFile::Open + FileBackend::OpenFactory to
    // reopen one.
    StorageBackendFactory backend_factory;

    // --- Observability (src/obs/; see docs/OBSERVABILITY.md) ---
    // Registry the file publishes its metrics into (commands, per-command
    // access/latency histograms, SHIFT/activation counters, pool hit
    // rates). Null (default) compiles the instrumentation down to cached
    // null-handle checks: IoStats stay byte-identical to an
    // uninstrumented run. The registry must outlive the file.
    MetricsRegistry* metrics = nullptr;
    // Span tracer recording each command's internal phases (SHIFT /
    // SELECT / ACTIVATE / redistribution / flush) with per-phase IoStats
    // deltas. Null disables tracing. Must outlive the file.
    CommandTracer* tracer = nullptr;
    // Attach a live BoundCertifier checking every point command against
    // the Theorem-5.7 access budget K*(4J+2) (see obs/bound_certifier.h).
    // For CONTROL 2 the budget uses the file's resolved J; for other
    // policies the CONTROL 2 envelope at the same geometry — the
    // deamortization comparison bench/obs_certify.cc records.
    bool certify_bound = false;
    // Optional `key="value"` label distinguishing this file's metric
    // series (e.g. `shard="3"`); empty for unlabeled series.
    std::string metrics_label;
  };

  // Validates options and builds the file. All pages start empty (with a
  // backend_factory that opens existing data, the device holds it but
  // the in-memory calibrator does not — use Open for that path).
  static StatusOr<std::unique_ptr<DenseFile>> Create(const Options& options);

  // The reopen path: Create with a data-bearing backend (e.g.
  // FileBackend::OpenFactory), then CheckAndRepair to rebuild the
  // calibrator and warning state from the device pages and repair any
  // crash damage (torn-shift duplicates, unreadable pages). Requires
  // options.backend_factory. What the repair pass found is kept on the
  // file: open_repair_report().
  static StatusOr<std::unique_ptr<DenseFile>> Open(const Options& options);

  // Picks the smallest K >= 1 dividing num_pages with
  // K*(D-d) > 3*ceil(log2(num_pages/K)) — Theorem 5.7's macro-block size.
  // Fails if no divisor of num_pages qualifies.
  static StatusOr<int64_t> AutoBlockSize(int64_t num_pages, int64_t d,
                                         int64_t D);

  // --- Updates ---
  Status Insert(Key key, Value value) { return Insert(Record{key, value}); }
  Status Insert(const Record& record);
  Status Delete(Key key);

  // --- Queries (staging-aware: the merged view when staging is on) ---
  // The read surface is const: logically read-only, mutating only the
  // atomic access counters and the mutex-protected buffer pool, so any
  // number of threads may read concurrently as long as no writer runs
  // (enforced by the owner's reader-writer lock — see
  // shard/sharded_dense_file.h and docs/CONCURRENCY.md).
  StatusOr<Value> Get(Key key) const;
  bool Contains(Key key) const;
  // Stream retrieval: all records with lo <= key <= hi, in key order,
  // touching consecutive page addresses. With staging, a two-way merge of
  // the staged entries and the file with tombstone suppression.
  Status Scan(Key lo, Key hi, std::vector<Record>* out) const;
  StatusOr<std::vector<Record>> ScanAll() const;
  // Streaming retrieval: records with key >= start, one block buffered at
  // a time (see core/cursor.h for the iterator contract, including the
  // staged-overlay merge). While any cursor from this file is alive, the
  // piggyback drain scheduler is suspended (MaybeDrain no-ops and
  // staging_wants_drain() reports false): a drain moves staged entries
  // into the file mid-iteration, and the SHIFTs it triggers can push
  // records forward across the cursor's block frontier — visiting them
  // twice. Explicit DrainStep()/FlushStaging() calls and the force-drain
  // of a completely full staging buffer are not suspended; callers that
  // invoke those with live cursors accept the consequences.
  Cursor NewCursor(Key start = 0) const;

  // Lock-free point-lookup attempt for the epoch read path
  // (docs/CONCURRENCY.md): answers POSITIVE hits only, served from the
  // buffer pool's stable resident frames, and only while the staging
  // buffer is observably empty (a staged tombstone or update must win
  // over the durable twin, which requires the locked merged view).
  // Callable without any external lock, concurrently with a writer.
  // Returns true and fills *value on a hit; false means "unanswerable
  // here — take the locked path", never "absent".
  bool TryEpochGet(Key key, Value* value) const;

  // --- Range / bulk operations ---
  // Removes all records in [lo, hi]; returns how many records were
  // visible in the merged view (staged inserts in range die in place,
  // staged tombstones were already hidden).
  StatusOr<int64_t> DeleteRange(Key lo, Key hi);
  // Inserts strictly-ascending records one command at a time. Batch paths
  // drain the staging buffer first so duplicate/capacity checks run
  // against the full merged state.
  Status InsertBatch(const std::vector<Record>& records);
  // Trusted fast path: records in [begin, end) must be strictly
  // ascending and duplicate-free (DCHECKed only) — skips InsertBatch's
  // O(n) validation and lets callers pass a window of a larger buffer
  // without a defensive copy. See ControlBase::InsertBatchSorted.
  Status InsertBatchSorted(const Record* begin, const Record* end);
  // Explicit O(M) reorganization to uniform density — Theorem 5.5's
  // initial condition, restoring even insert headroom after skew.
  Status Compact();
  // Packing diagnostic: mean records per scan-touched page.
  double ScanEfficiency() const { return control_->ScanEfficiency(); }

  // --- Loading ---
  // Records must ascend strictly by key; spread at uniform density.
  Status BulkLoad(const std::vector<Record>& records);

  // --- Ingest staging (src/ingest/; see docs/INGEST.md) ---
  bool staging_enabled() const { return staging_ != nullptr; }
  // Entries currently staged (volatile until drained).
  int64_t staging_size() const {
    return staging_ == nullptr ? 0 : staging_->size();
  }
  // Counters for the staging layer (puts/hits/annihilations/drains), with
  // `entries` refreshed to the current gauge value.
  StagingStats staging_stats() const;
  // The resolved per-step entry cap and logical-access budget (0 when
  // staging is off). Every drain step stops at whichever it hits first;
  // each drained entry is still an individually certified command.
  int64_t drain_batch() const { return drain_batch_; }
  int64_t drain_access_budget() const { return drain_access_budget_; }
  // Fill level at which the piggyback scheduler starts draining.
  int64_t drain_trigger() const { return drain_trigger_; }
  // True when the buffer has reached the trigger fill — the signal
  // ShardedDenseFile's drain-on-rotate uses to spend a foreign command's
  // piggyback budget here (draining below the trigger would defeat the
  // batching that makes staging pay).
  bool staging_wants_drain() const {
    return staging_ != nullptr && live_cursors() == 0 &&
           staging_->size() >= drain_trigger_;
  }
  // Cursors currently alive from NewCursor (piggyback drains are
  // suspended while nonzero — see NewCursor).
  int64_t live_cursors() const {
    return live_cursors_.load(std::memory_order_acquire);
  }

  // --- Tuning actuators (tune/controller.h; see docs/TUNING.md) ---
  // All take effect on the next command and must be called between
  // commands (the controller holds the shard writer lock). Each keeps
  // the certifier envelope and the drain budgets consistent with the
  // installed value — the safety invariant is that the budget being
  // enforced always matches the live (K, J).
  //
  // Retargets CONTROL 2's SHIFT cycles per command. Theorem 5.5 needs
  // J >= the resolved default, so j below the file's open-time J (or
  // j < 1, or a non-CONTROL-2 policy) is InvalidArgument. Recomputes
  // the certifier budget K*(4j+2) and the auto drain budgets.
  Status SetMaintenanceJ(int64_t j);
  // The J the certifier envelope is currently evaluated at (the file's
  // resolved J for CONTROL 2, the recommended J otherwise).
  int64_t maintenance_j() const { return certified_j_; }
  // The open-time resolved J — the floor below which SetMaintenanceJ
  // refuses to tune (Theorem 5.5's guarantee).
  int64_t maintenance_j_floor() const { return default_j_; }
  // Retargets the per-drain-step entry cap; 0 restores the auto default
  // max(4, budget/(4K)). No-op when staging is off. The trigger fill
  // follows (max(batch, capacity/2)).
  void SetDrainBatch(int64_t batch);
  // Retargets the staging buffer's entry capacity (Memtable::SetCapacity
  // clamping applies); returns the capacity installed, 0 when staging is
  // off. The trigger fill follows.
  int64_t SetStagingCapacity(int64_t entries);
  // Grows or shrinks the buffer pool (BufferPool::Resize contract);
  // FailedPrecondition when caching is off.
  Status ResizeCache(int64_t new_frames);
  // Lock-free staging occupancy gauge for the epoch read path: the
  // occupancy as of the last completed staging mutation. May lag the
  // true size mid-command, but only in ways an epoch read may ignore:
  // a nonzero stale value merely forces a fallback, and a zero read
  // concurrent with a writer staging its first entry linearizes the
  // lookup before that still-incomplete command (docs/CONCURRENCY.md).
  int64_t staging_size_relaxed() const {
    return staging_gauge_.load(std::memory_order_acquire);
  }
  // One bounded drain step: moves at most drain_batch() staged entries
  // into the file through ordinary commands sharing one deferred pool
  // flush, stopping early at the access budget. No-op when staging is
  // off or empty. The scheduler calls this automatically on every
  // mutating command once the buffer passes its trigger fill.
  Status DrainStep();
  // Drains everything staged (a sequence of bounded steps) — the
  // staging layer's durability point.
  Status FlushStaging();
  // Drops every staged entry without draining — the RAM-loss half of a
  // simulated crash (staging is volatile); pair with DiscardCache().
  void DiscardStaging();
  // The staging memtable, or nullptr when staging is off. Read-only; for
  // the auditor, shard boundary checks and tests.
  const Memtable* staging() const { return staging_.get(); }

  // --- Introspection ---
  // Merged record count: durable records plus staged inserts minus
  // staged tombstones.
  int64_t size() const {
    return control_->size() + (staging_ == nullptr ? 0 : staging_->net_size());
  }
  bool empty() const { return size() == 0; }
  int64_t capacity() const { return control_->MaxRecords(); }  // d*M
  int64_t num_pages() const { return control_->file().num_pages(); }
  int64_t block_size() const { return control_->block_size(); }
  // By value: the underlying tracker counters are atomics (readable
  // concurrently with writers); there is no stable IoStats to reference.
  IoStats io_stats() const { return control_->file().stats(); }
  void ResetIoStats() { control_->file().ResetStats(); }
  // Whether a buffer pool is interposed (cache_frames > 0).
  bool cache_enabled() const { return control_->pool() != nullptr; }
  // Current pool frame count (the ResizeCache actuator's gauge); 0 when
  // caching is disabled.
  int64_t cache_frames() const {
    return cache_enabled() ? control_->pool()->num_frames() : 0;
  }
  // Currently dirty pool frames (0 when no pool) — the tuning
  // controller's donor-selection signal: shrinking a dirty pool forces
  // a safe-order flush, shrinking a clean one is free.
  int64_t cache_dirty_frames() const {
    return cache_enabled() ? control_->pool()->dirty_pages() : 0;
  }
  // Pool counters (hits, misses, write combines, flush runs); zeroes
  // when caching is disabled.
  BufferPool::Stats cache_stats() const {
    return cache_enabled() ? control_->pool()->stats() : BufferPool::Stats();
  }
  void ResetCacheStats() {
    if (cache_enabled()) control_->pool()->ResetStats();
  }
  const CommandStats& command_stats() const {
    return control_->command_stats();
  }
  void ResetCommandStats() { control_->ResetCommandStats(); }
  std::string PolicyName() const { return control_->Name(); }

  // Full structural + algorithmic invariant sweep (O(M); for tests).
  // With staging, also checks the memtable's order/count invariants (the
  // staged-vs-file membership half needs page walks and lives in Audit).
  Status ValidateInvariants() const;

  // Full invariant audit with a typed report of every violation found
  // (violation kind, page address, calibrator node, expected vs. found).
  // Unaccounted, read-only; see analysis/auditor.h for the catalog.
  AuditReport Audit() const;

  // --- Fault injection & recovery ---
  // Installs (or clears) a deterministic fault schedule on the page store;
  // see storage/fault_injection.h. After any command errors with IoError,
  // run CheckAndRepair() before issuing further commands.
  void set_fault_policy(std::shared_ptr<FaultPolicy> policy) {
    control_->file().set_fault_policy(std::move(policy));
  }
  // Full durability point: drains the staging buffer, then writes all
  // dirty cached pages to the device. Commands already flush the pool at
  // their end (or at each drain step's end inside a deferral window).
  Status Flush();
  // Simulates the RAM half of a crash: every cached frame (including
  // dirty ones) is dropped without write-back, leaving only what the
  // device holds. Follow with CheckAndRepair(), exactly as after an
  // injected device crash.
  void DiscardCache() { control_->DiscardCache(); }
  // Post-crash recovery: rebuilds the calibrator and algorithm state from
  // the raw pages, repairing torn-command damage (duplicates, broken
  // order) by a wholesale uniform rewrite when needed. On success the
  // file passes ValidateInvariants() (and, with audit_every_command, a
  // full Audit()). See ControlBase::CheckAndRepair.
  StatusOr<RepairReport> CheckAndRepair();

  // --- Durable storage (null/empty without a backend_factory) ---
  // The attached backend, or nullptr for a pure in-memory file.
  StorageBackend* storage_backend() const {
    return control_->file().backend();
  }
  // What the Open-time CheckAndRepair found (all-zero for Create, or for
  // an Open of an undamaged file).
  const RepairReport& open_repair_report() const {
    return open_repair_report_;
  }
  // Pages whose device slot failed integrity checks at Open (their
  // records were dropped by the open-time repair).
  const std::vector<Address>& corrupt_pages_at_open() const {
    return open_repair_report_.corrupt_pages;
  }

  // The options the file was created with (block_size resolved).
  const Options& options() const { return options_; }

  // The live bound certificate, or nullptr when certify_bound is off.
  // report().ok() means no command has exceeded the budget so far.
  const BoundReport* bound_report() const {
    return certifier_ == nullptr ? nullptr : &certifier_->report();
  }
  // The per-command logical-access budget being enforced; 0 when
  // certification is off.
  int64_t bound_budget() const {
    return certifier_ == nullptr ? 0 : certifier_->budget();
  }

  // Escape hatch for benches and tests needing algorithm internals.
  ControlBase& control() { return *control_; }
  const ControlBase& control() const { return *control_; }

 private:
  DenseFile(const Options& options, std::unique_ptr<ControlBase> control)
      : options_(options), control_(std::move(control)) {}

  // The audit_every_command hook: passes `s` through, and when auditing
  // is on and `s` is not a device fault (a faulted command legitimately
  // leaves the file out of invariants until CheckAndRepair), runs a full
  // audit and surfaces its verdict (the command's own error wins).
  Status MaybeAudit(Status s) const;

  // --- Staging internals (docs/INGEST.md) ---
  // The per-key state machine: classifies the key against staged entries
  // and (one accounted probe) the durable file, then stages the mutation.
  Status StageInsert(const Record& record);
  Status StageDelete(Key key);
  // The piggyback trigger: runs a drain step once the buffer holds
  // drain_trigger_ entries.
  Status MaybeDrain();
  // DrainStep/FlushStaging minus the audit hook (callers inside a
  // command path audit once, at their own exit).
  Status DrainStepInternal();
  Status FlushStagingInternal();
  // Applies one staged entry as ordinary certified command(s): kInsert →
  // Insert, kTombstone → Delete, kUpdate → Delete then Insert.
  Status ApplyStaged(const StagedEntry& entry);
  // Drains the first staged tombstone to free a durable slot when a
  // drained insert hits N = d*M (the merged-capacity accounting
  // guarantees one exists).
  Status ApplyFirstTombstone();
  // Makes room for one more staged entry, force-draining when full.
  Status EnsureStagingRoom();
  // Re-derives drain_batch_/drain_trigger_/drain_access_budget_ from the
  // current (K, J) and staging capacity, honoring an explicit batch
  // override; syncs the certifier envelope (BoundCertifier::Recalibrate)
  // when `recalibrate` and one is attached.
  void SyncTuningDerivedState(bool recalibrate);
  // Post-repair reconciliation: a drain step that died mid-apply may
  // have committed some entries (or the delete half of an update);
  // re-classify every staged entry against the repaired file so the
  // kind invariants hold again. Unaccounted (PeekContains).
  void ReconcileStagingWithFile();
  void BumpPut();
  // Const: shared-lock readers bump the hit counter concurrently, so it
  // lives in an atomic (staging_hits_) merged into staging_stats().
  void BumpHit(int64_t n = 1) const;
  void SyncStagingGauge();

  Options options_;
  std::unique_ptr<ControlBase> control_;
  // Filled by Open (zero for Create): the open-time repair verdict.
  RepairReport open_repair_report_;
  // Owned certifier (certify_bound only); fed by ControlBase::EndCommand
  // through the raw pointer installed via SetObservability.
  std::unique_ptr<BoundCertifier> certifier_;

  // Ingest staging (null when staging_entries == 0). drain_trigger_ is
  // the fill level at which MaybeDrain runs a step: max(drain_batch,
  // capacity/2), leaving headroom so forced whole-buffer drains are rare.
  std::unique_ptr<Memtable> staging_;
  int64_t drain_batch_ = 0;
  int64_t drain_trigger_ = 0;
  int64_t drain_access_budget_ = 0;
  // The J the Theorem-5.7 envelope is evaluated at (see Create and
  // SetMaintenanceJ); drives the certifier budget and drain budgets.
  int64_t certified_j_ = 0;
  // Open-time resolved J — the floor SetMaintenanceJ may never tune
  // below (Theorem 5.5's guarantee needs at least the recommended J).
  int64_t default_j_ = 0;
  // Nonzero = an explicit drain-batch override (Options::drain_batch or
  // SetDrainBatch); 0 = auto-derive from the access budget.
  int64_t drain_batch_override_ = 0;
  mutable StagingStats staging_stats_;
  // Staging read hits, split out of staging_stats_ because shared-lock
  // readers increment it concurrently (staging_stats() merges it back).
  mutable std::atomic<int64_t> staging_hits_{0};
  // Published staging occupancy (see staging_size_relaxed).
  std::atomic<int64_t> staging_gauge_{0};
  // Cursors alive from NewCursor; piggyback drains suspend while > 0.
  // Mutable: opening a cursor is a logically-const read operation.
  mutable std::atomic<int64_t> live_cursors_{0};

  // Cached staging metric handles (null without a registry).
  Counter* m_staging_puts_ = nullptr;
  Counter* m_staging_hits_ = nullptr;
  Counter* m_staging_annihilations_ = nullptr;
  Counter* m_staging_drain_steps_ = nullptr;
  Counter* m_staging_drained_ = nullptr;
  Gauge* m_staging_entries_ = nullptr;
};

}  // namespace dsf

#endif  // DSF_CORE_DENSE_FILE_H_
