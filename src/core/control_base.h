// Shared machinery for the density-control algorithms.
//
// ControlBase owns the physical page file and the calibrator and provides
// everything CONTROL 1 and CONTROL 2 have in common: key search through
// the in-memory calibrator, block (macro-page) reads/writes with honest
// page-access accounting, stream retrieval, per-command cost tracking and
// the structural (d,D)-density validators.
//
// Blocks. To support Theorem 5.7's macro-block extension with one code
// path, the algorithms operate on *logical pages* ("blocks") of
// `block_size` = K consecutive physical pages (K = 1 in the ordinary
// case). The calibrator and the density spec cover the M# = M/K blocks
// with thresholds d# = K*d, D# = K*D. Within a block, records are packed
// into a prefix of its physical pages, at most D per page, so physical
// (d,D)-density conditions (ii) and (iii) hold whenever the logical file
// is (d#,D#)-dense.

#ifndef DSF_CORE_CONTROL_BASE_H_
#define DSF_CORE_CONTROL_BASE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/calibrator.h"
#include "core/cursor.h"
#include "core/density.h"
#include "obs/bound_certifier.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/record.h"
#include "util/status.h"

namespace dsf {

// What CheckAndRepair found and fixed. All counters are zero for a file
// that came through a crash with its invariants intact.
struct RepairReport {
  int64_t blocks_scanned = 0;
  int64_t calibrator_resyncs = 0;    // leaves whose count/fences were stale
  int64_t duplicate_records_dropped = 0;  // torn-shift duplicates removed
  int64_t misordered_blocks = 0;     // blocks breaking global key order
  int64_t overfull_pages = 0;        // pages holding more than D records
  int64_t packing_violations = 0;    // blocks not prefix-packed
  // Device slots that failed their integrity check (torn or corrupt):
  // read as empty and durably quarantined as empty pages, so their
  // records are lost unless crash ordering had duplicated them.
  std::vector<Address> corrupt_pages;
  bool rewrote_file = false;         // wholesale uniform rewrite performed
  bool warning_state_rebuilt = false;  // algorithm flags rebuilt from scratch

  bool AnythingRepaired() const {
    return calibrator_resyncs > 0 || duplicate_records_dropped > 0 ||
           misordered_blocks > 0 || overfull_pages > 0 ||
           packing_violations > 0 || !corrupt_pages.empty() || rewrote_file;
  }
  std::string ToString() const;
};

// Per-command page-access bookkeeping.
struct CommandStats {
  int64_t commands = 0;
  int64_t last_command_accesses = 0;
  int64_t max_command_accesses = 0;
  int64_t total_accesses = 0;

  double MeanAccessesPerCommand() const {
    return commands == 0
               ? 0.0
               : static_cast<double>(total_accesses) /
                     static_cast<double>(commands);
  }
};

class ControlBase {
 public:
  struct Config {
    int64_t num_pages = 0;   // physical M; must be a multiple of block_size
    int64_t d = 0;           // per-page lower density parameter
    int64_t D = 0;           // per-page upper density parameter (page cap)
    int64_t block_size = 1;  // K; 1 = ordinary pages, >1 = macro-blocks

    // Ablation E9c. The paper's step 1 inserts into the page holding the
    // record's predecessor. With smart placement, a key that follows
    // everything in a saturated predecessor block is placed into the
    // empty block just after it instead (when one exists before the
    // successor block), trading paper fidelity for less SHIFT pressure.
    bool smart_placement = false;

    // Buffer pool between the algorithms and the device. 0 (default)
    // means no pool: every logical access is a physical access, exactly
    // the pre-pool behavior. With frames, reads hit resident pages for
    // free and writes are held dirty until the end of the command, when
    // EndCommand flushes them in crash-safe dirty-order (so command
    // durability and the one-in-flight-command crash semantics are
    // unchanged — see docs/CACHING.md).
    int64_t cache_frames = 0;
    BufferPool::Eviction cache_eviction = BufferPool::Eviction::kClock;

    // The durable device behind the page file, built by Create once the
    // configuration has been validated (a rejected Create never touches
    // the device). Null keeps the pages an in-memory simulation. With a
    // device holding data — a reopen — follow Create with CheckAndRepair:
    // the calibrator and warning state are in-memory structures that
    // died with the previous process.
    StorageBackendFactory backend_factory;
  };

  virtual ~ControlBase() = default;

  ControlBase(const ControlBase&) = delete;
  ControlBase& operator=(const ControlBase&) = delete;

  // --- The update commands (implemented by CONTROL 1 / CONTROL 2) ---
  virtual Status Insert(const Record& record) = 0;
  virtual Status Delete(Key key) = 0;
  virtual std::string Name() const = 0;

  // --- Queries (shared) ---
  StatusOr<Record> Get(Key key);
  bool Contains(Key key);

  // Stream retrieval: appends all records with lo <= key <= hi in key
  // order. This is the access pattern the paper argues sequential files
  // win at: the touched pages are consecutive addresses.
  Status Scan(Key lo, Key hi, std::vector<Record>* out);

  // All records in key order (O(N) accounted reads).
  StatusOr<std::vector<Record>> ScanAll();

  // Streaming alternative to Scan: yields records with key >= start one
  // at a time, buffering a block per step. See core/cursor.h.
  Cursor NewCursor(Key start = 0);

  // Removes every record with lo <= key <= hi; returns how many. Counted
  // as a single command; its cost is proportional to the blocks touched
  // (range commands are outside the paper's per-command bound).
  StatusOr<int64_t> DeleteRange(Key lo, Key hi);

  // Inserts a batch of strictly-ascending records one command at a time
  // (each insert keeps the worst-case bound). Stops at the first error.
  Status InsertBatch(const std::vector<Record>& records);

  // Trusted fast path of InsertBatch: the caller guarantees [begin, end)
  // is strictly ascending and duplicate-free (DCHECKed, not validated),
  // so the O(n) pre-scan and any defensive slice copy are skipped. Takes
  // a raw pointer range so callers holding a larger sorted buffer (the
  // staging drain, ShardedDenseFile's per-shard slices) pass a window of
  // it without materializing a vector.
  Status InsertBatchSorted(const Record* begin, const Record* end);

  // Rewrites the whole file at uniform density, with accounted I/O — an
  // explicit O(M) reorganization restoring Theorem 5.5's initial
  // condition: insert headroom spread evenly, so no region is primed to
  // trigger maintenance storms after skewed deletions. Crash-safe: runs
  // as pack-then-spread, so a fault mid-compaction duplicates records but
  // never loses one (CheckAndRepair finishes the job).
  Status Compact();

  // Post-crash recovery. Inspects the raw pages (unaccounted — recovery
  // is an offline pass over the device, outside the paper's per-command
  // cost model), rebuilds the calibrator's N_v rank counters and fence
  // keys bottom-up, and clears stale algorithm state (WARNING flags,
  // DEST/SOURCE pointers) via AfterWholesaleReorganization. Device slots
  // that fail their integrity check (kCorruption) are reported, read as
  // empty, and quarantined durably (rewritten empty, then a barrier) so
  // the next open does not trip on the same torn slot. A read that fails
  // for any other reason (kIoError) returns that error before anything
  // is rewritten: the slot's records may be intact.
  //
  // Cheap path: if the page contents are still globally ordered,
  // duplicate-free, prefix-packed and within page capacity, only the
  // in-memory calibrator and flags are rebuilt. Otherwise the wholesale
  // path gathers every surviving record, sorts, drops torn-write
  // duplicates (keeping the first copy in address order; duplicate copies
  // carry identical payloads by the write-ordering invariants, see
  // docs/FAULTS.md), and rewrites the file at uniform density. On return
  // the file satisfies ValidateInvariants(); the report says what was
  // fixed. The cheap path reads every page exactly once.
  StatusOr<RepairReport> CheckAndRepair();

  // Mean records per page over the pages a full scan touches (a packing
  // diagnostic: D would be a fully packed file; clustering raises it,
  // uniform spreading lowers it). 0 for an empty file.
  double ScanEfficiency() const;

  // --- Introspection ---
  int64_t size() const { return calibrator_.TotalRecords(); }
  int64_t MaxRecords() const { return logical_spec_.MaxRecords(); }
  const DensitySpec& logical_spec() const { return logical_spec_; }
  int64_t block_size() const { return block_size_; }
  int64_t num_blocks() const { return num_blocks_; }
  PageFile& file() { return file_; }
  const PageFile& file() const { return file_; }
  // The buffer pool, or nullptr when cache_frames == 0.
  BufferPool* pool() { return pool_.get(); }
  const BufferPool* pool() const { return pool_.get(); }
  // Writes every dirty frame to the device (no-op without a pool).
  // Commands flush themselves at EndCommand; this is for callers that
  // want durability at an arbitrary point (e.g. before a snapshot).
  Status Flush();
  // Drops every cached frame *without* write-back — the cache-loss half
  // of a simulated crash. The device is left as the last flush left it;
  // callers must follow with CheckAndRepair to re-sync in-memory state.
  void DiscardCache();
  const Calibrator& calibrator() const { return calibrator_; }
  int64_t page_d() const { return page_d_; }
  int64_t page_D() const { return page_D_; }
  const CommandStats& command_stats() const { return command_stats_; }
  void ResetCommandStats();

  // Installs observability sinks, any of which may be null: a metrics
  // registry (handles are resolved once, here — the command hot path
  // then only tests cached pointers), a span tracer, and a bound
  // certifier fed each command's logical access count. `label` is an
  // optional `key="value"` metric qualifier distinguishing this file's
  // series (e.g. per-shard). Virtual so subclasses cache handles for
  // their own phase metrics. Call before issuing commands; calling with
  // nulls detaches. Also attaches the buffer pool's counters when a
  // pool is configured.
  virtual void SetObservability(MetricsRegistry* metrics,
                                CommandTracer* tracer,
                                BoundCertifier* certifier,
                                const std::string& label = "");

  // The page as the algorithms see it: the resident dirty/clean frame
  // when pooled, the device page otherwise (PageFile::Peek, with its
  // reference lifetime and *read_status). Unaccounted; for validators,
  // the invariant auditor (analysis/auditor.h) and resync.
  const Page& PeekLogical(Address page, Status* read_status = nullptr) const;

  // Unaccounted point lookup over the logical view (resident frames
  // first, device pages otherwise). Outside the paper's cost model — for
  // the staging layer's membership checks during crash reconciliation and
  // the invariant auditor, never for serving reads. Fills *value when the
  // key is present and value is non-null.
  bool PeekContains(Key key, Value* value = nullptr) const;

  // --- Ingest drain support (core/dense_file.cc; docs/INGEST.md) ---
  // Between BeginFlushDeferral and EndFlushDeferral, EndCommand skips its
  // end-of-command pool flush: the commands of one drain step share a
  // single FlushAll, so a hot page dirtied by several staged inserts is
  // written once per step instead of once per command. Crash order stays
  // safe — the pool's eviction path flushes the dirty-order prefix, so
  // DEST-before-SOURCE write ordering holds even when a frame leaves the
  // pool mid-window. Costs wider crash ambiguity (a whole step, not one
  // command, may be unflushed), which the staging layer's volatile-until-
  // drained contract already covers. No-ops without a pool.
  void BeginFlushDeferral() { defer_flush_ = true; }
  // Ends the window: flushes everything deferred (recording the usual
  // kFlush span) and returns the flush status.
  Status EndFlushDeferral();
  bool flush_deferred() const { return defer_flush_; }
  // DenseFile's hook for the kDrain span: `a` = entries drained, `b` =
  // entries still staged, `io` the step's accesses (RecordSpan itself is
  // protected; the drain scheduler sits outside the class).
  void RecordDrainSpan(int64_t entries_drained, int64_t entries_remaining,
                       const IoStats& io) {
    RecordSpan(SpanKind::kDrain, entries_drained, entries_remaining, io);
  }

  // Corruption hook for auditor tests: mutable calibrator access, used
  // to seed stale N_v counters that Audit() must catch. Never called
  // outside tests/auditor_test.cc.
  Calibrator& mutable_calibrator_for_testing() { return calibrator_; }

  // Structural invariants I1-I3 and I5 plus ValidateState's checks: one
  // pass reading every logical page once. O(M); for tests/debugging.
  Status ValidateInvariants() const;

  // Loads `records` (strictly ascending keys, size <= d*M) spread with
  // uniform density over the whole file — the initial condition of
  // Theorem 5.5. Unaccounted; resets I/O and command statistics.
  Status BulkLoad(const std::vector<Record>& records);

  // Loads an explicit per-block distribution (per_block[i] goes to block
  // i+1; keys must ascend across the concatenation and each block must
  // fit in D# records). Unaccounted. Used by tests and by the Example 5.2
  // replay, whose initial state is deliberately non-uniform.
  // Both loads return a device error (e.g. kIoError from a failing
  // backend) instead of aborting; the file is then left for
  // CheckAndRepair.
  Status LoadLayout(const std::vector<std::vector<Record>>& per_block);

 protected:
  // `backend` comes from MakeBackend(config).
  ControlBase(const Config& config, DensitySpec logical_spec,
              std::unique_ptr<StorageBackend> backend);

  // Factory-time validation shared by subclasses.
  static StatusOr<DensitySpec> MakeLogicalSpec(const Config& config);
  // Builds config.backend_factory's device (null without a factory); the
  // last step of a subclass Create, after its validation. Rejects a
  // device whose geometry differs from the file's with kFailedPrecondition.
  static StatusOr<std::unique_ptr<StorageBackend>> MakeBackend(
      const Config& config);

  // The invariant checks that need no page reads: I1 and the
  // calibrator's aggregates. Subclasses extend them with their
  // algorithm-specific checks — BALANCE(d,D) for CONTROL 1/2 (Theorem
  // 5.5), flag/pointer sanity for CONTROL 2. CheckAndRepair's clean path
  // runs only these: its own page pass already verified I2/I3/I5 from
  // the same reads.
  virtual Status ValidateState() const;

  // Hook for subclasses to reset algorithm state after BulkLoad replaced
  // the file contents (e.g. CONTROL 2 clears its warning flags — valid
  // because a uniform-density load leaves every node below g(v,2/3)).
  virtual void AfterBulkLoad() {}

  // Hook after an in-place wholesale reorganization (Compact): state tied
  // to the old layout (warning flags, DEST pointers) must be rebuilt.
  virtual void AfterWholesaleReorganization() {}

  // Hook after DeleteRange lowered densities in [lo_block, hi_block]
  // (e.g. CONTROL 2 lowers calmed warning flags on the affected paths).
  virtual void AfterRangeDeletion(Address lo_block, Address hi_block) {
    (void)lo_block;
    (void)hi_block;
  }

  // Per-page write order inside a block. A crash between two page writes
  // must never lose a record, so the direction depends on how the block's
  // content moves: when records shift right (the block grows, or an
  // equal-count rewrite pushes records to higher ranks) pages must be
  // written right-to-left, so a record's new home exists before its old
  // home is overwritten; when records shift left, left-to-right. kAuto
  // picks by comparing new and old counts — callers whose rewrite shifts
  // content against the count change must pass the direction explicitly.
  enum class BlockWriteOrder { kAuto, kForward, kBackward };

  // --- Block I/O (accounted, fallible) ---
  // All records of block b (address in [1, num_blocks]) in key order.
  StatusOr<std::vector<Record>> ReadBlock(Address block);
  // Appends block b's records to *out (same accounting as ReadBlock).
  // On error *out may hold a partial suffix of the block's records.
  Status ReadBlockInto(Address block, std::vector<Record>* out);
  // Replaces block b's contents; packs D per physical page. The iterator
  // form writes a slice of a larger buffer without copying it first.
  // On a write fault the calibrator leaf is resynced from the raw pages
  // before the error returns, so in-memory state never lies about the
  // device; content-level damage (a torn block) is CheckAndRepair's job.
  Status WriteBlock(Address block, const std::vector<Record>& records,
                    BlockWriteOrder order = BlockWriteOrder::kAuto);
  Status WriteBlock(Address block, const Record* begin, const Record* end,
                    BlockWriteOrder order = BlockWriteOrder::kAuto);

  // --- Key -> block mapping (in-memory, free) ---
  // The unique block that can contain `key`; 0 if none.
  Address BlockPossiblyContaining(Key key) const;
  // Where an insert of `key` should land: the predecessor's block, else
  // the successor's block, else the middle block of an empty file.
  Address TargetBlockForInsert(Key key) const;
  // smart_placement helper: spill past a saturated block into an empty
  // successor when the key order allows it (no-op otherwise).
  Address MaybeSpillAfter(Address block, Address limit) const;

  // Wraps a user command for cost accounting; call at entry/exit of
  // Insert/Delete implementations. `kind` drives the bound certifier's
  // exemption rules and is recorded on the command span. EndCommand
  // flushes the buffer pool first (command-granularity durability: at
  // most the in-flight command is unflushed at a crash) and returns the
  // flush status — OK without a pool. The one-argument form folds a
  // command's own status with the flush status (the command's error
  // wins; flush errors surface when the command itself succeeded), so
  // implementations can write `return EndCommand(s);` at every exit.
  void BeginCommand(CommandKind kind);
  Status EndCommand();
  Status EndCommand(const Status& command_status);

  // --- Observability helpers for subclasses ---
  // Records a phase span (no-op without a tracer), stamped with the
  // enclosing command's ordinal. `io` is the IoStats delta measured
  // across the phase by the caller.
  void RecordSpan(SpanKind kind, int64_t a, int64_t b, const IoStats& io);
  // The enclosing command's ordinal (CommandStats::commands at
  // BeginCommand time); what span seq fields carry.
  int64_t current_command_seq() const { return command_seq_; }
  bool tracing() const { return tracer_ != nullptr; }

  // BALANCE(d,D) over the calibrator (every node p(v) <= g(v,1)).
  Status ValidateBalance() const;

  DensitySpec logical_spec_;  // over blocks: (M#, K*d, K*D)
  bool smart_placement_;
  int64_t block_size_;
  int64_t num_blocks_;
  int64_t page_d_;  // physical per-page d
  int64_t page_D_;  // physical per-page D
  PageFile file_;
  std::unique_ptr<BufferPool> pool_;  // null when cache_frames == 0
  Calibrator calibrator_;
  CommandStats command_stats_;

  // Observability sinks (all optional; see SetObservability). Subclasses
  // read metrics_ / metrics_label_ to resolve their own handles.
  MetricsRegistry* metrics_ = nullptr;
  CommandTracer* tracer_ = nullptr;
  BoundCertifier* certifier_ = nullptr;
  std::string metrics_label_;

  // Crash-safe range redistribution: rewrites blocks [lo, hi] at uniform
  // density in two passes — pack every record into the leftmost blocks
  // (left-to-right), then spread from the packed prefix to the uniform
  // layout (right-to-left). Each pass preserves the duplicate-before-
  // destroy invariant, so a fault at any page boundary leaves every
  // committed record present somewhere in [lo, hi] (possibly duplicated).
  // Costs 2x the writes of a one-pass rewrite; same asymptotics.
  Status RedistributeRangeCrashSafe(Address lo, Address hi);

  // Rebuilds the calibrator leaves of blocks [lo, hi] from the logical
  // page contents — cached frame if resident, device page otherwise
  // (unaccounted). Called after a failed block write so the in-memory
  // tree matches whatever the store actually holds.
  void ResyncRangeFromRaw(Address lo, Address hi);

 private:
  friend class Cursor;
  // Cursor's accounted block read (same as ReadBlock; narrow interface).
  StatusOr<std::vector<Record>> ReadBlockForCursor(Address block) {
    return ReadBlock(block);
  }

  // One page access through the pool when there is one, straight to the
  // device otherwise — the single pool-vs-device choice point.
  // ReadLogical appends the page's records to *out; WriteLogical
  // replaces the page (inside a drain window through the pool's
  // content-aware rewrite path); FreeLogical empties a page dropped from
  // a block's used prefix, unaccounted but in write order.
  Status ReadLogical(Address page, std::vector<Record>* out);
  Status WriteLogical(Address page, std::span<const Record> records);
  Status FreeLogical(Address page);

  // One pass over the logical pages, each read once: the true per-block
  // contents and the structural facts I2, I3 and I5 are made of.
  struct PageScan {
    std::vector<Calibrator::LeafUpdate> leaves;  // one per block
    int64_t overfull_pages = 0;      // pages above D records (I2)
    int64_t misordered_blocks = 0;   // blocks breaking key order (I3)
    int64_t packing_violations = 0;  // pages after an empty one (I5)
    Address first_overfull_page = 0;
    Address first_unpacked_block = 0;
    std::vector<Address> corrupt;  // slots failing their integrity check
    Status device_error;           // the first other failed read

    bool content_clean() const {
      return overfull_pages == 0 && misordered_blocks == 0 &&
             packing_violations == 0;
    }
  };
  PageScan ScanPages() const;

  // Lays slices[b-1] out over block b, D records per page and prefix-
  // packed, with unaccounted raw writes, and syncs the calibrator to
  // match — the layout step of BulkLoad, LoadLayout and the repair
  // rewrite.
  Status LayOutBlocks(const std::vector<std::span<const Record>>& slices);
  // Block b of B gets records [floor((b-1)n/B), floor(bn/B)): the uniform
  // density of Theorem 5.5's initial condition.
  std::vector<std::span<const Record>> UniformSlices(
      const std::vector<Record>& records) const;
  // BulkLoad/LoadLayout's shared body after validation: drop the cache,
  // lay out, make the load durable, and reset the statistics.
  Status Load(const std::vector<std::span<const Record>>& slices);

  // Physical pages used by a block holding `count` records.
  int64_t PagesUsed(int64_t count) const;
  Address FirstPhysicalPage(Address block) const {
    return (block - 1) * block_size_ + 1;
  }
  void SyncBlock(Address block, const std::vector<Record>& records);
  // Writes the pages of `block` without syncing the calibrator. Callers
  // must follow up with SyncBlock or one batched Calibrator::SyncLeaves
  // covering every block written this way, before the next read. On a
  // fault, already-written pages keep their new content, the rest keep
  // their old content, and the error returns; the caller resyncs leaves.
  Status WriteBlockPages(Address block, const Record* begin,
                         const Record* end,
                         BlockWriteOrder order = BlockWriteOrder::kAuto);

  // Full IoStats at BeginCommand, so EndCommand can split the delta into
  // physical accesses (CommandStats), logical accesses (certifier) and
  // simulated time (histogram) from one snapshot.
  IoStats command_start_stats_;
  CommandKind command_kind_ = CommandKind::kInsert;
  int64_t command_seq_ = 0;
  bool in_command_ = false;
  bool defer_flush_ = false;  // see BeginFlushDeferral

  // Cached metric handles, null until SetObservability installs a
  // registry (constraint 1 in obs/metrics.h: one branch per site).
  Counter* m_commands_ = nullptr;
  Histogram* m_command_accesses_ = nullptr;
  Histogram* m_command_sim_ns_ = nullptr;
  Counter* m_redistributions_ = nullptr;
  Histogram* m_redistribution_blocks_ = nullptr;
};

}  // namespace dsf

#endif  // DSF_CORE_CONTROL_BASE_H_
