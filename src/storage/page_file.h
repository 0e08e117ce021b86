// PageFile: M consecutive pages of auxiliary memory — the device of the
// paper's cost model — with full page-access accounting.
//
// The file is a plain device: callers read a page INTO their own buffer
// and write a page FROM their own buffer, and no call hands out a
// pointer a caller could mutate later. Every algorithm in libdsf (the
// dense-file controls and all baselines) goes through the accounted
// calls so experiments can compare page-access counts:
//
//   Read / Write              one logical and one physical access — an
//                             unpooled caller always pays the device;
//   DeviceRead / DeviceWrite  physical only: a BufferPool's miss fill and
//                             write-back (the pool charges CountLogical
//                             on every request itself);
//   RawWrite                  unaccounted: setup layout (bulk load),
//                             freed-tail clears and recovery rewrites —
//                             bookkeeping a real system keeps in metadata;
//   Peek                      unaccounted read for validators, tests,
//                             debug printing and offline recovery, never
//                             for online algorithm logic.
//
// Where the pages live. Without a StorageBackend the in-memory page
// vector IS the simulated device, and the calls are zero-copy against
// it (Read appends straight from the page, Write fills it in place).
// With a backend there is no page vector at all: every call goes
// straight to StorageBackend::ReadPage/WritePage, so memory holds only
// what a BufferPool caches plus Peek's thread-local scratch page — the
// textbook external-memory shape (docs/STORAGE.md).
//
// Addresses are 1-based (pages 1..M), matching the paper.

#ifndef DSF_STORAGE_PAGE_FILE_H_
#define DSF_STORAGE_PAGE_FILE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/disk_model.h"
#include "storage/fault_injection.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/record.h"
#include "storage/storage_backend.h"
#include "util/status.h"

namespace dsf {

class PageFile {
 public:
  // A file of `num_pages` empty pages with `page_capacity` slots each.
  // With `backend` the pages live on that device, whose geometry must
  // match (DenseFile::Create checks it), and no in-memory image is ever
  // allocated; a fresh backend reads as all-empty pages, an existing one
  // is the reopen path. Without a backend the pages are an in-memory
  // vector.
  PageFile(int64_t num_pages, int64_t page_capacity,
           std::unique_ptr<StorageBackend> backend = nullptr);

  int64_t num_pages() const { return num_pages_; }
  int64_t page_capacity() const { return page_capacity_; }

  // Accounted, fallible access. `address` in [1, num_pages] (violations
  // return OutOfRange, not abort). The access is charged to IoStats and
  // then checked against the installed FaultPolicy, if any: on an
  // injected fault the device is left untouched and kIoError is
  // returned, so a failed write never tears a page. Read appends the
  // page's records to *out; Write replaces the page with `records`
  // (ascending, at most page_capacity of them).
  Status Read(Address address, std::vector<Record>* out);
  Status Write(Address address, std::span<const Record> records);

  // Physical-only access: charges the device counters (seek/sequential
  // classification, fault consultation, simulated latency) without the
  // logical counters. DeviceRead replaces *out with the page. Used by
  // the buffer pool for miss fills and write-back.
  Status DeviceRead(Address address, Page* out);
  Status DeviceWrite(Address address, const Page& page);

  // Logical-only accounting: records that the algorithm requested a page
  // access that may be absorbed by a cache.
  void CountLogical(bool is_write) { tracker_.OnLogical(is_write); }

  // Unaccounted write, immune to the FaultPolicy: initial layout,
  // freed-tail clears and the repair rewrite. Still a device write — it
  // reaches the backend in issue order and its error comes back as a
  // Status.
  Status RawWrite(Address address, std::span<const Record> records);

  // Unaccounted read for validators, tests, printing and recovery. With
  // a backend this is a device read into thread-local scratch, so the
  // reference is valid only until the calling thread's next Peek of any
  // file. A failed read returns an empty page and its error goes to
  // *read_status when given — kCorruption for a slot that fails its
  // integrity check (CheckAndRepair's torn-slot detection), kIoError
  // for a device failure; OK otherwise.
  const Page& Peek(Address address, Status* read_status = nullptr) const;

  // Installs (or clears, with nullptr) the fault schedule consulted by
  // the accounted calls. Shared so tests can keep steering it mid-run.
  void set_fault_policy(std::shared_ptr<FaultPolicy> policy) {
    fault_policy_ = std::move(policy);
    UpdateSlowPath();
  }
  FaultPolicy* fault_policy() const { return fault_policy_.get(); }

  // The device behind the file, or nullptr for the in-memory simulation.
  StorageBackend* backend() const { return backend_.get(); }

  // Persistence barrier: if anything was written since the last barrier,
  // calls the backend's SyncBarrier (fdatasync for a file backend).
  // No-op without a backend. ControlBase invokes this exactly at the
  // points the crash-ordering argument assumes durability
  // (docs/STORAGE.md). A failed barrier is sticky: the kernel may have
  // dropped the unsynced pages, so a later barrier that succeeds would
  // claim durability the device lacks ("fsyncgate"). Every later device
  // write and barrier therefore returns kIoError until the file is
  // reopened and repaired.
  Status SyncBarrier();

  // Counter snapshot, by value: the tracker's counters are atomics so
  // concurrent shared readers (docs/CONCURRENCY.md) can charge accesses
  // race-free, and there is no stable IoStats object to reference.
  IoStats stats() const { return tracker_.stats(); }
  void ResetStats();

  // Simulated device latency: a uniform per-access charge, accumulated
  // into IoStats::sim_elapsed_ns AND paid as a real sleep on every
  // accounted access. Zero (the default) keeps the file purely
  // in-memory. Experiments use this to model disk/flash-resident files,
  // where page accesses — the paper's cost metric — dominate command
  // time; sleeps on different PageFile instances overlap, as independent
  // devices would. Peek/RawWrite stay free, mirroring the accounting rule
  // above. This is the flat special case of set_disk_model (seek and
  // sequential accesses charged alike); both setters route through the
  // AccessTracker's single charge model, so elapsed-time accounting and
  // the sleep can never disagree.
  void set_access_latency(std::chrono::nanoseconds latency) {
    uniform_latency_ = latency;
    tracker_.SetChargeNs(latency.count(), latency.count());
    sleep_on_access_ = latency.count() > 0;
    UpdateSlowPath();
  }
  std::chrono::nanoseconds access_latency() const { return uniform_latency_; }

  // Seek-aware device model: a seek access charges SeekChargeNs, a
  // sequential access SequentialChargeNs — so a coalesced flush run of
  // R consecutive pages costs one seek charge plus R-1 transfer charges,
  // in sim_elapsed_ns and (when `sleep` is set) in real wall time alike.
  // Replaces any charge installed by set_access_latency.
  void set_disk_model(const DiskModel& model, bool sleep = false) {
    uniform_latency_ = std::chrono::nanoseconds(0);
    tracker_.SetChargeNs(model.SeekChargeNs(), model.SequentialChargeNs());
    sleep_on_access_ = sleep;
    UpdateSlowPath();
  }

  // Total records across all pages (O(M) Peeks; for validation).
  int64_t TotalRecords() const;

  // True iff every page is well-formed and keys ascend globally across
  // pages (condition (iii) of (d,D)-density).
  bool GloballyOrdered() const;

 private:
  // Fault consultation and the latency sleep both live off the hot path:
  // Charge tests the single precomputed `slow_path_` flag (one
  // predicted-not-taken branch per access) and only then pays for the
  // two checks. The flag is maintained by the setters above, the only
  // places the policy or latency can change.
  void UpdateSlowPath() {
    slow_path_ = fault_policy_ != nullptr || sleep_on_access_;
  }
  // Range check, physical charge, then the slow path (fault consultation
  // and latency sleep) — the shared head of every accounted call.
  Status Charge(Address address, bool is_write);
  Status SlowPathAccess(Address address, bool is_write, int64_t charge_ns);
  // Stores `records` as page `address` on the device: in place in the
  // page vector, or through the backend (honoring the sticky failure).
  Status Store(Address address, std::span<const Record> records);
  // The backend half of a write: refuses after a failed barrier.
  Status BackendWrite(Address address, const Page& page);

  int64_t num_pages_;
  int64_t page_capacity_;
  std::unique_ptr<StorageBackend> backend_;
  std::vector<Page> pages_;  // the device itself; empty with a backend
  Page write_scratch_;       // Store's staging page with a backend
  AccessTracker tracker_;
  std::shared_ptr<FaultPolicy> fault_policy_;
  bool dirty_since_sync_ = false;
  Status sync_failure_;  // sticky: the first failed barrier's error
  std::chrono::nanoseconds uniform_latency_{0};
  bool sleep_on_access_ = false;
  bool slow_path_ = false;
};

}  // namespace dsf

#endif  // DSF_STORAGE_PAGE_FILE_H_
