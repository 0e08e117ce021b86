// StorageBackend: the pluggable durable device behind PageFile.
//
// When a backend is attached it IS the device: PageFile keeps no page
// image of its own, and each accounted device read or write goes
// straight to ReadPage/WritePage (docs/STORAGE.md). What that buys the
// repo's crash-ordering proofs is durable-storage evidence instead of
// simulation:
//
//   - every accounted device write, every pool write-back and every
//     quarantine write is one WritePage, issued in exactly the order the
//     crash-safe maintenance issued it (docs/FAULTS.md: DEST-before-
//     SOURCE, directional block rewrites);
//   - the unaccounted whole-file passes — the layout of BulkLoad,
//     LoadLayout and the repair rewrite, and the check/gather reads of
//     Open, CheckAndRepair and ValidateInvariants — move consecutive
//     slots with WriteRun/ReadRun, which a file backend turns into one
//     syscall per run of up to kRunPages slots;
//   - SyncBarrier() is called at the points the write-ordering argument
//     already assumes a persistence boundary (end of each
//     duplicate-then-delete phase, the EndCommand flush boundary, bulk
//     load, repair) — for a file backend this is fdatasync;
//   - ReadPage loads a page image back, verifying integrity (CRC32C for
//     the file backend); a torn or corrupt page surfaces as a typed
//     kCorruption that CheckAndRepair quarantines, while a device
//     failure (kIoError) leaves the slot's content for a later retry.
//
// Two implementations ship: MemoryBackend (below) keeps the device
// image in an in-memory page vector — plumbing without an OS file, for
// tests — and FileBackend (storage/file_backend.h) keeps it in a real
// index/data file pair with page-aligned pread/pwrite and fdatasync.
// Fault injection composes unchanged: the FaultPolicy is consulted by
// PageFile *before* the backend is touched, so an injected write fault
// suppresses the persistent write exactly as it suppresses the
// simulated one.

#ifndef DSF_STORAGE_STORAGE_BACKEND_H_
#define DSF_STORAGE_STORAGE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/page.h"
#include "storage/record.h"
#include "util/status.h"

namespace dsf {

// The most consecutive pages a caller hands to one WriteRun/ReadRun: the
// run passes batch this many, which bounds their span and page arrays. A
// backend may split a run further (FileBackend caps one transfer at
// 256 KiB of slots).
inline constexpr int64_t kRunPages = 64;

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  // Geometry the backend was created with (DenseFile::Create rejects a
  // mismatch against the file it is building).
  virtual int64_t num_pages() const = 0;
  virtual int64_t page_capacity() const = 0;

  // Durably records `page` as the content of `address` (1-based). The
  // write must be atomic at page granularity from the caller's
  // perspective: after a crash the slot holds either the old image or
  // the new one, or fails ReadPage with kCorruption (a torn write) — never
  // silently mixes the two.
  virtual Status WritePage(Address address, const Page& page) = 0;

  // Loads the device image of `address` into *out (replacing its
  // contents; *out keeps its capacity). Integrity-checked: a corrupt
  // slot returns kCorruption and leaves *out empty. kIoError means the
  // device could not be read (a failed syscall, no buffer) and says
  // nothing about the slot's content.
  virtual Status ReadPage(Address address, Page* out) = 0;

  // Run I/O for the unaccounted whole-file passes: pages[i] (ascending
  // records, at most page_capacity) becomes slot first+i, each with
  // WritePage's per-slot atomicity. Unlike a sequence of WritePage calls
  // it promises no order among its slots before the next SyncBarrier, so
  // crash-ordered writes never use it. On an error a prefix of the run
  // may be written. The default loops WritePage.
  virtual Status WriteRun(Address first,
                          std::span<const std::span<const Record>> pages);

  // Reads slots first .. first+out.size()-1 into out[i], with status[i]
  // (same size as out) that slot's ReadPage verdict: one corrupt slot
  // fails only itself, while a device failure fails every slot it
  // covers. The default loops ReadPage.
  virtual void ReadRun(Address first, std::span<Page> out,
                       std::span<Status> status);

  // Persistence barrier: on return, every WritePage issued before the
  // call is durable. fdatasync for the file backend; a no-op when the
  // device image cannot outlive the process anyway.
  virtual Status SyncBarrier() = 0;

  // Inert: PageFile no longer consults it — with no second image to
  // compare against, every device read is the ReadPage above, which is
  // already integrity-checked. Kept only because the benchmark's timing
  // decorator overrides it; to be removed with the next benchmark change.
  virtual bool VerifyOnRead() const { return true; }

  virtual std::string Name() const = 0;
};

// Deferred backend construction for option structs: called once with
// the file's physical geometry when the owning file is built. Lets one
// Options value describe "a file pair under this directory" without
// knowing M or the page capacity up front, and gives sharded files a
// natural seam for per-shard directories.
using StorageBackendFactory =
    std::function<StatusOr<std::unique_ptr<StorageBackend>>(
        int64_t num_pages, int64_t page_capacity)>;

// The in-memory device: a page vector standing in for the platters.
// Same write and read-back contract as the file backend, RAM speed,
// nothing survives the process — the backend plumbing without an OS
// file, differentially comparable with the simulation and the file
// backend (see tests/storage_backend_test.cc parity sweeps).
class MemoryBackend : public StorageBackend {
 public:
  MemoryBackend(int64_t num_pages, int64_t page_capacity);

  int64_t num_pages() const override { return num_pages_; }
  int64_t page_capacity() const override { return page_capacity_; }
  Status WritePage(Address address, const Page& page) override;
  Status ReadPage(Address address, Page* out) override;
  Status SyncBarrier() override { return Status::OK(); }
  std::string Name() const override { return "memory"; }

 private:
  int64_t num_pages_;
  int64_t page_capacity_;
  std::vector<Page> image_;
};

}  // namespace dsf

#endif  // DSF_STORAGE_STORAGE_BACKEND_H_
