// FileBackend: the durable OS-file device behind PageFile.
//
// On-disk layout — a real index/data file pair under one directory:
//
//   <dir>/dsf.idx   the index file: one 4096-byte superblock. Versioned
//                   and checksummed: magic, format version, geometry
//                   (num_pages, page_capacity, slot_bytes), CRC32C over
//                   the header. Written once at Create, verified at
//                   Open; a version or geometry mismatch is rejected
//                   before any data page is touched. (The paper keeps
//                   the calibrator in main memory, so there is no
//                   persistent index tree — the index file carries only
//                   the self-description needed to reopen the data
//                   file; the calibrator is rebuilt by CheckAndRepair.)
//
//   <dir>/dsf.dat   the data file: num_pages fixed-size page slots,
//                   slot i holding page address i+1 at byte offset
//                   i*slot_bytes. slot_bytes is 16 + 16*page_capacity
//                   rounded up to 4096, so every slot is page-aligned
//                   and O_DIRECT-compatible. A slot is a 16-byte header
//                   {record_count u64, crc32c u32, reserved u32}
//                   followed by the records (key u64, value u64 each)
//                   and zero fill. The CRC covers the count and the
//                   record bytes; ReadPage rejects a mismatch with a
//                   typed kCorruption (the torn-page signal
//                   CheckAndRepair quarantines), apart from the kIoError
//                   of a failed syscall. A fully zero slot is
//                   a valid empty page, so a fresh ftruncate'd file
//                   reads back as the all-empty state without writing
//                   num_pages * slot_bytes of zeros at create.
//
// I/O modes. Writes and reads are positioned full-slot pread/pwrite.
// With Options::direct_io the data file is opened O_DIRECT (buffers are
// 4096-aligned, slots are 4096 multiples); filesystems that refuse
// O_DIRECT (tmpfs) fall back to buffered I/O transparently —
// stats().direct_active says which mode is live. SyncBarrier() is
// fdatasync on the data file.
//
// Kill-testing. Options::kill_after_writes arms the backend to SIGKILL
// its own process when data-file pwrite number kill_after_writes+1 is
// requested (the first k complete, the next never starts) — the
// durable-storage analogue of FaultPolicy::CrashAfterAccesses, at
// physical-write granularity. The parent of the forked child reopens
// the files and drives recovery (tests/durable_kill_test.cc).
//
// Thread safety: WritePage and SyncBarrier are writer-side and
// externally serialized (PageFile accesses are, per shard). ReadPage
// may be called concurrently by shared-lock readers; it uses
// thread-local scratch and atomic counters.

#ifndef DSF_STORAGE_FILE_BACKEND_H_
#define DSF_STORAGE_FILE_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "storage/storage_backend.h"
#include "util/status.h"

namespace dsf {

class FileBackend : public StorageBackend {
 public:
  // The current on-disk format version (superblock field).
  static constexpr uint32_t kFormatVersion = 1;

  struct Options {
    // Directory holding dsf.idx / dsf.dat. Must exist.
    std::string directory;
    // Attempt O_DIRECT on the data file; falls back to buffered I/O
    // where the filesystem refuses it.
    bool direct_io = false;
    // Inert: every read is CRC-checked and PageFile no longer compares
    // against a second image (see StorageBackend::VerifyOnRead). Kept
    // for the benchmark's tests; to be removed with the next benchmark
    // change.
    bool verify_reads = true;
    // Testing: after this many completed data-file pwrites, the next
    // pwrite raises SIGKILL on the calling process instead of running.
    // -1 disarms.
    int64_t kill_after_writes = -1;
  };

  struct Stats {
    int64_t preads = 0;
    int64_t pwrites = 0;
    int64_t syncs = 0;
    int64_t crc_failures = 0;
    bool direct_active = false;  // O_DIRECT actually in effect
  };

  // Creates a fresh file pair (truncating any existing one), writes and
  // syncs the superblock, and sizes the data file.
  static StatusOr<std::unique_ptr<FileBackend>> Create(
      const Options& options, int64_t num_pages, int64_t page_capacity);

  // Opens an existing pair: verifies the superblock's magic, CRC and
  // format version, and adopts its geometry. kIoError for a short or
  // checksum-corrupt superblock, InvalidArgument for a bad magic,
  // FailedPrecondition for a format-version mismatch.
  static StatusOr<std::unique_ptr<FileBackend>> Open(const Options& options);

  ~FileBackend() override;

  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  // StorageBackend:
  int64_t num_pages() const override { return num_pages_; }
  int64_t page_capacity() const override { return page_capacity_; }
  Status WritePage(Address address, const Page& page) override;
  Status ReadPage(Address address, Page* out) override;
  Status SyncBarrier() override;
  bool VerifyOnRead() const override { return options_.verify_reads; }
  std::string Name() const override {
    return direct_active_ ? "file-direct" : "file-buffered";
  }

  Stats stats() const;

  // DenseFile::Options::backend_factory adapters. CreateFactory builds
  // a fresh pair at the geometry the file requests; OpenFactory opens
  // the existing pair and rejects a geometry that does not match the
  // request (the reopening DenseFile must be configured as the writer
  // was).
  using Factory = std::function<StatusOr<std::unique_ptr<StorageBackend>>(
      int64_t num_pages, int64_t page_capacity)>;
  static Factory CreateFactory(Options options);
  static Factory OpenFactory(Options options);

  // --- Testing hooks (keep raw page I/O confined to src/storage/) ---
  // Flips one byte inside the record area of `address`'s slot, directly
  // on disk — a torn/corrupt page for CRC tests.
  Status CorruptPageForTesting(Address address);
  // Rewrites the superblock with `version` (recomputing its CRC) — the
  // version-mismatch rejection fixture.
  static Status OverwriteSuperblockVersionForTesting(
      const std::string& directory, uint32_t version);

 private:
  FileBackend(Options options, int64_t num_pages, int64_t page_capacity,
              int64_t slot_bytes, int data_fd, bool direct_active);

  // Serializes `page` into the (aligned) scratch buffer; returns the
  // slot image. Buffer is zero-filled past the records.
  void SerializeSlot(const Page& page, unsigned char* slot) const;
  // Deserializes a slot image into *out; kCorruption on CRC mismatch, an
  // impossible record count or unordered keys.
  Status DeserializeSlot(Address address, const unsigned char* slot,
                         Page* out) const;
  int64_t SlotOffset(Address address) const {
    return (address - 1) * slot_bytes_;
  }

  Options options_;
  int64_t num_pages_ = 0;
  int64_t page_capacity_ = 0;
  int64_t slot_bytes_ = 0;
  int data_fd_ = -1;
  bool direct_active_ = false;

  // Write-side scratch (writers are externally serialized); aligned for
  // O_DIRECT. Readers use thread-local scratch in the .cc.
  struct AlignedDeleter {
    void operator()(unsigned char* p) const;
  };
  std::unique_ptr<unsigned char[], AlignedDeleter> write_buf_;

  // Counters are atomics because shared-lock readers call ReadPage
  // concurrently (see header note); plain loads elsewhere.
  mutable std::atomic<int64_t> preads_{0};
  std::atomic<int64_t> pwrites_{0};
  std::atomic<int64_t> syncs_{0};
  mutable std::atomic<int64_t> crc_failures_{0};
};

}  // namespace dsf

#endif  // DSF_STORAGE_FILE_BACKEND_H_
