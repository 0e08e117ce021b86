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
//                   i*slot_bytes. Create sizes slot_bytes to
//                   16 + 16*page_capacity rounded up to the file-offset
//                   alignment O_DIRECT needs on the new data file (statx
//                   STATX_DIOALIGN, else a 512-byte O_DIRECT probe
//                   read, else 4096; never below 512), so every slot is
//                   O_DIRECT-compatible where it was created. Open
//                   adopts the recorded size: any whole number of
//                   512-byte sectors that holds a full page, so pairs
//                   written with 4096-byte slots open unchanged. A slot
//                   is a 16-byte header
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
// I/O modes. WritePage/ReadPage are one positioned full-slot
// pwrite/pread each. WriteRun/ReadRun serialize consecutive slots into
// one backend-owned run buffer (allocated once, at most 256 KiB) and
// move it with one pwrite/pread per run, so a whole-file pass costs
// about M/kRunPages syscalls instead of M (M/64 for 4 KiB slots, which
// the 256 KiB cap splits); every slot in the run keeps its own header
// and CRC, so the on-disk format is the same either way. With
// Options::direct_io the data file is opened O_DIRECT (buffers are
// 4096-aligned, slots and runs are multiples of the alignment at aligned
// offsets); filesystems that refuse O_DIRECT fall back to buffered I/O
// transparently, as does a pair whose slots do not meet this
// filesystem's alignment — stats().direct_active says which mode is
// live. Page cache: the data file is advised POSIX_FADV_RANDOM, and a
// buffered file still writes its runs through a second O_DIRECT
// descriptor, because large page-cache folios (from readahead or from a
// 256 KiB buffered write) would make every later synced 4 KiB write
// write back the whole folio. SyncBarrier() is fdatasync on the data
// file. Create fsyncs the directory, so the new pair's entries are
// durable too.
//
// Crash model. A slot smaller than 4 KiB shares a page-cache page and a
// physical block with its neighbours, so a synced write of one slot
// writes back its neighbours' (unchanged or already written) bytes too.
// The SIGKILL contract is the same as with 4 KiB slots: a completed
// pwrite is all-or-nothing in the page cache, and the kill trigger
// stops between two slot writes. The per-slot CRC still quarantines each
// torn slot on its own. A power cut that tears a physical sector is
// outside the tested model, as it is for 4 KiB slots.
//
// Kill-testing. Options::kill_after_writes arms the backend to SIGKILL
// its own process when data-file slot write number kill_after_writes+1
// is requested (the first k slots are written, the next never starts) —
// the durable-storage analogue of FaultPolicy::CrashAfterAccesses, at
// slot granularity. A run that would cross the trigger writes its
// prefix up to slot k, then dies. The parent of the forked child
// reopens the files and drives recovery (tests/durable_kill_test.cc).
//
// Thread safety: WritePage, WriteRun, ReadRun and SyncBarrier are
// writer-side and externally serialized (PageFile accesses are, per
// shard; the run passes run at setup, open, repair and validation).
// ReadPage may be called concurrently by shared-lock readers; it uses
// thread-local scratch and atomic counters.

#ifndef DSF_STORAGE_FILE_BACKEND_H_
#define DSF_STORAGE_FILE_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
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
    // Testing: after this many data-file slot writes, the next slot
    // write raises SIGKILL on the calling process instead of running (a
    // run writes its prefix up to the trigger first). -1 disarms.
    int64_t kill_after_writes = -1;
  };

  struct Stats {
    // Slots read and written: a run of n slots counts n, so these match
    // the page-level accounting whatever the transfer size.
    int64_t preads = 0;
    int64_t pwrites = 0;
    // The data-file pread/pwrite syscalls that moved them: one per page,
    // or one per run.
    int64_t read_syscalls = 0;
    int64_t write_syscalls = 0;
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
  Status WriteRun(Address first,
                  std::span<const std::span<const Record>> pages) override;
  void ReadRun(Address first, std::span<Page> out,
               std::span<Status> status) override;
  Status SyncBarrier() override;
  bool VerifyOnRead() const override { return options_.verify_reads; }
  std::string Name() const override {
    return direct_active_ ? "file-direct" : "file-buffered";
  }

  Stats stats() const;

  // Bytes per data-file slot, as the superblock records them; the data
  // file is num_pages() * slot_bytes() bytes.
  int64_t slot_bytes() const { return slot_bytes_; }
  // The file-offset alignment O_DIRECT needs on the data file: what Create
  // sized the slots to, or at Open what the kernel reports (0 when it
  // does not say).
  int64_t direct_io_alignment() const { return direct_io_alignment_; }

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
  // Syncs the data file and evicts its pages from the OS page cache — a
  // cold cache, as after a restart, for the page-cache tests.
  Status DropPageCacheForTesting();
  // Create with `slot_bytes` recorded and used as given instead of sized
  // to the filesystem — the fixture for pairs with 4096-byte slots (what
  // Create picks where the alignment cannot be learned, and the size of
  // pairs written by older builds) and for slot sizes Open must reject.
  static StatusOr<std::unique_ptr<FileBackend>> CreateWithSlotBytesForTesting(
      const Options& options, int64_t num_pages, int64_t page_capacity,
      int64_t slot_bytes);
  // Rewrites the superblock with `version` (recomputing its CRC) — the
  // version-mismatch rejection fixture.
  static Status OverwriteSuperblockVersionForTesting(
      const std::string& directory, uint32_t version);

 private:
  FileBackend(Options options, int64_t num_pages, int64_t page_capacity,
              int64_t slot_bytes, int64_t direct_io_alignment, int data_fd,
              bool direct_active);

  // Create, with the slot size given (0: sized to the data file's O_DIRECT
  // alignment).
  static StatusOr<std::unique_ptr<FileBackend>> CreatePair(
      const Options& options, int64_t num_pages, int64_t page_capacity,
      int64_t slot_bytes);

  struct AlignedDeleter {
    void operator()(unsigned char* p) const;
  };

  // Serializes one page's records into the slot image at `slot`,
  // zero-filled past the records.
  void SerializeSlot(std::span<const Record> records,
                     unsigned char* slot) const;
  // Deserializes a slot image into *out; kCorruption on CRC mismatch, an
  // impossible record count or unordered keys.
  Status DeserializeSlot(Address address, const unsigned char* slot,
                         Page* out) const;
  int64_t SlotOffset(Address address) const {
    return (address - 1) * slot_bytes_;
  }
  // OutOfRange unless slots first .. first+n-1 all exist.
  Status CheckRange(Address first, int64_t n, const char* op) const;
  // Writes the first n slot images of the run buffer at `first` through
  // `fd`, honoring the kill trigger.
  Status WriteSlots(int fd, Address first, int64_t n);
  // The calling thread's aligned read scratch of at least n bytes.
  static unsigned char* ThreadReadBuf(int64_t n);

  Options options_;
  int64_t num_pages_ = 0;
  int64_t page_capacity_ = 0;
  int64_t slot_bytes_ = 0;
  int64_t direct_io_alignment_ = 0;
  int data_fd_ = -1;
  // The data file opened O_DIRECT for WriteRun when data_fd_ is buffered
  // (see the constructor); -1 when data_fd_ is direct already or the
  // filesystem refuses O_DIRECT.
  int direct_run_fd_ = -1;
  bool direct_active_ = false;

  // Writer-side scratch of run_slots_ slots (WritePage uses the first),
  // aligned for O_DIRECT; ReadPage uses thread-local scratch instead.
  int64_t run_slots_ = 1;
  std::unique_ptr<unsigned char[], AlignedDeleter> run_buf_;

  // Counters are atomics because shared-lock readers call ReadPage
  // concurrently (see header note); plain loads elsewhere.
  mutable std::atomic<int64_t> preads_{0};
  std::atomic<int64_t> pwrites_{0};
  std::atomic<int64_t> read_syscalls_{0};
  std::atomic<int64_t> write_syscalls_{0};
  std::atomic<int64_t> syncs_{0};
  mutable std::atomic<int64_t> crc_failures_{0};
};

}  // namespace dsf

#endif  // DSF_STORAGE_FILE_BACKEND_H_
