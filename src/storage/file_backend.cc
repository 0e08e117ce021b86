// O_DIRECT is a GNU extension; request it before the first system header.
#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include "storage/file_backend.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

// glibc 2.36's struct statx predates the stx_dio_* fields; with the
// kernel's header included it uses the kernel's definition instead.
#if __has_include(<linux/stat.h>)
#include <linux/stat.h>
#endif

#include "util/crc32c.h"
#include "util/check.h"

namespace dsf {
namespace {

// Buffer alignment, and the slot alignment when the data file's O_DIRECT
// alignment cannot be learned.
constexpr int64_t kAlign = 4096;
// The finest slot alignment: one logical sector.
constexpr int64_t kSectorBytes = 512;
constexpr int64_t kSlotHeaderBytes = 16;   // {count u64, crc u32, reserved u32}
constexpr int64_t kRecordBytes = 16;       // {key u64, value u64}
constexpr int64_t kSuperblockBytes = 4096;
// The run buffer's cap: one WriteRun/ReadRun transfer moves at most this
// many bytes of consecutive slots (256 slots of 1 KiB, 64 of 4 KiB).
constexpr int64_t kRunBytes = 256 * 1024;
constexpr char kMagic[8] = {'D', 'S', 'F', 'S', 'U', 'P', 'E', 'R'};

int64_t AlignUp(int64_t n, int64_t a) { return (n + a - 1) / a * a; }

std::string IdxPath(const std::string& dir) { return dir + "/dsf.idx"; }
std::string DatPath(const std::string& dir) { return dir + "/dsf.dat"; }

Status ErrnoError(const std::string& op, const std::string& path) {
  return Status::IoError(op + " " + path + ": " + std::strerror(errno));
}

// Superblock field offsets inside the 4096-byte block. Fixed-width
// little-fuss layout: values are memcpy'd host-endian (the file pair is
// not a portable interchange format; it is reopened by the process
// family that wrote it).
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 8;
constexpr size_t kOffFlags = 12;
constexpr size_t kOffNumPages = 16;
constexpr size_t kOffPageCapacity = 24;
constexpr size_t kOffSlotBytes = 32;
constexpr size_t kOffRecordBytes = 40;
constexpr size_t kOffCrc = 44;
constexpr size_t kSuperblockCovered = kOffCrc;  // CRC covers [0, kOffCrc)

void PutU32(unsigned char* b, size_t off, uint32_t v) {
  std::memcpy(b + off, &v, sizeof(v));
}
void PutU64(unsigned char* b, size_t off, uint64_t v) {
  std::memcpy(b + off, &v, sizeof(v));
}
uint32_t GetU32(const unsigned char* b, size_t off) {
  uint32_t v;
  std::memcpy(&v, b + off, sizeof(v));
  return v;
}
uint64_t GetU64(const unsigned char* b, size_t off) {
  uint64_t v;
  std::memcpy(&v, b + off, sizeof(v));
  return v;
}

void FillSuperblock(unsigned char* block, uint32_t version, int64_t num_pages,
                    int64_t page_capacity, int64_t slot_bytes) {
  std::memset(block, 0, kSuperblockBytes);
  std::memcpy(block + kOffMagic, kMagic, sizeof(kMagic));
  PutU32(block, kOffVersion, version);
  PutU32(block, kOffFlags, 0);
  PutU64(block, kOffNumPages, static_cast<uint64_t>(num_pages));
  PutU64(block, kOffPageCapacity, static_cast<uint64_t>(page_capacity));
  PutU64(block, kOffSlotBytes, static_cast<uint64_t>(slot_bytes));
  PutU32(block, kOffRecordBytes, static_cast<uint32_t>(kRecordBytes));
  PutU32(block, kOffCrc, Crc32c(block, kSuperblockCovered));
}

// Full-length positioned read/write; retries short transfers and EINTR
// (regular files only short-transfer at EOF, but be strict). Each
// syscall issued is counted in *syscalls when given.
Status PreadFully(int fd, unsigned char* buf, int64_t n, int64_t offset,
                  const std::string& path,
                  std::atomic<int64_t>* syscalls = nullptr) {
  int64_t done = 0;
  while (done < n) {
    if (syscalls != nullptr) syscalls->fetch_add(1, std::memory_order_relaxed);
    ssize_t r = ::pread(fd, buf + done, static_cast<size_t>(n - done),
                        static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("pread", path);
    }
    if (r == 0) {
      return Status::IoError("pread " + path + ": short read (" +
                             std::to_string(done) + "/" + std::to_string(n) +
                             " bytes at offset " + std::to_string(offset) +
                             ")");
    }
    done += r;
  }
  return Status::OK();
}

Status PwriteFully(int fd, const unsigned char* buf, int64_t n, int64_t offset,
                   const std::string& path,
                   std::atomic<int64_t>* syscalls = nullptr) {
  int64_t done = 0;
  while (done < n) {
    if (syscalls != nullptr) syscalls->fetch_add(1, std::memory_order_relaxed);
    ssize_t r = ::pwrite(fd, buf + done, static_cast<size_t>(n - done),
                         static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("pwrite", path);
    }
    done += r;
  }
  return Status::OK();
}

unsigned char* AllocAligned(int64_t n) {
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<size_t>(kAlign),
                     static_cast<size_t>(n)) != 0) {
    return nullptr;
  }
  return static_cast<unsigned char*>(p);
}

// fsyncs a directory, making the entries created in it durable.
Status SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("open", dir);
  Status s;
  if (::fsync(fd) != 0) s = ErrnoError("fsync", dir);
  ::close(fd);
  return s;
}

// The file-offset alignment the kernel reports for O_DIRECT on `path`
// (statx STATX_DIOALIGN), or 0 where it reports none: an older kernel, a
// filesystem that does not say (tmpfs), or a file without direct I/O.
int64_t ReportedDirectIoAlignment(const std::string& path) {
#ifdef STATX_DIOALIGN
  struct statx sx {};
  if (::statx(AT_FDCWD, path.c_str(), 0, STATX_DIOALIGN, &sx) == 0 &&
      (sx.stx_mask & STATX_DIOALIGN) != 0) {
    return sx.stx_dio_offset_align;
  }
#else
  (void)path;
#endif
  return 0;
}

// Whether a 512-byte O_DIRECT read succeeds on the fresh data file at
// `path`. A hole reads back at any alignment, so the probe first writes
// one aligned block of zeros, which the slot format reads as empty pages.
bool DirectIoTakesSectors(const std::string& path) {
#ifdef O_DIRECT
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC | O_DIRECT);
  if (fd < 0) return false;
  unsigned char* block = AllocAligned(kAlign);
  bool ok = false;
  if (block != nullptr) {
    std::memset(block, 0, static_cast<size_t>(kAlign));
    ok = ::pwrite(fd, block, kAlign, 0) == kAlign &&
         ::pread(fd, block, kSectorBytes, kSectorBytes) == kSectorBytes;
  }
  std::free(block);
  ::close(fd);
  return ok;
#else
  (void)path;
  return false;
#endif
}

// The file-offset alignment O_DIRECT needs on the fresh data file at
// `path`, never below one sector: what the kernel reports, else one
// sector if a probe read at that alignment succeeds, else kAlign.
int64_t SlotAlignment(const std::string& path) {
  const int64_t reported = ReportedDirectIoAlignment(path);
  if (reported > 0) return std::max(kSectorBytes, reported);
  return DirectIoTakesSectors(path) ? kSectorBytes : kAlign;
}

// Whether slots of `slot_bytes` meet an O_DIRECT `alignment` (0: unknown,
// and then O_DIRECT is attempted).
bool SlotsFitDirectIo(int64_t slot_bytes, int64_t alignment) {
  return alignment == 0 || slot_bytes % alignment == 0;
}

// Opens the data file, attempting O_DIRECT when asked and falling back
// to buffered I/O where the filesystem refuses it (tmpfs: EINVAL).
StatusOr<std::pair<int, bool>> OpenDataFd(const std::string& path,
                                          bool want_direct, bool create) {
  int base_flags = O_RDWR | O_CLOEXEC | (create ? O_CREAT | O_TRUNC : 0);
#ifdef O_DIRECT
  if (want_direct) {
    int fd = ::open(path.c_str(), base_flags | O_DIRECT, 0644);
    if (fd >= 0) return std::make_pair(fd, true);
    if (errno != EINVAL && errno != EOPNOTSUPP) {
      return ErrnoError("open", path);
    }
  }
#else
  (void)want_direct;  // platform without O_DIRECT: always buffered
#endif
  int fd = ::open(path.c_str(), base_flags, 0644);
  if (fd < 0) return ErrnoError("open", path);
  return std::make_pair(fd, false);
}

}  // namespace

void FileBackend::AlignedDeleter::operator()(unsigned char* p) const {
  std::free(p);
}

// Per-thread read scratch, sized on demand. ReadPage runs concurrently
// under shared-lock readers; a thread_local keeps it allocation-free on
// the steady path without a lock, and frees it when the thread exits.
unsigned char* FileBackend::ThreadReadBuf(int64_t n) {
  thread_local std::unique_ptr<unsigned char[], AlignedDeleter> buf;
  thread_local int64_t cap = 0;
  if (cap < n) {
    buf.reset(AllocAligned(n));
    cap = buf != nullptr ? n : 0;
  }
  return buf.get();
}

FileBackend::FileBackend(Options options, int64_t num_pages,
                         int64_t page_capacity, int64_t slot_bytes,
                         int64_t direct_io_alignment, int data_fd,
                         bool direct_active)
    : options_(std::move(options)),
      num_pages_(num_pages),
      page_capacity_(page_capacity),
      slot_bytes_(slot_bytes),
      direct_io_alignment_(direct_io_alignment),
      data_fd_(data_fd),
      direct_active_(direct_active),
      run_slots_(std::max<int64_t>(1, kRunBytes / slot_bytes)),
      run_buf_(AllocAligned(run_slots_ * slot_bytes)) {
  DSF_CHECK(run_buf_ != nullptr) << "run buffer allocation failed";
  // Commands touch single pages at random and the whole-file passes read
  // explicit runs, so kernel readahead buys nothing. Worse, the large
  // page-cache folios it builds make every later synced 4 KiB write
  // write back the whole folio (measured: ~2 MiB per command after a
  // cold sequential pass). Best effort: a refusal only costs speed.
  (void)::posix_fadvise(data_fd_, 0, 0, POSIX_FADV_RANDOM);
#ifdef O_DIRECT
  // A buffered run write would leave one large folio per run in the
  // page cache, with the same write-back amplification (measured: the
  // whole 256 KiB run per later command), so runs bypass the cache on a
  // second, O_DIRECT descriptor. Where O_DIRECT is refused (tmpfs, which
  // has no write-back) runs stay buffered, as they do when the slots do
  // not meet the filesystem's O_DIRECT alignment.
  if (!direct_active_ && SlotsFitDirectIo(slot_bytes_, direct_io_alignment_)) {
    direct_run_fd_ = ::open(DatPath(options_.directory).c_str(),
                            O_RDWR | O_CLOEXEC | O_DIRECT);
  }
#endif
}

FileBackend::~FileBackend() {
  if (data_fd_ >= 0) ::close(data_fd_);
  if (direct_run_fd_ >= 0) ::close(direct_run_fd_);
}

StatusOr<std::unique_ptr<FileBackend>> FileBackend::Create(
    const Options& options, int64_t num_pages, int64_t page_capacity) {
  return CreatePair(options, num_pages, page_capacity, /*slot_bytes=*/0);
}

StatusOr<std::unique_ptr<FileBackend>>
FileBackend::CreateWithSlotBytesForTesting(const Options& options,
                                           int64_t num_pages,
                                           int64_t page_capacity,
                                           int64_t slot_bytes) {
  return CreatePair(options, num_pages, page_capacity, slot_bytes);
}

StatusOr<std::unique_ptr<FileBackend>> FileBackend::CreatePair(
    const Options& options, int64_t num_pages, int64_t page_capacity,
    int64_t slot_bytes) {
  if (num_pages < 1 || page_capacity < 1) {
    return Status::InvalidArgument("FileBackend geometry must be positive");
  }
  // The data file is truncated first: its O_DIRECT alignment sizes the
  // slots the superblock records. A crash before the superblock below is
  // synced leaves the old superblock over an empty data file, which Open
  // re-extends to an empty pair.
  const std::string dat = DatPath(options.directory);
  auto fd_or = OpenDataFd(dat, options.direct_io, /*create=*/true);
  DSF_RETURN_IF_ERROR(fd_or.status());
  auto [fd, direct] = fd_or.value();
  const int64_t alignment = SlotAlignment(dat);
  if (slot_bytes == 0) {
    slot_bytes =
        AlignUp(kSlotHeaderBytes + page_capacity * kRecordBytes, alignment);
  }

  // Index file: superblock, written and fsynced before any data page.
  const std::string idx = IdxPath(options.directory);
  Status s;
  int idx_fd = ::open(idx.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                      0644);
  if (idx_fd < 0) {
    s = ErrnoError("open", idx);
  } else {
    unsigned char block[kSuperblockBytes];
    FillSuperblock(block, kFormatVersion, num_pages, page_capacity,
                   slot_bytes);
    s = PwriteFully(idx_fd, block, kSuperblockBytes, 0, idx);
    if (s.ok() && ::fdatasync(idx_fd) != 0) s = ErrnoError("fdatasync", idx);
    ::close(idx_fd);
  }
  // Size the file up front; the hole reads back as zeros, which the
  // slot format defines as the valid empty page.
  if (s.ok() &&
      ::ftruncate(fd, static_cast<off_t>(num_pages * slot_bytes)) != 0) {
    s = ErrnoError("ftruncate", dat);
  }
  // The files' data is synced (the superblock above, the data file at
  // the first barrier), but their directory entries are not until the
  // directory itself is: without this a power cut could lose the pair.
  if (s.ok()) s = SyncDirectory(options.directory);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  return std::unique_ptr<FileBackend>(new FileBackend(
      options, num_pages, page_capacity, slot_bytes, alignment, fd, direct));
}

StatusOr<std::unique_ptr<FileBackend>> FileBackend::Open(
    const Options& options) {
  const std::string idx = IdxPath(options.directory);
  int idx_fd = ::open(idx.c_str(), O_RDONLY | O_CLOEXEC);
  if (idx_fd < 0) return ErrnoError("open", idx);
  unsigned char block[kSuperblockBytes];
  Status s = PreadFully(idx_fd, block, kSuperblockBytes, 0, idx);
  ::close(idx_fd);
  DSF_RETURN_IF_ERROR(s);

  if (std::memcmp(block + kOffMagic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(idx + ": not a dsf index file (bad magic)");
  }
  const uint32_t stored_crc = GetU32(block, kOffCrc);
  const uint32_t actual_crc = Crc32c(block, kSuperblockCovered);
  if (stored_crc != actual_crc) {
    return Status::IoError(idx + ": superblock checksum mismatch");
  }
  const uint32_t version = GetU32(block, kOffVersion);
  if (version != kFormatVersion) {
    return Status::FailedPrecondition(
        idx + ": format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kFormatVersion) + ")");
  }
  const int64_t num_pages = static_cast<int64_t>(GetU64(block, kOffNumPages));
  const int64_t page_capacity =
      static_cast<int64_t>(GetU64(block, kOffPageCapacity));
  const int64_t slot_bytes = static_cast<int64_t>(GetU64(block, kOffSlotBytes));
  const int64_t record_bytes =
      static_cast<int64_t>(GetU32(block, kOffRecordBytes));
  // Any whole number of sectors that holds a full page is a valid slot:
  // pairs created at 4096-byte slots open unchanged.
  if (num_pages < 1 || page_capacity < 1 || record_bytes != kRecordBytes ||
      slot_bytes < kSlotHeaderBytes + page_capacity * kRecordBytes ||
      slot_bytes % kSectorBytes != 0) {
    return Status::IoError(idx + ": superblock geometry is inconsistent");
  }

  // A pair created on a filesystem with a finer O_DIRECT alignment runs
  // buffered here; where the kernel does not say, O_DIRECT is attempted.
  const std::string dat = DatPath(options.directory);
  const int64_t alignment = ReportedDirectIoAlignment(dat);
  auto fd_or = OpenDataFd(
      dat, options.direct_io && SlotsFitDirectIo(slot_bytes, alignment),
      /*create=*/false);
  DSF_RETURN_IF_ERROR(fd_or.status());
  auto [fd, direct] = fd_or.value();
  // A crash can leave the file short of its ftruncate'd size only if
  // creation itself died; re-extend so slot reads never hit EOF.
  if (::ftruncate(fd, static_cast<off_t>(num_pages * slot_bytes)) != 0) {
    Status st = ErrnoError("ftruncate", dat);
    ::close(fd);
    return st;
  }
  return std::unique_ptr<FileBackend>(new FileBackend(
      options, num_pages, page_capacity, slot_bytes, alignment, fd, direct));
}

void FileBackend::SerializeSlot(std::span<const Record> records,
                                unsigned char* slot) const {
  std::memset(slot, 0, static_cast<size_t>(slot_bytes_));
  PutU64(slot, 0, static_cast<uint64_t>(records.size()));
  unsigned char* body = slot + kSlotHeaderBytes;
  for (size_t i = 0; i < records.size(); ++i) {
    PutU64(body, i * kRecordBytes, records[i].key);
    PutU64(body, i * kRecordBytes + 8, records[i].value);
  }
  // CRC over the count and the record bytes (the crc field itself and
  // the zero fill are excluded; a fully zero slot stays CRC-free so
  // ftruncate holes read as valid empty pages).
  uint32_t crc = Crc32cExtend(0, slot, 8);
  crc = Crc32cExtend(crc, body, records.size() * kRecordBytes);
  PutU32(slot, 8, crc);
}

Status FileBackend::DeserializeSlot(Address address,
                                    const unsigned char* slot,
                                    Page* out) const {
  out->Clear();
  const uint64_t count = GetU64(slot, 0);
  const uint32_t stored_crc = GetU32(slot, 8);
  if (count == 0 && stored_crc == 0) return Status::OK();  // hole / empty
  if (count > static_cast<uint64_t>(page_capacity_)) {
    crc_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Corruption("page " + std::to_string(address) +
                           ": slot record count " + std::to_string(count) +
                           " exceeds capacity " +
                           std::to_string(page_capacity_));
  }
  const unsigned char* body = slot + kSlotHeaderBytes;
  uint32_t crc = Crc32cExtend(0, slot, 8);
  crc = Crc32cExtend(crc, body, static_cast<size_t>(count) * kRecordBytes);
  if (crc != stored_crc) {
    crc_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Corruption("page " + std::to_string(address) +
                           ": slot checksum mismatch (torn or corrupt write)");
  }
  for (uint64_t i = 0; i < count; ++i) {
    Record r;
    r.key = GetU64(body, static_cast<size_t>(i) * kRecordBytes);
    r.value = GetU64(body, static_cast<size_t>(i) * kRecordBytes + 8);
    // The CRC matched, so a key-order violation means the slot was
    // written malformed, not torn — still kCorruption, the page is unusable.
    if (i > 0 && r.key <= out->MaxKey()) {
      out->Clear();
      crc_failures_.fetch_add(1, std::memory_order_relaxed);
      return Status::Corruption("page " + std::to_string(address) +
                             ": slot records are not strictly ascending");
    }
    out->AppendHigh(&r, &r + 1);
  }
  return Status::OK();
}

Status FileBackend::CheckRange(Address first, int64_t n,
                               const char* op) const {
  if (first < 1 || n < 0 || first + n - 1 > num_pages_) {
    return Status::OutOfRange(std::string("backend ") + op + " address " +
                              std::to_string(first) +
                              (n == 1 ? "" : " (+" + std::to_string(n) + ")") +
                              " outside [1," + std::to_string(num_pages_) +
                              "]");
  }
  return Status::OK();
}

Status FileBackend::WriteSlots(int fd, Address first, int64_t n) {
  const int64_t trigger = options_.kill_after_writes;
  const int64_t written = pwrites_.load(std::memory_order_relaxed);
  const bool kill = trigger >= 0 && written + n > trigger;
  const int64_t allowed = kill ? std::max<int64_t>(0, trigger - written) : n;
  if (allowed > 0) {
    DSF_RETURN_IF_ERROR(PwriteFully(fd, run_buf_.get(),
                                    allowed * slot_bytes_, SlotOffset(first),
                                    DatPath(options_.directory),
                                    &write_syscalls_));
    pwrites_.fetch_add(allowed, std::memory_order_relaxed);
  }
  if (kill) {
    // Kill-test trigger: the first kill_after_writes slots are written;
    // the next must never start. SIGKILL cannot be caught, so the
    // process dies exactly between two slot writes.
    ::kill(::getpid(), SIGKILL);
    ::pause();  // not reached; SIGKILL is immediate
  }
  return Status::OK();
}

Status FileBackend::WritePage(Address address, const Page& page) {
  DSF_RETURN_IF_ERROR(CheckRange(address, 1, "write"));
  SerializeSlot(page.records(), run_buf_.get());
  return WriteSlots(data_fd_, address, 1);
}

Status FileBackend::WriteRun(Address first,
                             std::span<const std::span<const Record>> pages) {
  const int64_t n = static_cast<int64_t>(pages.size());
  DSF_RETURN_IF_ERROR(CheckRange(first, n, "write"));
  const int fd = direct_run_fd_ >= 0 ? direct_run_fd_ : data_fd_;
  for (int64_t done = 0; done < n; done += run_slots_) {
    const int64_t len = std::min(run_slots_, n - done);
    for (int64_t i = 0; i < len; ++i) {
      SerializeSlot(pages[static_cast<size_t>(done + i)],
                    run_buf_.get() + i * slot_bytes_);
    }
    DSF_RETURN_IF_ERROR(WriteSlots(fd, first + done, len));
  }
  return Status::OK();
}

Status FileBackend::ReadPage(Address address, Page* out) {
  DSF_RETURN_IF_ERROR(CheckRange(address, 1, "read"));
  unsigned char* buf = ThreadReadBuf(slot_bytes_);
  if (buf == nullptr) return Status::IoError("slot buffer allocation failed");
  DSF_RETURN_IF_ERROR(PreadFully(data_fd_, buf, slot_bytes_,
                                 SlotOffset(address),
                                 DatPath(options_.directory),
                                 &read_syscalls_));
  preads_.fetch_add(1, std::memory_order_relaxed);
  return DeserializeSlot(address, buf, out);
}

void FileBackend::ReadRun(Address first, std::span<Page> out,
                          std::span<Status> status) {
  const int64_t n = static_cast<int64_t>(out.size());
  const Status range = CheckRange(first, n, "read");
  for (int64_t done = 0; done < n; done += run_slots_) {
    const int64_t len = std::min(run_slots_, n - done);
    Status read = range;
    if (read.ok()) {
      read = PreadFully(data_fd_, run_buf_.get(), len * slot_bytes_,
                        SlotOffset(first + done), DatPath(options_.directory),
                        &read_syscalls_);
    }
    if (read.ok()) preads_.fetch_add(len, std::memory_order_relaxed);
    for (int64_t i = 0; i < len; ++i) {
      const size_t k = static_cast<size_t>(done + i);
      if (read.ok()) {
        // Each slot keeps its own CRC: a torn slot fails only itself.
        status[k] = DeserializeSlot(first + done + i,
                                    run_buf_.get() + i * slot_bytes_, &out[k]);
      } else {
        out[k].Clear();
        status[k] = read;
      }
    }
  }
}

Status FileBackend::SyncBarrier() {
  if (::fdatasync(data_fd_) != 0) {
    return ErrnoError("fdatasync", DatPath(options_.directory));
  }
  syncs_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

FileBackend::Stats FileBackend::stats() const {
  Stats s;
  s.preads = preads_.load(std::memory_order_relaxed);
  s.pwrites = pwrites_.load(std::memory_order_relaxed);
  s.syncs = syncs_.load(std::memory_order_relaxed);
  s.read_syscalls = read_syscalls_.load(std::memory_order_relaxed);
  s.write_syscalls = write_syscalls_.load(std::memory_order_relaxed);
  s.crc_failures = crc_failures_.load(std::memory_order_relaxed);
  s.direct_active = direct_active_;
  return s;
}

FileBackend::Factory FileBackend::CreateFactory(Options options) {
  return [options](int64_t num_pages, int64_t page_capacity)
             -> StatusOr<std::unique_ptr<StorageBackend>> {
    auto backend_or = Create(options, num_pages, page_capacity);
    DSF_RETURN_IF_ERROR(backend_or.status());
    return std::unique_ptr<StorageBackend>(std::move(backend_or).value());
  };
}

FileBackend::Factory FileBackend::OpenFactory(Options options) {
  return [options](int64_t num_pages, int64_t page_capacity)
             -> StatusOr<std::unique_ptr<StorageBackend>> {
    auto backend_or = Open(options);
    DSF_RETURN_IF_ERROR(backend_or.status());
    std::unique_ptr<FileBackend> backend = std::move(backend_or).value();
    if (backend->num_pages() != num_pages ||
        backend->page_capacity() != page_capacity) {
      return Status::FailedPrecondition(
          IdxPath(options.directory) + ": on-disk geometry (" +
          std::to_string(backend->num_pages()) + " pages, capacity " +
          std::to_string(backend->page_capacity()) +
          ") does not match the requested (" + std::to_string(num_pages) +
          ", " + std::to_string(page_capacity) + ")");
    }
    return std::unique_ptr<StorageBackend>(std::move(backend));
  };
}

Status FileBackend::CorruptPageForTesting(Address address) {
  if (address < 1 || address > num_pages_) {
    return Status::OutOfRange("corrupt address out of range");
  }
  unsigned char* buf = ThreadReadBuf(slot_bytes_);
  if (buf == nullptr) return Status::IoError("slot buffer allocation failed");
  const std::string dat = DatPath(options_.directory);
  DSF_RETURN_IF_ERROR(
      PreadFully(data_fd_, buf, slot_bytes_, SlotOffset(address), dat));
  // Flip a record byte; bump the count too if the slot is empty so the
  // result is not the valid all-zero page.
  buf[kSlotHeaderBytes] ^= 0xA5u;
  if (GetU64(buf, 0) == 0) PutU64(buf, 0, 1);
  return PwriteFully(data_fd_, buf, slot_bytes_, SlotOffset(address), dat);
}

Status FileBackend::DropPageCacheForTesting() {
  DSF_RETURN_IF_ERROR(SyncBarrier());
  const int err = ::posix_fadvise(data_fd_, 0, 0, POSIX_FADV_DONTNEED);
  if (err != 0) {
    return Status::IoError("posix_fadvise " + DatPath(options_.directory) +
                           ": " + std::strerror(err));
  }
  return Status::OK();
}

Status FileBackend::OverwriteSuperblockVersionForTesting(
    const std::string& directory, uint32_t version) {
  const std::string idx = IdxPath(directory);
  int fd = ::open(idx.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return ErrnoError("open", idx);
  unsigned char block[kSuperblockBytes];
  Status s = PreadFully(fd, block, kSuperblockBytes, 0, idx);
  if (s.ok()) {
    PutU32(block, kOffVersion, version);
    PutU32(block, kOffCrc, Crc32c(block, kSuperblockCovered));
    s = PwriteFully(fd, block, kSuperblockBytes, 0, idx);
  }
  ::close(fd);
  return s;
}

}  // namespace dsf
