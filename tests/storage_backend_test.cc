// StorageBackend / FileBackend coverage: CRC32C vectors, differential
// replay parity between the in-memory simulation and the durable file
// backend, reopen round-trips through DenseFile::Open, superblock
// version rejection, the pinned on-disk bytes, torn-page (CRC)
// handling, the device-read shape of a file with no in-memory page
// image, run I/O (the whole-file passes' one syscall per run of slots),
// Create over an existing pair, and device errors (failed writes and
// barriers) surfacing as typed Status.

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/auditor.h"
#include "core/dense_file.h"
#include "gtest/gtest.h"
#include "shard/sharded_dense_file.h"
#include "storage/file_backend.h"
#include "storage/page_file.h"
#include "storage/storage_backend.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/status.h"
#include "util/temp_dir.h"
#include "workload/reference_model.h"
#include "workload/workload.h"

namespace dsf {
namespace {

// ---------------------------------------------------------------------
// CRC32C

TEST(Crc32c, KnownVectors) {
  // The canonical check value for CRC-32C: "123456789".
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  // Empty input is the identity.
  EXPECT_EQ(Crc32c("", 0), 0u);
  // 32 zero bytes (iSCSI test vector).
  unsigned char zeros[32] = {0};
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
}

TEST(Crc32c, ExtendComposes) {
  const char* data = "deadbeefcafe";
  const uint32_t whole = Crc32c(data, 12);
  uint32_t split = Crc32cExtend(0, data, 5);
  split = Crc32cExtend(split, data + 5, 7);
  EXPECT_EQ(split, whole);
}

// The dispatched kernel (SSE4.2 where the CPU has it) against the
// portable table walk: every length through several 8-byte words and a
// tail, at every start offset within a word, and Extend split anywhere.
TEST(Crc32c, DispatchedKernelMatchesTheTable) {
  Rng rng(20261020);
  std::vector<unsigned char> buf(300 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 300; ++n) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(Crc32cExtend(0, p, n), Crc32cExtendTableForTesting(0, p, n))
          << "offset " << offset << " length " << n;
      ASSERT_EQ(Crc32cExtend(0xDEADBEEFu, p, n),
                Crc32cExtendTableForTesting(0xDEADBEEFu, p, n))
          << "offset " << offset << " length " << n;
    }
  }
  const uint32_t whole = Crc32c(buf.data(), 300);
  for (size_t split = 0; split <= 300; ++split) {
    const uint32_t head = Crc32cExtend(0, buf.data(), split);
    EXPECT_EQ(Crc32cExtend(head, buf.data() + split, 300 - split), whole)
        << "split at " << split;
  }
}

// ---------------------------------------------------------------------
// ScopedTempDir

TEST(ScopedTempDir, CreatesAndRemovesRecursively) {
  std::string path;
  {
    ScopedTempDir dir("dsf-test");
    path = dir.path();
    struct stat st;
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    ASSERT_TRUE(S_ISDIR(st.st_mode));
    // Populate a nested tree to prove removal recurses.
    ASSERT_EQ(::mkdir((path + "/sub").c_str(), 0755), 0);
    FILE* f = ::fopen((path + "/sub/file").c_str(), "w");
    ASSERT_NE(f, nullptr);
    ::fputs("x", f);
    ::fclose(f);
  }
  struct stat st;
  EXPECT_NE(::stat(path.c_str(), &st), 0) << path << " leaked";
}

// ---------------------------------------------------------------------
// Shared workload

DenseFile::Options BaseOptions(int64_t cache_frames = 0) {
  DenseFile::Options options;
  options.num_pages = 32;
  options.d = 4;
  options.D = 20;
  options.cache_frames = cache_frames;
  options.audit_every_command = true;
  return options;
}

struct Workload {
  std::vector<Record> initial;
  Trace trace;
};

Workload MakeWorkload() {
  Workload w;
  Rng rng(20260808);
  w.initial = MakeAscendingRecords(80, 30, 30);
  w.trace = AscendingInserts(24, 601, 1);
  const Trace tail = UniformMix(120, 0.35, 0.55, 2700, rng);
  w.trace.insert(w.trace.end(), tail.begin(), tail.end());
  return w;
}

Status Apply(DenseFile& file, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kInsert:
      return file.Insert(op.record);
    case Op::Kind::kDelete:
      return file.Delete(op.record.key);
    case Op::Kind::kGet:
      return file.Get(op.record.key).status();
    case Op::Kind::kScan: {
      std::vector<Record> out;
      return file.Scan(op.record.key, op.scan_hi, &out);
    }
  }
  return Status::OK();
}

void Replay(DenseFile& file, const Workload& w) {
  ASSERT_TRUE(file.BulkLoad(w.initial).ok());
  for (const Op& op : w.trace) IgnoreStatus(Apply(file, op));
}

// ---------------------------------------------------------------------
// Differential replay parity: the same trace against the pure in-memory
// simulation, a MemoryBackend-attached file, and a FileBackend-attached
// file must agree on the final contents, the audit verdict, AND the
// accounted I/O (the backend must not perturb the paper's cost model).

struct ParityRun {
  IoStats stats;
  std::vector<Record> contents;
  bool audit_ok = false;
};

ParityRun RunParity(const Workload& w, DenseFile::Options options) {
  ParityRun out;
  std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
  Replay(*file, w);
  out.stats = file->io_stats();
  out.contents = *file->ScanAll();
  out.audit_ok = file->Audit().ok();
  return out;
}

void ExpectSameAccounting(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.page_reads, b.page_reads);
  EXPECT_EQ(a.page_writes, b.page_writes);
  EXPECT_EQ(a.logical_reads, b.logical_reads);
  EXPECT_EQ(a.logical_writes, b.logical_writes);
  EXPECT_EQ(a.seeks, b.seeks);
  EXPECT_EQ(a.sequential_accesses, b.sequential_accesses);
}

class BackendParity : public ::testing::TestWithParam<DenseFile::Policy> {};

TEST_P(BackendParity, SimulatedVsMemoryVsFile) {
  const Workload w = MakeWorkload();

  DenseFile::Options simulated = BaseOptions();
  simulated.policy = GetParam();

  DenseFile::Options with_memory = simulated;
  with_memory.backend_factory = [](int64_t num_pages, int64_t page_capacity)
      -> StatusOr<std::unique_ptr<StorageBackend>> {
    return std::unique_ptr<StorageBackend>(
        std::make_unique<MemoryBackend>(num_pages, page_capacity));
  };

  ScopedTempDir dir("dsf-parity");
  DenseFile::Options with_file = simulated;
  FileBackend::Options fb;
  fb.directory = dir.path();
  with_file.backend_factory = FileBackend::CreateFactory(fb);

  const ParityRun base = RunParity(w, simulated);
  const ParityRun mem = RunParity(w, with_memory);
  const ParityRun file = RunParity(w, with_file);

  EXPECT_TRUE(base.audit_ok);
  EXPECT_TRUE(mem.audit_ok);
  EXPECT_TRUE(file.audit_ok);
  EXPECT_EQ(base.contents, mem.contents);
  EXPECT_EQ(base.contents, file.contents);
  ExpectSameAccounting(base.stats, mem.stats);
  ExpectSameAccounting(base.stats, file.stats);
}

INSTANTIATE_TEST_SUITE_P(Policies, BackendParity,
                         ::testing::Values(DenseFile::Policy::kControl2,
                                           DenseFile::Policy::kControl1,
                                           DenseFile::Policy::kLocalShift),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case DenseFile::Policy::kControl2:
                               return std::string("Control2");
                             case DenseFile::Policy::kControl1:
                               return std::string("Control1");
                             case DenseFile::Policy::kLocalShift:
                               return std::string("LocalShift");
                           }
                           return std::string("Unknown");
                         });

// Pooled configuration: physical traffic goes through FlushAll's
// dirty-order write-back; the backend must see it unchanged.
TEST(BackendParity, PooledSimulatedVsFile) {
  const Workload w = MakeWorkload();
  DenseFile::Options simulated = BaseOptions(/*cache_frames=*/4);

  ScopedTempDir dir("dsf-parity-pool");
  DenseFile::Options with_file = simulated;
  FileBackend::Options fb;
  fb.directory = dir.path();
  with_file.backend_factory = FileBackend::CreateFactory(fb);

  const ParityRun base = RunParity(w, simulated);
  const ParityRun file = RunParity(w, with_file);
  EXPECT_TRUE(base.audit_ok);
  EXPECT_TRUE(file.audit_ok);
  EXPECT_EQ(base.contents, file.contents);
  ExpectSameAccounting(base.stats, file.stats);
}

// ---------------------------------------------------------------------
// Reopen round-trip

TEST(FileBackendReopen, RoundTripsThroughOpen) {
  const Workload w = MakeWorkload();
  ScopedTempDir dir("dsf-reopen");
  FileBackend::Options fb;
  fb.directory = dir.path();

  std::vector<Record> expected;
  {
    DenseFile::Options options = BaseOptions();
    options.backend_factory = FileBackend::CreateFactory(fb);
    std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
    Replay(*file, w);
    expected = *file->ScanAll();
    FileBackend* backend = static_cast<FileBackend*>(file->storage_backend());
    ASSERT_NE(backend, nullptr);
    EXPECT_GT(backend->stats().pwrites, 0);
    EXPECT_GT(backend->stats().syncs, 0);
  }  // destructor closes the file pair; commands already synced

  DenseFile::Options options = BaseOptions();
  options.backend_factory = FileBackend::OpenFactory(fb);
  StatusOr<std::unique_ptr<DenseFile>> reopened = DenseFile::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  DenseFile& file = **reopened;
  EXPECT_TRUE(file.corrupt_pages_at_open().empty());
  // A clean close needs no content repair — at most calibrator resync
  // (the in-memory index always dies with the process).
  EXPECT_FALSE(file.open_repair_report().rewrote_file);
  EXPECT_EQ(file.open_repair_report().duplicate_records_dropped, 0);
  EXPECT_EQ(*file.ScanAll(), expected);
  EXPECT_TRUE(file.Audit().ok());

  // The reopened file must keep working: run the tail of the trace again
  // (keys shifted so inserts hit fresh ranges are unnecessary — a replay
  // of the same ops exercises both hit and miss paths).
  for (const Op& op : w.trace) IgnoreStatus(Apply(file, op));
  EXPECT_TRUE(file.Audit().ok());
}

TEST(FileBackendReopen, OpenNeedsFactory) {
  DenseFile::Options options = BaseOptions();
  EXPECT_TRUE(DenseFile::Open(options).status().IsInvalidArgument());
}

TEST(FileBackendReopen, RejectsVersionMismatch) {
  ScopedTempDir dir("dsf-version");
  FileBackend::Options fb;
  fb.directory = dir.path();
  { ASSERT_TRUE(FileBackend::Create(fb, 32, 21).ok()); }
  ASSERT_TRUE(
      FileBackend::OverwriteSuperblockVersionForTesting(dir.path(), 99).ok());
  const Status open = FileBackend::Open(fb).status();
  EXPECT_TRUE(open.code() == StatusCode::kFailedPrecondition) << open;
  // Through the DenseFile::Open plumbing as well.
  DenseFile::Options options = BaseOptions();
  options.backend_factory = FileBackend::OpenFactory(fb);
  EXPECT_TRUE(DenseFile::Open(options).status().code() == StatusCode::kFailedPrecondition);
}

TEST(FileBackendReopen, RejectsGeometryMismatch) {
  ScopedTempDir dir("dsf-geometry");
  FileBackend::Options fb;
  fb.directory = dir.path();
  { ASSERT_TRUE(FileBackend::Create(fb, 64, 21).ok()); }
  // The on-disk pair holds 64 pages; a 32-page file must refuse it.
  DenseFile::Options options = BaseOptions();
  options.backend_factory = FileBackend::OpenFactory(fb);
  EXPECT_TRUE(DenseFile::Open(options).status().code() == StatusCode::kFailedPrecondition);
}

TEST(FileBackendReopen, RejectedCreateLeavesDataUntouched) {
  const Workload w = MakeWorkload();
  ScopedTempDir dir("dsf-rejected-create");
  FileBackend::Options fb;
  fb.directory = dir.path();
  std::vector<Record> expected;
  {
    DenseFile::Options options = BaseOptions();
    options.backend_factory = FileBackend::CreateFactory(fb);
    std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
    Replay(*file, w);
    expected = *file->ScanAll();
  }
  // D - d = 14 fails CONTROL 2's gap condition 14 > 3*ceil(log 32) at
  // block_size 1. The rejection must come before the factory runs, since
  // creating the file pair truncates it.
  DenseFile::Options rejected = BaseOptions();
  rejected.D = 18;
  rejected.block_size = 1;
  rejected.backend_factory = FileBackend::CreateFactory(fb);
  EXPECT_TRUE(DenseFile::Create(rejected).status().IsInvalidArgument());

  DenseFile::Options options = BaseOptions();
  options.backend_factory = FileBackend::OpenFactory(fb);
  StatusOr<std::unique_ptr<DenseFile>> reopened = DenseFile::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(*(*reopened)->ScanAll(), expected);
}

TEST(FileBackendReopen, RejectsBadMagic) {
  ScopedTempDir dir("dsf-magic");
  FileBackend::Options fb;
  fb.directory = dir.path();
  { ASSERT_TRUE(FileBackend::Create(fb, 32, 21).ok()); }
  FILE* f = ::fopen((dir.path() + "/dsf.idx").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ::fputs("NOTDSF00", f);
  ::fclose(f);
  EXPECT_TRUE(FileBackend::Open(fb).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Slot size: 16 + 16 * page_capacity bytes rounded up to the data file's
// O_DIRECT alignment, recorded in the superblock and adopted by Open.

int64_t SlotBytesOf(DenseFile& file) {
  return static_cast<FileBackend*>(file.storage_backend())->slot_bytes();
}

int64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size)
                                        : -1;
}

TEST(FileBackendFormat, SlotsRoundUpToTheDirectIoAlignment) {
  ScopedTempDir dir("dsf-slot-size");
  FileBackend::Options fb;
  fb.directory = dir.path();
  constexpr int64_t kPages = 64;
  int64_t align = 0;
  int64_t slot_bytes = 0;
  {
    std::unique_ptr<FileBackend> backend = *FileBackend::Create(fb, kPages, 37);
    align = backend->direct_io_alignment();
    slot_bytes = backend->slot_bytes();
  }
  EXPECT_GE(align, 512);
  EXPECT_EQ(align % 512, 0);
  EXPECT_EQ(slot_bytes, (16 + 37 * 16 + align - 1) / align * align);
  EXPECT_EQ(FileBytes(dir.path() + "/dsf.dat"), kPages * slot_bytes);
  EXPECT_EQ((*FileBackend::Open(fb))->slot_bytes(), slot_bytes);
  if (align != 512) {
    GTEST_SKIP() << "this data file needs " << align
                 << "-byte O_DIRECT alignment";
  }
  // A data file that takes 512-byte direct I/O: 608 bytes -> 1024.
  EXPECT_EQ(slot_bytes, 1024);
}

TEST(FileBackendFormat, OpensPairsWrittenWith4096ByteSlots) {
  const Workload w = MakeWorkload();
  ScopedTempDir dir("dsf-slot-4096");
  FileBackend::Options fb;
  fb.directory = dir.path();
  std::vector<Record> expected;
  {
    DenseFile::Options options = BaseOptions();
    options.backend_factory = [&fb](int64_t num_pages, int64_t page_capacity)
        -> StatusOr<std::unique_ptr<StorageBackend>> {
      auto backend = FileBackend::CreateWithSlotBytesForTesting(
          fb, num_pages, page_capacity, 4096);
      DSF_RETURN_IF_ERROR(backend.status());
      return std::unique_ptr<StorageBackend>(std::move(backend).value());
    };
    std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
    Replay(*file, w);
    expected = *file->ScanAll();
  }
  EXPECT_EQ(FileBytes(dir.path() + "/dsf.dat"), 32 * 4096);
  DenseFile::Options options = BaseOptions();
  options.backend_factory = FileBackend::OpenFactory(fb);
  StatusOr<std::unique_ptr<DenseFile>> reopened = DenseFile::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  DenseFile& file = **reopened;
  EXPECT_EQ(SlotBytesOf(file), 4096);
  EXPECT_TRUE(file.corrupt_pages_at_open().empty());
  EXPECT_FALSE(file.open_repair_report().rewrote_file);
  EXPECT_EQ(*file.ScanAll(), expected);
  EXPECT_TRUE(file.Audit().ok());
}

std::vector<unsigned char> FileContents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in), {});
}

// The on-disk bytes of a superblock and of one slot, pinned as the
// format-version-1 image (fields are host-endian, so the pinned bytes
// are those of a little-endian host).
TEST(FileBackendFormat, GoldenSuperblockAndSlotBytes) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the pinned image is little-endian";
  }
  static_assert(FileBackend::kFormatVersion == 1);
  ScopedTempDir dir("dsf-golden");
  FileBackend::Options fb;
  fb.directory = dir.path();
  {
    std::unique_ptr<FileBackend> backend =
        *FileBackend::CreateWithSlotBytesForTesting(fb, 2, 3, 512);
    Page page(3);
    ASSERT_TRUE(page.Insert(Record{0x0102030405060708, 0x1112131415161718})
                    .ok());
    ASSERT_TRUE(page.Insert(Record{0x2122232425262728, 0x3132333435363738})
                    .ok());
    ASSERT_TRUE(backend->WritePage(1, page).ok());
    ASSERT_TRUE(backend->SyncBarrier().ok());
  }
  const std::vector<unsigned char> idx = FileContents(dir.path() + "/dsf.idx");
  const std::vector<unsigned char> dat = FileContents(dir.path() + "/dsf.dat");
  // magic "DSFSUPER", version 1, flags 0, num_pages 2, page_capacity 3,
  // slot_bytes 512, record_bytes 16, CRC32C of the 44 bytes before it.
  std::vector<unsigned char> want_idx = {
      0x44, 0x53, 0x46, 0x53, 0x55, 0x50, 0x45, 0x52, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0xf0, 0xa3, 0x7d, 0x70};
  want_idx.resize(4096, 0);
  // Slot 1: count 2, CRC32C of the count and the records, reserved 0, the
  // two records, zero fill. Slot 2 was never written: all zero.
  std::vector<unsigned char> want_dat = {
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4d, 0x69, 0xcc, 0x08,
      0x00, 0x00, 0x00, 0x00, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11, 0x28, 0x27, 0x26, 0x25,
      0x24, 0x23, 0x22, 0x21, 0x38, 0x37, 0x36, 0x35, 0x34, 0x33, 0x32, 0x31};
  want_dat.resize(2 * 512, 0);
  EXPECT_EQ(idx, want_idx);
  EXPECT_EQ(dat, want_dat);
}

TEST(FileBackendFormat, RejectsSlotBytesTooSmallOrNotWholeSectors) {
  ScopedTempDir dir("dsf-slot-reject");
  FileBackend::Options fb;
  fb.directory = dir.path();
  // Capacity 37 needs 608 bytes; 1000 is not a whole number of sectors.
  for (const int64_t slot_bytes : {512, 1000, 4000}) {
    ASSERT_TRUE(
        FileBackend::CreateWithSlotBytesForTesting(fb, 32, 37, slot_bytes)
            .ok());
    const Status open = FileBackend::Open(fb).status();
    EXPECT_TRUE(open.IsIoError()) << slot_bytes << ": " << open;
  }
  // The smallest valid slot opens.
  ASSERT_TRUE(
      FileBackend::CreateWithSlotBytesForTesting(fb, 32, 37, 1024).ok());
  EXPECT_TRUE(FileBackend::Open(fb).ok());
}

// ---------------------------------------------------------------------
// Torn / corrupt pages

TEST(FileBackendCorruption, ReadPageReturnsTypedCorruption) {
  ScopedTempDir dir("dsf-crc");
  FileBackend::Options fb;
  fb.directory = dir.path();
  std::unique_ptr<FileBackend> backend = *FileBackend::Create(fb, 8, 21);
  Page page(21);
  ASSERT_TRUE(page.Insert(Record{10, 100}).ok());
  ASSERT_TRUE(page.Insert(Record{20, 200}).ok());
  ASSERT_TRUE(backend->WritePage(3, page).ok());
  ASSERT_TRUE(backend->SyncBarrier().ok());

  Page out(21);
  ASSERT_TRUE(backend->ReadPage(3, &out).ok());
  EXPECT_EQ(out.records(), page.records());

  ASSERT_TRUE(backend->CorruptPageForTesting(3).ok());
  const Status corrupt = backend->ReadPage(3, &out);
  EXPECT_TRUE(corrupt.IsCorruption()) << corrupt;
  EXPECT_TRUE(out.empty());  // a corrupt slot never leaks partial records
  EXPECT_GE(backend->stats().crc_failures, 1);
  // Untouched pages still read fine; an empty (hole) slot is valid.
  EXPECT_TRUE(backend->ReadPage(4, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(FileBackendCorruption, OpenRepairsAroundCorruptPage) {
  const Workload w = MakeWorkload();
  ScopedTempDir dir("dsf-corrupt-open");
  FileBackend::Options fb;
  fb.directory = dir.path();

  std::vector<Record> expected;
  Address victim = 0;
  {
    DenseFile::Options options = BaseOptions();
    options.backend_factory = FileBackend::CreateFactory(fb);
    std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
    Replay(*file, w);
    expected = *file->ScanAll();
    // Pick a populated page to corrupt.
    for (Address a = 1; a <= file->num_pages(); ++a) {
      if (!file->control().file().Peek(a).empty()) {
        victim = a;
        break;
      }
    }
    ASSERT_NE(victim, 0);
  }
  {
    std::unique_ptr<FileBackend> raw = *FileBackend::Open(fb);
    ASSERT_TRUE(raw->CorruptPageForTesting(victim).ok());
  }

  DenseFile::Options options = BaseOptions();
  options.backend_factory = FileBackend::OpenFactory(fb);
  StatusOr<std::unique_ptr<DenseFile>> reopened = DenseFile::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  DenseFile& file = **reopened;
  // The torn page was detected, dropped, and reported...
  ASSERT_EQ(file.corrupt_pages_at_open().size(), 1u);
  EXPECT_EQ(file.corrupt_pages_at_open()[0], victim);
  // ...the repaired file is structurally sound...
  EXPECT_TRUE(file.Audit().ok()) << file.Audit().ToString();
  // ...and exactly the surviving records remain: the reopened contents
  // are the expected set minus the victim page's records (which are a
  // contiguous key run, so verify by subset + count arithmetic).
  const std::vector<Record> survivors = *file.ScanAll();
  std::set<Key> surviving_keys;
  for (const Record& r : survivors) surviving_keys.insert(r.key);
  int64_t lost = 0;
  for (const Record& r : expected) {
    if (surviving_keys.count(r.key) == 0) ++lost;
  }
  EXPECT_EQ(static_cast<int64_t>(expected.size()) - lost,
            static_cast<int64_t>(survivors.size()));
  EXPECT_GT(lost, 0);  // the victim page really held records
  // The durable image now matches the repaired state: a second reopen
  // is clean.
  {
    StatusOr<std::unique_ptr<DenseFile>> again = DenseFile::Open(options);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_TRUE((*again)->corrupt_pages_at_open().empty());
    EXPECT_EQ(*(*again)->ScanAll(), survivors);
  }
}

// ---------------------------------------------------------------------
// Device-read shape: with no in-memory page image, every page the
// library looks at is a pread, so the count is the cost model's.

DenseFile::Options UnauditedOptions() {
  DenseFile::Options options = BaseOptions();
  options.audit_every_command = false;  // the auditor's reads are extra
  return options;
}

TEST(FileBackendDeviceReads, CreateAndBulkLoadIssueNoReads) {
  ScopedTempDir dir("dsf-reads-create");
  FileBackend::Options fb;
  fb.directory = dir.path();
  DenseFile::Options options = UnauditedOptions();
  options.backend_factory = FileBackend::CreateFactory(fb);
  std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
  ASSERT_TRUE(file->BulkLoad(MakeWorkload().initial).ok());
  const FileBackend::Stats stats =
      static_cast<FileBackend*>(file->storage_backend())->stats();
  EXPECT_EQ(stats.preads, 0);
  EXPECT_EQ(stats.pwrites, options.num_pages);  // the layout, once
}

TEST(FileBackendDeviceReads, CleanOpenReadsEachPageOnce) {
  const Workload w = MakeWorkload();
  ScopedTempDir dir("dsf-reads-open");
  FileBackend::Options fb;
  fb.directory = dir.path();
  std::vector<Record> expected;
  {
    DenseFile::Options options = UnauditedOptions();
    options.backend_factory = FileBackend::CreateFactory(fb);
    std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
    Replay(*file, w);
    expected = *file->ScanAll();
  }
  DenseFile::Options options = UnauditedOptions();
  options.backend_factory = FileBackend::OpenFactory(fb);
  StatusOr<std::unique_ptr<DenseFile>> reopened = DenseFile::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_FALSE((*reopened)->open_repair_report().rewrote_file);
  EXPECT_EQ(
      static_cast<FileBackend*>((*reopened)->storage_backend())->stats().preads,
      options.num_pages);
  EXPECT_EQ(*(*reopened)->ScanAll(), expected);
}

TEST(FileBackendDeviceReads, UnpooledReplayPreadsEqualPageReads) {
  const Workload w = MakeWorkload();
  ScopedTempDir dir("dsf-reads-replay");
  FileBackend::Options fb;
  fb.directory = dir.path();
  DenseFile::Options options = UnauditedOptions();
  options.backend_factory = FileBackend::CreateFactory(fb);
  std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
  Replay(*file, w);
  const IoStats io = file->io_stats();
  EXPECT_GT(io.page_reads, 0);
  EXPECT_EQ(
      static_cast<FileBackend*>(file->storage_backend())->stats().preads,
      io.page_reads);
}

// ---------------------------------------------------------------------
// Run I/O: the layout, Open's check pass and the repair gather move
// consecutive slots per syscall; Stats::preads/pwrites still count
// slots, and every slot keeps its own CRC verdict. These files ask for
// O_DIRECT, so on a filesystem that honors it (not tmpfs) the aligned
// run buffer goes straight to the device.

// The transfers a pass over `pages` slots of `slot_bytes` may take: one
// per run of kRunPages slots, or per 256 KiB where that is fewer slots.
int64_t RunCeil(int64_t pages, int64_t slot_bytes) {
  const int64_t per_transfer =
      std::min(kRunPages, std::max<int64_t>(1, (256 << 10) / slot_bytes));
  return (pages + per_transfer - 1) / per_transfer;
}

FileBackend::Options DirectOptions(const ScopedTempDir& dir) {
  FileBackend::Options fb;
  fb.directory = dir.path();
  fb.direct_io = true;
  return fb;
}

// Four full runs, and d close to D so a full load populates most pages.
DenseFile::Options RunOptions() {
  DenseFile::Options options = UnauditedOptions();
  options.num_pages = 4 * kRunPages;
  options.d = 16;
  return options;
}

std::vector<Record> FullLoad(int64_t num_pages, int64_t d) {
  return MakeAscendingRecords(num_pages * d, 10, 10);
}

FileBackend::Stats StatsOf(DenseFile& file) {
  return static_cast<FileBackend*>(file.storage_backend())->stats();
}

TEST(FileBackendRuns, CorruptSlotFailsOnlyItselfInsideARun) {
  ScopedTempDir dir("dsf-run-crc");
  FileBackend::Options fb = DirectOptions(dir);
  std::unique_ptr<FileBackend> backend = *FileBackend::Create(fb, 64, 21);
  std::vector<std::vector<Record>> images(64);
  std::vector<std::span<const Record>> spans;
  for (Key a = 1; a <= 64; ++a) {
    images[a - 1] = {{a * 10, a}, {a * 10 + 1, a}};
    spans.emplace_back(images[a - 1]);
  }
  ASSERT_TRUE(backend->WriteRun(1, spans).ok());
  EXPECT_EQ(backend->stats().pwrites, 64);
  EXPECT_EQ(backend->stats().write_syscalls, 1);
  ASSERT_TRUE(backend->CorruptPageForTesting(30).ok());

  std::vector<Page> out(64, Page(21));
  std::vector<Status> status(64);
  backend->ReadRun(1, out, status);
  EXPECT_EQ(backend->stats().preads, 64);
  EXPECT_EQ(backend->stats().read_syscalls, 1);
  for (Address a = 1; a <= 64; ++a) {
    if (a == 30) {
      EXPECT_TRUE(status[a - 1].IsCorruption()) << status[a - 1];
      EXPECT_TRUE(out[a - 1].empty());
    } else {
      ASSERT_TRUE(status[a - 1].ok()) << a << ": " << status[a - 1];
      EXPECT_EQ(out[a - 1].records(), images[a - 1]) << a;
    }
  }
  // A run that leaves the file fails every slot, reading nothing.
  std::vector<Page> past(2, Page(21));
  std::vector<Status> past_status(2);
  backend->ReadRun(64, past, past_status);
  EXPECT_EQ(past_status[0].code(), StatusCode::kOutOfRange);
  EXPECT_EQ(past_status[1].code(), StatusCode::kOutOfRange);
  EXPECT_EQ(backend->WriteRun(64, std::span(spans).first(2)).code(),
            StatusCode::kOutOfRange);
}

// Bytes this process has sent to block storage (/proc/self/io), or -1.
int64_t ProcessWriteBytes() {
  FILE* f = ::fopen("/proc/self/io", "r");
  if (f == nullptr) return -1;
  char key[64];
  long long value = 0;
  int64_t out = -1;
  while (::fscanf(f, "%63s %lld", key, &value) == 2) {
    if (std::string(key) == "write_bytes:") out = value;
  }
  ::fclose(f);
  return out;
}

TEST(FileBackendRuns, LaterSyncedPageWriteWritesBackOnlyItsSlot) {
  // A run written through the page cache would leave one large folio per
  // run on filesystems that use them (ext4 on recent kernels), and each
  // later synced single-page write would write the whole run back. On
  // tmpfs nothing reaches block storage and the bound holds trivially.
  ScopedTempDir dir("dsf-run-writeback");
  FileBackend::Options fb;
  fb.directory = dir.path();  // buffered, the default
  std::unique_ptr<FileBackend> backend = *FileBackend::Create(fb, 256, 21);
  const std::vector<Record> records = {{1, 1}, {2, 2}};
  const std::vector<std::span<const Record>> spans(256, records);
  ASSERT_TRUE(backend->WriteRun(1, spans).ok());
  ASSERT_TRUE(backend->SyncBarrier().ok());
  const int64_t before = ProcessWriteBytes();
  if (before < 0) GTEST_SKIP() << "no /proc/self/io";
  Page page(21);
  page.AppendHigh(records);
  constexpr int64_t kWrites = 32;
  for (int64_t i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(backend->WritePage(3 + 7 * i, page).ok());
    ASSERT_TRUE(backend->SyncBarrier().ok());
  }
  EXPECT_LE(ProcessWriteBytes() - before, 2 * kWrites * 4096);
}

TEST(FileBackendRuns, ColdRunReadLeavesNoWholeFolioWriteBack) {
  // Readahead over a cold sequential pass builds page-cache folios of up
  // to 2 MiB on recent ext4, and each later synced page write would then
  // write its whole folio back. The whole-file passes read explicit runs
  // on a data file advised POSIX_FADV_RANDOM instead. The file must be
  // large enough for readahead to ramp up: 16 MiB, whatever the slot size.
  ScopedTempDir dir("dsf-run-cold-read");
  FileBackend::Options fb;
  fb.directory = dir.path();  // buffered, the default
  const int64_t kSlots =
      (int64_t{16} << 20) / (*FileBackend::Create(fb, 1, 21))->slot_bytes();
  std::unique_ptr<FileBackend> backend =
      *FileBackend::Create(fb, kSlots, 21);
  ASSERT_GE(kSlots * backend->slot_bytes(), int64_t{16} << 20);
  const std::vector<Record> records = {{1, 1}, {2, 2}};
  const std::vector<std::span<const Record>> spans(kRunPages, records);
  for (Address a = 1; a <= kSlots; a += kRunPages) {
    ASSERT_TRUE(backend->WriteRun(a, spans).ok());
  }
  ASSERT_TRUE(backend->DropPageCacheForTesting().ok());
  // The check pass of Open, against the cold file.
  std::vector<Page> out(kRunPages, Page(21));
  std::vector<Status> status(kRunPages);
  for (Address a = 1; a <= kSlots; a += kRunPages) {
    backend->ReadRun(a, out, status);
    for (const Status& s : status) ASSERT_TRUE(s.ok()) << s;
  }
  const int64_t before = ProcessWriteBytes();
  if (before < 0) GTEST_SKIP() << "no /proc/self/io";
  constexpr int64_t kWrites = 32;
  for (int64_t i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(backend->WritePage(1 + 127 * i, out[0]).ok());
    ASSERT_TRUE(backend->SyncBarrier().ok());
  }
  EXPECT_LE(ProcessWriteBytes() - before, 2 * kWrites * 4096);
}

TEST(FileBackendRuns, SubPageSlotsRoundTripDirectAndBuffered) {
  // Slots smaller than a 4 KiB page share page-cache pages and device
  // blocks with their neighbours. Single-page writes, run writes over
  // them and run reads must still see every slot's latest image, with
  // the data file O_DIRECT and with it buffered (whose runs go through a
  // second, O_DIRECT descriptor).
  for (const bool direct : {true, false}) {
    SCOPED_TRACE(direct ? "direct_io" : "buffered");
    ScopedTempDir dir("dsf-run-subpage");
    FileBackend::Options fb;
    fb.directory = dir.path();
    fb.direct_io = direct;
    const int64_t n = 2 * kRunPages;
    std::unique_ptr<FileBackend> backend = *FileBackend::Create(fb, n, 21);
    if (backend->slot_bytes() >= 4096) {
      GTEST_SKIP() << "this data file needs 4 KiB O_DIRECT alignment";
    }
    std::vector<std::vector<Record>> images(static_cast<size_t>(n));
    auto image = [&](Address a, Value tag) {
      const Key k = static_cast<Key>(a) * 10;
      images[static_cast<size_t>(a - 1)] = {{k, tag}, {k + 1, tag}};
    };
    auto write_run = [&](Address first, int64_t len) {
      std::vector<std::span<const Record>> spans;
      for (Address a = first; a < first + len; ++a) {
        spans.emplace_back(images[static_cast<size_t>(a - 1)]);
      }
      return backend->WriteRun(first, spans);
    };
    auto read_back = [&]() {
      std::vector<Page> out(static_cast<size_t>(n), Page(21));
      std::vector<Status> status(static_cast<size_t>(n));
      backend->ReadRun(1, out, status);
      for (Address a = 1; a <= n; ++a) {
        const size_t i = static_cast<size_t>(a - 1);
        ASSERT_TRUE(status[i].ok()) << a << ": " << status[i];
        EXPECT_EQ(out[i].records(), images[i]) << a;
      }
    };
    for (Address a = 1; a <= n; ++a) image(a, 1);
    ASSERT_TRUE(write_run(1, n).ok());
    // Single-page writes to every third slot, so most page-cache pages
    // hold both rewritten and untouched slots.
    for (Address a = 2; a <= n; a += 3) {
      image(a, 2);
      Page page(21);
      page.AppendHigh(images[static_cast<size_t>(a - 1)]);
      ASSERT_TRUE(backend->WritePage(a, page).ok());
    }
    ASSERT_TRUE(backend->SyncBarrier().ok());
    read_back();
    // A run over slots whose neighbours were just written page by page.
    for (Address a = kRunPages / 2; a < kRunPages / 2 + kRunPages; ++a) {
      image(a, 3);
    }
    ASSERT_TRUE(write_run(kRunPages / 2, kRunPages).ok());
    ASSERT_TRUE(backend->SyncBarrier().ok());
    read_back();
    Page page(21);
    for (Address a = 1; a <= n; ++a) {
      ASSERT_TRUE(backend->ReadPage(a, &page).ok()) << a;
      EXPECT_EQ(page.records(), images[static_cast<size_t>(a - 1)]) << a;
    }
    EXPECT_EQ(backend->stats().crc_failures, 0);
  }
}

TEST(FileBackendRuns, OpenQuarantinesOnlyTheCorruptSlotOfARun) {
  ScopedTempDir dir("dsf-run-open");
  FileBackend::Options fb = DirectOptions(dir);
  DenseFile::Options options = RunOptions();
  const std::vector<Record> initial = FullLoad(options.num_pages, options.d);
  Address victim = 0;
  std::vector<Record> neighbours;
  {
    options.backend_factory = FileBackend::CreateFactory(fb);
    std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
    ASSERT_TRUE(file->BulkLoad(initial).ok());
    // A populated victim inside the second run, between populated
    // neighbours of the same run.
    const PageFile& pages = file->control().file();
    for (Address a = kRunPages + kRunPages / 2; a < 2 * kRunPages; ++a) {
      if (!pages.Peek(a - 1).empty() && !pages.Peek(a).empty() &&
          !pages.Peek(a + 1).empty()) {
        victim = a;
        break;
      }
    }
    ASSERT_NE(victim, 0);
    for (const Address a : {victim - 1, victim + 1}) {
      const Page& page = pages.Peek(a);
      neighbours.insert(neighbours.end(), page.records().begin(),
                        page.records().end());
    }
  }
  {
    std::unique_ptr<FileBackend> raw = *FileBackend::Open(fb);
    ASSERT_TRUE(raw->CorruptPageForTesting(victim).ok());
  }
  options.backend_factory = FileBackend::OpenFactory(fb);
  StatusOr<std::unique_ptr<DenseFile>> reopened = DenseFile::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  DenseFile& file = **reopened;
  EXPECT_EQ(file.corrupt_pages_at_open(), std::vector<Address>{victim});
  EXPECT_TRUE(file.Audit().ok()) << file.Audit().ToString();
  for (const Record& r : neighbours) {
    StatusOr<Value> v = file.Get(r.key);
    ASSERT_TRUE(v.ok()) << "key " << r.key << ": " << v.status();
    EXPECT_EQ(*v, r.value);
  }
  EXPECT_LT(static_cast<int64_t>(file.ScanAll()->size()),
            static_cast<int64_t>(initial.size()));
}

// Create over a loaded pair, at the same, a larger and a smaller size:
// the old records are gone whether the old data file was zeroed in place
// or, where the filesystem refuses that (tmpfs), truncated.
TEST(FileBackendRuns, CreateOverALoadedPairEmptiesIt) {
  ScopedTempDir dir("dsf-recreate");
  FileBackend::Options fb = DirectOptions(dir);
  const std::string dat = dir.path() + "/dsf.dat";
  DenseFile::Options options = RunOptions();
  const int64_t loaded = options.num_pages;
  for (const int64_t num_pages : {loaded, 2 * loaded, loaded / 2}) {
    {
      options.num_pages = loaded;
      options.backend_factory = FileBackend::CreateFactory(fb);
      std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
      ASSERT_TRUE(
          file->BulkLoad(FullLoad(options.num_pages, options.d)).ok());
    }
    int64_t slot_bytes = 0;
    {
      std::unique_ptr<FileBackend> backend =
          *FileBackend::Create(fb, num_pages, options.D + 1);
      slot_bytes = backend->slot_bytes();
      std::vector<Page> out(static_cast<size_t>(num_pages),
                            Page(options.D + 1));
      std::vector<Status> status(static_cast<size_t>(num_pages));
      backend->ReadRun(1, out, status);
      for (size_t i = 0; i < out.size(); ++i) {
        ASSERT_TRUE(status[i].ok()) << num_pages << " pages, slot " << i;
        ASSERT_TRUE(out[i].empty()) << num_pages << " pages, slot " << i;
      }
    }
    EXPECT_EQ(FileBytes(dat), num_pages * slot_bytes);
    options.num_pages = num_pages;
    options.backend_factory = FileBackend::OpenFactory(fb);
    StatusOr<std::unique_ptr<DenseFile>> reopened = DenseFile::Open(options);
    ASSERT_TRUE(reopened.ok()) << num_pages << ": " << reopened.status();
    EXPECT_TRUE((*reopened)->corrupt_pages_at_open().empty());
    EXPECT_TRUE((*reopened)->ScanAll()->empty()) << num_pages;
  }
}

// The state a crash inside Create can leave: the old superblock over a
// data file zeroed from the middle of a slot onward. The straddled slot
// fails its CRC and is quarantined; Open repairs the rest into a valid
// file holding a subset of the old records.
TEST(FileBackendRuns, OpenRepairsAPartlyZeroedDataFile) {
  ScopedTempDir dir("dsf-part-zeroed");
  FileBackend::Options fb = DirectOptions(dir);
  DenseFile::Options options = RunOptions();
  const std::vector<Record> initial = FullLoad(options.num_pages, options.d);
  Address straddled = options.num_pages / 2;
  size_t kept = 0;  // the records on the slots before the straddled one
  int64_t slot_bytes = 0;
  {
    options.backend_factory = FileBackend::CreateFactory(fb);
    std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
    ASSERT_TRUE(file->BulkLoad(initial).ok());
    const PageFile& pages = file->control().file();
    while (pages.Peek(straddled).size() < 2) ++straddled;
    for (Address a = 1; a < straddled; ++a) kept += pages.Peek(a).size();
    slot_bytes = SlotBytesOf(*file);
  }
  {
    // Zero from the second record of the straddled slot to the end.
    const int64_t from = (straddled - 1) * slot_bytes + 16 + 16;
    const int64_t to = options.num_pages * slot_bytes;
    std::fstream f(dir.path() + "/dsf.dat",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(from);
    const std::vector<char> zeros(static_cast<size_t>(to - from), 0);
    f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
    ASSERT_TRUE(f.good());
  }
  options.backend_factory = FileBackend::OpenFactory(fb);
  std::vector<Record> survivors;
  {
    StatusOr<std::unique_ptr<DenseFile>> reopened = DenseFile::Open(options);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    DenseFile& file = **reopened;
    EXPECT_EQ(file.corrupt_pages_at_open(), std::vector<Address>{straddled});
    EXPECT_TRUE(file.Audit().ok()) << file.Audit().ToString();
    survivors = *file.ScanAll();
  }
  ASSERT_GT(kept, 0u);
  EXPECT_EQ(survivors, std::vector<Record>(initial.begin(),
                                           initial.begin() + kept));
  // The repair was made durable: a second open is clean.
  StatusOr<std::unique_ptr<DenseFile>> again = DenseFile::Open(options);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE((*again)->corrupt_pages_at_open().empty());
  EXPECT_EQ(*(*again)->ScanAll(), survivors);
}

TEST(FileBackendRuns, LoadAndCleanOpenMoveRunsPerSyscall) {
  ScopedTempDir dir("dsf-run-syscalls");
  FileBackend::Options fb = DirectOptions(dir);
  DenseFile::Options options = RunOptions();
  const std::vector<Record> initial = FullLoad(options.num_pages, options.d);
  {
    options.backend_factory = FileBackend::CreateFactory(fb);
    std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
    ASSERT_TRUE(file->BulkLoad(initial).ok());
    const FileBackend::Stats stats = StatsOf(*file);
    EXPECT_EQ(stats.pwrites, options.num_pages);  // slots, as before
    EXPECT_LE(stats.write_syscalls,
              RunCeil(options.num_pages, SlotBytesOf(*file)));
    EXPECT_EQ(stats.read_syscalls, 0);
  }
  options.backend_factory = FileBackend::OpenFactory(fb);
  StatusOr<std::unique_ptr<DenseFile>> reopened = DenseFile::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_FALSE((*reopened)->open_repair_report().rewrote_file);
  const FileBackend::Stats stats = StatsOf(**reopened);
  EXPECT_EQ(stats.preads, options.num_pages);  // slots, as before
  EXPECT_LE(stats.read_syscalls,
            RunCeil(options.num_pages, SlotBytesOf(**reopened)));
  EXPECT_EQ(stats.write_syscalls, 0);
  EXPECT_EQ(*(*reopened)->ScanAll(), initial);
}

TEST(FileBackendRuns, KillInsideALoadRunLeavesExactlyThePrefix) {
  DenseFile::Options options = RunOptions();
  const std::vector<Record> initial = FullLoad(options.num_pages, options.d);
  // The uninterrupted layout, slot by slot.
  ScopedTempDir ref_dir("dsf-run-kill-ref");
  const FileBackend::Options ref = DirectOptions(ref_dir);
  {
    options.backend_factory = FileBackend::CreateFactory(ref);
    std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
    ASSERT_TRUE(file->BulkLoad(initial).ok());
  }
  std::unique_ptr<FileBackend> expected = *FileBackend::Open(ref);

  // k falls strictly inside the second run.
  const int64_t k = kRunPages + 7;
  ScopedTempDir dir("dsf-run-kill");
  FileBackend::Options fb = DirectOptions(dir);
  fb.kill_after_writes = k;
  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    options.backend_factory = FileBackend::CreateFactory(fb);
    StatusOr<std::unique_ptr<DenseFile>> file = DenseFile::Create(options);
    if (!file.ok() || !(*file)->BulkLoad(initial).ok()) ::_exit(3);
    ::_exit(0);  // not reached: the load writes more than k slots
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited " << wstatus;
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  fb.kill_after_writes = -1;
  std::unique_ptr<FileBackend> killed = *FileBackend::Open(fb);
  Page want(killed->page_capacity());
  Page got(killed->page_capacity());
  int64_t unwritten_content = 0;
  for (Address a = 1; a <= options.num_pages; ++a) {
    ASSERT_TRUE(expected->ReadPage(a, &want).ok());
    ASSERT_TRUE(killed->ReadPage(a, &got).ok()) << a;
    if (a <= k) {
      EXPECT_EQ(got.records(), want.records()) << "slot " << a;
    } else {
      EXPECT_TRUE(got.empty()) << "slot " << a << " written past the kill";
      unwritten_content += want.size();
    }
  }
  EXPECT_GT(unwritten_content, 0);  // the kill really cut the load short
}

// ---------------------------------------------------------------------
// Device errors: a failing backend surfaces as a typed Status, never an
// abort, and a failed barrier is never retried into a false success.

// A MemoryBackend whose writes start failing after a budget, whose
// next `syncs_to_fail` barriers fail, and whose reads of
// `failing_read_page` fail like a syscall error (not a checksum).
class FlakyBackend : public MemoryBackend {
 public:
  using MemoryBackend::MemoryBackend;

  Status ReadPage(Address address, Page* out) override {
    if (address == failing_read_page) {
      out->Clear();
      return Status::IoError("injected read EIO");
    }
    return MemoryBackend::ReadPage(address, out);
  }
  Status WritePage(Address address, const Page& page) override {
    if (writes_before_failure == 0) return Status::IoError("injected EIO");
    if (writes_before_failure > 0) --writes_before_failure;
    ++writes;
    return MemoryBackend::WritePage(address, page);
  }
  Status SyncBarrier() override {
    ++sync_calls;
    if (syncs_to_fail > 0) {
      --syncs_to_fail;
      return Status::IoError("injected fdatasync failure");
    }
    return Status::OK();
  }

  int64_t writes_before_failure = -1;  // -1: never fail
  int64_t writes = 0;                  // successful WritePage calls
  int64_t syncs_to_fail = 0;
  int64_t sync_calls = 0;
  Address failing_read_page = 0;  // 0: every read succeeds
};

TEST(DeviceErrors, FailedBarrierIsSticky) {
  auto owned = std::make_unique<FlakyBackend>(8, 4);
  FlakyBackend* backend = owned.get();
  backend->syncs_to_fail = 1;
  PageFile file(8, 4, std::move(owned));
  const std::vector<Record> records = {{1, 1}, {2, 2}};
  ASSERT_TRUE(file.Write(1, records).ok());
  EXPECT_TRUE(file.SyncBarrier().IsIoError());
  // The kernel may already have dropped the unsynced page, so a retried
  // barrier that succeeds would claim durability the device lacks.
  EXPECT_TRUE(file.SyncBarrier().IsIoError());
  EXPECT_TRUE(file.Write(2, records).IsIoError());
  EXPECT_TRUE(file.RawWrite(2, records).IsIoError());
  EXPECT_EQ(backend->sync_calls, 1);  // never retried
  std::vector<Record> out;
  EXPECT_TRUE(file.Read(1, &out).ok());  // reads still serve
}

TEST(DeviceErrors, FailedBarrierFailsEveryLaterCommand) {
  FlakyBackend* flaky = nullptr;
  DenseFile::Options options = UnauditedOptions();
  options.backend_factory = [&flaky](int64_t num_pages, int64_t page_capacity)
      -> StatusOr<std::unique_ptr<StorageBackend>> {
    auto backend = std::make_unique<FlakyBackend>(num_pages, page_capacity);
    flaky = backend.get();
    return std::unique_ptr<StorageBackend>(std::move(backend));
  };
  std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
  ASSERT_TRUE(file->BulkLoad(MakeWorkload().initial).ok());
  flaky->syncs_to_fail = 1;
  EXPECT_TRUE(file->Insert(Record{5, 5}).IsIoError());
  EXPECT_TRUE(file->Insert(Record{7, 7}).IsIoError());
  EXPECT_TRUE(file->Flush().IsIoError());
}

TEST(DeviceErrors, RepairKeepsRecordsOnReadError) {
  FlakyBackend* flaky = nullptr;
  DenseFile::Options options = UnauditedOptions();
  options.backend_factory = [&flaky](int64_t num_pages, int64_t page_capacity)
      -> StatusOr<std::unique_ptr<StorageBackend>> {
    auto backend = std::make_unique<FlakyBackend>(num_pages, page_capacity);
    flaky = backend.get();
    return std::unique_ptr<StorageBackend>(std::move(backend));
  };
  std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
  const std::vector<Record> initial = MakeWorkload().initial;
  ASSERT_TRUE(file->BulkLoad(initial).ok());
  ASSERT_FALSE(file->control().file().Peek(1).empty());

  // A failed read says nothing about the slot's content, so repair
  // returns the error instead of quarantining page 1 as corrupt.
  flaky->failing_read_page = 1;
  EXPECT_TRUE(file->CheckAndRepair().status().IsIoError());
  EXPECT_TRUE(file->ValidateInvariants().IsIoError());

  flaky->failing_read_page = 0;
  StatusOr<RepairReport> report = file->CheckAndRepair();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->corrupt_pages.empty());
  EXPECT_FALSE(report->rewrote_file);
  EXPECT_EQ(*file->ScanAll(), initial);
}

TEST(DeviceErrors, ReadErrorInsideARunRewritesNothing) {
  FlakyBackend* flaky = nullptr;
  DenseFile::Options options = RunOptions();
  options.backend_factory = [&flaky](int64_t num_pages, int64_t page_capacity)
      -> StatusOr<std::unique_ptr<StorageBackend>> {
    auto backend = std::make_unique<FlakyBackend>(num_pages, page_capacity);
    flaky = backend.get();
    return std::unique_ptr<StorageBackend>(std::move(backend));
  };
  std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
  const std::vector<Record> initial = FullLoad(options.num_pages, options.d);
  ASSERT_TRUE(file->BulkLoad(initial).ok());

  // The run read goes through the default ReadRun, so the failing slot
  // sits mid-run with readable neighbours on both sides.
  flaky->failing_read_page = kRunPages + 5;
  const int64_t writes = flaky->writes;
  EXPECT_TRUE(file->CheckAndRepair().status().IsIoError());
  EXPECT_TRUE(file->ValidateInvariants().IsIoError());
  EXPECT_EQ(flaky->writes, writes);  // no quarantine, no rewrite

  flaky->failing_read_page = 0;
  StatusOr<RepairReport> report = file->CheckAndRepair();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->corrupt_pages.empty());
  EXPECT_FALSE(report->rewrote_file);
  EXPECT_EQ(*file->ScanAll(), initial);
}

TEST(DeviceErrors, BulkLoadReturnsWriteErrorInsteadOfAborting) {
  DenseFile::Options options = UnauditedOptions();
  options.backend_factory = [](int64_t num_pages, int64_t page_capacity)
      -> StatusOr<std::unique_ptr<StorageBackend>> {
    auto backend = std::make_unique<FlakyBackend>(num_pages, page_capacity);
    backend->writes_before_failure = 5;
    return std::unique_ptr<StorageBackend>(std::move(backend));
  };
  std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
  EXPECT_TRUE(file->BulkLoad(MakeWorkload().initial).IsIoError());
}

// ---------------------------------------------------------------------
// Sharded plumbing

TEST(ShardedBackend, RejectsOrdinalBlindFactory) {
  // Exercised through the compile-time surface only lightly here: the
  // dedicated error path, because an ordinal-blind factory would hand
  // every shard the same file pair.
  ScopedTempDir dir("dsf-shard-reject");
  FileBackend::Options fb;
  fb.directory = dir.path();
  ShardedDenseFile::Options options;
  options.num_shards = 2;
  options.shard = BaseOptions();
  options.key_space = 10000;
  options.shard.backend_factory = FileBackend::CreateFactory(fb);
  EXPECT_TRUE(ShardedDenseFile::Create(options).status().IsInvalidArgument());
}

TEST(ShardedBackend, PerShardDirectoriesRoundTrip) {
  ScopedTempDir dir("dsf-shard");
  auto shard_factory = [&dir](bool create) {
    return [&dir, create](int shard, int64_t num_pages,
                          int64_t page_capacity)
               -> StatusOr<std::unique_ptr<StorageBackend>> {
      FileBackend::Options fb;
      fb.directory = dir.path() + "/shard" + std::to_string(shard);
      if (create) {
        ::mkdir(fb.directory.c_str(), 0755);
        return FileBackend::CreateFactory(fb)(num_pages, page_capacity);
      }
      return FileBackend::OpenFactory(fb)(num_pages, page_capacity);
    };
  };

  std::vector<Record> expected;
  {
    ShardedDenseFile::Options options;
    options.num_shards = 2;
    options.shard = BaseOptions();
    options.key_space = 10000;
    options.shard_backend_factory = shard_factory(/*create=*/true);
    StatusOr<std::unique_ptr<ShardedDenseFile>> created =
        ShardedDenseFile::Create(options);
    ASSERT_TRUE(created.ok()) << created.status();
    ShardedDenseFile& file = **created;
    for (Key k = 100; k <= 9000; k += 73) {
      ASSERT_TRUE(file.Insert(k, k * 10).ok());
    }
    expected = *file.ScanAll();
  }
  // Reopen each shard from its own directory and verify the union.
  ShardedDenseFile::Options options;
  options.num_shards = 2;
  options.shard = BaseOptions();
  options.key_space = 10000;
  options.shard_backend_factory = shard_factory(/*create=*/false);
  StatusOr<std::unique_ptr<ShardedDenseFile>> reopened =
      ShardedDenseFile::Create(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ShardedDenseFile& file = **reopened;
  StatusOr<RepairReport> report = file.CheckAndRepair();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(*file.ScanAll(), expected);
}

}  // namespace
}  // namespace dsf
