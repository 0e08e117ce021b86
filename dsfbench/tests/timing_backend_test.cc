// Pins that the benchmark's timing decorator is invisible to the file:
// a DenseFile on a decorated FileBackend performs exactly the page
// accesses of one on the bare backend, forwards every device call, and
// reports the same backend name and verify-on-read capability.

#include "timing_backend.h"

#include <sys/stat.h>

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dense_file.h"
#include "storage/file_backend.h"
#include "util/random.h"
#include "util/temp_dir.h"
#include "workload/workload.h"

namespace dsfbench {
namespace {

struct Outcome {
  dsf::IoStats io;
  dsf::FileBackend::Stats device;
  TimingBackend::Stats timing;  // decorated runs only
  std::vector<dsf::Record> contents;
};

// The file, and with it the decorator, is gone when this returns: every
// result is copied into the Outcome.
Outcome Replay(const std::string& dir, bool decorate) {
  EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0);
  dsf::DenseFile::Options options;
  options.num_pages = 256;
  options.d = 8;
  options.D = 36;
  options.cache_frames = 16;
  dsf::FileBackend::Options fb;
  fb.directory = dir;
  options.backend_factory = dsf::FileBackend::CreateFactory(fb);
  TimingBackend* timing = nullptr;
  if (decorate) {
    options.backend_factory =
        TimingBackend::Wrap(std::move(options.backend_factory), &timing);
  }
  std::unique_ptr<dsf::DenseFile> file =
      dsf::DenseFile::Create(options).value();
  dsf::Rng rng(7);
  EXPECT_TRUE(file->BulkLoad(dsf::MakeUniformRecords(1500, 4000, rng)).ok());
  for (const dsf::Op& op : dsf::ZipfMix(3000, 0.3, 0.3, 4000, 1.1, rng)) {
    if (op.kind == dsf::Op::Kind::kInsert) {
      (void)file->Insert(op.record);
    } else if (op.kind == dsf::Op::Kind::kDelete) {
      (void)file->Delete(op.record.key);
    } else {
      (void)file->Get(op.record.key);
    }
  }
  Outcome out;
  out.io = file->io_stats();
  dsf::StorageBackend* backend = file->storage_backend();
  if (decorate) {
    EXPECT_EQ(backend, timing);
    out.timing = timing->stats();
    backend = &timing->inner();
  }
  out.device = static_cast<dsf::FileBackend*>(backend)->stats();
  out.contents = file->ScanAll().value();
  return out;
}

TEST(TimingBackendTest, DecoratedFileHasIdenticalIoStats) {
  dsf::ScopedTempDir temp("dsfbench-timing");
  const Outcome bare = Replay(temp.path() + "/bare", false);
  const Outcome timed = Replay(temp.path() + "/timed", true);

  EXPECT_EQ(timed.io.logical_reads, bare.io.logical_reads);
  EXPECT_EQ(timed.io.logical_writes, bare.io.logical_writes);
  EXPECT_EQ(timed.io.page_reads, bare.io.page_reads);
  EXPECT_EQ(timed.io.page_writes, bare.io.page_writes);
  EXPECT_EQ(timed.io.seeks, bare.io.seeks);
  EXPECT_EQ(timed.io.sequential_accesses, bare.io.sequential_accesses);
  EXPECT_EQ(timed.contents, bare.contents);

  // Every device call went through the decorator, and only once.
  EXPECT_EQ(timed.device.preads, bare.device.preads);
  EXPECT_EQ(timed.device.pwrites, bare.device.pwrites);
  EXPECT_EQ(timed.device.syncs, bare.device.syncs);
  const TimingBackend::Stats& s = timed.timing;
  EXPECT_EQ(static_cast<int64_t>(s.write_ns.size()), timed.device.pwrites);
  EXPECT_EQ(static_cast<int64_t>(s.sync_ns.size()), timed.device.syncs);
  EXPECT_GT(s.read_ns.size(), 0u);
  EXPECT_GT(s.busy_ns, 0);
}

TEST(TimingBackendTest, ForwardsNameAndVerifyOnRead) {
  dsf::ScopedTempDir temp("dsfbench-timing");
  for (const bool verify : {true, false}) {
    dsf::FileBackend::Options fb;
    fb.directory = temp.path();
    fb.verify_reads = verify;
    TimingBackend timing(dsf::FileBackend::Create(fb, 8, 37).value());
    EXPECT_EQ(timing.VerifyOnRead(), verify);
    EXPECT_EQ(timing.Name(), timing.inner().Name());
    EXPECT_EQ(timing.num_pages(), 8);
    EXPECT_EQ(timing.page_capacity(), 37);
  }
}

}  // namespace
}  // namespace dsfbench
