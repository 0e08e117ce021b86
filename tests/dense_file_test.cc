#include "core/dense_file.h"

#include <gtest/gtest.h>

#include "storage/page_file.h"
#include "util/random.h"
#include "workload/workload.h"

namespace dsf {
namespace {

DenseFile::Options SmallOptions() {
  DenseFile::Options options;
  options.num_pages = 64;
  options.d = 4;
  options.D = 44;
  return options;
}

std::unique_ptr<DenseFile> Make(const DenseFile::Options& options) {
  StatusOr<std::unique_ptr<DenseFile>> f = DenseFile::Create(options);
  EXPECT_TRUE(f.ok()) << f.status();
  return std::move(*f);
}

TEST(DenseFile, AutoBlockSizePicksOneWhenGapHolds) {
  StatusOr<int64_t> k = DenseFile::AutoBlockSize(64, 4, 44);
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(*k, 1);
}

TEST(DenseFile, AutoBlockSizeLiftsNarrowGap) {
  // D - d = 2, M = 64: K = 1 gives 2 <= 18; K = 2 gives 4 <= 15;
  // K = 4 gives 8 <= 12; K = 8 gives 16 > 9.
  StatusOr<int64_t> k = DenseFile::AutoBlockSize(64, 4, 6);
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(*k, 8);
}

TEST(DenseFile, AutoBlockSizeFallsBackToWholeFile) {
  // D - d = 1 on 4 pages: only K = M = 4 works (log of one block is 0).
  StatusOr<int64_t> k = DenseFile::AutoBlockSize(4, 1, 2);
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(*k, 4);
}

TEST(DenseFile, AutoBlockSizeValidatesArguments) {
  EXPECT_FALSE(DenseFile::AutoBlockSize(0, 1, 2).ok());
  EXPECT_FALSE(DenseFile::AutoBlockSize(8, 2, 2).ok());
}

TEST(DenseFile, CreateHonorsExplicitBlockSize) {
  DenseFile::Options options;
  options.num_pages = 64;
  options.d = 4;
  options.D = 6;
  options.block_size = 16;
  std::unique_ptr<DenseFile> f = Make(options);
  EXPECT_EQ(f->block_size(), 16);
}

TEST(DenseFile, CreateRejectsIndivisibleBlockSize) {
  DenseFile::Options options = SmallOptions();
  options.block_size = 5;
  EXPECT_FALSE(DenseFile::Create(options).ok());
}

TEST(DenseFile, PolicySelection) {
  DenseFile::Options options = SmallOptions();
  std::unique_ptr<DenseFile> c2 = Make(options);
  EXPECT_EQ(c2->PolicyName(), "CONTROL2");
  options.policy = DenseFile::Policy::kControl1;
  std::unique_ptr<DenseFile> c1 = Make(options);
  EXPECT_EQ(c1->PolicyName(), "CONTROL1");
}

TEST(DenseFile, BasicLifecycle) {
  std::unique_ptr<DenseFile> f = Make(SmallOptions());
  EXPECT_TRUE(f->empty());
  EXPECT_EQ(f->capacity(), 256);
  EXPECT_EQ(f->num_pages(), 64);
  ASSERT_TRUE(f->Insert(7, 70).ok());
  ASSERT_TRUE(f->Insert(Record{9, 90}).ok());
  EXPECT_EQ(f->size(), 2);
  StatusOr<Value> v = f->Get(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 70u);
  EXPECT_TRUE(f->Contains(9));
  EXPECT_TRUE(f->Delete(7).ok());
  EXPECT_FALSE(f->Contains(7));
  EXPECT_TRUE(f->ValidateInvariants().ok());
}

TEST(DenseFile, IoAndCommandStatsAccumulateAndReset) {
  std::unique_ptr<DenseFile> f = Make(SmallOptions());
  ASSERT_TRUE(f->Insert(1, 1).ok());
  ASSERT_TRUE(f->Insert(2, 2).ok());
  EXPECT_GT(f->io_stats().TotalAccesses(), 0);
  EXPECT_EQ(f->command_stats().commands, 2);
  EXPECT_GT(f->command_stats().max_command_accesses, 0);
  f->ResetIoStats();
  f->ResetCommandStats();
  EXPECT_EQ(f->io_stats().TotalAccesses(), 0);
  EXPECT_EQ(f->command_stats().commands, 0);
}

TEST(DenseFile, BulkLoadAndScan) {
  std::unique_ptr<DenseFile> f = Make(SmallOptions());
  ASSERT_TRUE(f->BulkLoad(MakeAscendingRecords(100, 5, 5)).ok());
  EXPECT_EQ(f->size(), 100);
  std::vector<Record> out;
  ASSERT_TRUE(f->Scan(5, 50, &out).ok());
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(f->ScanAll()->size(), 100u);
  EXPECT_TRUE(f->ValidateInvariants().ok());
}

// In-memory page storage follows occupancy, not M*(D+1) slots. At the
// dsfbench `uniform` geometry (M=16384, d=16, D=64, loaded to 80% of
// d*M = 20% of the slots) the pages' reserved record storage stays
// within twice the loaded records.
TEST(DenseFile, LoadedPagesReserveStorageForTheirRecords) {
  DenseFile::Options options;
  options.num_pages = 16384;
  options.d = 16;
  options.D = 64;
  std::unique_ptr<DenseFile> f = Make(options);
  const int64_t n = options.d * options.num_pages * 8 / 10;
  Rng rng(1);
  ASSERT_TRUE(
      f->BulkLoad(MakeUniformRecords(n, static_cast<Key>(2 * n), rng)).ok());
  const PageFile& file = f->control().file();
  int64_t reserved = 0;
  for (Address a = 1; a <= file.num_pages(); ++a) {
    reserved += static_cast<int64_t>(file.Peek(a).records().capacity());
  }
  EXPECT_EQ(file.TotalRecords(), n);
  EXPECT_LE(reserved, 2 * n);
}

TEST(DenseFile, Control1PolicyFullLifecycle) {
  DenseFile::Options options = SmallOptions();
  options.policy = DenseFile::Policy::kControl1;
  std::unique_ptr<DenseFile> f = Make(options);
  for (Key k = 1; k <= 200; ++k) {
    ASSERT_TRUE(f->Insert(k, k).ok());
  }
  for (Key k = 1; k <= 200; k += 2) {
    ASSERT_TRUE(f->Delete(k).ok());
  }
  EXPECT_EQ(f->size(), 100);
  EXPECT_TRUE(f->ValidateInvariants().ok());
}

}  // namespace
}  // namespace dsf
