#include "storage/page_file.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "storage/disk_model.h"

namespace dsf {
namespace {

// Accounted access whose content the test does not care about.
void Read(PageFile& f, Address a) {
  std::vector<Record> out;
  ASSERT_TRUE(f.Read(a, &out).ok());
}
void Write(PageFile& f, Address a) { ASSERT_TRUE(f.Write(a, {}).ok()); }

TEST(PageFile, ConstructsEmptyPages) {
  PageFile f(4, 8);
  EXPECT_EQ(f.num_pages(), 4);
  EXPECT_EQ(f.page_capacity(), 8);
  for (Address a = 1; a <= 4; ++a) {
    EXPECT_TRUE(f.Peek(a).empty());
  }
  EXPECT_EQ(f.TotalRecords(), 0);
}

TEST(PageFile, ReadAndWriteAreAccounted) {
  PageFile f(4, 8);
  Read(f, 1);
  Read(f, 2);
  Write(f, 3);
  EXPECT_EQ(f.stats().page_reads, 2);
  EXPECT_EQ(f.stats().page_writes, 1);
  EXPECT_EQ(f.stats().TotalAccesses(), 3);
}

TEST(PageFile, PeekAndRawWriteAreFree) {
  PageFile f(4, 8);
  f.Peek(1);
  ASSERT_TRUE(f.RawWrite(2, {}).ok());
  EXPECT_EQ(f.stats().TotalAccesses(), 0);
}

TEST(PageFile, WriteReplacesAndReadAppends) {
  PageFile f(4, 8);
  const std::vector<Record> records = {{1, 10}, {5, 50}};
  ASSERT_TRUE(f.Write(2, records).ok());
  EXPECT_EQ(f.Peek(2).records(), records);
  std::vector<Record> out = {{0, 0}};
  ASSERT_TRUE(f.Read(2, &out).ok());
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], (Record{5, 50}));
  ASSERT_TRUE(f.Write(2, std::vector<Record>{{7, 70}}).ok());
  EXPECT_EQ(f.Peek(2).size(), 1);
  Page page(8);
  ASSERT_TRUE(f.DeviceRead(2, &page).ok());
  EXPECT_EQ(page.MinKey(), 7u);
}

TEST(PageFile, SeekVersusSequentialClassification) {
  PageFile f(10, 4);
  Read(f, 5);   // first access: seek
  Read(f, 6);   // adjacent: sequential
  Read(f, 6);   // same: sequential
  Read(f, 5);   // adjacent (backward): sequential
  Read(f, 9);   // jump: seek
  Write(f, 9);  // same: sequential
  EXPECT_EQ(f.stats().seeks, 2);
  EXPECT_EQ(f.stats().sequential_accesses, 4);
}

TEST(PageFile, ResetStatsClearsAndRestartsSeekTracking) {
  PageFile f(4, 4);
  Read(f, 1);
  Read(f, 2);
  f.ResetStats();
  EXPECT_EQ(f.stats().TotalAccesses(), 0);
  Read(f, 3);  // first access after reset counts as a seek again
  EXPECT_EQ(f.stats().seeks, 1);
}

TEST(PageFile, LogicalAndPhysicalCountersSplit) {
  PageFile f(8, 4);
  // The classic accessors charge both sides (an unpooled caller always
  // pays the device)...
  Read(f, 1);
  Write(f, 2);
  EXPECT_EQ(f.stats().logical_reads, 1);
  EXPECT_EQ(f.stats().logical_writes, 1);
  EXPECT_EQ(f.stats().page_reads, 1);
  EXPECT_EQ(f.stats().page_writes, 1);
  // ...the pool's device accessors charge physical only...
  Page page(4);
  ASSERT_TRUE(f.DeviceRead(3, &page).ok());
  ASSERT_TRUE(f.DeviceWrite(4, page).ok());
  EXPECT_EQ(f.stats().page_reads, 2);
  EXPECT_EQ(f.stats().page_writes, 2);
  EXPECT_EQ(f.stats().TotalLogical(), 2);
  // ...and CountLogical charges logical only (a cache hit).
  f.CountLogical(/*is_write=*/false);
  EXPECT_EQ(f.stats().logical_reads, 2);
  EXPECT_EQ(f.stats().TotalAccesses(), 4);
}

TEST(PageFile, FaultAndLatencyStillFireAfterSlowPathToggling) {
  // The fault/latency checks sit behind a single precomputed slow-path
  // flag; toggling the policy on, off, and on again must keep injection
  // exact (a stale flag would silently disable faults).
  PageFile f(8, 4);
  auto policy = std::make_shared<FaultPolicy>();
  policy->FailAddressRange(2, 2);
  std::vector<Record> out;
  f.set_fault_policy(policy);
  EXPECT_FALSE(f.Read(2, &out).ok());
  f.set_fault_policy(nullptr);
  EXPECT_TRUE(f.Read(2, &out).ok());
  f.set_fault_policy(policy);
  EXPECT_FALSE(f.Write(2, {}).ok());
  // Faulted accesses were still charged (attempted-access accounting).
  EXPECT_EQ(f.stats().TotalAccesses(), 3);
}

// Satellite guarantee documented in io_stats.h: each PageFile owns its
// own AccessTracker, so interleaved traffic to another file never breaks
// this file's sequential-run detection — exactly as two disks each keep
// their own arm position (the sharded file relies on this).
TEST(PageFile, SequentialRunsSurviveCrossFileInterleaving) {
  PageFile a(16, 4);
  PageFile b(16, 4);
  Read(a, 7);   // seek (first access on a)
  Read(b, 13);  // far-away traffic on the other device
  Read(a, 8);   // sequential on a, despite b's access in between
  Read(b, 2);
  Read(a, 9);    // still sequential on a
  EXPECT_EQ(a.stats().seeks, 1);
  EXPECT_EQ(a.stats().sequential_accesses, 2);
  EXPECT_EQ(b.stats().seeks, 2);  // 13 then 2: both arm movements
}

TEST(PageFile, GloballyOrderedAcceptsGapsAndOrder) {
  PageFile f(4, 4);
  ASSERT_TRUE(f.RawWrite(1, std::vector<Record>{{1, 0}, {5, 0}}).ok());
  // page 2 left empty
  ASSERT_TRUE(f.RawWrite(3, std::vector<Record>{{7, 0}}).ok());
  EXPECT_TRUE(f.GloballyOrdered());
  EXPECT_EQ(f.TotalRecords(), 3);
}

TEST(PageFile, GloballyOrderedRejectsInversionAcrossPages) {
  PageFile f(3, 4);
  ASSERT_TRUE(f.RawWrite(1, std::vector<Record>{{10, 0}}).ok());
  ASSERT_TRUE(f.RawWrite(2, std::vector<Record>{{3, 0}}).ok());
  EXPECT_FALSE(f.GloballyOrdered());
}

TEST(PageFile, GloballyOrderedRejectsEqualBoundaryKeys) {
  PageFile f(3, 4);
  ASSERT_TRUE(f.RawWrite(1, std::vector<Record>{{10, 0}}).ok());
  ASSERT_TRUE(f.RawWrite(2, std::vector<Record>{{10, 1}}).ok());
  EXPECT_FALSE(f.GloballyOrdered());
}

TEST(IoStats, DifferenceAndAccumulate) {
  IoStats a;
  a.page_reads = 10;
  a.page_writes = 4;
  a.seeks = 3;
  a.sequential_accesses = 11;
  IoStats b;
  b.page_reads = 6;
  b.page_writes = 1;
  b.seeks = 2;
  b.sequential_accesses = 5;
  const IoStats d = a - b;
  EXPECT_EQ(d.page_reads, 4);
  EXPECT_EQ(d.page_writes, 3);
  EXPECT_EQ(d.seeks, 1);
  EXPECT_EQ(d.sequential_accesses, 6);
  IoStats c = b;
  c += d;
  EXPECT_EQ(c.page_reads, a.page_reads);
  EXPECT_EQ(c.TotalAccesses(), a.TotalAccesses());
}

TEST(DiskModel, LatencyChargesSeeksAndTransfers) {
  DiskModel disk;
  disk.seek_ms = 30.0;
  disk.transfer_ms = 1.0;
  IoStats s;
  s.page_reads = 10;   // 10 total accesses
  s.seeks = 2;
  s.sequential_accesses = 8;
  EXPECT_DOUBLE_EQ(disk.LatencyMs(s), 2 * 30.0 + 10 * 1.0);
  EXPECT_DOUBLE_EQ(disk.LatencyMs(0, 5), 5.0);
}

}  // namespace
}  // namespace dsf
