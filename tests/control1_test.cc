#include "core/control1.h"

#include <gtest/gtest.h>

#include "workload/reference_model.h"
#include "workload/workload.h"

namespace dsf {
namespace {

ControlBase::Config SmallConfig() {
  ControlBase::Config config;
  config.num_pages = 64;  // L = 6
  config.d = 4;
  config.D = 44;  // D - d = 40 > 18 = 3L
  config.block_size = 1;
  return config;
}

std::unique_ptr<Control1> Make(const ControlBase::Config& config) {
  StatusOr<std::unique_ptr<Control1>> c = Control1::Create(config);
  EXPECT_TRUE(c.ok()) << c.status();
  return std::move(*c);
}

TEST(Control1, CreateRejectsNarrowGap) {
  ControlBase::Config config = SmallConfig();
  config.D = config.d + 18;  // D - d == 3L: strict inequality fails
  EXPECT_TRUE(Control1::Create(config).status().IsInvalidArgument());
}

TEST(Control1, CreateRejectsBadGeometry) {
  ControlBase::Config config = SmallConfig();
  config.num_pages = 0;
  EXPECT_FALSE(Control1::Create(config).ok());
  config = SmallConfig();
  config.d = 0;
  EXPECT_FALSE(Control1::Create(config).ok());
  config = SmallConfig();
  config.block_size = 3;  // does not divide 64
  EXPECT_FALSE(Control1::Create(config).ok());
}

TEST(Control1, InsertGetDeleteRoundtrip) {
  std::unique_ptr<Control1> c = Make(SmallConfig());
  EXPECT_TRUE(c->Insert(Record{10, 100}).ok());
  EXPECT_TRUE(c->Insert(Record{20, 200}).ok());
  EXPECT_EQ(c->size(), 2);
  StatusOr<Record> r = c->Get(10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->value, 100u);
  EXPECT_TRUE(c->Contains(20));
  EXPECT_FALSE(c->Contains(15));
  EXPECT_TRUE(c->Delete(10).ok());
  EXPECT_FALSE(c->Contains(10));
  EXPECT_EQ(c->size(), 1);
  EXPECT_TRUE(c->ValidateInvariants().ok());
}

TEST(Control1, DuplicateInsertAndMissingDelete) {
  std::unique_ptr<Control1> c = Make(SmallConfig());
  ASSERT_TRUE(c->Insert(Record{5, 1}).ok());
  EXPECT_TRUE(c->Insert(Record{5, 2}).IsAlreadyExists());
  EXPECT_TRUE(c->Delete(6).IsNotFound());
  EXPECT_TRUE(c->Get(6).status().IsNotFound());
  EXPECT_EQ(c->size(), 1);
}

TEST(Control1, CapacityBoundAtDTimesM) {
  ControlBase::Config config;
  config.num_pages = 16;  // L = 4
  config.d = 2;
  config.D = 2 + 13;  // gap: 13 > 12
  std::unique_ptr<Control1> c = Make(config);
  const int64_t cap = c->MaxRecords();
  EXPECT_EQ(cap, 32);
  for (int64_t i = 0; i < cap; ++i) {
    ASSERT_TRUE(c->Insert(Record{static_cast<Key>(i + 1), 0}).ok()) << i;
  }
  EXPECT_TRUE(c->Insert(Record{9999, 0}).IsCapacityExceeded());
  EXPECT_TRUE(c->ValidateInvariants().ok());
}

TEST(Control1, DescendingHotspotTriggersRedistributions) {
  std::unique_ptr<Control1> c = Make(SmallConfig());
  const Trace trace = DescendingInserts(200, 1000000);
  for (const Op& op : trace) {
    ASSERT_TRUE(c->Insert(op.record).ok());
    ASSERT_TRUE(c->ValidateInvariants().ok());
  }
  EXPECT_GT(c->stats().rebalances, 0);
  EXPECT_GT(c->stats().pages_redistributed, 0);
}

TEST(Control1, WorstCaseCommandCostGrowsWithFileSize) {
  // The deamortization motivation: some single CONTROL 1 command pays for
  // a redistribution spanning a large fraction of the file.
  ControlBase::Config config;
  config.num_pages = 256;  // L = 8
  config.d = 4;
  config.D = 4 + 25;  // gap: 25 > 24
  std::unique_ptr<Control1> c = Make(config);
  const Trace trace = DescendingInserts(c->MaxRecords(), 1 << 30);
  for (const Op& op : trace) {
    ASSERT_TRUE(c->Insert(op.record).ok());
  }
  // At least one command redistributed a region of >= M/4 pages (in page
  // accesses: reads + writes of that region).
  EXPECT_GT(c->command_stats().max_command_accesses, config.num_pages / 4);
  EXPECT_TRUE(c->ValidateInvariants().ok());
}

TEST(Control1, MatchesReferenceModelOnUniformMix) {
  std::unique_ptr<Control1> c = Make(SmallConfig());
  ReferenceModel model(c->MaxRecords());
  Rng rng(77);
  const Trace trace = UniformMix(1500, 0.55, 0.25, 400, rng);
  for (const Op& op : trace) {
    switch (op.kind) {
      case Op::Kind::kInsert:
        EXPECT_EQ(c->Insert(op.record).code(),
                  model.Insert(op.record).code());
        break;
      case Op::Kind::kDelete:
        EXPECT_EQ(c->Delete(op.record.key).code(),
                  model.Delete(op.record.key).code());
        break;
      default:
        EXPECT_EQ(c->Contains(op.record.key), model.Contains(op.record.key));
        break;
    }
  }
  EXPECT_EQ(*c->ScanAll(), model.ScanAll());
  EXPECT_TRUE(c->ValidateInvariants().ok());
}

TEST(Control1, BulkLoadThenOperate) {
  std::unique_ptr<Control1> c = Make(SmallConfig());
  const std::vector<Record> records = MakeAscendingRecords(200, 10, 10);
  ASSERT_TRUE(c->BulkLoad(records).ok());
  EXPECT_EQ(c->size(), 200);
  EXPECT_TRUE(c->ValidateInvariants().ok());
  // Interleave inserts between loaded keys.
  for (Key k = 15; k < 500; k += 10) {
    ASSERT_TRUE(c->Insert(Record{k, k}).ok());
  }
  EXPECT_TRUE(c->ValidateInvariants().ok());
  std::vector<Record> out;
  ASSERT_TRUE(c->Scan(10, 60, &out).ok());
  ASSERT_EQ(out.size(), 11u);  // 10,15,20,...,60
  EXPECT_EQ(out.front().key, 10u);
  EXPECT_EQ(out.back().key, 60u);
}

TEST(Control1, BulkLoadValidation) {
  std::unique_ptr<Control1> c = Make(SmallConfig());
  EXPECT_TRUE(c->BulkLoad(MakeAscendingRecords(c->MaxRecords() + 1))
                  .IsCapacityExceeded());
  EXPECT_TRUE(
      c->BulkLoad(std::vector<Record>{{5, 0}, {5, 1}}).IsInvalidArgument());
  EXPECT_TRUE(
      c->BulkLoad(std::vector<Record>{{5, 0}, {4, 1}}).IsInvalidArgument());
}

}  // namespace
}  // namespace dsf
