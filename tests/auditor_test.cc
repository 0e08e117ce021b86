// The auditor's contract, pinned from both sides.
//
// Positive: long random workloads under every configuration (CONTROL 1 /
// CONTROL 2, direct / pooled, sharded) stay audit-clean after every
// command, and the report proves it looked (checks_run, pages_walked).
// Negative: each seeded corruption — a bumped rank counter, records
// swapped across a page boundary, a dangling DEST pointer, a reordered
// dirty list, a leaked pin — is caught with the exact violation kind and
// location, not just "something is wrong". That precision is what makes
// the audit_every_command hook a usable debugging tool: the report names
// the broken invariant and where it broke.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/auditor.h"
#include "core/control2.h"
#include "core/dense_file.h"
#include "shard/sharded_dense_file.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "util/random.h"
#include "workload/workload.h"

namespace dsf {
namespace {

// --- Control2 fixture, mirroring tests/corruption_test.cc -------------

std::unique_ptr<Control2> MakeLoaded() {
  Control2::Options options;
  options.config.num_pages = 16;  // block_size 1 -> 16 blocks, L = 4
  options.config.d = 4;
  options.config.D = 17;
  StatusOr<std::unique_ptr<Control2>> c = Control2::Create(options);
  EXPECT_TRUE(c.ok()) << c.status();
  EXPECT_TRUE((*c)->BulkLoad(MakeAscendingRecords(48, 10, 10)).ok());
  return std::move(*c);
}

Address FirstLoadedPage(const ControlBase& control) {
  for (Address p = 1; p <= control.file().num_pages(); ++p) {
    if (!control.file().Peek(p).empty()) return p;
  }
  ADD_FAILURE() << "file unexpectedly empty";
  return 1;
}

Address NextLoadedPageAfter(const ControlBase& control, Address p) {
  for (Address q = p + 1; q <= control.file().num_pages(); ++q) {
    if (!control.file().Peek(q).empty()) return q;
  }
  ADD_FAILURE() << "no second loaded page";
  return p;
}

// --- Positive: clean runs that demonstrably covered the file ----------

TEST(Auditor, CleanAuditCountsItsWork) {
  std::unique_ptr<Control2> c = MakeLoaded();
  const AuditReport report = Auditor::AuditControl(*c);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.pages_walked, 16);
  // Rough floor: page checks + leaf checks + per-node checks all ticked.
  EXPECT_GT(report.checks_run, 16 * 2 + 16 + 31);
  EXPECT_TRUE(report.ToStatus().ok());
}

Status ApplyOp(DenseFile& file, const Op& op) {
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

bool ExpectedOutcome(const Status& s) {
  return s.ok() || s.IsAlreadyExists() || s.IsNotFound() ||
         s.IsCapacityExceeded();
}

// Every command of a mixed random workload runs under the auditor
// (audit_every_command): the first command to leave any invariant broken
// would surface Corruption here. Covers both controls, direct and pooled.
TEST(Auditor, EveryCommandAuditsCleanAcrossConfigurations) {
  const struct {
    DenseFile::Policy policy;
    int64_t cache_frames;
  } configs[] = {
      {DenseFile::Policy::kControl1, 0},
      {DenseFile::Policy::kControl1, 8},
      {DenseFile::Policy::kControl2, 0},
      {DenseFile::Policy::kControl2, 8},
  };
  for (const auto& config : configs) {
    SCOPED_TRACE("policy=" + std::to_string(static_cast<int>(config.policy)) +
                 " frames=" + std::to_string(config.cache_frames));
    DenseFile::Options options;
    options.num_pages = 32;
    options.d = 4;
    options.D = 20;
    options.policy = config.policy;
    options.cache_frames = config.cache_frames;
    options.audit_every_command = true;
    StatusOr<std::unique_ptr<DenseFile>> file = DenseFile::Create(options);
    ASSERT_TRUE(file.ok()) << file.status();
    ASSERT_TRUE((*file)->BulkLoad(MakeAscendingRecords(60, 2, 3)).ok());

    Rng rng(20260807);
    const Trace trace = UniformMix(/*num_ops=*/2500, /*insert_fraction=*/0.45,
                                   /*delete_fraction=*/0.35,
                                   /*key_space=*/200, rng);
    for (const Op& op : trace) {
      const Status s = ApplyOp(**file, op);
      ASSERT_TRUE(ExpectedOutcome(s)) << s.ToString();
    }
    const AuditReport report = (*file)->Audit();
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_GT(report.pages_walked, 0);
  }
}

TEST(Auditor, ShardedWorkloadAuditsClean) {
  ShardedDenseFile::Options options;
  options.num_shards = 4;
  options.key_space = 400;
  options.shard.num_pages = 32;
  options.shard.d = 4;
  options.shard.D = 20;
  options.shard.audit_every_command = true;
  StatusOr<std::unique_ptr<ShardedDenseFile>> file =
      ShardedDenseFile::Create(options);
  ASSERT_TRUE(file.ok()) << file.status();

  Rng rng(7);
  const Trace trace = UniformMix(/*num_ops=*/2000, /*insert_fraction=*/0.5,
                                 /*delete_fraction=*/0.3, /*key_space=*/400,
                                 rng);
  for (const Op& op : trace) {
    Status s = Status::OK();
    switch (op.kind) {
      case Op::Kind::kInsert: s = (*file)->Insert(op.record); break;
      case Op::Kind::kDelete: s = (*file)->Delete(op.record.key); break;
      case Op::Kind::kGet: s = (*file)->Get(op.record.key).status(); break;
      case Op::Kind::kScan: break;
    }
    ASSERT_TRUE(ExpectedOutcome(s)) << s.ToString();
  }
  const AuditReport report = (*file)->Audit();
  EXPECT_TRUE(report.ok()) << report.ToString();
  // All four shards were walked.
  EXPECT_EQ(report.pages_walked, 4 * 32);
}

// --- Negative: seeded corruptions, exact diagnoses --------------------

TEST(Auditor, DetectsBumpedRankCounter) {
  std::unique_ptr<Control2> c = MakeLoaded();
  const Address block = 1;
  const int leaf = c->calibrator().LeafOf(block);
  const int64_t true_count = c->calibrator().Count(leaf);
  // Lie to the calibrator: one phantom record (ancestor aggregates are
  // re-derived by SyncLeaf, so the lie is internally consistent — only
  // the physical walk can expose it).
  c->mutable_calibrator_for_testing().SyncLeaf(
      block, true_count + 1, c->calibrator().MinKeyOf(leaf),
      c->calibrator().MaxKeyOf(leaf));

  const AuditReport report = Auditor::AuditControl(*c);
  ASSERT_TRUE(report.Has(AuditViolationKind::kRankCounterStale))
      << report.ToString();
  const AuditViolation* v =
      report.Find(AuditViolationKind::kRankCounterStale);
  EXPECT_EQ(v->block, block);
  EXPECT_EQ(v->node, leaf);
  EXPECT_EQ(v->expected, true_count);      // physical truth
  EXPECT_EQ(v->found, true_count + 1);     // the stale counter
}

TEST(Auditor, DetectsStaleFenceKeys) {
  std::unique_ptr<Control2> c = MakeLoaded();
  const Address block = 1;
  const int leaf = c->calibrator().LeafOf(block);
  c->mutable_calibrator_for_testing().SyncLeaf(
      block, c->calibrator().Count(leaf), c->calibrator().MinKeyOf(leaf),
      c->calibrator().MaxKeyOf(leaf) + 1);

  const AuditReport report = Auditor::AuditControl(*c);
  ASSERT_TRUE(report.Has(AuditViolationKind::kFenceKeysStale))
      << report.ToString();
  EXPECT_EQ(report.Find(AuditViolationKind::kFenceKeysStale)->block, block);
  EXPECT_FALSE(report.Has(AuditViolationKind::kRankCounterStale));
}

TEST(Auditor, DetectsRecordSwapAcrossPageBoundary) {
  std::unique_ptr<Control2> c = MakeLoaded();
  const Address p = FirstLoadedPage(*c);
  const Address q = NextLoadedPageAfter(*c, p);
  Page lo_page = c->file().Peek(p);
  Page hi_page = c->file().Peek(q);
  const Record lo = lo_page.records().back();   // max of p
  const Record hi = hi_page.records().front();  // min of q
  ASSERT_LT(lo.key, hi.key);
  ASSERT_TRUE(lo_page.Erase(lo.key).ok());
  ASSERT_TRUE(hi_page.Erase(hi.key).ok());
  ASSERT_TRUE(lo_page.Insert(hi).ok());
  ASSERT_TRUE(hi_page.Insert(lo).ok());
  ASSERT_TRUE(c->file().RawWrite(p, lo_page.records()).ok());
  ASSERT_TRUE(c->file().RawWrite(q, hi_page.records()).ok());

  const AuditReport report = Auditor::AuditControl(*c);
  ASSERT_TRUE(report.Has(AuditViolationKind::kGlobalOrderViolation))
      << report.ToString();
  // Pinpointed at the page whose minimum dips below its predecessor.
  EXPECT_EQ(report.Find(AuditViolationKind::kGlobalOrderViolation)->page, q);
  // Counts were untouched, so the rank counters still agree.
  EXPECT_FALSE(report.Has(AuditViolationKind::kRankCounterStale));
}

TEST(Auditor, DetectsStaleWarningFlag) {
  std::unique_ptr<Control2> c = MakeLoaded();
  // 3 records on one page is far below g(v,1/3): a raised flag violates
  // Fact 5.1a. Give it a legal DEST so only the flag itself is wrong.
  const int leaf = c->calibrator().LeafOf(1);
  const int father = c->calibrator().Parent(leaf);
  c->CorruptWarningForTesting(leaf, true);
  c->CorruptDestForTesting(leaf, c->calibrator().RangeLo(father));

  const AuditReport report = Auditor::AuditControl(*c);
  ASSERT_TRUE(report.Has(AuditViolationKind::kWarningStale))
      << report.ToString();
  EXPECT_EQ(report.Find(AuditViolationKind::kWarningStale)->node, leaf);
  EXPECT_FALSE(report.Has(AuditViolationKind::kDestOutOfRange));
  // SetWarning maintains SELECT's subtree aggregates, so the corruption
  // hook must not trip that check.
  EXPECT_FALSE(report.Has(AuditViolationKind::kSelectAggregateStale));
}

TEST(Auditor, DetectsDanglingDestPointer) {
  std::unique_ptr<Control2> c = MakeLoaded();
  const int leaf = c->calibrator().LeafOf(1);
  const int father = c->calibrator().Parent(leaf);
  const Address outside = c->calibrator().RangeHi(father) + 1;
  c->CorruptWarningForTesting(leaf, true);
  c->CorruptDestForTesting(leaf, outside);

  const AuditReport report = Auditor::AuditControl(*c);
  ASSERT_TRUE(report.Has(AuditViolationKind::kDestOutOfRange))
      << report.ToString();
  const AuditViolation* v = report.Find(AuditViolationKind::kDestOutOfRange);
  EXPECT_EQ(v->node, leaf);
  EXPECT_EQ(v->found, static_cast<int64_t>(outside));
}

TEST(Auditor, DetectsRootWarning) {
  std::unique_ptr<Control2> c = MakeLoaded();
  c->CorruptWarningForTesting(c->calibrator().root(), true);
  const AuditReport report = Auditor::AuditControl(*c);
  EXPECT_TRUE(report.Has(AuditViolationKind::kRootWarning))
      << report.ToString();
}

// --- Buffer-pool audits ------------------------------------------------

TEST(Auditor, DetectsReorderedDirtyList) {
  PageFile file(/*num_pages=*/8, /*page_capacity=*/4);
  BufferPool pool(&file, {.num_frames = 4});
  // Dirty two frames in a known order...
  for (Address a : {Address{1}, Address{2}}) {
    StatusOr<PageGuard> guard = pool.PinWrite(a, "auditor_test");
    ASSERT_TRUE(guard.ok()) << guard.status();
    ASSERT_TRUE(guard->mutable_page()
                    ->Insert(Record{static_cast<Key>(a * 10), static_cast<Value>(a)})
                    .ok());
  }
  ASSERT_TRUE(Auditor::AuditPool(pool).ok());
  // ...then swap them, simulating a write-back reordering bug. The list
  // now runs against the first-dirtied order crash recovery requires.
  pool.ReorderDirtyListForTesting();
  const AuditReport report = Auditor::AuditPool(pool);
  ASSERT_TRUE(report.Has(AuditViolationKind::kDirtyOrderViolation))
      << report.ToString();
  EXPECT_FALSE(report.Has(AuditViolationKind::kDirtyListCorrupt));
}

TEST(Auditor, DetectsPinnedFrameAtQuiescence) {
  PageFile file(/*num_pages=*/8, /*page_capacity=*/4);
  BufferPool pool(&file, {.num_frames = 4});
  StatusOr<PageGuard> held = pool.PinRead(3, "auditor_test_leak");
  ASSERT_TRUE(held.ok()) << held.status();

  // Mid-operation (pins legitimate): accounting must balance, no leak.
  AuditOptions mid;
  mid.expect_quiescent_pool = false;
  EXPECT_TRUE(Auditor::AuditPool(pool, mid).ok());

  // Between commands the same pin is a leak, attributed to its owner.
  const AuditReport report = Auditor::AuditPool(pool);
  ASSERT_TRUE(report.Has(AuditViolationKind::kPinnedFrameAtQuiescence))
      << report.ToString();
  const AuditViolation* v =
      report.Find(AuditViolationKind::kPinnedFrameAtQuiescence);
  EXPECT_EQ(v->page, 3);
  EXPECT_NE(v->detail.find("auditor_test_leak"), std::string::npos);

  held->Release();
  EXPECT_TRUE(Auditor::AuditPool(pool).ok());
}

// --- The audit_every_command hook surfaces corruption as a Status ------

TEST(Auditor, AuditEveryCommandSurfacesCorruption) {
  DenseFile::Options options;
  options.num_pages = 32;
  options.d = 4;
  options.D = 20;
  options.policy = DenseFile::Policy::kControl2;
  options.audit_every_command = true;
  StatusOr<std::unique_ptr<DenseFile>> file = DenseFile::Create(options);
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_TRUE((*file)->BulkLoad(MakeAscendingRecords(60, 2, 3)).ok());
  ASSERT_TRUE((*file)->Insert(Record{1, 1}).ok());

  // Poison a fence far from where the next insert lands; the command
  // itself succeeds, the post-command audit does not.
  ControlBase& control = (*file)->control();
  const Address far_block = control.num_blocks();
  const int leaf = control.calibrator().LeafOf(far_block);
  ASSERT_GT(control.calibrator().Count(leaf), 0) << "far block empty";
  control.mutable_calibrator_for_testing().SyncLeaf(
      far_block, control.calibrator().Count(leaf),
      control.calibrator().MinKeyOf(leaf),
      control.calibrator().MaxKeyOf(leaf) + 1000);

  const Status s = (*file)->Insert(Record{3, 3});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("FenceKeysStale"), std::string::npos) << s;
}

}  // namespace
}  // namespace dsf
