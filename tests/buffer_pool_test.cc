// Buffer-pool unit and integration tests.
//
// Pool level: hit/miss accounting against the logical/physical IoStats
// split, pinning (all-pinned returns ResourceExhausted, never aborts),
// dirty-order write-back rules (tail combining, rule-3 prefix flushes),
// flush-run coalescing, fault-injected write-back, and RAM-loss DropAll.
//
// File level: pooled-vs-unpooled differential replay, command-granularity
// durability (EndCommand flush), crash-at-flush recovery back to the
// reference model, and the sharded byte-budget split.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/dense_file.h"
#include "gtest/gtest.h"
#include "shard/sharded_dense_file.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/page_file.h"
#include "util/random.h"
#include "workload/reference_model.h"
#include "workload/workload.h"

namespace dsf {
namespace {

// ---------------------------------------------------------------------------
// Pool-level tests against a raw PageFile.

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : file_(/*num_pages=*/64, /*page_capacity=*/8) {}

  std::unique_ptr<BufferPool> MakePool(
      int64_t frames, BufferPool::Eviction eviction = BufferPool::Eviction::kClock) {
    BufferPool::Options options;
    options.num_frames = frames;
    options.eviction = eviction;
    return std::make_unique<BufferPool>(&file_, options);
  }

  // Seeds a device page directly (unaccounted), one record key=value=k.
  void SeedPage(Address address, Key k) {
    ASSERT_TRUE(file_.RawWrite(address, std::vector<Record>{{k, k}}).ok());
  }

  PageFile file_;
};

TEST_F(BufferPoolTest, HitsServeFromResidentFrames) {
  SeedPage(1, 10);
  SeedPage(2, 20);
  auto pool = MakePool(4);

  for (int round = 0; round < 3; ++round) {
    StatusOr<PageGuard> g = pool->PinRead(1);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->page().MinKey(), 10);
  }
  ASSERT_TRUE(pool->PinRead(2).ok());

  // 4 logical reads, but only 2 reached the device (one fill per page).
  EXPECT_EQ(pool->stats().hits, 2);
  EXPECT_EQ(pool->stats().misses, 2);
  EXPECT_DOUBLE_EQ(pool->stats().HitRate(), 0.5);
  EXPECT_EQ(file_.stats().logical_reads, 4);
  EXPECT_EQ(file_.stats().page_reads, 2);
  EXPECT_EQ(file_.stats().page_writes, 0);
}

TEST_F(BufferPoolTest, WriteBackIsDeferredUntilFlush) {
  auto pool = MakePool(4);
  {
    StatusOr<PageGuard> g = pool->PinWrite(1);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(g->mutable_page()->Insert(Record{7, 70}).ok());
  }
  // The mutation lives only in the frame so far.
  EXPECT_TRUE(file_.Peek(1).empty());
  EXPECT_EQ(pool->dirty_pages(), 1);
  EXPECT_EQ(file_.stats().logical_writes, 1);
  EXPECT_EQ(file_.stats().page_writes, 0);

  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(pool->dirty_pages(), 0);
  EXPECT_EQ(pool->stats().writebacks, 1);
  EXPECT_EQ(file_.stats().page_writes, 1);
  EXPECT_EQ(file_.Peek(1).MinKey(), 7);
}

TEST_F(BufferPoolTest, TailWriteCombiningAbsorbsRepeatedWrites) {
  auto pool = MakePool(4);
  for (Key k = 1; k <= 5; ++k) {
    StatusOr<PageGuard> g = pool->PinWrite(3);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(g->mutable_page()->Insert(Record{k, k}).ok());
  }
  // Five logical writes collapsed into one dirty frame at the tail of L.
  EXPECT_EQ(pool->stats().write_combines, 4);
  EXPECT_EQ(pool->dirty_pages(), 1);
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(file_.stats().logical_writes, 5);
  EXPECT_EQ(file_.stats().page_writes, 1);
  EXPECT_EQ(file_.Peek(3).size(), 5);
}

TEST_F(BufferPoolTest, NonTailRedirtyFlushesPrefixInOrder) {
  auto pool = MakePool(4);
  {
    StatusOr<PageGuard> g = pool->PinWrite(1);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(g->mutable_page()->Insert(Record{1, 1}).ok());
  }
  {
    StatusOr<PageGuard> g = pool->PinWrite(2);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(g->mutable_page()->Insert(Record{2, 2}).ok());
  }
  // Re-dirtying page 1 (now the FRONT of L, not the tail) must not let the
  // second version commute before the write of page 2: rule 3 flushes the
  // old version of page 1 to the device first.
  {
    StatusOr<PageGuard> g = pool->PinWrite(1);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(pool->stats().ordered_flushes, 1);
    EXPECT_EQ(file_.Peek(1).size(), 1);  // old version already on device
    ASSERT_TRUE(g->mutable_page()->Insert(Record{3, 3}).ok());
  }
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(file_.Peek(1).size(), 2);
  EXPECT_EQ(file_.Peek(2).size(), 1);
  EXPECT_EQ(pool->stats().writebacks, 3);
}

TEST_F(BufferPoolTest, AllPinnedReturnsResourceExhausted) {
  SeedPage(1, 1);
  SeedPage(2, 2);
  SeedPage(3, 3);
  auto pool = MakePool(2);

  StatusOr<PageGuard> g1 = pool->PinRead(1);
  StatusOr<PageGuard> g2 = pool->PinRead(2);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());

  StatusOr<PageGuard> g3 = pool->PinRead(3);
  ASSERT_FALSE(g3.ok());
  EXPECT_TRUE(g3.status().IsResourceExhausted()) << g3.status().ToString();
  // The pool stays intact: both residents still pinned and readable.
  EXPECT_EQ(pool->resident_pages(), 2);
  EXPECT_EQ(g1->page().MinKey(), 1);

  // Releasing any pin makes the same request succeed.
  g1->Release();
  StatusOr<PageGuard> retry = pool->PinRead(3);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->page().MinKey(), 3);
}

// Eviction must preserve every written record regardless of policy: the
// logical view (frame if resident, else device) never loses data.
class EvictionPolicyTest
    : public ::testing::TestWithParam<BufferPool::Eviction> {};

TEST_P(EvictionPolicyTest, EvictionWritesBackDirtyVictims) {
  PageFile file(/*num_pages=*/64, /*page_capacity=*/8);
  BufferPool::Options options;
  options.num_frames = 2;
  options.eviction = GetParam();
  BufferPool pool(&file, options);

  for (Address a = 1; a <= 8; ++a) {
    StatusOr<PageGuard> g = pool.PinWrite(a);
    ASSERT_TRUE(g.ok());
    const Key k = static_cast<Key>(a);
    ASSERT_TRUE(g->mutable_page()->Insert(Record{k, k * 10}).ok());
  }
  EXPECT_EQ(pool.stats().evictions, 6);
  EXPECT_EQ(pool.resident_pages(), 2);

  ASSERT_TRUE(pool.FlushAll().ok());
  for (Address a = 1; a <= 8; ++a) {
    ASSERT_EQ(file.Peek(a).size(), 1) << "page " << a;
    EXPECT_EQ(file.Peek(a).MinKey(), static_cast<Key>(a));
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, EvictionPolicyTest,
                         ::testing::Values(BufferPool::Eviction::kClock,
                                           BufferPool::Eviction::kLru),
                         [](const ::testing::TestParamInfo<
                             BufferPool::Eviction>& param) {
                           return param.param == BufferPool::Eviction::kClock
                                      ? "Clock"
                                      : "Lru";
                         });

TEST_F(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  SeedPage(1, 1);
  SeedPage(2, 2);
  SeedPage(3, 3);
  auto pool = MakePool(2, BufferPool::Eviction::kLru);

  ASSERT_TRUE(pool->PinRead(1).ok());
  ASSERT_TRUE(pool->PinRead(2).ok());
  ASSERT_TRUE(pool->PinRead(1).ok());  // page 1 now the most recent
  ASSERT_TRUE(pool->PinRead(3).ok());  // must evict page 2

  EXPECT_NE(pool->PeekFrame(1), nullptr);
  EXPECT_EQ(pool->PeekFrame(2), nullptr);
  EXPECT_NE(pool->PeekFrame(3), nullptr);
}

TEST_F(BufferPoolTest, WriteBackFaultLeavesFrameDirtyAndPoolConsistent) {
  auto pool = MakePool(4);
  {
    StatusOr<PageGuard> g = pool->PinWrite(5);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(g->mutable_page()->Insert(Record{50, 500}).ok());
  }
  auto policy = std::make_shared<FaultPolicy>();
  policy->FailAddressRange(5, 5, /*writes_only=*/true);
  file_.set_fault_policy(policy);

  const Status flush = pool->FlushAll();
  ASSERT_FALSE(flush.ok());
  EXPECT_TRUE(flush.IsIoError()) << flush.ToString();
  // The frame keeps its dirty content and its place in L; the device page
  // is untouched (a failed write never tears a page).
  EXPECT_EQ(pool->dirty_pages(), 1);
  ASSERT_NE(pool->PeekFrame(5), nullptr);
  EXPECT_EQ(pool->PeekFrame(5)->MinKey(), 50);
  EXPECT_TRUE(file_.Peek(5).empty());
  EXPECT_EQ(pool->stats().writebacks, 0);

  // Clearing the fault makes the same FlushAll retry succeed.
  file_.set_fault_policy(nullptr);
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(pool->dirty_pages(), 0);
  EXPECT_EQ(pool->stats().writebacks, 1);
  EXPECT_EQ(file_.Peek(5).MinKey(), 50);
}

TEST_F(BufferPoolTest, FlushStopsAtFaultPreservingOrder) {
  auto pool = MakePool(4);
  for (Address a = 1; a <= 3; ++a) {
    StatusOr<PageGuard> g = pool->PinWrite(a);
    ASSERT_TRUE(g.ok());
    const Key k = static_cast<Key>(a);
    ASSERT_TRUE(g->mutable_page()->Insert(Record{k, k}).ok());
  }
  auto policy = std::make_shared<FaultPolicy>();
  policy->FailNthAccess(2);  // the flush's second device write
  file_.set_fault_policy(policy);

  ASSERT_FALSE(pool->FlushAll().ok());
  // Page 1 landed, pages 2 and 3 stay dirty in their original order.
  EXPECT_EQ(file_.Peek(1).size(), 1);
  EXPECT_TRUE(file_.Peek(2).empty());
  EXPECT_TRUE(file_.Peek(3).empty());
  EXPECT_EQ(pool->dirty_pages(), 2);

  ASSERT_TRUE(pool->FlushAll().ok());  // retry completes the suffix
  EXPECT_EQ(file_.Peek(2).size(), 1);
  EXPECT_EQ(file_.Peek(3).size(), 1);
}

TEST_F(BufferPoolTest, SequentialFlushCoalescesIntoRuns) {
  auto pool = MakePool(8);
  // Two address runs dirtied in flush order: {3,4,5,6} and {10}.
  for (Address a : {3, 4, 5, 6, 10}) {
    StatusOr<PageGuard> g = pool->PinForOverwrite(a);
    ASSERT_TRUE(g.ok());
    const Key k = static_cast<Key>(a);
    ASSERT_TRUE(g->mutable_page()->Insert(Record{k, k}).ok());
  }
  const IoStats before = file_.stats();
  ASSERT_TRUE(pool->FlushAll().ok());
  const IoStats delta = file_.stats() - before;

  EXPECT_EQ(pool->stats().flush_runs, 2);
  EXPECT_EQ(pool->stats().flushed_pages, 5);
  // One arm movement per run; everything else streams sequentially.
  EXPECT_EQ(delta.seeks, 2);
  EXPECT_EQ(delta.sequential_accesses, 3);
  EXPECT_EQ(delta.page_writes, 5);
}

TEST_F(BufferPoolTest, MarkFreeRidesDirtyOrderUnaccounted) {
  auto pool = MakePool(4);
  {
    StatusOr<PageGuard> g = pool->PinForOverwrite(2);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(g->mutable_page()->Insert(Record{9, 9}).ok());
  }
  ASSERT_TRUE(pool->FlushAll().ok());
  ASSERT_EQ(file_.Peek(2).size(), 1);

  // "Move" the record to page 3 and free page 2, as a shrinking
  // macro-block would.
  {
    StatusOr<PageGuard> g = pool->PinForOverwrite(3);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(g->mutable_page()->Insert(Record{9, 9}).ok());
  }
  ASSERT_TRUE(pool->MarkFree(2).ok());

  const IoStats before = file_.stats();
  ASSERT_TRUE(pool->FlushAll().ok());
  const IoStats delta = file_.stats() - before;

  EXPECT_TRUE(file_.Peek(2).empty());
  EXPECT_EQ(file_.Peek(3).size(), 1);
  EXPECT_EQ(pool->stats().free_writes, 1);
  // The freed-page clear is layout bookkeeping, not an accounted write.
  EXPECT_EQ(delta.page_writes, 1);
}

// --- Content-aware write-back: rules 2' and 3† (PinForRewrite) ---

TEST_F(BufferPoolTest, RewriteSupersetAbsorbsWithoutFlush) {
  SeedPage(3, 30);
  auto pool = MakePool(4);
  { ASSERT_TRUE(pool->PinRead(3).ok()); }  // resident: exact ledger
  const std::vector<Record> v1 = {{30, 30}, {40, 40}};
  {
    StatusOr<PageGuard> g = pool->PinForRewrite(3, v1.data(), v1.data() + 2);
    ASSERT_TRUE(g.ok());
    for (const Record& r : v1) ASSERT_TRUE(g->mutable_page()->Insert(r).ok());
  }
  // A second dirty frame makes page 3 non-tail.
  {
    StatusOr<PageGuard> g = pool->PinForOverwrite(5);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(g->mutable_page()->Insert(Record{50, 50}).ok());
  }
  // Rule 2': the rewrite only adds a record, so it absorbs at page 3's
  // original position in L — no flush, no device traffic.
  const IoStats before = file_.stats();
  const std::vector<Record> v2 = {{30, 30}, {35, 35}, {40, 40}};
  {
    StatusOr<PageGuard> g = pool->PinForRewrite(3, v2.data(), v2.data() + 3);
    ASSERT_TRUE(g.ok());
    for (const Record& r : v2) ASSERT_TRUE(g->mutable_page()->Insert(r).ok());
  }
  EXPECT_EQ(pool->stats().additive_absorbs, 1);
  EXPECT_EQ(pool->stats().ordered_flushes, 0);
  EXPECT_EQ((file_.stats() - before).page_writes, 0);
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(file_.Peek(3).size(), 3);
}

TEST_F(BufferPoolTest, RewriteRelocatesWhenNothingDependsOnIt) {
  SeedPage(3, 30);
  SeedPage(5, 50);
  auto pool = MakePool(4);
  { ASSERT_TRUE(pool->PinRead(3).ok()); }
  { ASSERT_TRUE(pool->PinRead(5).ok()); }
  const std::vector<Record> p3 = {{30, 30}, {40, 40}};
  {
    StatusOr<PageGuard> g = pool->PinForRewrite(3, p3.data(), p3.data() + 2);
    ASSERT_TRUE(g.ok());
    for (const Record& r : p3) ASSERT_TRUE(g->mutable_page()->Insert(r).ok());
  }
  const std::vector<Record> p5 = {{50, 50}, {60, 60}};
  {
    StatusOr<PageGuard> g = pool->PinForRewrite(5, p5.data(), p5.data() + 2);
    ASSERT_TRUE(g.ok());
    for (const Record& r : p5) ASSERT_TRUE(g->mutable_page()->Insert(r).ok());
  }
  // Rule 3†: dropping key 40 from non-tail page 3 is safe to relocate to
  // the tail — no later frame's ledger lists a key page 3 still holds.
  const IoStats before = file_.stats();
  const std::vector<Record> p3b = {{30, 30}};
  {
    StatusOr<PageGuard> g = pool->PinForRewrite(3, p3b.data(), p3b.data() + 1);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(g->mutable_page()->Insert(p3b[0]).ok());
  }
  EXPECT_EQ(pool->stats().relocations, 1);
  EXPECT_EQ(pool->stats().ordered_flushes, 0);
  EXPECT_EQ((file_.stats() - before).page_writes, 0);
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(file_.Peek(3).size(), 1);
  EXPECT_EQ(file_.Peek(5).size(), 2);
}

TEST_F(BufferPoolTest, RewriteRefusesRelocationWhenRemovalDependsOnIt) {
  // The record-hop chain: key 10 lives on page 2 (device), duplicates to
  // page 3, then page 2's removal enters L. Rewriting page 3 to drop key
  // 10 again must NOT relocate past page 2's pending removal — a crash
  // after the removal landed would lose the key's only durable copy. The
  // old image is order-free (pure addition), so the minimal rule 3 lands
  // it alone: exactly one accounted device write, no full prefix flush.
  SeedPage(2, 10);
  SeedPage(3, 30);
  auto pool = MakePool(4);
  { ASSERT_TRUE(pool->PinRead(2).ok()); }
  { ASSERT_TRUE(pool->PinRead(3).ok()); }
  const std::vector<Record> dup = {{10, 10}, {30, 30}};
  {
    StatusOr<PageGuard> g = pool->PinForRewrite(3, dup.data(), dup.data() + 2);
    ASSERT_TRUE(g.ok());
    for (const Record& r : dup) ASSERT_TRUE(g->mutable_page()->Insert(r).ok());
  }
  {
    StatusOr<PageGuard> g = pool->PinForRewrite(2, nullptr, nullptr);
    ASSERT_TRUE(g.ok());
  }
  const IoStats before = file_.stats();
  const std::vector<Record> drop = {{30, 30}};
  {
    StatusOr<PageGuard> g =
        pool->PinForRewrite(3, drop.data(), drop.data() + 1);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(g->mutable_page()->Insert(drop[0]).ok());
  }
  EXPECT_EQ(pool->stats().relocations, 0);
  EXPECT_EQ(pool->stats().ordered_flushes, 1);
  EXPECT_EQ((file_.stats() - before).page_writes, 1);
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(file_.Peek(3).size(), 1);
  EXPECT_TRUE(file_.Peek(2).empty());
}

TEST_F(BufferPoolTest, VolatileKeyLiftsRelocationConstraint) {
  // Same chain as above, but key 10 is declared volatile (never
  // durability-promised): its removal imposes no ordering, so the
  // rewrite relocates for free.
  SeedPage(2, 10);
  SeedPage(3, 30);
  auto pool = MakePool(4);
  { ASSERT_TRUE(pool->PinRead(2).ok()); }
  { ASSERT_TRUE(pool->PinRead(3).ok()); }
  const std::vector<Record> dup = {{10, 10}, {30, 30}};
  {
    StatusOr<PageGuard> g = pool->PinForRewrite(3, dup.data(), dup.data() + 2);
    ASSERT_TRUE(g.ok());
    for (const Record& r : dup) ASSERT_TRUE(g->mutable_page()->Insert(r).ok());
  }
  {
    StatusOr<PageGuard> g = pool->PinForRewrite(2, nullptr, nullptr);
    ASSERT_TRUE(g.ok());
  }
  pool->NoteVolatile(10);
  const IoStats before = file_.stats();
  const std::vector<Record> drop = {{30, 30}};
  {
    StatusOr<PageGuard> g =
        pool->PinForRewrite(3, drop.data(), drop.data() + 1);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(g->mutable_page()->Insert(drop[0]).ok());
  }
  EXPECT_EQ(pool->stats().relocations, 1);
  EXPECT_EQ(pool->stats().ordered_flushes, 0);
  EXPECT_EQ((file_.stats() - before).page_writes, 0);
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(file_.Peek(3).size(), 1);
  EXPECT_TRUE(file_.Peek(2).empty());
}

TEST_F(BufferPoolTest, FlushAllSweepsOrderFreeFramesByAddress) {
  // Three adjacent pages dirtied out of address order, all pure
  // additions: the safe-order scheduler sorts them into one sequential
  // run instead of two L-order runs.
  SeedPage(5, 50);
  SeedPage(6, 60);
  SeedPage(7, 70);
  auto pool = MakePool(4);
  for (const Address a : {Address{7}, Address{5}, Address{6}}) {
    { ASSERT_TRUE(pool->PinRead(a).ok()); }
    // Values match the seeded records: a changed value would count as a
    // removal and pin the frame to L order.
    const std::vector<Record> v = {
        {static_cast<Key>(10 * a), static_cast<Key>(10 * a)},
        {static_cast<Key>(10 * a + 1), static_cast<Key>(10 * a + 1)}};
    StatusOr<PageGuard> g = pool->PinForRewrite(a, v.data(), v.data() + 2);
    ASSERT_TRUE(g.ok());
    for (const Record& r : v) ASSERT_TRUE(g->mutable_page()->Insert(r).ok());
  }
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(pool->stats().flush_runs, 1);
  EXPECT_EQ(file_.Peek(5).size(), 2);
  EXPECT_EQ(file_.Peek(6).size(), 2);
  EXPECT_EQ(file_.Peek(7).size(), 2);
}

TEST_F(BufferPoolTest, DropAllLosesDirtyDataByDesign) {
  SeedPage(1, 1);
  auto pool = MakePool(4);
  {
    StatusOr<PageGuard> g = pool->PinWrite(2);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(g->mutable_page()->Insert(Record{2, 2}).ok());
  }
  pool->DropAll();
  EXPECT_EQ(pool->resident_pages(), 0);
  EXPECT_EQ(pool->dirty_pages(), 0);
  EXPECT_TRUE(file_.Peek(2).empty());  // the dirty write is gone (RAM loss)
  EXPECT_EQ(file_.Peek(1).MinKey(), 1);  // device state untouched

  // The pool is fully reusable afterwards.
  StatusOr<PageGuard> g = pool->PinRead(1);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->page().MinKey(), 1);
}

TEST_F(BufferPoolTest, OutOfRangeAddressRejected) {
  auto pool = MakePool(2);
  EXPECT_EQ(pool->PinRead(0).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pool->PinRead(65).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pool->PinWrite(65).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pool->resident_pages(), 0);
}

// ---------------------------------------------------------------------------
// DenseFile-level integration.

DenseFile::Options SmallFileOptions(int64_t cache_frames,
                                    DenseFile::Policy policy =
                                        DenseFile::Policy::kControl2) {
  DenseFile::Options options;
  options.num_pages = 64;
  options.d = 8;
  options.D = 8 + 4 * 6 + 1;  // gap condition holds at M = 64
  options.policy = policy;
  options.cache_frames = cache_frames;
  return options;
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

TEST(BufferPoolDenseFileTest, PooledReplayMatchesUnpooled) {
  auto pooled = DenseFile::Create(SmallFileOptions(/*cache_frames=*/8));
  auto unpooled = DenseFile::Create(SmallFileOptions(/*cache_frames=*/0));
  ASSERT_TRUE(pooled.ok());
  ASSERT_TRUE(unpooled.ok());
  EXPECT_TRUE((*pooled)->cache_enabled());
  EXPECT_FALSE((*unpooled)->cache_enabled());

  Rng rng(20260807);
  const Trace trace = UniformMix(/*num_ops=*/3000, /*insert_fraction=*/0.4,
                                 /*delete_fraction=*/0.3, /*key_space=*/300,
                                 rng);
  for (const Op& op : trace) {
    const Status sp = Apply(**pooled, op);
    const Status su = Apply(**unpooled, op);
    ASSERT_EQ(sp.code(), su.code()) << sp.ToString() << " vs " << su.ToString();
  }

  ASSERT_TRUE((*pooled)->ValidateInvariants().ok());
  ASSERT_TRUE((*unpooled)->ValidateInvariants().ok());
  EXPECT_EQ(*(*pooled)->ScanAll(), *(*unpooled)->ScanAll());

  // Both sides requested the same logical traffic; the pool served part
  // of it from frames, so physical <= logical on reads.
  const IoStats p = (*pooled)->io_stats();
  const IoStats u = (*unpooled)->io_stats();
  EXPECT_EQ(p.logical_reads, u.logical_reads);
  EXPECT_EQ(p.logical_writes, u.logical_writes);
  EXPECT_LE(p.page_reads, p.logical_reads);
  EXPECT_GT((*pooled)->cache_stats().hits, 0);
}

TEST(BufferPoolDenseFileTest, CompletedCommandsSurviveCacheLoss) {
  auto created = DenseFile::Create(SmallFileOptions(/*cache_frames=*/8));
  ASSERT_TRUE(created.ok());
  DenseFile& file = **created;

  std::vector<Record> initial;
  for (Key k = 10; k <= 200; k += 10) initial.push_back(Record{k, k});
  ASSERT_TRUE(file.BulkLoad(initial).ok());
  for (Key k = 1; k <= 9; ++k) ASSERT_TRUE(file.Insert(k, k * 100).ok());
  ASSERT_TRUE(file.Delete(100).ok());

  // Every command flushed at EndCommand, so losing the cache (RAM half of
  // a crash) and repairing loses nothing.
  file.DiscardCache();
  ASSERT_TRUE(file.CheckAndRepair().ok());
  ASSERT_TRUE(file.ValidateInvariants().ok());
  for (Key k = 1; k <= 9; ++k) {
    ASSERT_TRUE(file.Contains(k)) << "lost committed insert " << k;
  }
  EXPECT_FALSE(file.Contains(100));
  EXPECT_EQ(file.size(), static_cast<int64_t>(initial.size()) + 9 - 1);
}

TEST(BufferPoolDenseFileTest, CrashAtFlushBoundaryRepairsToModel) {
  // Deterministic crash sweep: arm CrashAfterAccesses(k) for a spread of
  // k, replay until the crash fires mid-command (possibly mid-flush),
  // then recover exactly as a restarted process would: drop the cache,
  // clear the crash, CheckAndRepair. The file must match the committed
  // reference model, modulo the single ambiguous in-flight command.
  for (int64_t crash_at : {20, 35, 50, 75, 110, 160}) {
    SCOPED_TRACE("crash_at=" + std::to_string(crash_at));
    auto created = DenseFile::Create(SmallFileOptions(/*cache_frames=*/6));
    ASSERT_TRUE(created.ok());
    DenseFile& file = **created;

    std::vector<Record> initial;
    for (Key k = 2; k <= 300; k += 2) initial.push_back(Record{k, k});
    ASSERT_TRUE(file.BulkLoad(initial).ok());

    ReferenceModel model;
    ASSERT_TRUE(model.Load(initial).ok());

    auto policy = std::make_shared<FaultPolicy>();
    policy->CrashAfterAccesses(crash_at);
    file.set_fault_policy(policy);

    Rng rng(99 + crash_at);
    const Trace trace =
        UniformMix(/*num_ops=*/400, /*insert_fraction=*/0.5,
                   /*delete_fraction=*/0.35, /*key_space=*/300, rng);
    bool crashed = false;
    Op in_flight;
    for (const Op& op : trace) {
      const Status s = Apply(file, op);
      if (s.IsIoError()) {
        crashed = true;
        in_flight = op;
        break;
      }
      // Committed: mirror into the model (same no-op semantics).
      if (op.kind == Op::Kind::kInsert) (void)model.Insert(op.record);
      if (op.kind == Op::Kind::kDelete) (void)model.Delete(op.record.key);
    }
    ASSERT_TRUE(crashed) << "trace finished before the crash point";

    file.DiscardCache();  // RAM half of the crash
    policy->ClearCrash();  // restart
    ASSERT_TRUE(file.CheckAndRepair().ok());
    ASSERT_TRUE(file.ValidateInvariants().ok());

    // The in-flight command either fully applied or fully rolled away.
    ReferenceModel applied;
    ASSERT_TRUE(applied.Load(model.ScanAll()).ok());
    if (in_flight.kind == Op::Kind::kInsert) (void)applied.Insert(in_flight.record);
    if (in_flight.kind == Op::Kind::kDelete) (void)applied.Delete(in_flight.record.key);

    const std::vector<Record> got = *file.ScanAll();
    EXPECT_TRUE(got == model.ScanAll() || got == applied.ScanAll())
        << "recovered state matches neither the pre- nor post-command model";
  }
}

TEST(BufferPoolDenseFileTest, ExplicitFlushIsDurabilityPoint) {
  auto created = DenseFile::Create(SmallFileOptions(/*cache_frames=*/8));
  ASSERT_TRUE(created.ok());
  DenseFile& file = **created;
  ASSERT_TRUE(file.Insert(42, 420).ok());
  ASSERT_TRUE(file.Flush().ok());  // idempotent: EndCommand already flushed
  file.DiscardCache();
  ASSERT_TRUE(file.CheckAndRepair().ok());
  EXPECT_EQ(*file.Get(42), 420u);
}

TEST(BufferPoolDenseFileTest, CreateRejectsNegativeCacheFrames) {
  DenseFile::Options options = SmallFileOptions(/*cache_frames=*/-1);
  EXPECT_TRUE(DenseFile::Create(options).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Sharded integration: byte budget split and crash recovery across pools.

TEST(BufferPoolShardedTest, CacheBytesSplitEvenlyAcrossShards) {
  ShardedDenseFile::Options options;
  options.num_shards = 4;
  options.key_space = 4000;
  options.shard.num_pages = 64;
  options.shard.d = 8;
  options.shard.D = 8 + 4 * 6 + 1;
  const int64_t frame_bytes =
      (options.shard.D + 1) * static_cast<int64_t>(sizeof(Record));
  options.cache_bytes = options.num_shards * 16 * frame_bytes;

  auto created = ShardedDenseFile::Create(options);
  ASSERT_TRUE(created.ok());
  ShardedDenseFile& file = **created;
  EXPECT_EQ(file.options().shard.cache_frames, 16);

  Rng rng(7);
  const Trace trace = UniformMix(/*num_ops=*/4000, /*insert_fraction=*/0.45,
                                 /*delete_fraction=*/0.25,
                                 /*key_space=*/options.key_space, rng);
  ReferenceModel model;
  for (const Op& op : trace) {
    switch (op.kind) {
      case Op::Kind::kInsert:
        ASSERT_EQ(file.Insert(op.record).code(), model.Insert(op.record).code());
        break;
      case Op::Kind::kDelete:
        ASSERT_EQ(file.Delete(op.record.key).code(),
                  model.Delete(op.record.key).code());
        break;
      default:
        (void)file.Contains(op.record.key);
        break;
    }
  }

  const BufferPool::Stats cache = file.cache_stats();
  EXPECT_GT(cache.hits, 0);
  EXPECT_GT(cache.misses, 0);

  // Whole-machine crash across all shards: drop every pool, repair every
  // shard, and the committed state survives intact.
  ASSERT_TRUE(file.Flush().ok());
  file.DiscardCaches();
  ASSERT_TRUE(file.CheckAndRepair().ok());
  ASSERT_TRUE(file.ValidateInvariants().ok());
  EXPECT_EQ(*file.ScanAll(), model.ScanAll());
}

// Pin-leak diagnostics: a PageGuard held past its command shows up in
// PinLeakReport() with the owner tag its pinner declared, and vanishes
// once released. (The destructor logs this report in debug builds, so a
// guard leaked across a pool's lifetime is attributed, not silent.)
TEST_F(BufferPoolTest, PinLeakReportNamesOwnerTags) {
  auto pool = MakePool(4);
  EXPECT_EQ(pool->PinLeakReport(), "");

  StatusOr<PageGuard> read = pool->PinRead(2, "leak_test_reader");
  ASSERT_TRUE(read.ok()) << read.status();
  StatusOr<PageGuard> write = pool->PinWrite(5, "leak_test_writer");
  ASSERT_TRUE(write.ok()) << write.status();

  const std::string report = pool->PinLeakReport();
  EXPECT_NE(report.find("leak_test_reader"), std::string::npos) << report;
  EXPECT_NE(report.find("leak_test_writer"), std::string::npos) << report;
  EXPECT_NE(report.find("page 2"), std::string::npos) << report;
  EXPECT_NE(report.find("page 5"), std::string::npos) << report;
  EXPECT_EQ(pool->live_guards(), 2);

  read->Release();
  const std::string remaining = pool->PinLeakReport();
  EXPECT_EQ(remaining.find("leak_test_reader"), std::string::npos);
  EXPECT_NE(remaining.find("leak_test_writer"), std::string::npos);

  write->Release();
  EXPECT_EQ(pool->PinLeakReport(), "");
  EXPECT_EQ(pool->live_guards(), 0);
  ASSERT_TRUE(pool->FlushAll().ok());
}

TEST_F(BufferPoolTest, TryEpochGetServesResidentStableFrames) {
  SeedPage(1, 10);
  SeedPage(2, 20);
  auto pool = MakePool(4);
  Record r{0, 0};
  // Nothing resident yet: the epoch read answers nothing and never
  // touches the device.
  EXPECT_FALSE(pool->TryEpochGet(10, &r));
  EXPECT_EQ(file_.stats().page_reads, 0);

  ASSERT_TRUE(pool->PinRead(1).ok());
  const int64_t device_reads = file_.stats().page_reads;
  EXPECT_TRUE(pool->TryEpochGet(10, &r));
  EXPECT_EQ(r.key, 10u);
  EXPECT_EQ(r.value, 10u);
  EXPECT_EQ(file_.stats().page_reads, device_reads);  // RAM only
  // Positive hits only: an absent key — or a key on a non-resident page
  // — is "don't know", never "not found".
  EXPECT_FALSE(pool->TryEpochGet(11, &r));
  EXPECT_FALSE(pool->TryEpochGet(20, &r));
}

TEST_F(BufferPoolTest, TryEpochGetSkipsFramesUnderWriteGuard) {
  SeedPage(1, 10);
  auto pool = MakePool(4);
  Record r{0, 0};
  {
    StatusOr<PageGuard> g = pool->PinWrite(1);
    ASSERT_TRUE(g.ok());
    // The frame's version is odd while a write guard is outstanding:
    // the epoch read must refuse it even though the key is present.
    EXPECT_FALSE(pool->TryEpochGet(10, &r));
  }
  // Guard released — version even again — so the frame is readable.
  EXPECT_TRUE(pool->TryEpochGet(10, &r));
  EXPECT_EQ(r.value, 10u);
}

TEST_F(BufferPoolTest, ConcurrentSharedReadersLeakNoPins) {
  // Readers hammer overlapping pages through guarded pins and epoch
  // reads; after they join, not a single pin may remain and every read
  // must have seen its page's seeded contents. Run under TSan this is
  // the reader-vs-reader race check for the pool's pin accounting.
  for (Address a = 1; a <= 8; ++a) {
    SeedPage(a, static_cast<Key>(10 * static_cast<Key>(a)));
  }
  auto pool = MakePool(4);
  std::atomic<bool> wrong_contents{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 500; ++i) {
        const Address a = static_cast<Address>(rng.Uniform(8) + 1);
        const Key k = static_cast<Key>(10 * static_cast<Key>(a));
        StatusOr<PageGuard> g = pool->PinRead(a);
        if (g.ok() && g->page().MinKey() != k) wrong_contents.store(true);
        Record r{0, 0};
        if (pool->TryEpochGet(k, &r) && r.value != k) {
          wrong_contents.store(true);
        }
      }
    });
  }
  for (auto& thread : readers) thread.join();
  EXPECT_FALSE(wrong_contents.load());
  EXPECT_EQ(pool->live_guards(), 0) << pool->PinLeakReport();
  EXPECT_EQ(pool->PinLeakReport(), "");
}

TEST(BufferPoolShardedTest, NegativeCacheBytesRejected) {
  ShardedDenseFile::Options options;
  options.num_shards = 2;
  options.key_space = 100;
  options.shard.num_pages = 64;
  options.shard.d = 8;
  options.shard.D = 8 + 4 * 6 + 1;
  options.cache_bytes = -5;
  EXPECT_TRUE(ShardedDenseFile::Create(options).status().IsInvalidArgument());
}

}  // namespace
}  // namespace dsf
