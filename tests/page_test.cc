#include "storage/page.h"

#include <gtest/gtest.h>

namespace dsf {
namespace {

Record R(Key k) { return Record{k, k * 10}; }

TEST(Page, StartsEmpty) {
  Page p(4);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0);
  EXPECT_EQ(p.capacity(), 4);
  EXPECT_TRUE(p.WellFormed());
}

TEST(Page, InsertKeepsKeyOrder) {
  Page p(8);
  ASSERT_TRUE(p.Insert(R(5)).ok());
  ASSERT_TRUE(p.Insert(R(2)).ok());
  ASSERT_TRUE(p.Insert(R(9)).ok());
  ASSERT_TRUE(p.Insert(R(7)).ok());
  ASSERT_EQ(p.size(), 4);
  EXPECT_EQ(p.records()[0].key, 2u);
  EXPECT_EQ(p.records()[1].key, 5u);
  EXPECT_EQ(p.records()[2].key, 7u);
  EXPECT_EQ(p.records()[3].key, 9u);
  EXPECT_TRUE(p.WellFormed());
}

TEST(Page, InsertRejectsDuplicates) {
  Page p(4);
  ASSERT_TRUE(p.Insert(R(3)).ok());
  const Status s = p.Insert(Record{3, 999});
  EXPECT_TRUE(s.IsAlreadyExists());
  EXPECT_EQ(p.size(), 1);
}

TEST(Page, InsertRejectsWhenFull) {
  Page p(2);
  ASSERT_TRUE(p.Insert(R(1)).ok());
  ASSERT_TRUE(p.Insert(R(2)).ok());
  EXPECT_TRUE(p.Insert(R(3)).IsCapacityExceeded());
}

TEST(Page, EraseRemovesAndReportsMissing) {
  Page p(4);
  ASSERT_TRUE(p.Insert(R(1)).ok());
  ASSERT_TRUE(p.Insert(R(2)).ok());
  EXPECT_TRUE(p.Erase(1).ok());
  EXPECT_EQ(p.size(), 1);
  EXPECT_TRUE(p.Erase(1).IsNotFound());
  EXPECT_TRUE(p.Erase(99).IsNotFound());
}

TEST(Page, FindReturnsStoredValue) {
  Page p(4);
  ASSERT_TRUE(p.Insert(Record{6, 60}).ok());
  StatusOr<Record> r = p.Find(6);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->value, 60u);
  EXPECT_TRUE(p.Find(7).status().IsNotFound());
  EXPECT_TRUE(p.Contains(6));
  EXPECT_FALSE(p.Contains(7));
}

TEST(Page, MinMaxKeys) {
  Page p(4);
  ASSERT_TRUE(p.Insert(R(4)).ok());
  ASSERT_TRUE(p.Insert(R(8)).ok());
  ASSERT_TRUE(p.Insert(R(6)).ok());
  EXPECT_EQ(p.MinKey(), 4u);
  EXPECT_EQ(p.MaxKey(), 8u);
}

TEST(Page, TakeLowestRemovesPrefix) {
  Page p(8);
  for (Key k = 1; k <= 5; ++k) ASSERT_TRUE(p.Insert(R(k)).ok());
  const std::vector<Record> taken = p.TakeLowest(2);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].key, 1u);
  EXPECT_EQ(taken[1].key, 2u);
  EXPECT_EQ(p.size(), 3);
  EXPECT_EQ(p.MinKey(), 3u);
}

TEST(Page, TakeHighestRemovesSuffixInAscendingOrder) {
  Page p(8);
  for (Key k = 1; k <= 5; ++k) ASSERT_TRUE(p.Insert(R(k)).ok());
  const std::vector<Record> taken = p.TakeHighest(3);
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken[0].key, 3u);
  EXPECT_EQ(taken[2].key, 5u);
  EXPECT_EQ(p.size(), 2);
  EXPECT_EQ(p.MaxKey(), 2u);
}

TEST(Page, TakeAllEmptiesPage) {
  Page p(4);
  ASSERT_TRUE(p.Insert(R(1)).ok());
  ASSERT_TRUE(p.Insert(R(2)).ok());
  const std::vector<Record> all = p.TakeAll();
  EXPECT_EQ(all.size(), 2u);
  EXPECT_TRUE(p.empty());
}

TEST(Page, AppendHighAndPrependLowPreserveOrder) {
  Page p(8);
  ASSERT_TRUE(p.Insert(R(10)).ok());
  ASSERT_TRUE(p.Insert(R(11)).ok());
  p.AppendHigh({R(20), R(21)});
  p.PrependLow({R(1), R(2)});
  ASSERT_EQ(p.size(), 6);
  EXPECT_EQ(p.MinKey(), 1u);
  EXPECT_EQ(p.MaxKey(), 21u);
  EXPECT_TRUE(p.WellFormed());
}

// Capacity is a limit, not a reservation: storage follows the records.
TEST(Page, ConstructedPageReservesNoRecordStorage) {
  const Page p(65);
  EXPECT_EQ(p.capacity(), 65);
  EXPECT_EQ(p.records().capacity(), 0u);
}

TEST(Page, AppendIntoEmptyPageAllocatesItsRecordsExactly) {
  Page p(65);
  std::vector<Record> loaded;
  for (Key k = 1; k <= 13; ++k) loaded.push_back(R(k));
  p.AppendHigh(loaded);
  EXPECT_EQ(p.records().capacity(), 13u);
}

TEST(Page, GrowthNeverReservesPastCapacity) {
  // Every growing call, from every starting size, up to a full page.
  Page inserted(65);
  for (Key k = 65; k >= 1; --k) {  // descending: each insert lands first
    ASSERT_TRUE(inserted.Insert(R(k)).ok());
    ASSERT_LE(inserted.records().capacity(), 65u) << "after key " << k;
    ASSERT_GE(inserted.records().capacity(),
              static_cast<size_t>(inserted.size()));
  }
  EXPECT_EQ(inserted.size(), inserted.capacity());
  EXPECT_TRUE(inserted.Insert(R(100)).IsCapacityExceeded());
  EXPECT_LE(inserted.records().capacity(), 65u);

  Page appended(65);
  for (Key k = 1; k <= 65; ++k) {
    appended.AppendHigh({R(k)});
    ASSERT_LE(appended.records().capacity(), 65u) << "after key " << k;
  }
  EXPECT_EQ(appended.size(), appended.capacity());

  Page prepended(65);
  for (Key k = 65; k >= 1; --k) {
    prepended.PrependLow({R(k)});
    ASSERT_LE(prepended.records().capacity(), 65u) << "after key " << k;
  }
  EXPECT_EQ(prepended.size(), prepended.capacity());
  EXPECT_TRUE(prepended.WellFormed());
}

TEST(Page, GrowthAtLeastDoublesStorage) {
  // Repeated one-record growth reallocates O(log capacity) times, not
  // once per record.
  Page p(1024);
  int reallocations = 0;
  const Record* storage = nullptr;
  for (Key k = 1; k <= 1024; ++k) {
    p.AppendHigh({R(k)});
    if (p.records().data() != storage) {
      ++reallocations;
      storage = p.records().data();
    }
  }
  EXPECT_LE(reallocations, 11);
}

TEST(Page, ClearKeepsItsStorage) {
  Page p(16);
  for (Key k = 1; k <= 10; ++k) ASSERT_TRUE(p.Insert(R(k)).ok());
  const size_t reserved = p.records().capacity();
  const Record* storage = p.records().data();
  p.Clear();
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.records().capacity(), reserved);
  // Refilling up to the kept storage does not reallocate.
  for (Key k = 1; k <= static_cast<Key>(reserved); ++k) {
    p.AppendHigh({R(k)});
  }
  EXPECT_EQ(p.records().data(), storage);
}

TEST(Page, ReserveFullReservesEverySlot) {
  Page p(65);
  p.ReserveFull();
  EXPECT_EQ(p.records().capacity(), 65u);
  EXPECT_TRUE(p.empty());
}

TEST(Page, DebugStringListsKeys) {
  Page p(4);
  ASSERT_TRUE(p.Insert(R(3)).ok());
  ASSERT_TRUE(p.Insert(R(1)).ok());
  EXPECT_EQ(p.DebugString(), "[1 3]");
}

}  // namespace
}  // namespace dsf
