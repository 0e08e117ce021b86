// A single page: a sorted, bounded sequence of records.
//
// Pages keep records in ascending key order. `capacity` is the physical
// slot count; the (d,D)-density machinery keeps logical occupancy at or
// below D, but physical capacity is D+1 because CONTROL 2 only restores
// p(leaf) <= D at the *end* of a command (one extra record may transiently
// sit in the insertion-target page before the J SHIFT cycles drain it).
//
// Capacity is a limit, not a reservation. A constructed page allocates
// nothing; its record storage grows by one rule — to max(needed, twice
// the current storage), never past capacity() — so memory follows the
// records a page holds. That matters because (d,D)-density bounds a file
// to d*M records: at most d/D of its M*D slots are ever occupied (25% at
// d=16, D=64), and a bulk load allocates each page once, at its loaded
// size. ReserveFull() opts a page into its whole capacity up front: the
// buffer pool's frames use it, because they are recycled across pages
// and filled under the pool mutex, where a reallocation must not happen.

#ifndef DSF_STORAGE_PAGE_H_
#define DSF_STORAGE_PAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/record.h"
#include "util/status.h"

namespace dsf {

class Page {
 public:
  Page() = default;
  explicit Page(int64_t capacity);

  int64_t size() const { return static_cast<int64_t>(records_.size()); }
  bool empty() const { return records_.empty(); }
  int64_t capacity() const { return capacity_; }

  // Inserts keeping key order. Fails with AlreadyExists on duplicate key
  // and with CapacityExceeded when the page is physically full.
  Status Insert(const Record& record);

  // Removes the record with `key`; NotFound if absent.
  Status Erase(Key key);

  // Returns the record with `key`, or NotFound.
  StatusOr<Record> Find(Key key) const;

  bool Contains(Key key) const;

  // Smallest / largest key. Page must be non-empty.
  Key MinKey() const;
  Key MaxKey() const;

  // Removes and returns the `count` records with the smallest keys
  // (count <= size()).
  std::vector<Record> TakeLowest(int64_t count);

  // Removes and returns the `count` records with the largest keys, in
  // ascending order (count <= size()).
  std::vector<Record> TakeHighest(int64_t count);

  // Appends records that are all larger than MaxKey(). Caller guarantees
  // order and capacity; checked in debug builds. The iterator form lets
  // block writers append a slice of a larger buffer without materializing
  // a temporary vector.
  void AppendHigh(const std::vector<Record>& records);
  void AppendHigh(const Record* begin, const Record* end);

  // Prepends records that are all smaller than MinKey(). Caller guarantees
  // order and capacity; checked in debug builds.
  void PrependLow(const std::vector<Record>& records);

  // Drops every record and returns them (ascending).
  std::vector<Record> TakeAll();

  // Drops every record, keeping the underlying storage for reuse — the
  // rewrite paths clear and refill pages in place without reallocating.
  void Clear() { records_.clear(); }

  // Reserves storage for all capacity() slots, so no later fill of this
  // page reallocates.
  void ReserveFull() { records_.reserve(static_cast<size_t>(capacity_)); }

  const std::vector<Record>& records() const { return records_; }

  // True iff records are strictly ascending by key and size <= capacity.
  bool WellFormed() const;

  std::string DebugString() const;

 private:
  // The growth rule: makes room for `needed` records (<= capacity_).
  void Grow(int64_t needed);

  int64_t capacity_ = 0;
  std::vector<Record> records_;  // ascending by key
};

}  // namespace dsf

#endif  // DSF_STORAGE_PAGE_H_
