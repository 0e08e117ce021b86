#include "core/local_shift.h"

#include <algorithm>
#include <cstdlib>

#include "util/check.h"

namespace dsf {

StatusOr<std::unique_ptr<LocalShift>> LocalShift::Create(
    const Config& config) {
  StatusOr<DensitySpec> spec = MakeLogicalSpec(config);
  if (!spec.ok()) return spec.status();
  StatusOr<std::unique_ptr<StorageBackend>> backend = MakeBackend(config);
  if (!backend.ok()) return backend.status();
  return std::unique_ptr<LocalShift>(
      new LocalShift(config, *spec, std::move(*backend)));
}

Address LocalShift::NearestBlockWithSpace(Address from) const {
  const int64_t full = block_size_ * page_D_;
  for (int64_t dist = 0; dist < num_blocks_; ++dist) {
    const Address left = from - dist;
    if (left >= 1 && calibrator_.Count(calibrator_.LeafOf(left)) < full) {
      return left;
    }
    const Address right = from + dist;
    if (right <= num_blocks_ &&
        calibrator_.Count(calibrator_.LeafOf(right)) < full) {
      return right;
    }
  }
  return 0;
}

Status LocalShift::ShiftTowards(Address target, Address gap,
                                std::vector<Record> overfull) {
  // `overfull` is the target block's contents including the new record
  // (one above capacity). Ripple the extreme record block-by-block toward
  // the gap: every intermediate block sheds one boundary record and
  // absorbs the carry, preserving global key order throughout.
  //
  // Crash safety: all chain blocks are read before anything is written
  // (a read fault aborts with the device untouched), then the chain is
  // written from the absorbing gap end back toward the target. Records
  // ripple toward the gap, so each boundary record's new home is written
  // before the block shedding it is overwritten — a crash mid-chain
  // duplicates a boundary record but loses only the in-flight insert.
  if (gap < target) {
    std::vector<std::vector<Record>> contents(
        static_cast<size_t>(target - gap + 1));
    Record carry = overfull.front();
    overfull.erase(overfull.begin());
    contents[static_cast<size_t>(target - gap)] = std::move(overfull);
    for (Address b = target - 1; b >= gap; --b) {
      StatusOr<std::vector<Record>> read = ReadBlock(b);
      DSF_RETURN_IF_ERROR(read.status());
      std::vector<Record>& records = *read;
      records.push_back(carry);
      if (b > gap) {
        carry = records.front();
        records.erase(records.begin());
      }
      contents[static_cast<size_t>(b - gap)] = *std::move(read);
    }
    // Records ripple left, both across blocks and inside each block
    // (intermediate blocks shed the front rank and absorb at the back,
    // an equal-count rewrite kAuto would mishandle): write ascending
    // with forward page order.
    for (Address b = gap; b <= target; ++b) {
      DSF_RETURN_IF_ERROR(WriteBlock(b, contents[static_cast<size_t>(b - gap)],
                                     BlockWriteOrder::kForward));
    }
  } else {
    std::vector<std::vector<Record>> contents(
        static_cast<size_t>(gap - target + 1));
    Record carry = overfull.back();
    overfull.pop_back();
    contents[0] = std::move(overfull);
    for (Address b = target + 1; b <= gap; ++b) {
      StatusOr<std::vector<Record>> read = ReadBlock(b);
      DSF_RETURN_IF_ERROR(read.status());
      std::vector<Record>& records = *read;
      records.insert(records.begin(), carry);
      if (b < gap) {
        carry = records.back();
        records.pop_back();
      }
      contents[static_cast<size_t>(b - target)] = *std::move(read);
    }
    // Mirror image: records ripple right; write descending with backward
    // page order.
    for (Address b = gap; b >= target; --b) {
      DSF_RETURN_IF_ERROR(WriteBlock(b,
                                     contents[static_cast<size_t>(b - target)],
                                     BlockWriteOrder::kBackward));
    }
  }
  return Status::OK();
}

Status LocalShift::Insert(const Record& record) {
  if (size() >= MaxRecords()) {
    return Status::CapacityExceeded("file already holds N = d*M records");
  }
  BeginCommand(CommandKind::kInsert);
  const Address target = TargetBlockForInsert(record.key);
  StatusOr<std::vector<Record>> read = ReadBlock(target);
  if (!read.ok()) {
    return EndCommand(read.status());
  }
  std::vector<Record>& records = *read;
  const auto pos = std::lower_bound(records.begin(), records.end(), record,
                                    RecordKeyLess);
  if (pos != records.end() && pos->key == record.key) {
    return EndCommand(Status::AlreadyExists("key already present"));
  }
  const int64_t full = block_size_ * page_D_;
  if (static_cast<int64_t>(records.size()) < full) {
    records.insert(pos, record);
    const Status s = WriteBlock(target, records);
    return EndCommand(s);
  }
  // Target is solid: place the record anyway (one-over-capacity, within
  // the page store's transient slack) and ripple the boundary record to
  // the nearest gap. The capacity check above guarantees a gap exists.
  const Address gap = NearestBlockWithSpace(target);
  DSF_CHECK(gap != 0) << "no free slot despite N < d*M";
  ++stats_.displaced_inserts;
  const int64_t distance = std::abs(gap - target);
  stats_.blocks_traversed += distance;
  stats_.max_distance = std::max(stats_.max_distance, distance);
  records.insert(pos, record);
  const Status s = ShiftTowards(target, gap, std::move(records));
  return EndCommand(s);
}

Status LocalShift::Delete(Key key) {
  const Address block = BlockPossiblyContaining(key);
  if (block == 0) return Status::NotFound("key absent");
  BeginCommand(CommandKind::kDelete);
  StatusOr<std::vector<Record>> read = ReadBlock(block);
  if (!read.ok()) {
    return EndCommand(read.status());
  }
  std::vector<Record>& records = *read;
  const auto it = std::lower_bound(records.begin(), records.end(),
                                   Record{key, 0}, RecordKeyLess);
  if (it == records.end() || it->key != key) {
    return EndCommand(Status::NotFound("key absent"));
  }
  records.erase(it);
  const Status s = WriteBlock(block, records);
  return EndCommand(s);
}

}  // namespace dsf
