#include "core/control1.h"

#include <algorithm>

#include "util/check.h"

namespace dsf {

StatusOr<std::unique_ptr<Control1>> Control1::Create(const Config& config) {
  StatusOr<DensitySpec> spec = MakeLogicalSpec(config);
  if (!spec.ok()) return spec.status();
  if (!spec->SatisfiesGapCondition()) {
    return Status::InvalidArgument(
        "CONTROL 1 requires D - d > 3*ceil(log M); raise block_size "
        "(Theorem 5.7) to lift a small gap above the threshold");
  }
  StatusOr<std::unique_ptr<StorageBackend>> backend = MakeBackend(config);
  if (!backend.ok()) return backend.status();
  return std::unique_ptr<Control1>(
      new Control1(config, *spec, std::move(*backend)));
}

Status Control1::Insert(const Record& record) {
  if (size() >= MaxRecords()) {
    return Status::CapacityExceeded("file already holds N = d*M records");
  }
  BeginCommand(CommandKind::kInsert);
  // Step A: locate the target block and insert. If the key is already
  // present it necessarily lives in the target block (the block whose key
  // interval covers it), so one read doubles as the duplicate probe.
  const Address target = TargetBlockForInsert(record.key);
  StatusOr<std::vector<Record>> read = ReadBlock(target);
  if (!read.ok()) {
    // Clean abort: nothing was written, the file is untouched.
    return EndCommand(read.status());
  }
  std::vector<Record>& records = *read;
  const auto pos = std::lower_bound(records.begin(), records.end(), record,
                                    RecordKeyLess);
  if (pos != records.end() && pos->key == record.key) {
    return EndCommand(Status::AlreadyExists("key already present"));
  }
  records.insert(pos, record);
  const Status write = WriteBlock(target, records);
  if (!write.ok()) {
    return EndCommand(write);
  }

  // Step B: fix the highest BALANCE violation, if the insert caused one.
  // A fault here leaves the record durably inserted but the file possibly
  // unbalanced; the caller runs CheckAndRepair before continuing.
  const int violator = HighestViolatorOnPath(target);
  if (violator != Calibrator::kNoNode) {
    const int father = calibrator_.Parent(violator);
    DSF_CHECK(father != Calibrator::kNoNode)
        << "root violated BALANCE despite the capacity check";
    const Status s = Redistribute(father);
    if (!s.ok()) {
      return EndCommand(s);
    }
  }
  return EndCommand();
}

Status Control1::Delete(Key key) {
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
  const Status write = WriteBlock(block, records);
  // Deletions only lower densities; BALANCE cannot newly fail.
  return EndCommand(write);
}

Status Control1::ValidateState() const {
  DSF_RETURN_IF_ERROR(ControlBase::ValidateState());
  return ValidateBalance();
}

int Control1::HighestViolatorOnPath(Address block) const {
  for (const int v : calibrator_.PathToLeaf(block)) {
    if (!logical_spec_.DensityAtMost(calibrator_.Count(v),
                                     calibrator_.PagesIn(v),
                                     calibrator_.Depth(v), kThirds1)) {
      return v;
    }
  }
  return Calibrator::kNoNode;
}

Status Control1::Redistribute(int f) {
  const Address lo = calibrator_.RangeLo(f);
  const Address hi = calibrator_.RangeHi(f);
  ++stats_.rebalances;
  stats_.pages_redistributed += calibrator_.PagesIn(f);
  // The even spread (block j of the m in range gets floor((j+1)n/m) -
  // floor(jn/m) records, so every aligned subrange sits within one record
  // per block of the average and p(w) <= p(f) + 1) runs as the crash-safe
  // pack-then-spread pass so a fault mid-redistribution cannot lose
  // records.
  return RedistributeRangeCrashSafe(lo, hi);
}

}  // namespace dsf
