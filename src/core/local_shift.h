// LocalShift — padded-list maintenance in the style of Franklin [Fr79]
// and Hofri-Konheim-Willard [HKW86], the paper's expected-time relatives.
//
// No calibrator thresholds, no warning machinery: an insert whose target
// page is full walks outward to the nearest page with free space and
// shifts one boundary record per intervening page to open a slot; a
// delete simply removes its record. Under uniformly distributed updates
// the displacement distance — hence the cost — is expected O(1) (the
// closing remark of the paper cites [HKW86] for exactly this). The price
// is the worst case: a hotspot packs a solid run of full pages and a
// single insert can shift across O(M) of them. Bench E10 measures both
// sides against CONTROL 1 and CONTROL 2.
//
// LocalShift maintains conditions (i)-(iii) of (d,D)-density (capacity,
// page bound, global order) but not BALANCE(d,D).

#ifndef DSF_CORE_LOCAL_SHIFT_H_
#define DSF_CORE_LOCAL_SHIFT_H_

#include <memory>
#include <string>

#include "core/control_base.h"

namespace dsf {

class LocalShift : public ControlBase {
 public:
  struct Stats {
    int64_t displaced_inserts = 0;  // inserts whose target was full
    int64_t blocks_traversed = 0;   // total shift distance, in blocks
    int64_t max_distance = 0;       // worst single displacement
  };

  // No gap condition: any 1 <= d < D works (block_size is honored but
  // rarely useful here).
  static StatusOr<std::unique_ptr<LocalShift>> Create(const Config& config);

  Status Insert(const Record& record) override;
  Status Delete(Key key) override;
  std::string Name() const override { return "LOCALSHIFT"; }

  const Stats& stats() const { return stats_; }

 private:
  LocalShift(const Config& config, DensitySpec logical_spec,
             std::unique_ptr<StorageBackend> backend)
      : ControlBase(config, logical_spec, std::move(backend)) {}

  // Nearest block with free space, scanning outward from `from`
  // (in-memory counter reads only); 0 if the file is solid.
  Address NearestBlockWithSpace(Address from) const;

  // Writes `overfull` (the target block's records plus the new one, one
  // above capacity) and ripples the excess boundary record to `gap`.
  // Reads the whole chain before writing it gap-end first, so a fault
  // duplicates boundary records rather than losing committed ones.
  Status ShiftTowards(Address target, Address gap,
                      std::vector<Record> overfull);

  Stats stats_;
};

}  // namespace dsf

#endif  // DSF_CORE_LOCAL_SHIFT_H_
