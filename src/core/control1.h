// CONTROL 1 — Section 3's amortized-time maintenance algorithm.
//
// After each insertion (step A), if some calibrator node violates
// BALANCE(d,D), step B takes the *highest* violating node v and evenly
// redistributes all records below v's father f_v, so that every node w
// under f_v ends with p(w) <= p(f_v) + 1. A single command can therefore
// cost O(M_{f_v}) page accesses — up to the whole file — but the amortized
// cost is O(log^2 M / (D-d)) (Itai-Konheim-Rodeh's argument). This is the
// baseline CONTROL 2 deamortizes.

#ifndef DSF_CORE_CONTROL1_H_
#define DSF_CORE_CONTROL1_H_

#include <memory>
#include <string>

#include "core/control_base.h"

namespace dsf {

class Control1 : public ControlBase {
 public:
  struct Stats {
    int64_t rebalances = 0;           // step B invocations
    int64_t pages_redistributed = 0;  // sum of M_{f_v} over those
  };

  // Requires the gap condition (5.1): D - d > 3*ceil(log M#) for the
  // logical spec (use block_size > 1 to lift small D-d above it).
  static StatusOr<std::unique_ptr<Control1>> Create(const Config& config);

  Status Insert(const Record& record) override;
  Status Delete(Key key) override;
  std::string Name() const override { return "CONTROL1"; }

  const Stats& stats() const { return stats_; }

 protected:
  // Base checks plus BALANCE(d,D), which step B maintains.
  Status ValidateState() const override;

 private:
  Control1(const Config& config, DensitySpec logical_spec,
           std::unique_ptr<StorageBackend> backend)
      : ControlBase(config, logical_spec, std::move(backend)) {}

  // Highest (least-depth) node on the path to `block` violating
  // p(v) > g(v,1); kNoNode if none. Only path nodes can have changed.
  int HighestViolatorOnPath(Address block) const;

  // Step B: evenly redistribute all records in RANGE(f) across its blocks
  // (crash-safe pack-then-spread; see ControlBase).
  Status Redistribute(int f);

  Stats stats_;
};

}  // namespace dsf

#endif  // DSF_CORE_CONTROL1_H_
