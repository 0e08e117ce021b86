// BoundCertifier — live certification of the paper's worst-case bound.
//
// Theorems 5.5 and 5.7 promise that every CONTROL 2 insert/delete costs
// O(log^2 M / (D-d)) page accesses. The repo's tests assert the
// mechanism; the certifier *watches an actual run* and certifies that no
// single command ever exceeded the exact per-command access budget the
// algorithm's structure implies. The budget is computed once at
// file-open time from (M, d, D, J) and the resolved macro-block size K:
//
//   A CONTROL 2 command performs, in logical page accesses,
//     step 1:  read + write of the target block       <= 2K pages
//     step 4:  J SHIFT cycles, each reading DEST and SOURCE and writing
//              both back                               <= 4K pages each
//   budget = K * (4J + 2)
//
// (SELECT, ACTIVATE and the warning bookkeeping live in the in-memory
// calibrator and cost nothing; a SHIFT that finds no populated SOURCE
// accesses nothing, so the budget is an upper envelope, and with
// J = Theta(ceil(log M#)^2 / (K(D-d))) it is O(log^2 M / (D-d)).)
//
// Counted are *logical* accesses (IoStats logical_reads +
// logical_writes): they measure what the algorithm requested,
// independent of whether a buffer pool absorbed the traffic, so the
// certificate is device-configuration-independent. Range commands
// (DeleteRange) and Compact are exempt — the paper's bound covers point
// updates only; their observations are tallied but never flagged.
//
// Attached to CONTROL 1 or LocalShift (DenseFile::Options::certify_bound
// with those policies), the certifier keeps the CONTROL 2 envelope at
// the same geometry, with J = DensitySpec::RecommendedJ at CONTROL 2's
// default safety. That is the deamortization claim made operational:
// CONTROL 2 stays under the envelope on every command, while CONTROL 1's
// occasional O(M)-block redistributions must breach it (bench/obs_certify
// records both series into BENCH_obs.json).
//
// Reporting follows the typed-report pattern of analysis/auditor.h: a
// BoundReport accumulates one BoundViolation per flagged command, is
// ok() when empty, and collapses to a Status for callers that only
// gate. The certifier is owned by the DenseFile and fed by
// ControlBase::EndCommand; with a shard mutex above it (sharding,
// parallel replay) observation is single-threaded per file.

#ifndef DSF_OBS_BOUND_CERTIFIER_H_
#define DSF_OBS_BOUND_CERTIFIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dsf {

class Counter;

// What kind of command a cost observation belongs to. Declared here (not
// in core/) so the storage-to-core layering stays acyclic: obs/ depends
// only on util/ and storage/, and core/ depends on obs/.
enum class CommandKind {
  kInsert,
  kDelete,
  kRange,    // DeleteRange: outside the per-command bound, exempt
  kCompact,  // explicit O(M) reorganization, exempt
};

const char* CommandKindToString(CommandKind kind);

// One command that exceeded the budget.
struct BoundViolation {
  int64_t command_index = 0;  // ordinal among *checked* commands, 0-based
  CommandKind kind = CommandKind::kInsert;
  int64_t accesses = 0;  // measured logical page accesses
  int64_t budget = 0;    // the envelope it exceeded

  std::string ToString() const;
};

// The certificate: parameters, coverage counters (a clean report proves
// it watched), the observed worst case, and every violation.
struct BoundReport {
  // Geometry and envelope, fixed at file-open.
  int64_t num_pages = 0;   // physical M
  int64_t block_size = 0;  // K
  int64_t d = 0;
  int64_t D = 0;
  int64_t J = 0;
  int64_t budget = 0;  // K * (4J + 2)

  int64_t commands_checked = 0;  // point commands measured
  int64_t commands_exempt = 0;   // range/compact commands seen
  int64_t max_accesses = 0;      // worst checked command
  std::vector<BoundViolation> violations;

  bool ok() const { return violations.empty(); }
  // OK when clean; otherwise FailedPrecondition carrying the first
  // violation and the total count (the bound is a performance contract,
  // not data corruption).
  Status ToStatus() const;
  std::string ToString() const;
};

class BoundCertifier {
 public:
  // The exact per-command logical-access budget for the geometry.
  static int64_t BudgetFor(int64_t block_size, int64_t j) {
    return block_size * (4 * j + 2);
  }

  // `j`: CONTROL 2's resolved J for the file, or the recommended J at
  // the same geometry when certifying a non-CONTROL-2 policy.
  BoundCertifier(int64_t num_pages, int64_t d, int64_t D,
                 int64_t block_size, int64_t j);

  // Feeds one completed command's logical access count. Exempt kinds are
  // tallied but never flagged. `violations_counter` (when instrumented)
  // is bumped on each flagged command.
  void Observe(CommandKind kind, int64_t logical_accesses);

  // Optional metrics hook: bumped once per flagged command.
  void set_violations_counter(Counter* counter) {
    violations_counter_ = counter;
  }

  int64_t budget() const { return report_.budget; }
  const BoundReport& report() const { return report_; }

 private:
  BoundReport report_;
  Counter* violations_counter_ = nullptr;
};

}  // namespace dsf

#endif  // DSF_OBS_BOUND_CERTIFIER_H_
