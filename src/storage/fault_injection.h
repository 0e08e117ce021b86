// Deterministic fault injection for the simulated page device.
//
// A FaultPolicy is a scripted schedule of storage faults consulted by
// PageFile's accounted calls once per access, before the page
// is touched. A faulted access is still charged to IoStats — the paper's
// cost metric counts attempted page accesses, and the online-labeling
// write-cost literature treats retried/aborted writes as real work — but
// the page content is left unmodified, so a failed write never tears a
// single page (tearing happens at *block* granularity, between pages).
//
// Schedules are deterministic functions of the accounted access sequence:
// replaying the same trace against the same schedule reproduces the same
// fault, which is what the crash-recovery fuzz sweep relies on.
//
// Three fault shapes cover the test matrix:
//   FailNthAccess(n)        one-shot: exactly the n-th accounted access
//                           (1-based) fails, later accesses succeed — the
//                           "transient fault, caller retries" model.
//   FailAddressRange(...)   every access (or first access, if transient)
//                           to an address in [lo, hi] fails — the "bad
//                           sector / persistent media fault" model.
//   CrashAfterAccesses(k)   the first k accounted accesses succeed, every
//                           later one fails until ClearCrash() — the
//                           "process died at access k, then restarted"
//                           model. Recovery code calls ClearCrash() (the
//                           restart) and then DenseFile::CheckAndRepair().
//
// A policy belongs to one PageFile and is not internally synchronized;
// PageFile accesses are already externally serialized per file (the
// sharded file installs one policy per shard).

#ifndef DSF_STORAGE_FAULT_INJECTION_H_
#define DSF_STORAGE_FAULT_INJECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/record.h"
#include "util/status.h"

namespace dsf {

class FaultPolicy {
 public:
  // The n-th (1-based) accounted access from now on fails once.
  void FailNthAccess(int64_t n);

  // Accesses to addresses in [lo, hi] fail. `writes_only` restricts the
  // fault to writes; `transient` disarms the rule after its first hit.
  void FailAddressRange(Address lo, Address hi, bool writes_only = false,
                        bool transient = false);

  // Accesses beyond the k-th accounted access fail until ClearCrash().
  // k counts from the moment the schedule is installed.
  void CrashAfterAccesses(int64_t k);

  // Lifts an armed/tripped crash (simulated restart). One-shot and
  // tripped-transient rules stay consumed; persistent range rules remain.
  void ClearCrash();

  // Forgets the whole schedule and all counters.
  void Reset();

  // Consulted by PageFile once per accounted access, before the page is
  // touched. Returns OK to let the access proceed, or the injected fault
  // (kIoError) to abort it. Either way the access has been counted.
  Status OnAccess(Address address, bool is_write);

  int64_t accesses_seen() const { return accesses_seen_; }
  int64_t faults_injected() const { return faults_injected_; }
  // True once the CrashAfterAccesses point has been reached.
  bool crashed() const { return crashed_; }

  std::string DebugString() const;

 private:
  struct RangeRule {
    Address lo = 0;
    Address hi = 0;
    bool writes_only = false;
    bool transient = false;
    bool spent = false;
  };

  int64_t accesses_seen_ = 0;
  int64_t faults_injected_ = 0;
  std::vector<int64_t> fail_at_;  // absolute access indices, one-shot
  std::vector<RangeRule> ranges_;
  int64_t crash_after_ = -1;  // absolute access index; -1 = no crash armed
  bool crashed_ = false;
};

}  // namespace dsf

#endif  // DSF_STORAGE_FAULT_INJECTION_H_
