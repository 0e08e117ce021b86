// Shared replay pieces: run arguments, per-op application and outcome
// checks, latency samples, and the span log a traced run writes out.

#ifndef DSFBENCH_REPLAY_H_
#define DSFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "report.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"
#include "util/status.h"
#include "workload/workload.h"
#include "workloads.h"

namespace dsfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  // Directory for the result file, the span log and durable's data
  // files (inside the checkout the benchmark runs in).
  std::string out_dir;
};

// The workload-specific runners; each fills `report` with its metrics
// and checks.
void RunSingleFile(const RunArgs& args, Report* report);
void RunSharded(const RunArgs& args, Report* report);

// Host-drift reference: src/baseline/btree replaying the uniform trace
// of `seed`, in ns per op. Checks its final contents into `report`.
double BTreeNsPerOp(uint64_t seed, Report* report);

// Per-op wall-clock samples of one round, ns, split by op kind.
struct Latencies {
  std::vector<int64_t> update;  // inserts and deletes
  std::vector<int64_t> get;
  std::vector<int64_t> scan;
};

class SpanLog;

// Every counter of a MetricsRegistry by name, summed over its label
// series (a sharded file registers one series per shard).
using Counters = std::map<std::string, int64_t>;
Counters CounterTotals(const dsf::MetricsRegistry& registry);
// after - before, name by name.
Counters CounterDelta(const Counters& after, const Counters& before);

// Reopens timed per round; the round keeps their median.
inline constexpr int kReopens = 3;

// What one round measured, for every workload. Latency percentiles are
// taken per round and reported as the median over rounds, so one
// disturbed round moves them little and memory does not grow with the
// round count.
struct RoundStats {
  double setup_s = 0;   // Create + BulkLoad
  double wall_s = 0;    // the replay
  double reopen_s = 0;
  int64_t ops = 0;
  double update_p50_us = 0, update_p99_us = 0;
  double get_p50_us = 0, get_p99_us = 0, scan_p50_us = 0;
  int64_t updates = 0, gets = 0, scans = 0;
  int64_t op_ns = 0;       // sum of per-op wall time
  int64_t backend_ns = 0;  // time inside the timing backend during ops
  // Logical page accesses of the inserts and deletes (where measured).
  int64_t update_accesses = 0;
  int64_t max_update_accesses = 0;
  dsf::IoStats io;              // over the replay
  dsf::BufferPool::Stats pool;  // over the replay
  Counters counters;            // registry deltas over the replay

  // Takes the percentiles of `lat` (reordering it).
  void SetLatencies(Latencies* lat);
};

// The end-to-end setup_s and peak_rss_mb, and the wall-clock details:
// ops_per_s, update and per-kind latencies, reopen_s.
void ReportTimes(const std::vector<RoundStats>& rounds, Report* report);

// The per-layer metrics every workload derives alike from its first
// traced round `t`: core.* (maintenance counters per insert or delete,
// maintenance access share from `spans`, budget use of the worst
// command, self time), storage.* per op and storage.pool.*.
void ReportCommonLayers(const RoundStats& t, const SpanLog& spans,
                        int64_t max_command_accesses, int64_t budget,
                        Report* report);

struct OpOutcome {
  dsf::Status status;
  dsf::Value value = 0;
  int64_t scan_records = 0;
  bool scan_ordered = true;  // keys ascending and inside [lo, hi]
};

template <typename File>
OpOutcome Apply(File& file, const dsf::Op& op,
                std::vector<dsf::Record>* scan_buf) {
  OpOutcome out;
  switch (op.kind) {
    case dsf::Op::Kind::kInsert:
      out.status = file.Insert(op.record);
      break;
    case dsf::Op::Kind::kDelete:
      out.status = file.Delete(op.record.key);
      break;
    case dsf::Op::Kind::kGet: {
      dsf::StatusOr<dsf::Value> v = file.Get(op.record.key);
      out.status = v.status();
      if (v.ok()) out.value = *v;
      break;
    }
    case dsf::Op::Kind::kScan:
      scan_buf->clear();
      out.status = file.Scan(op.record.key, op.scan_hi, scan_buf);
      out.scan_records = static_cast<int64_t>(scan_buf->size());
      for (size_t i = 0; i < scan_buf->size(); ++i) {
        const dsf::Key k = (*scan_buf)[i].key;
        if (k < op.record.key || k > op.scan_hi ||
            (i > 0 && (*scan_buf)[i - 1].key >= k)) {
          out.scan_ordered = false;
        }
      }
      break;
  }
  return out;
}

inline bool IsUpdate(const dsf::Op& op) {
  return op.kind == dsf::Op::Kind::kInsert ||
         op.kind == dsf::Op::Kind::kDelete;
}

// Statuses the workloads expect besides OK: a duplicate insert or a
// missing key. Anything else is an unexpected status (an error).
inline bool Unexpected(const dsf::Status& s) {
  return !s.ok() && !s.IsAlreadyExists() && !s.IsNotFound();
}

// total / ops, 0 when there are no ops.
inline double PerOp(double total, int64_t ops) {
  return ops == 0 ? 0 : total / static_cast<double>(ops);
}

// Whether two runs of one trace made the same page accesses.
inline bool SameIoStats(const dsf::IoStats& a, const dsf::IoStats& b) {
  return a.logical_reads == b.logical_reads &&
         a.logical_writes == b.logical_writes &&
         a.page_reads == b.page_reads && a.page_writes == b.page_writes &&
         a.seeks == b.seeks;
}

// Whether `got` is what the reference model says the op returns.
bool MatchesExpected(const dsf::Op& op, const OpOutcome& got,
                     const Expected& want, bool check_scans);

// Spans a traced run records from the outside: one per op (its wall
// time and backend time) with the library's own phase spans for that op
// nested under it. Kept in memory, written once at the end.
class SpanLog {
 public:
  void AddOp(int client, int64_t index, const dsf::Op& op, int64_t start_ns,
             int64_t ns, int64_t backend_ns, int64_t logical,
             const std::vector<dsf::SpanEvent>& phases);
  // Library spans that cannot be attributed to one op (concurrent
  // clients share one tracer): written after the op spans.
  void AddUnattributed(const std::vector<dsf::SpanEvent>& events);

  // Logical accesses reported by phase spans of `kind`.
  int64_t LogicalIn(dsf::SpanKind kind) const;
  // Largest logical access count of one span of `kind`.
  int64_t MaxLogical(dsf::SpanKind kind) const;

  // One JSON object per line. Returns false when the file cannot be
  // written.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct OpSpan {
    int client;
    int64_t index;
    dsf::Op::Kind kind;
    int64_t start_ns;
    int64_t ns;
    int64_t backend_ns;
    int64_t logical;
    size_t first_phase;
    size_t num_phases;
  };
  std::vector<OpSpan> ops_;
  std::vector<dsf::SpanEvent> phases_;
  std::vector<dsf::SpanEvent> unattributed_;
};

// Pool counters accumulated between two snapshots.
dsf::BufferPool::Stats PoolDelta(const dsf::BufferPool::Stats& after,
                                 const dsf::BufferPool::Stats& before);

// Creates `path` and its parents; false on failure.
bool MakeDirs(const std::string& path);

}  // namespace dsfbench

#endif  // DSFBENCH_REPLAY_H_
