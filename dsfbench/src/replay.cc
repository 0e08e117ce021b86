#include "replay.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <memory>

#include "baseline/btree.h"
#include "obs/metric_names.h"
#include "util/check.h"

namespace dsfbench {
namespace {

const char* OpName(dsf::Op::Kind kind) {
  switch (kind) {
    case dsf::Op::Kind::kInsert:
      return "insert";
    case dsf::Op::Kind::kDelete:
      return "delete";
    case dsf::Op::Kind::kGet:
      return "get";
    case dsf::Op::Kind::kScan:
      return "scan";
  }
  return "?";
}

void WritePhase(std::ofstream& f, const dsf::SpanEvent& e) {
  f << "[\"" << dsf::SpanKindToString(e.kind) << "\"," << e.seq << ","
    << e.a << "," << e.b << "," << e.io.logical_reads << ","
    << e.io.logical_writes << "," << e.io.page_reads << ","
    << e.io.page_writes << "]";
}

}  // namespace

void RoundStats::SetLatencies(Latencies* lat) {
  updates = static_cast<int64_t>(lat->update.size());
  gets = static_cast<int64_t>(lat->get.size());
  scans = static_cast<int64_t>(lat->scan.size());
  update_p50_us = Quantile(&lat->update, 0.5) / 1e3;
  update_p99_us = Quantile(&lat->update, 0.99) / 1e3;
  get_p50_us = Quantile(&lat->get, 0.5) / 1e3;
  get_p99_us = Quantile(&lat->get, 0.99) / 1e3;
  scan_p50_us = Quantile(&lat->scan, 0.5) / 1e3;
}

void ReportTimes(const std::vector<RoundStats>& rounds, Report* report) {
  auto series = [&rounds](double RoundStats::*field) {
    std::vector<double> values;
    for (const RoundStats& r : rounds) values.push_back(r.*field);
    return values;
  };
  auto median = [&series](double RoundStats::*field) {
    return Median(series(field));
  };
  std::vector<double> ops_per_s;
  int64_t updates = 0, gets = 0, scans = 0;
  for (const RoundStats& r : rounds) {
    ops_per_s.push_back(static_cast<double>(r.ops) / r.wall_s);
    updates += r.updates;
    gets += r.gets;
    scans += r.scans;
  }
  const auto n = static_cast<int64_t>(rounds.size());
  report->AddEndToEnd("setup_s", median(&RoundStats::setup_s), n);
  report->AddEndToEnd("peak_rss_mb", PeakRssMb(), 1);
  // Wall-clock results are details, not end-to-end metrics: on a shared
  // 4-vCPU VM their medians moved from run to run by 10-30% in memory
  // (host CPU and memory contention) and by up to 60% on durable
  // (fdatasync latency), more than an end-to-end bound may allow. The
  // paper's costs are gated as counts instead.
  report->AddDetail("ops_per_s", Median(ops_per_s), "1/s", n);
  report->AddDetail("update_p50_us", median(&RoundStats::update_p50_us), "us",
                    updates);
  report->AddDetail("update_p99_us", median(&RoundStats::update_p99_us), "us",
                    updates);
  if (gets > 0) {
    report->AddDetail("get_p50_us", median(&RoundStats::get_p50_us), "us",
                      gets);
    report->AddDetail("get_p99_us", median(&RoundStats::get_p99_us), "us",
                      gets);
  }
  if (scans > 0) {
    report->AddDetail("scan_p50_us", median(&RoundStats::scan_p50_us), "us",
                      scans);
  }
  report->AddDetail("reopen_s", median(&RoundStats::reopen_s), "s", n);
  report->AddDetail("rounds", static_cast<double>(n), "count", n);
  report->AddSeries("ops_per_s", ops_per_s);
  report->AddSeries("update_p50_us", series(&RoundStats::update_p50_us));
  report->AddSeries("update_p99_us", series(&RoundStats::update_p99_us));
  report->AddSeries("reopen_s", series(&RoundStats::reopen_s));
  report->AddSeries("setup_s", series(&RoundStats::setup_s));
}

void ReportCommonLayers(const RoundStats& t, const SpanLog& spans,
                        int64_t max_command_accesses, int64_t budget,
                        Report* report) {
  const int64_t ops = t.ops;
  const int64_t cmds = t.updates;
  auto per_op = [ops](int64_t v) {
    return PerOp(static_cast<double>(v), ops);
  };
  auto per_cmd = [&t, cmds](const char* counter) {
    const auto it = t.counters.find(counter);
    return PerOp(it == t.counters.end() ? 0.0
                                        : static_cast<double>(it->second),
                 cmds);
  };
  report->AddPerLayer("core.shifts_per_cmd", per_cmd(dsf::kMetricShifts),
                      cmds);
  report->AddPerLayer("core.shift_records_per_cmd",
                      per_cmd(dsf::kMetricShiftRecords), cmds);
  report->AddPerLayer("core.activations_per_cmd",
                      per_cmd(dsf::kMetricActivations), cmds);
  report->AddPerLayer("core.warnings_lowered_per_cmd",
                      per_cmd(dsf::kMetricWarningsLowered), cmds);
  report->AddPerLayer("core.redistributions_per_cmd",
                      per_cmd(dsf::kMetricRedistributions), cmds);
  int64_t maintenance = 0;
  for (const dsf::SpanKind kind :
       {dsf::SpanKind::kShift, dsf::SpanKind::kSelect,
        dsf::SpanKind::kActivate, dsf::SpanKind::kRedistribution}) {
    maintenance += spans.LogicalIn(kind);
  }
  const int64_t logical = t.io.TotalLogical();
  report->AddPerLayer("core.maintenance_access_share",
                      PerOp(static_cast<double>(maintenance), logical),
                      logical);
  report->AddPerLayer(
      "core.budget_use",
      PerOp(static_cast<double>(max_command_accesses), budget), cmds);
  report->AddPerLayer("core.self_ns_per_cmd", per_op(t.op_ns - t.backend_ns),
                      ops);

  report->AddPerLayer("storage.logical_reads_per_cmd",
                      per_op(t.io.logical_reads), ops);
  report->AddPerLayer("storage.logical_writes_per_cmd",
                      per_op(t.io.logical_writes), ops);
  report->AddPerLayer(
      "storage.seek_share",
      PerOp(static_cast<double>(t.io.seeks), t.io.TotalAccesses()),
      t.io.TotalAccesses());

  const dsf::BufferPool::Stats& pool = t.pool;
  if (pool.hits + pool.misses == 0) return;  // no pool
  report->AddPerLayer("storage.pool.hit_rate", pool.HitRate(),
                      pool.hits + pool.misses);
  report->AddPerLayer("storage.pool.evictions_per_cmd",
                      per_op(pool.evictions), ops);
  report->AddPerLayer("storage.pool.writebacks_per_cmd",
                      per_op(pool.writebacks), ops);
  report->AddPerLayer("storage.pool.flush_runs_per_cmd",
                      per_op(pool.flush_runs), ops);
  report->AddPerLayer("storage.pool.write_combines_per_cmd",
                      per_op(pool.write_combines), ops);
}

bool MatchesExpected(const dsf::Op& op, const OpOutcome& got,
                     const Expected& want, bool check_scans) {
  if (op.kind == dsf::Op::Kind::kScan) {
    return got.status.ok() && got.scan_ordered &&
           (!check_scans || got.scan_records == want.scan_records);
  }
  if (got.status.code() != want.code) return false;
  return op.kind != dsf::Op::Kind::kGet || !got.status.ok() ||
         got.value == want.value;
}

void SpanLog::AddOp(int client, int64_t index, const dsf::Op& op,
                    int64_t start_ns, int64_t ns, int64_t backend_ns,
                    int64_t logical,
                    const std::vector<dsf::SpanEvent>& phases) {
  ops_.push_back(OpSpan{client, index, op.kind, start_ns, ns, backend_ns,
                        logical, phases_.size(), phases.size()});
  phases_.insert(phases_.end(), phases.begin(), phases.end());
}

void SpanLog::AddUnattributed(const std::vector<dsf::SpanEvent>& events) {
  unattributed_.insert(unattributed_.end(), events.begin(), events.end());
}

int64_t SpanLog::LogicalIn(dsf::SpanKind kind) const {
  int64_t total = 0;
  for (const auto* events : {&phases_, &unattributed_}) {
    for (const dsf::SpanEvent& e : *events) {
      if (e.kind == kind) total += e.io.TotalLogical();
    }
  }
  return total;
}

int64_t SpanLog::MaxLogical(dsf::SpanKind kind) const {
  int64_t most = 0;
  for (const auto* events : {&phases_, &unattributed_}) {
    for (const dsf::SpanEvent& e : *events) {
      if (e.kind == kind) most = std::max(most, e.io.TotalLogical());
    }
  }
  return most;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f.good()) return false;
  // Phase arrays: [kind, command seq, a, b, logical_reads,
  // logical_writes, page_reads, page_writes] (see obs/trace.h for a/b).
  for (const OpSpan& op : ops_) {
    f << "{\"client\":" << op.client << ",\"op\":" << op.index
      << ",\"kind\":\"" << OpName(op.kind) << "\",\"start_ns\":"
      << op.start_ns << ",\"ns\":" << op.ns
      << ",\"backend_ns\":" << op.backend_ns << ",\"logical\":" << op.logical
      << ",\"phases\":[";
    for (size_t i = 0; i < op.num_phases; ++i) {
      if (i > 0) f << ",";
      WritePhase(f, phases_[op.first_phase + i]);
    }
    f << "]}\n";
  }
  for (const dsf::SpanEvent& e : unattributed_) {
    f << "{\"unattributed\":";
    WritePhase(f, e);
    f << "}\n";
  }
  return f.good();
}

Counters CounterTotals(const dsf::MetricsRegistry& registry) {
  Counters totals;
  for (const auto& c : registry.Snapshot().counters) {
    totals[c.name.substr(0, c.name.find('{'))] += c.value;
  }
  return totals;
}

Counters CounterDelta(const Counters& after, const Counters& before) {
  Counters delta = after;
  for (const auto& [name, value] : before) delta[name] -= value;
  return delta;
}

dsf::BufferPool::Stats PoolDelta(const dsf::BufferPool::Stats& after,
                                 const dsf::BufferPool::Stats& before) {
  dsf::BufferPool::Stats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.evictions = after.evictions - before.evictions;
  d.writebacks = after.writebacks - before.writebacks;
  d.write_combines = after.write_combines - before.write_combines;
  d.flush_runs = after.flush_runs - before.flush_runs;
  return d;
}

bool MakeDirs(const std::string& path) {
  for (size_t pos = 1; pos <= path.size(); ++pos) {
    if (pos == path.size() || path[pos] == '/') {
      const std::string prefix = path.substr(0, pos);
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
    }
  }
  return true;
}

double BTreeNsPerOp(uint64_t seed, Report* report) {
  const SingleWorkload w = MakeSingleWorkload("uniform", seed);
  dsf::BTree::Options options;
  options.leaf_capacity = w.options.D;
  options.internal_fanout = w.options.D;
  std::unique_ptr<dsf::BTree> tree = dsf::BTree::Create(options).value();
  DSF_CHECK(tree->BulkLoad(w.initial).ok());
  std::vector<dsf::Record> scan_buf;
  const Clock::time_point start = Clock::now();
  for (const dsf::Op& op : w.client.ops) {
    switch (op.kind) {
      case dsf::Op::Kind::kInsert:
        (void)tree->Insert(op.record);
        break;
      case dsf::Op::Kind::kDelete:
        (void)tree->Delete(op.record.key);
        break;
      case dsf::Op::Kind::kGet:
        (void)tree->Get(op.record.key);
        break;
      case dsf::Op::Kind::kScan:
        scan_buf.clear();
        (void)tree->Scan(op.record.key, op.scan_hi, &scan_buf);
        break;
    }
  }
  const int64_t ns = NsBetween(start, Clock::now());
  report->Check(tree->ScanAll() == w.final_contents,
                "B+-tree baseline contents equal the reference model");
  return static_cast<double>(ns) / static_cast<double>(w.client.ops.size());
}

}  // namespace dsfbench
