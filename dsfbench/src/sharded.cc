// sharded: one ShardedDenseFile driven by kShardedClients threads.
//
// The rounds work as in single_file.cc, with two replay modes. In the
// concurrent mode every client replays its own trace on its own thread,
// all released together; the round's wall time runs until the last
// client is done and the staging buffers are flushed. In the serial mode
// one thread replays the same traces interleaved op by op — the
// contention probe: the difference in mean op time between the two is
// what the clients pay for sharing shard locks, pools and staging. The
// serial mode is deterministic, so a traced serial round must reproduce
// the untraced one's IoStats exactly.

#include <algorithm>
#include <barrier>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dense_file.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replay.h"
#include "shard/sharded_dense_file.h"

namespace dsfbench {
namespace {

using dsf::ShardedDenseFile;

enum class Mode { kConcurrent, kSerial };

struct Observers {
  dsf::CommandTracer* tracer = nullptr;
  dsf::MetricsRegistry* metrics = nullptr;
};

struct Round : RoundStats {
  dsf::StagingStats staging;  // over the replay
  std::vector<int64_t> shard_sizes;
};

// What one client thread measured (written by that thread only).
struct ClientResult {
  Latencies lat;
  int64_t op_ns = 0;
  int64_t unexpected = 0;
  int64_t mismatches = 0;
  // Serial rounds only: logical page accesses of the mutating ops.
  int64_t update_accesses = 0;
  int64_t max_update_accesses = 0;
  struct Span {
    int64_t index;
    int64_t start_ns;
    int64_t ns;
    int64_t logical;  // serial rounds only
  };
  std::vector<Span> spans;  // traced concurrent rounds only
};

class Runner {
 public:
  Runner(const ShardedWorkload& w, Report* report) : w_(w), report_(report) {
    dsf::StatusOr<int64_t> k = dsf::DenseFile::AutoBlockSize(
        w.options.shard.num_pages, w.options.shard.d, w.options.shard.D);
    report_->Check(k.ok(), "AutoBlockSize: " + k.status().ToString());
    block_size_ = k.ok() ? *k : 1;
  }

  Round RunRound(Mode mode, const Observers& obs, SpanLog* spans) {
    Round round;
    ShardedDenseFile::Options options = w_.options;
    options.shard.tracer = obs.tracer;
    options.shard.metrics = obs.metrics;
    const Clock::time_point t0 = Clock::now();
    dsf::StatusOr<std::unique_ptr<ShardedDenseFile>> created =
        ShardedDenseFile::Create(options);
    report_->Check(created.ok(), "Create: " + created.status().ToString());
    if (!created.ok()) return round;
    ShardedDenseFile& file = **created;
    const dsf::Status loaded = file.BulkLoad(w_.initial);
    round.setup_s = SecondsBetween(t0, Clock::now());
    report_->Check(loaded.ok(), "BulkLoad: " + loaded.ToString());

    file.ResetStats();
    if (obs.tracer != nullptr) obs.tracer->Clear();
    const dsf::BufferPool::Stats pool_before = file.cache_stats();
    const dsf::StagingStats staging_before = file.staging_stats();
    const Counters counters_before =
        obs.metrics ? CounterTotals(*obs.metrics) : Counters();

    std::vector<ClientResult> clients(w_.clients.size());
    const Clock::time_point start = Clock::now();
    if (mode == Mode::kConcurrent) {
      ReplayConcurrent(file, obs, &clients);
    } else {
      ReplaySerial(file, obs, &clients, spans);
    }
    const dsf::Status flushed = file.FlushStaging();
    round.wall_s = SecondsBetween(start, Clock::now());
    report_->Check(flushed.ok(), "FlushStaging: " + flushed.ToString());

    Latencies lat;
    for (const ClientResult& c : clients) {
      for (auto [to, from] : {std::pair{&lat.update, &c.lat.update},
                              std::pair{&lat.get, &c.lat.get},
                              std::pair{&lat.scan, &c.lat.scan}}) {
        to->insert(to->end(), from->begin(), from->end());
      }
      round.op_ns += c.op_ns;
      round.update_accesses += c.update_accesses;
      round.max_update_accesses =
          std::max(round.max_update_accesses, c.max_update_accesses);
      const auto ops = static_cast<int64_t>(
          c.lat.update.size() + c.lat.get.size() + c.lat.scan.size());
      round.ops += ops;
      report_->CountOps(ops, c.unexpected);
      report_->Check(c.mismatches == 0,
                     std::to_string(c.mismatches) +
                         " ops returned other than the reference model");
    }
    round.SetLatencies(&lat);
    if (spans != nullptr && mode == Mode::kConcurrent) {
      for (size_t t = 0; t < clients.size(); ++t) {
        const ClientTrace& trace = w_.clients[t];
        for (const ClientResult::Span& s : clients[t].spans) {
          spans->AddOp(static_cast<int>(t), s.index,
                       trace.ops[static_cast<size_t>(s.index)], s.start_ns,
                       s.ns, 0, s.logical, {});
        }
      }
      spans->AddUnattributed(obs.tracer->Events());
    }
    if (obs.tracer != nullptr) {
      report_->Check(obs.tracer->dropped() == 0, "tracer dropped no spans");
    }

    round.io = file.io_stats();
    round.pool = PoolDelta(file.cache_stats(), pool_before);
    round.staging = file.staging_stats();
    round.staging.puts -= staging_before.puts;
    round.staging.hits -= staging_before.hits;
    round.staging.annihilations -= staging_before.annihilations;
    round.staging.drain_steps -= staging_before.drain_steps;
    round.staging.drained_entries -= staging_before.drained_entries;
    for (int s = 0; s < file.num_shards(); ++s) {
      round.shard_sizes.push_back(file.shard_size(s));
    }
    if (obs.metrics != nullptr) {
      round.counters =
          CounterDelta(CounterTotals(*obs.metrics), counters_before);
    }

    CheckContents(file, "after the replay");
    budget_ = 0;
    for (int s = 0; s < file.num_shards(); ++s) {
      budget_ = std::max(budget_, block_size_ *
                                      (4 * file.shard_maintenance_j(s) + 2));
    }
    // A client op may run a staging drain step of several commands; the
    // serial round still holds every mutating op to one command's budget.
    if (mode == Mode::kSerial) {
      report_->Check(round.max_update_accesses <= budget_,
                     "max accesses per mutating op " +
                         std::to_string(round.max_update_accesses) +
                         " within K*(4J+2) = " + std::to_string(budget_));
    }

    // reopen_s: as for an in-memory single file (single_file.cc), the
    // median of kReopens CheckAndRepair passes.
    std::vector<double> times;
    for (int i = 0; i < kReopens; ++i) {
      const Clock::time_point r0 = Clock::now();
      const dsf::StatusOr<dsf::RepairReport> repaired = file.CheckAndRepair();
      times.push_back(SecondsBetween(r0, Clock::now()));
      report_->Check(repaired.ok(),
                     "CheckAndRepair: " + repaired.status().ToString());
      CheckContents(file, "after CheckAndRepair");
    }
    round.reopen_s = Median(times);
    return round;
  }

  int64_t budget() const { return budget_; }

 private:
  // Applies op `i` of client `t`, timing it into `out`. With
  // `count_accesses` (one thread only) also charges the op's logical
  // page accesses, measured outside the timed interval.
  ClientResult::Span Step(ShardedDenseFile& file, size_t t, size_t i,
                          Clock::time_point start, bool count_accesses,
                          std::vector<dsf::Record>* scan_buf,
                          ClientResult* out) {
    const ClientTrace& client = w_.clients[t];
    const dsf::Op& op = client.ops[i];
    const dsf::IoStats io0 = count_accesses ? file.io_stats() : dsf::IoStats();
    const Clock::time_point t0 = Clock::now();
    const OpOutcome got = Apply(file, op, scan_buf);
    const int64_t ns = NsBetween(t0, Clock::now());
    const int64_t logical =
        count_accesses ? (file.io_stats() - io0).TotalLogical() : 0;
    out->op_ns += ns;
    if (IsUpdate(op)) {
      out->update_accesses += logical;
      out->max_update_accesses = std::max(out->max_update_accesses, logical);
      out->lat.update.push_back(ns);
    } else if (op.kind == dsf::Op::Kind::kGet) {
      out->lat.get.push_back(ns);
    } else {
      out->lat.scan.push_back(ns);
    }
    out->unexpected += Unexpected(got.status);
    out->mismatches +=
        !MatchesExpected(op, got, client.expected[i], client.check_scans);
    return ClientResult::Span{static_cast<int64_t>(i), NsBetween(start, t0),
                              ns, logical};
  }

  void ReplayConcurrent(ShardedDenseFile& file, const Observers& obs,
                        std::vector<ClientResult>* clients) {
    const size_t n = w_.clients.size();
    Clock::time_point start;
    std::barrier release(static_cast<std::ptrdiff_t>(n),
                         [&start]() noexcept { start = Clock::now(); });
    std::vector<std::thread> threads;
    for (size_t t = 0; t < n; ++t) {
      threads.emplace_back([&, t]() {
        ClientResult& out = (*clients)[t];
        const size_t ops = w_.clients[t].ops.size();
        out.lat.update.reserve(ops);
        out.lat.get.reserve(ops);
        out.spans.reserve(obs.tracer != nullptr ? ops : 0);
        std::vector<dsf::Record> scan_buf;
        release.arrive_and_wait();
        for (size_t i = 0; i < ops; ++i) {
          const ClientResult::Span span =
              Step(file, t, i, start, false, &scan_buf, &out);
          if (obs.tracer != nullptr) out.spans.push_back(span);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  // One thread, the clients' ops interleaved round-robin. A traced
  // serial round drains the tracer after every op into `spans`.
  void ReplaySerial(ShardedDenseFile& file, const Observers& obs,
                    std::vector<ClientResult>* clients, SpanLog* spans) {
    std::vector<dsf::Record> scan_buf;
    size_t longest = 0;
    for (const ClientTrace& c : w_.clients) {
      longest = std::max(longest, c.ops.size());
    }
    const Clock::time_point start = Clock::now();
    int64_t dropped = 0;
    for (size_t i = 0; i < longest; ++i) {
      for (size_t t = 0; t < w_.clients.size(); ++t) {
        if (i >= w_.clients[t].ops.size()) continue;
        ClientResult& out = (*clients)[t];
        const ClientResult::Span span =
            Step(file, t, i, start, true, &scan_buf, &out);
        if (obs.tracer == nullptr) continue;
        dropped += obs.tracer->dropped();
        const std::vector<dsf::SpanEvent> phases = obs.tracer->Events();
        obs.tracer->Clear();
        if (spans != nullptr) {
          spans->AddOp(static_cast<int>(t), span.index, w_.clients[t].ops[i],
                       span.start_ns, span.ns, 0, span.logical, phases);
        }
      }
    }
    report_->Check(dropped == 0, "tracer dropped no spans");
  }

  void CheckContents(const ShardedDenseFile& file, const std::string& when) {
    const dsf::Status valid = file.ValidateInvariants();
    report_->Check(valid.ok(), "ValidateInvariants " + when + ": " +
                                   valid.ToString());
    dsf::StatusOr<std::vector<dsf::Record>> all = file.ScanAll();
    report_->Check(all.ok() && *all == w_.final_contents,
                   "ScanAll " + when + " equals the reference model");
  }

  const ShardedWorkload& w_;
  Report* report_;
  int64_t block_size_ = 1;
  int64_t budget_ = 0;
};

double MeanOpNs(const Round& r) {
  return PerOp(static_cast<double>(r.op_ns), r.ops);
}

// `serial` is the untraced serial round that counted page accesses;
// `rounds` are the concurrent rounds that measured time.
void ReportEndToEnd(const Round& serial, const std::vector<Round>& rounds,
                    Report* report) {
  ReportTimes(std::vector<RoundStats>(rounds.begin(), rounds.end()), report);
  int64_t ops = 0, device_io = 0;
  for (const Round& r : rounds) {
    ops += r.ops;
    device_io += r.io.TotalAccesses();
  }
  report->AddEndToEnd(
      "accesses_per_cmd_mean",
      PerOp(static_cast<double>(serial.update_accesses), serial.updates),
      serial.updates);
  report->AddEndToEnd("accesses_per_cmd_max",
                      static_cast<double>(serial.max_update_accesses),
                      serial.updates);
  report->AddEndToEnd("device_io_per_cmd",
                      PerOp(static_cast<double>(device_io), ops), ops);
  report->AddDetail("error_rate",
                    PerOp(static_cast<double>(report->failed()),
                          report->attempted()),
                    "ratio", report->attempted());
}

void ReportPerLayer(const Round& t, const SpanLog& spans, int64_t budget,
                    const std::vector<double>& contention,
                    const std::vector<double>& plain,
                    const std::vector<double>& traced, double btree_ns,
                    Report* report) {
  const int64_t max_command = spans.MaxLogical(dsf::SpanKind::kCommand);
  report->Check(max_command <= budget,
                "max accesses per command " + std::to_string(max_command) +
                    " within K*(4J+2) = " + std::to_string(budget));
  ReportCommonLayers(t, spans, max_command, budget, report);

  const int64_t ops = t.ops;
  const dsf::StagingStats& st = t.staging;
  report->AddPerLayer("ingest.put_share",
                      PerOp(static_cast<double>(st.puts), t.updates),
                      t.updates);
  report->AddPerLayer("ingest.hit_rate",
                      PerOp(static_cast<double>(st.hits), t.gets), t.gets);
  report->AddPerLayer("ingest.annihilations_per_put",
                      PerOp(static_cast<double>(st.annihilations), st.puts),
                      st.puts);
  report->AddPerLayer("ingest.drain_steps_per_cmd",
                      PerOp(static_cast<double>(st.drain_steps), ops), ops);
  report->AddPerLayer(
      "ingest.drained_per_step",
      PerOp(static_cast<double>(st.drained_entries), st.drain_steps),
      st.drain_steps);

  report->AddPerLayer("shard.contention_ns_per_op", Median(contention),
                      static_cast<int64_t>(contention.size()));
  int64_t most = 0, total = 0;
  for (const int64_t size : t.shard_sizes) {
    most = std::max(most, size);
    total += size;
  }
  report->AddPerLayer(
      "shard.imbalance",
      total == 0 ? 0
                 : static_cast<double>(most) *
                       static_cast<double>(t.shard_sizes.size()) /
                       static_cast<double>(total),
      static_cast<int64_t>(t.shard_sizes.size()));
  auto counter = [&t](const char* name) {
    const auto it = t.counters.find(name);
    return it == t.counters.end() ? int64_t{0} : it->second;
  };
  const int64_t hits = counter(dsf::kMetricReadLockEpochHits);
  const int64_t fallbacks = counter(dsf::kMetricReadLockEpochFallbacks);
  const int64_t reads =
      counter(dsf::kMetricReadLockShared) + hits + fallbacks;
  report->AddPerLayer("shard.epoch_hit_ratio",
                      PerOp(static_cast<double>(hits), reads), reads);
  report->AddPerLayer("shard.epoch_fallback_ratio",
                      PerOp(static_cast<double>(fallbacks), reads), reads);
  report->AddPerLayer("obs.trace_overhead", Median(traced) / Median(plain),
                      static_cast<int64_t>(traced.size()));
  report->AddPerLayer("baseline.btree_ns_per_op", btree_ns, 1);
}

}  // namespace

void RunSharded(const RunArgs& args, Report* report) {
  const ShardedWorkload w = MakeShardedWorkload(args.seed);
  for (const auto& [key, value] : DescribeSharded(w)) {
    report->Describe(key, value);
  }
  Runner runner(w, report);
  const Clock::time_point start = Clock::now();
  auto more = [&](size_t rounds) {
    const double elapsed = SecondsBetween(start, Clock::now());
    return elapsed + elapsed / static_cast<double>(rounds) <= args.seconds;
  };

  if (!args.trace) {
    // Page accesses per op need one thread (a concurrent client's
    // IoStats delta includes the other client's accesses); the serial
    // round's times are not reported.
    const Round serial = runner.RunRound(Mode::kSerial, {}, nullptr);
    std::vector<Round> rounds;
    do {
      rounds.push_back(runner.RunRound(Mode::kConcurrent, {}, nullptr));
    } while (report->correct() && more(rounds.size()));
    ReportEndToEnd(serial, rounds, report);
    return;
  }

  // Traced: per iteration an untraced concurrent round, an untraced
  // serial round (the contention probe) and a traced concurrent round.
  // The first iteration adds a traced serial round, whose IoStats must
  // equal the untraced serial round's.
  dsf::MetricsRegistry registry;
  // Sized for a whole concurrent round (about one span per op): two
  // clients share the tracer, so it cannot be drained per op without
  // losing spans. A wrapped ring fails the run.
  dsf::CommandTracer tracer(
      static_cast<int64_t>(2 * w.clients.size() * w.clients[0].ops.size()));
  const Observers traced{&tracer, &registry};
  SpanLog spans;
  SpanLog serial_spans;
  Round first_traced;
  std::vector<double> plain_ops, traced_ops, contention;
  size_t iterations = 0;
  do {
    const Round plain = runner.RunRound(Mode::kConcurrent, {}, nullptr);
    const Round serial = runner.RunRound(Mode::kSerial, {}, nullptr);
    const Round t = runner.RunRound(Mode::kConcurrent, traced,
                                    iterations == 0 ? &spans : nullptr);
    plain_ops.push_back(static_cast<double>(plain.ops) / plain.wall_s);
    traced_ops.push_back(static_cast<double>(t.ops) / t.wall_s);
    contention.push_back(MeanOpNs(plain) - MeanOpNs(serial));
    if (iterations == 0) {
      first_traced = t;
      const Round traced_serial =
          runner.RunRound(Mode::kSerial, traced, &serial_spans);
      report->Check(serial_spans.MaxLogical(dsf::SpanKind::kCommand) <=
                        runner.budget(),
                    "max accesses per command of the serial replay within "
                    "K*(4J+2)");
      report->Check(SameIoStats(serial.io, traced_serial.io),
                    "tracing left the serial replay's IoStats unchanged "
                    "(untraced " +
                        serial.io.ToString() + ", traced " +
                        traced_serial.io.ToString() + ")");
    }
    ++iterations;
  } while (report->correct() && more(iterations));
  const double btree_ns = BTreeNsPerOp(args.seed, report);
  ReportPerLayer(first_traced, spans, runner.budget(), contention, plain_ops,
                 traced_ops, btree_ns, report);
  const std::string name = "spans-" + w.name + ".jsonl";
  report->Check(spans.WriteJsonl(args.out_dir + "/" + name),
                "write spans to " + name);
  const std::string serial_name = "spans-" + w.name + "-serial.jsonl";
  report->Check(serial_spans.WriteJsonl(args.out_dir + "/" + serial_name),
                "write spans to " + serial_name);
  report->Describe("spans", name + " " + serial_name);  // next to the result
}

}  // namespace dsfbench
