// uniform, hotspot and durable: one DenseFile driven by one client.
//
// A run is a sequence of rounds until --seconds are spent. Each round
// sets the file up from scratch (Create + BulkLoad, the set-up time),
// replays the whole pre-generated trace timing every op, checks the
// outputs, then times the reopen. Rounds replay the same trace, so
// their page-access counts are identical and their times are repeated
// samples of one quantity; the run reports medians over rounds and
// percentiles over the pooled per-op samples.
//
// A traced run alternates untraced and traced rounds of the same trace
// (the ratio of their throughputs is the tracing overhead), and takes
// every per-layer metric from the first traced round.

#include <sys/statfs.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/calibrator.h"
#include "core/dense_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replay.h"
#include "storage/file_backend.h"
#include "timing_backend.h"

namespace dsfbench {
namespace {

using dsf::DenseFile;

// The seams a traced round installs (all off in an untraced round).
struct Observers {
  dsf::CommandTracer* tracer = nullptr;
  dsf::MetricsRegistry* metrics = nullptr;
  bool time_backend = false;
};

// Keeps the probe loops from being optimised away.
volatile int64_t g_probe_sink = 0;

struct Round : RoundStats {
  int64_t syncs = 0;         // fdatasync calls during the replay
  int64_t crc_failures = 0;  // over the replay and the reopens
  // Traced rounds only.
  TimingBackend::Stats backend;  // the decorator over the replay
  int64_t open_reads = 0;        // device reads of one DenseFile::Open
};

const dsf::FileBackend* FileBackendOf(DenseFile& file) {
  dsf::StorageBackend* backend = file.storage_backend();
  if (auto* timing = dynamic_cast<TimingBackend*>(backend)) {
    backend = &timing->inner();
  }
  return dynamic_cast<const dsf::FileBackend*>(backend);
}

std::string FilesystemOf(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "f_type=0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

class Runner {
 public:
  Runner(const SingleWorkload& w, const RunArgs& args, Report* report)
      : w_(w), report_(report), data_dir_(args.out_dir + "/durable-data") {
    if (w_.durable) {
      report_->Check(MakeDirs(data_dir_), "create " + data_dir_);
      report_->Describe("durable_filesystem", FilesystemOf(data_dir_));
    }
  }

  // When `spans` is set, appends the round's per-op spans to it (the
  // round must then be traced).
  Round RunRound(const Observers& obs, SpanLog* spans) {
    Round round;
    TimingBackend* timing = nullptr;
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<DenseFile> file = Create(obs, /*reopen=*/false, &timing);
    if (file == nullptr) return round;
    const dsf::Status loaded = file->BulkLoad(w_.initial);
    round.setup_s = SecondsBetween(t0, Clock::now());
    report_->Check(loaded.ok(), "BulkLoad: " + loaded.ToString());

    file->ResetIoStats();
    file->ResetCacheStats();
    if (timing != nullptr) timing->ResetStats();
    if (obs.tracer != nullptr) obs.tracer->Clear();
    const dsf::FileBackend* device = FileBackendOf(*file);
    const int64_t syncs_before = device ? device->stats().syncs : 0;
    const Counters counters_before =
        obs.metrics ? CounterTotals(*obs.metrics) : Counters();

    Replay(*file, obs, timing, spans, &round);
    round.SetLatencies(&lat_);

    round.io = file->io_stats();
    round.pool = file->cache_stats();
    round.syncs = device ? device->stats().syncs - syncs_before : 0;
    if (obs.metrics != nullptr) {
      round.counters =
          CounterDelta(CounterTotals(*obs.metrics), counters_before);
    }
    if (timing != nullptr) round.backend = timing->stats();
    CheckContents(*file, "after the replay");
    const int64_t budget =
        file->block_size() * (4 * file->maintenance_j() + 2);
    report_->Check(round.max_update_accesses <= budget,
                   "max accesses per command " +
                       std::to_string(round.max_update_accesses) +
                       " within K*(4J+2) = " + std::to_string(budget));
    budget_ = budget;
    if (spans != nullptr) Probe(*file);

    // durable's reopen destroys `device`: count its CRC failures first.
    if (device != nullptr) round.crc_failures = device->stats().crc_failures;
    Reopen(obs, &file, &timing, &round);
    report_->Check(round.crc_failures == 0, "no CRC failures on the device");
    return round;
  }

  int64_t budget() const { return budget_; }
  const std::vector<int64_t>& locate_batches() const { return locate_; }
  const std::vector<int64_t>& search_batches() const { return search_; }

  // Keys per timed probe batch (see Probe).
  static constexpr int64_t kProbeBatch = 64;

 private:
  DenseFile::Options Options(const Observers& obs, bool reopen,
                             TimingBackend** timing) const {
    DenseFile::Options options = w_.options;
    options.tracer = obs.tracer;
    options.metrics = obs.metrics;
    if (w_.durable) {
      dsf::FileBackend::Options fb;
      fb.directory = data_dir_;
      options.backend_factory = reopen ? dsf::FileBackend::OpenFactory(fb)
                                       : dsf::FileBackend::CreateFactory(fb);
      if (obs.time_backend) {
        options.backend_factory =
            TimingBackend::Wrap(std::move(options.backend_factory), timing);
      }
    }
    return options;
  }

  std::unique_ptr<DenseFile> Create(const Observers& obs, bool reopen,
                                    TimingBackend** timing) {
    const DenseFile::Options options = Options(obs, reopen, timing);
    dsf::StatusOr<std::unique_ptr<DenseFile>> file =
        reopen ? DenseFile::Open(options) : DenseFile::Create(options);
    report_->Check(file.ok(), std::string(reopen ? "Open" : "Create") +
                                  ": " + file.status().ToString());
    return file.ok() ? std::move(file).value() : nullptr;
  }

  void Replay(DenseFile& file, const Observers& obs, TimingBackend* timing,
              SpanLog* spans, Round* round) {
    const ClientTrace& client = w_.client;
    for (auto* v : {&lat_.update, &lat_.get, &lat_.scan}) v->clear();
    std::vector<dsf::Record> scan_buf;
    int64_t mismatches = 0;
    int64_t unexpected = 0;
    int64_t dropped = 0;
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < client.ops.size(); ++i) {
      const dsf::Op& op = client.ops[i];
      const dsf::IoStats io0 = file.io_stats();
      const int64_t busy0 = timing ? timing->stats().busy_ns : 0;
      const Clock::time_point t0 = Clock::now();
      const OpOutcome out = Apply(file, op, &scan_buf);
      const Clock::time_point t1 = Clock::now();
      const int64_t ns = NsBetween(t0, t1);
      const int64_t logical = (file.io_stats() - io0).TotalLogical();
      const int64_t backend_ns = timing ? timing->stats().busy_ns - busy0 : 0;
      round->op_ns += ns;
      round->backend_ns += backend_ns;
      if (IsUpdate(op)) {
        lat_.update.push_back(ns);
        round->update_accesses += logical;
        round->max_update_accesses =
            std::max(round->max_update_accesses, logical);
      } else if (op.kind == dsf::Op::Kind::kGet) {
        lat_.get.push_back(ns);
      } else {
        lat_.scan.push_back(ns);
      }
      unexpected += Unexpected(out.status);
      mismatches += !MatchesExpected(op, out, client.expected[i],
                                     client.check_scans);
      if (obs.tracer != nullptr) {
        // Drained after every command, so the ring never wraps.
        dropped += obs.tracer->dropped();
        const std::vector<dsf::SpanEvent> phases = obs.tracer->Events();
        obs.tracer->Clear();
        if (spans != nullptr) {
          spans->AddOp(0, static_cast<int64_t>(i), op, NsBetween(start, t0),
                       ns, backend_ns, logical, phases);
        }
      }
    }
    round->wall_s = SecondsBetween(start, Clock::now());
    round->ops = static_cast<int64_t>(client.ops.size());
    report_->CountOps(round->ops, unexpected);
    report_->Check(dropped == 0, "tracer dropped no spans");
    report_->Check(mismatches == 0,
                   std::to_string(mismatches) +
                       " ops returned other than the reference model");
  }

  void CheckContents(const DenseFile& file, const std::string& when) {
    const dsf::Status valid = file.ValidateInvariants();
    report_->Check(valid.ok(), "ValidateInvariants " + when + ": " +
                                   valid.ToString());
    dsf::StatusOr<std::vector<dsf::Record>> all = file.ScanAll();
    report_->Check(all.ok() && *all == w_.final_contents,
                   "ScanAll " + when + " equals the reference model");
  }

  // durable: close the file and time DenseFile::Open on its files.
  // In memory: time CheckAndRepair, the rebuild half of Open (calibrator
  // and warning state from the pages) without the device reads. Either
  // is repeated kReopens times; the round keeps the median.
  void Reopen(const Observers& obs, std::unique_ptr<DenseFile>* file,
              TimingBackend** timing, Round* round) {
    std::vector<double> times;
    if (w_.durable) {
      const dsf::Status flushed = (*file)->Flush();
      report_->Check(flushed.ok(), "Flush before close: " +
                                       flushed.ToString());
      for (int i = 0; i < kReopens && *file != nullptr; ++i) {
        file->reset();
        const Clock::time_point t0 = Clock::now();
        *file = Create(obs, /*reopen=*/true, timing);
        times.push_back(SecondsBetween(t0, Clock::now()));
        if (*file == nullptr) return;
        round->crc_failures += FileBackendOf(**file)->stats().crc_failures;
        if (obs.time_backend) {
          round->open_reads =
              static_cast<int64_t>((*timing)->stats().read_ns.size());
        }
        CheckContents(**file, "after reopen");
      }
    } else {
      for (int i = 0; i < kReopens; ++i) {
        const Clock::time_point t0 = Clock::now();
        const dsf::StatusOr<dsf::RepairReport> repaired =
            (*file)->CheckAndRepair();
        times.push_back(SecondsBetween(t0, Clock::now()));
        report_->Check(repaired.ok(),
                       "CheckAndRepair: " + repaired.status().ToString());
        CheckContents(**file, "after CheckAndRepair");
      }
    }
    round->reopen_s = Median(times);
  }

  // Times the two in-memory search steps of every point command on the
  // workload's own keys, in batches of kProbeBatch calls (one call is
  // too short for the clock): the calibrator's page location, and the
  // in-page search on that page's working image.
  void Probe(const DenseFile& file) {
    std::vector<dsf::Key> keys;
    for (const dsf::Op& op : w_.client.ops) {
      if (op.kind != dsf::Op::Kind::kScan) keys.push_back(op.record.key);
      if (keys.size() == (1u << 16)) break;
    }
    keys.resize(keys.size() - keys.size() % kProbeBatch);
    const dsf::Calibrator& calibrator = file.control().calibrator();
    const dsf::PageFile& pages = file.control().file();
    std::vector<dsf::Address> addresses(keys.size());
    int64_t found = 0;
    for (size_t b = 0; b < keys.size(); b += kProbeBatch) {
      const Clock::time_point t0 = Clock::now();
      for (size_t i = b; i < b + kProbeBatch; ++i) {
        addresses[i] = calibrator.FirstNonEmptyPageWithMaxGE(keys[i]);
      }
      const Clock::time_point t1 = Clock::now();
      for (size_t i = b; i < b + kProbeBatch; ++i) {
        if (addresses[i] != 0) {
          found += pages.Peek(addresses[i]).Find(keys[i]).ok();
        }
      }
      const Clock::time_point t2 = Clock::now();
      locate_.push_back(NsBetween(t0, t1));
      search_.push_back(NsBetween(t1, t2));
    }
    g_probe_sink = found;
  }

  const SingleWorkload& w_;
  Report* report_;
  const std::string data_dir_;
  int64_t budget_ = 0;
  Latencies lat_;  // the current round's samples
  std::vector<int64_t> locate_;
  std::vector<int64_t> search_;
};

void ReportEndToEnd(const std::vector<Round>& rounds, Report* report) {
  ReportTimes(std::vector<RoundStats>(rounds.begin(), rounds.end()), report);
  int64_t ops = 0, updates = 0, update_accesses = 0, max_accesses = 0;
  int64_t device_io = 0, syncs = 0;
  for (const Round& r : rounds) {
    ops += r.ops;
    updates += r.updates;
    update_accesses += r.update_accesses;
    max_accesses = std::max(max_accesses, r.max_update_accesses);
    device_io += r.io.TotalAccesses();
    syncs += r.syncs;
  }
  report->AddEndToEnd("accesses_per_cmd_mean",
                      PerOp(static_cast<double>(update_accesses), updates),
                      updates);
  report->AddEndToEnd("accesses_per_cmd_max",
                      static_cast<double>(max_accesses), updates);
  report->AddEndToEnd("device_io_per_cmd",
                      PerOp(static_cast<double>(device_io), ops), ops);
  report->AddDetail("syncs_per_cmd", PerOp(static_cast<double>(syncs), ops),
                    "count", ops);
  report->AddDetail("error_rate",
                    PerOp(static_cast<double>(report->failed()),
                          report->attempted()),
                    "ratio", report->attempted());
}

// Per-layer metrics of the traced round `t`; `plain`/`traced` are the
// untraced and traced throughputs of the alternating rounds.
void ReportPerLayer(const Round& t, const SpanLog& spans, const Runner& runner,
                    const std::vector<double>& plain,
                    const std::vector<double>& traced, double btree_ns,
                    Report* report) {
  ReportCommonLayers(t, spans, t.max_update_accesses, runner.budget(),
                     report);
  std::vector<int64_t> locate = runner.locate_batches();
  std::vector<int64_t> search = runner.search_batches();
  const int64_t probes =
      static_cast<int64_t>(locate.size()) * Runner::kProbeBatch;
  report->AddPerLayer("core.locate_ns_p50",
                      Quantile(&locate, 0.5) / Runner::kProbeBatch, probes);
  report->AddPerLayer("storage.page_search_ns_p50",
                      Quantile(&search, 0.5) / Runner::kProbeBatch, probes);
  report->AddPerLayer("obs.trace_overhead", Median(traced) / Median(plain),
                      static_cast<int64_t>(traced.size()));
  report->AddPerLayer("baseline.btree_ns_per_op", btree_ns, 1);

  TimingBackend::Stats b = t.backend;
  const auto n_read = static_cast<int64_t>(b.read_ns.size());
  const auto n_write = static_cast<int64_t>(b.write_ns.size());
  const auto n_sync = static_cast<int64_t>(b.sync_ns.size());
  if (n_read + n_write + n_sync == 0) return;  // no device
  auto per_op = [&t](int64_t v) {
    return PerOp(static_cast<double>(v), t.ops);
  };
  report->AddPerLayer("storage.backend.read_ns_p50",
                      Quantile(&b.read_ns, 0.5), n_read);
  report->AddPerLayer("storage.backend.write_ns_p50",
                      Quantile(&b.write_ns, 0.5), n_write);
  report->AddPerLayer("storage.backend.sync_ns_p50",
                      Quantile(&b.sync_ns, 0.5), n_sync);
  report->AddPerLayer("storage.backend.sync_ns_p99",
                      Quantile(&b.sync_ns, 0.99), n_sync);
  report->AddPerLayer("storage.backend.reads_per_cmd", per_op(n_read), t.ops);
  report->AddPerLayer("storage.backend.writes_per_cmd", per_op(n_write),
                      t.ops);
  report->AddPerLayer("storage.backend.syncs_per_cmd", per_op(n_sync), t.ops);
  report->AddPerLayer("storage.backend.busy_share",
                      static_cast<double>(b.busy_ns) / (t.wall_s * 1e9),
                      n_read + n_write + n_sync);
  report->AddPerLayer("storage.backend.open_reads",
                      static_cast<double>(t.open_reads), 1);
  report->AddPerLayer("storage.backend.crc_failures",
                      static_cast<double>(t.crc_failures), 1);
}

}  // namespace

void RunSingleFile(const RunArgs& args, Report* report) {
  const SingleWorkload w = MakeSingleWorkload(args.workload, args.seed);
  for (const auto& [key, value] : DescribeSingle(w)) {
    report->Describe(key, value);
  }
  Runner runner(w, args, report);
  const Clock::time_point start = Clock::now();
  auto more = [&](size_t rounds) {
    const double elapsed = SecondsBetween(start, Clock::now());
    return elapsed + elapsed / static_cast<double>(rounds) <= args.seconds;
  };

  if (!args.trace) {
    std::vector<Round> rounds;
    do {
      rounds.push_back(runner.RunRound(Observers{}, nullptr));
    } while (report->correct() && more(rounds.size()));
    ReportEndToEnd(rounds, report);
    return;
  }

  // Traced: alternate untraced and traced rounds of the same trace.
  dsf::MetricsRegistry registry;
  dsf::CommandTracer tracer(1 << 16);
  const Observers traced{&tracer, &registry, w.durable};
  SpanLog spans;
  Round first_traced;
  std::vector<double> plain_ops, traced_ops;
  size_t pairs = 0;
  do {
    const Round plain = runner.RunRound(Observers{}, nullptr);
    const Round t = runner.RunRound(traced, pairs == 0 ? &spans : nullptr);
    report->Check(SameIoStats(plain.io, t.io),
                  "tracing left the IoStats unchanged (untraced " +
                      plain.io.ToString() + ", traced " + t.io.ToString() +
                      ")");
    plain_ops.push_back(static_cast<double>(plain.ops) / plain.wall_s);
    traced_ops.push_back(static_cast<double>(t.ops) / t.wall_s);
    if (pairs == 0) first_traced = t;
    ++pairs;
  } while (report->correct() && more(pairs));
  const double btree_ns = BTreeNsPerOp(args.seed, report);
  ReportPerLayer(first_traced, spans, runner, plain_ops, traced_ops, btree_ns,
                 report);
  const std::string name = "spans-" + w.name + ".jsonl";
  report->Check(spans.WriteJsonl(args.out_dir + "/" + name),
                "write spans to " + name);
  report->Describe("spans", name);  // next to the result file
}

}  // namespace dsfbench
