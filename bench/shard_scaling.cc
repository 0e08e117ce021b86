// Shard/thread scaling sweep for ShardedDenseFile + ParallelReplayer.
//
// Runs a fixed mixed workload (insert/delete/get/scan) through every
// (threads x shards) configuration in the sweep, holding the total page
// budget, (d, D) and the total op count constant, and reports aggregate
// throughput per configuration as JSON — the perf trajectory artifact
// tracked in BENCH_shard.json.
//
// The file is measured as a *device-resident* structure: every accounted
// page access sleeps for --page_latency_us (default 100us, SATA-SSD
// class; the paper's cost metric is page accesses, and on real hardware
// they dominate command time). Each shard models its own device, so two
// effects compose:
//   * algorithmic: a shard serves M/S pages, so its per-command bound
//     O(log^2 (M/S) / (D-d)) and its recommended J shrink with S;
//   * parallel I/O: clients working different shards overlap their
//     device waits (and, on multi-core hardware, their compute). The
//     workload is the partitioned-client shape of sharded-system
//     benchmarks: thread t draws a mixed op stream over its own
//     contiguous slice of the key space.
// Pass --page_latency_us=0 for the pure in-memory variant; only the
// first effect remains, and extra threads only add contention.
//
// The mixed mode starts with a load/repair section: Create + BulkLoad
// (and BulkLoad alone) and CheckAndRepair of a fixed 16384-page file
// split into S in {1, 2, 4, 8} shards, with no page latency, each the
// median of kLoadRepairReps runs (the JSON's "repetitions"; the sweep
// rows are single runs). BulkLoad and CheckAndRepair are whole-file
// passes that fan out across shards, one thread per shard up to the
// host's cores, so their time per S shows what the fan-out saves per
// pass; Create stays on the calling thread. The section runs before the
// sweep because a heap the sweep has churned makes Create several times
// slower.
//
// Usage: shard_scaling [--ops=N] [--total_pages=M] [--fill_percent=F]
//                      [--page_latency_us=U] [--staging_bytes=B]
//                      [--mode=mixed|rwlock] [--out=PATH]
//
// --staging_bytes > 0 mounts write-burst staging (docs/INGEST.md): the
// budget splits near-evenly into per-shard memtables (remainder to the
// first shards) and the replayer flushes staging inside the measured
// wall time, so throughput stays honest. Per-shard staging hit/drain
// counters land in the JSON rows.
//
// --mode=rwlock swaps the workload for a 90% get / 10% insert+delete
// mix over the shared key space (threads are NOT partitioned by range,
// so readers collide on shards) and runs every configuration twice:
// once with Options::exclusive_reads (the pre-reader-writer baseline,
// every Get takes the shard mutex exclusively) and once on the shared
// read path (docs/CONCURRENCY.md). The JSON — tracked in
// BENCH_rwlock.json — reports per-config read throughput for both runs
// and the shared/exclusive speedup. With a device latency installed,
// shared readers overlap their page-access sleeps on the same shard
// while the exclusive baseline serializes them, so the speedup
// approaches the thread count even on a single core.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "shard/sharded_dense_file.h"
#include "util/check.h"
#include "util/math.h"
#include "workload/parallel_replayer.h"
#include "workload/workload.h"

namespace dsf {
namespace {

struct Config {
  int threads;
  int shards;
};

struct Row {
  Config config;
  double wall_seconds = 0;
  double ops_per_second = 0;
  double get_ops_per_second = 0;
  double insert_delete_ops_per_second = 0;
  double mean_op_ns = 0;
  int64_t max_op_ns = 0;
  int64_t rejected = 0;
  IoStats io;
  // Each side of the logical/physical split reported on its own —
  // logical accesses are the paper's cost metric, physical page traffic
  // is what the device model charges for; never divide one by the other.
  double logical_accesses_per_op = 0;
  double physical_accesses_per_op = 0;
  StagingStats staging;
  std::vector<StagingStats> per_shard_staging;
};

// `shards` shards over total_pages pages of the sweep's geometry.
ShardedDenseFile::Options GeometryOptions(int shards, int64_t total_pages,
                                          Key key_space) {
  ShardedDenseFile::Options options;
  options.num_shards = shards;
  options.key_space = key_space;
  // Same page geometry everywhere: d = 8, D = 36, so D - d = 28. The
  // unsharded 4096-page file misses Theorem 5.7's gap condition
  // (28 <= 3*ceil(log 4096) = 36) and runs on auto-selected K = 2
  // macro-blocks; a 512-page shard satisfies it (28 > 27) and keeps
  // K = 1 — the gap condition *easing* as M shrinks is one of the
  // structural wins sharding buys (here it costs the big file little,
  // since partially filled blocks pack into their prefix pages).
  options.shard.num_pages = total_pages / shards;
  options.shard.d = 8;
  options.shard.D = 36;
  return options;
}

// Warm start at fill_percent of capacity: every (100/(100-f))-th key
// left out, approximately evenly over the key space.
std::vector<Record> WarmStart(Key key_space, int64_t fill_percent) {
  std::vector<Record> initial;
  initial.reserve(static_cast<size_t>(key_space));
  const int64_t skip = std::max<int64_t>(2, 100 / (100 - fill_percent));
  for (Key k = 1; k <= key_space; ++k) {
    if (static_cast<int64_t>(k % skip) != 0) initial.push_back(Record{k, k});
  }
  return initial;
}

Row RunConfig(const Config& config, int64_t total_pages, int64_t total_ops,
              Key key_space, int64_t fill_percent, int64_t page_latency_us,
              int64_t staging_bytes, bool read_mostly = false,
              bool exclusive_reads = false) {
  ShardedDenseFile::Options options =
      GeometryOptions(config.shards, total_pages, key_space);
  options.staging_bytes = staging_bytes;
  options.exclusive_reads = exclusive_reads;
  StatusOr<std::unique_ptr<ShardedDenseFile>> file =
      ShardedDenseFile::Create(options);
  DSF_CHECK(file.ok()) << file.status();
  DSF_CHECK((*file)->BulkLoad(WarmStart(key_space, fill_percent)).ok());
  (*file)->ResetStats();
  // The device model applies to the measured traffic only, not the load.
  (*file)->SetAccessLatency(std::chrono::microseconds(page_latency_us));

  // The mixed sweep partitions threads by key range (each client owns a
  // shard-aligned slice); the rwlock mode deliberately does NOT — its
  // readers draw modular-disjoint keys over the whole space so they
  // collide on shards, which is exactly the contention the shared read
  // path is meant to absorb.
  const std::vector<Trace> traces =
      read_mostly
          ? ParallelReplayer::DisjointUniformMixes(
                config.threads, total_ops / config.threads,
                /*insert_fraction=*/0.05, /*delete_fraction=*/0.05,
                /*scan_fraction=*/0.0, key_space, /*scan_span=*/64,
                /*seed=*/99)
          : ParallelReplayer::DisjointRangeMixes(
                config.threads, total_ops / config.threads,
                /*insert_fraction=*/0.40, /*delete_fraction=*/0.40,
                /*scan_fraction=*/0.05, key_space, /*scan_span=*/64,
                /*seed=*/99);

  ParallelReplayer replayer({config.threads});
  const ReplayResult result = replayer.Replay(**file, traces);
  DSF_CHECK(result.ok()) << result.first_unexpected_error.ToString();
  DSF_CHECK((*file)->ValidateInvariants().ok());

  const ReplayThreadStats agg = result.Aggregate();
  Row row;
  row.config = config;
  row.wall_seconds = result.wall_seconds;
  row.ops_per_second = result.OpsPerSecond();
  row.get_ops_per_second =
      static_cast<double>(agg.gets) / result.wall_seconds;
  row.insert_delete_ops_per_second =
      static_cast<double>(agg.inserts + agg.deletes) / result.wall_seconds;
  row.mean_op_ns = agg.ops == 0
                       ? 0.0
                       : static_cast<double>(agg.total_ns) /
                             static_cast<double>(agg.ops);
  row.max_op_ns = agg.max_op_ns;
  row.rejected = agg.rejected;
  // The replay's own IoStats delta (not the file's lifetime totals), so
  // the logical and physical columns describe exactly the measured ops.
  row.io = result.io;
  row.logical_accesses_per_op = result.LogicalAccessesPerOp();
  row.physical_accesses_per_op = result.PhysicalAccessesPerOp();
  row.staging = (*file)->staging_stats();
  for (int s = 0; s < config.shards; ++s) {
    row.per_shard_staging.push_back((*file)->shard_staging_stats(s));
  }
  return row;
}

constexpr int64_t kLoadRepairPages = 16384;
constexpr int64_t kLoadRepairReps = 15;

// Medians over kLoadRepairReps runs.
struct LoadRepairRow {
  int shards = 0;
  double setup_ms = 0;   // Create + BulkLoad
  double load_ms = 0;    // BulkLoad alone
  double repair_ms = 0;  // CheckAndRepair of the freshly loaded file
};

LoadRepairRow RunLoadRepair(int shards, int64_t fill_percent) {
  const Key key_space = static_cast<Key>(kLoadRepairPages) * 8;
  const std::vector<Record> initial = WarmStart(key_space, fill_percent);
  const auto ms_since = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  std::vector<double> setups;
  std::vector<double> loads;
  std::vector<double> repairs;
  for (int64_t r = 0; r < kLoadRepairReps; ++r) {
    const auto create_start = std::chrono::steady_clock::now();
    StatusOr<std::unique_ptr<ShardedDenseFile>> file =
        ShardedDenseFile::Create(
            GeometryOptions(shards, kLoadRepairPages, key_space));
    DSF_CHECK(file.ok()) << file.status();
    const auto load_start = std::chrono::steady_clock::now();
    DSF_CHECK((*file)->BulkLoad(initial).ok());
    loads.push_back(ms_since(load_start));
    setups.push_back(ms_since(create_start));
    const auto repair_start = std::chrono::steady_clock::now();
    DSF_CHECK((*file)->CheckAndRepair().ok());
    repairs.push_back(ms_since(repair_start));
  }
  return {shards, bench::Median(setups), bench::Median(loads),
          bench::Median(repairs)};
}

void WriteJson(std::ostream& os, const std::vector<Row>& rows,
               const std::vector<LoadRepairRow>& load_repair,
               int64_t total_pages, int64_t total_ops, Key key_space,
               int64_t fill_percent, int64_t page_latency_us,
               int64_t staging_bytes) {
  const double base = rows.front().insert_delete_ops_per_second;
  os << "{\n";
  os << "  \"benchmark\": \"shard_scaling\",\n";
  bench::WriteProvenance(os, kLoadRepairReps);
  os << "  \"total_pages\": " << total_pages << ",\n";
  os << "  \"total_ops\": " << total_ops << ",\n";
  os << "  \"key_space\": " << key_space << ",\n";
  os << "  \"fill_percent\": " << fill_percent << ",\n";
  os << "  \"page_latency_us\": " << page_latency_us << ",\n";
  os << "  \"staging_bytes\": " << staging_bytes << ",\n";
  os << "  \"workload\": {\"insert\": 0.40, \"delete\": 0.40, "
        "\"get\": 0.15, \"scan\": 0.05},\n";
  os << "  \"configs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"threads\": " << r.config.threads
       << ", \"shards\": " << r.config.shards
       << ", \"wall_seconds\": " << r.wall_seconds
       << ", \"ops_per_second\": " << r.ops_per_second
       << ", \"insert_delete_ops_per_second\": "
       << r.insert_delete_ops_per_second
       << ", \"speedup_vs_1x1\": " << r.insert_delete_ops_per_second / base
       << ", \"mean_op_ns\": " << r.mean_op_ns
       << ", \"max_op_ns\": " << r.max_op_ns
       << ", \"rejected\": " << r.rejected
       << ", \"page_reads\": " << r.io.page_reads
       << ", \"page_writes\": " << r.io.page_writes
       << ", \"logical_reads\": " << r.io.logical_reads
       << ", \"logical_writes\": " << r.io.logical_writes
       << ", \"logical_accesses_per_op\": " << r.logical_accesses_per_op
       << ", \"physical_accesses_per_op\": " << r.physical_accesses_per_op
       << ", \"staging_puts\": " << r.staging.puts
       << ", \"staging_hits\": " << r.staging.hits
       << ", \"staging_drain_steps\": " << r.staging.drain_steps
       << ", \"staging_drained_entries\": " << r.staging.drained_entries
       << ", \"per_shard_staging\": [";
    for (size_t s = 0; s < r.per_shard_staging.size(); ++s) {
      const StagingStats& ss = r.per_shard_staging[s];
      os << (s == 0 ? "" : ", ") << "{\"hits\": " << ss.hits
         << ", \"puts\": " << ss.puts
         << ", \"drain_steps\": " << ss.drain_steps
         << ", \"drained_entries\": " << ss.drained_entries << "}";
    }
    os << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"load_repair_pages\": " << kLoadRepairPages << ",\n";
  os << "  \"load_repair\": [\n";
  for (size_t i = 0; i < load_repair.size(); ++i) {
    const LoadRepairRow& r = load_repair[i];
    os << "    {\"shards\": " << r.shards << ", \"create_load_ms\": "
       << r.setup_ms << ", \"bulk_load_ms\": " << r.load_ms
       << ", \"repair_ms\": " << r.repair_ms << "}"
       << (i + 1 < load_repair.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void WriteRwlockJson(std::ostream& os, const std::vector<Row>& exclusive,
                     const std::vector<Row>& shared, int64_t total_pages,
                     int64_t total_ops, Key key_space, int64_t fill_percent,
                     int64_t page_latency_us, int64_t staging_bytes) {
  os << "{\n";
  os << "  \"benchmark\": \"shard_rwlock\",\n";
  os << "  \"total_pages\": " << total_pages << ",\n";
  os << "  \"total_ops\": " << total_ops << ",\n";
  os << "  \"key_space\": " << key_space << ",\n";
  os << "  \"fill_percent\": " << fill_percent << ",\n";
  os << "  \"page_latency_us\": " << page_latency_us << ",\n";
  os << "  \"staging_bytes\": " << staging_bytes << ",\n";
  os << "  \"workload\": {\"insert\": 0.05, \"delete\": 0.05, "
        "\"get\": 0.90, \"scan\": 0.00},\n";
  os << "  \"configs\": [\n";
  for (size_t i = 0; i < shared.size(); ++i) {
    const Row& ex = exclusive[i];
    const Row& sh = shared[i];
    os << "    {\"threads\": " << sh.config.threads
       << ", \"shards\": " << sh.config.shards
       << ", \"exclusive\": {\"wall_seconds\": " << ex.wall_seconds
       << ", \"ops_per_second\": " << ex.ops_per_second
       << ", \"get_ops_per_second\": " << ex.get_ops_per_second
       << ", \"rejected\": " << ex.rejected << "}"
       << ", \"shared\": {\"wall_seconds\": " << sh.wall_seconds
       << ", \"ops_per_second\": " << sh.ops_per_second
       << ", \"get_ops_per_second\": " << sh.get_ops_per_second
       << ", \"rejected\": " << sh.rejected << "}"
       << ", \"read_speedup_vs_exclusive\": "
       << sh.get_ops_per_second / ex.get_ops_per_second << "}"
       << (i + 1 < shared.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

// --mode=rwlock: run each configuration twice (exclusive baseline, then
// the shared read path) on the 90/10 read-mostly mix and report the
// read-throughput ratio. Both runs share the workload, seed, geometry
// and staging budget; the ONLY delta is Options::exclusive_reads, so
// the ratio isolates the locking protocol.
int RwlockMain(int64_t total_ops, int64_t total_pages, Key key_space,
               int64_t fill_percent, int64_t page_latency_us,
               int64_t staging_bytes, const std::string& out) {
  const std::vector<Config> sweep = {
      {1, 1}, {2, 1}, {4, 1}, {8, 1}, {8, 8},
  };
  bench::Section(
      "E19: reader-writer shard locks, 90/10 read-mostly mix (page "
      "latency " +
      std::to_string(page_latency_us) + "us, staging " +
      std::to_string(staging_bytes) + "B)");
  bench::Table table({"threads", "shards", "excl Kget/s", "shared Kget/s",
                      "read speedup", "excl wall s", "shared wall s"});
  std::vector<Row> exclusive;
  std::vector<Row> shared;
  for (const Config& config : sweep) {
    DSF_CHECK(total_pages % config.shards == 0)
        << "total_pages must divide evenly into shards";
    DSF_CHECK(total_ops % config.threads == 0)
        << "total_ops must divide evenly into threads";
    exclusive.push_back(RunConfig(config, total_pages, total_ops, key_space,
                                  fill_percent, page_latency_us,
                                  staging_bytes, /*read_mostly=*/true,
                                  /*exclusive_reads=*/true));
    shared.push_back(RunConfig(config, total_pages, total_ops, key_space,
                               fill_percent, page_latency_us, staging_bytes,
                               /*read_mostly=*/true,
                               /*exclusive_reads=*/false));
    const Row& ex = exclusive.back();
    const Row& sh = shared.back();
    table.Row(config.threads, config.shards, ex.get_ops_per_second * 1e-3,
              sh.get_ops_per_second * 1e-3,
              sh.get_ops_per_second / ex.get_ops_per_second,
              ex.wall_seconds, sh.wall_seconds);
  }
  table.Print();

  if (out == "-") {
    WriteRwlockJson(std::cout, exclusive, shared, total_pages, total_ops,
                    key_space, fill_percent, page_latency_us, staging_bytes);
  } else {
    std::ofstream f(out);
    DSF_CHECK(f.good()) << "cannot open " << out;
    WriteRwlockJson(f, exclusive, shared, total_pages, total_ops, key_space,
                    fill_percent, page_latency_us, staging_bytes);
    bench::Note("JSON written to " + out);
  }
  return 0;
}

int Main(int argc, char** argv) {
  int64_t total_ops = 24000;
  int64_t total_pages = 4096;
  int64_t fill_percent = 50;
  int64_t page_latency_us = 100;
  int64_t staging_bytes = 0;
  std::string mode = "mixed";
  std::string out = "-";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--ops=", 0) == 0) {
      total_ops = std::stoll(arg.substr(6));
    } else if (arg.rfind("--total_pages=", 0) == 0) {
      total_pages = std::stoll(arg.substr(14));
    } else if (arg.rfind("--fill_percent=", 0) == 0) {
      fill_percent = std::stoll(arg.substr(15));
      DSF_CHECK(fill_percent >= 1 && fill_percent <= 99);
    } else if (arg.rfind("--page_latency_us=", 0) == 0) {
      page_latency_us = std::stoll(arg.substr(18));
      DSF_CHECK(page_latency_us >= 0);
    } else if (arg.rfind("--staging_bytes=", 0) == 0) {
      staging_bytes = std::stoll(arg.substr(16));
      DSF_CHECK(staging_bytes >= 0);
    } else if (arg.rfind("--mode=", 0) == 0) {
      mode = arg.substr(7);
      DSF_CHECK(mode == "mixed" || mode == "rwlock")
          << "mode must be mixed or rwlock";
    } else if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 1;
    }
  }
  const Key key_space = static_cast<Key>(total_pages) * 8;  // = capacity

  if (mode == "rwlock") {
    return RwlockMain(total_ops, total_pages, key_space, fill_percent,
                      page_latency_us, staging_bytes, out);
  }

  bench::Section("E14: load and repair passes per shard count (" +
                 std::to_string(kLoadRepairPages) +
                 " pages, no page latency, median of " +
                 std::to_string(kLoadRepairReps) + " runs)");
  bench::Table load_table({"shards", "Create+BulkLoad ms", "BulkLoad ms",
                           "CheckAndRepair ms"});
  std::vector<LoadRepairRow> load_repair;
  for (const int shards : {1, 2, 4, 8}) {
    load_repair.push_back(RunLoadRepair(shards, fill_percent));
    const LoadRepairRow& r = load_repair.back();
    load_table.Row(shards, r.setup_ms, r.load_ms, r.repair_ms);
  }
  load_table.Print();

  const std::vector<Config> sweep = {
      {1, 1}, {1, 2}, {1, 4}, {1, 8}, {2, 4}, {2, 8}, {4, 8}, {8, 8},
  };

  bench::Section(
      "E14: shard x thread scaling, mixed workload (page latency " +
      std::to_string(page_latency_us) + "us, staging " +
      std::to_string(staging_bytes) + "B)");
  bench::Table table({"threads", "shards", "wall s", "Mops/s",
                      "ins+del Mops/s", "speedup", "mean ns", "max us"});
  std::vector<Row> rows;
  for (const Config& config : sweep) {
    DSF_CHECK(total_pages % config.shards == 0)
        << "total_pages must divide evenly into shards";
    DSF_CHECK(total_ops % config.threads == 0)
        << "total_ops must divide evenly into threads";
    rows.push_back(RunConfig(config, total_pages, total_ops, key_space,
                             fill_percent, page_latency_us, staging_bytes));
    const Row& r = rows.back();
    table.Row(r.config.threads, r.config.shards, r.wall_seconds,
              r.ops_per_second * 1e-6,
              r.insert_delete_ops_per_second * 1e-6,
              r.insert_delete_ops_per_second /
                  rows.front().insert_delete_ops_per_second,
              r.mean_op_ns, static_cast<double>(r.max_op_ns) * 1e-3);
  }
  table.Print();


  if (out == "-") {
    WriteJson(std::cout, rows, load_repair, total_pages, total_ops,
              key_space, fill_percent, page_latency_us, staging_bytes);
  } else {
    std::ofstream f(out);
    DSF_CHECK(f.good()) << "cannot open " << out;
    WriteJson(f, rows, load_repair, total_pages, total_ops, key_space,
              fill_percent, page_latency_us, staging_bytes);
    bench::Note("JSON written to " + out);
  }
  return 0;
}

}  // namespace
}  // namespace dsf

int main(int argc, char** argv) { return dsf::Main(argc, argv); }
