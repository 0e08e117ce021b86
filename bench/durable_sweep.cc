// Durable-backend sweep: what the real device costs.
//
// Replays one uniform mixed trace against the same DenseFile geometry
// under four storage configurations — the pure in-memory simulation (no
// backend), the MemoryBackend (backend plumbing without an OS file),
// and the FileBackend buffered and O_DIRECT — and reports throughput
// alongside the physical syscall counts (pread/pwrite/fdatasync). With
// a backend the device is the only page image, so an unpooled file
// issues one pread per accounted read. The logical accounting (page
// reads/writes, seeks) must be identical across every row: the backend
// is a durability layer UNDER the cost model, not a change to it — the
// differential parity tests enforce the same invariant; here it is
// printed so a regression is visible in the artifact. Each file row also
// times the two whole-file passes outside the replay: load_s (Create +
// BulkLoad, the layout written in runs of slots) and open_s (closing the
// file and timing DenseFile::Open, whose check pass reads in runs), and
// reports the slot size and the data file's bytes (slots are sized to the
// data file's O_DIRECT alignment, so they depend on the filesystem). Each
// row is the median of kReps runs (wall time, load_s and open_s each);
// the artifact records the host, the build type and the repetition
// count. Tracked in BENCH_durable.json.
//
// O_DIRECT is attempted, not demanded: on filesystems without support
// (notably tmpfs, which CI points TMPDIR at) the backend falls back to
// buffered I/O and says so via direct_active — the row is still
// reported, tagged with what actually ran.
//
// Usage: durable_sweep [--ops=N] [--num_pages=M] [--fill_percent=F]
//                      [--dir=PATH] [--out=PATH]

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/dense_file.h"
#include "storage/file_backend.h"
#include "storage/storage_backend.h"
#include "util/check.h"
#include "util/temp_dir.h"
#include "workload/workload.h"

namespace dsf {
namespace {

constexpr double kInsertFraction = 0.25;
constexpr double kDeleteFraction = 0.25;

struct Config {
  std::string label;
  bool use_file = false;
  bool use_memory_backend = false;
  bool direct_io = false;
};

struct Row {
  std::string label;
  std::string backend_name;  // what actually ran (O_DIRECT may fall back)
  double wall_seconds = 0;
  double load_seconds = 0;  // Create + BulkLoad
  double open_seconds = 0;  // DenseFile::Open; file rows only
  double ops_per_second = 0;
  double slowdown_vs_simulated = 1.0;
  IoStats io;
  FileBackend::Stats file_stats;  // zero for non-file rows
  int64_t slot_bytes = 0;         // file rows only
  int64_t data_file_bytes = 0;
  bool has_file_stats = false;
};

Status Apply(DenseFile& file, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kInsert:
      return file.Insert(op.record);
    case Op::Kind::kDelete:
      return file.Delete(op.record.key);
    case Op::Kind::kGet:
      return file.Get(op.record.key).status();
    case Op::Kind::kScan: {
      std::vector<Record> out;
      return file.Scan(op.record.key, op.scan_hi, &out);
    }
  }
  return Status::OK();
}

Row RunConfig(const Config& config, const Trace& trace, int64_t num_pages,
              int64_t fill_percent, const std::string& base_dir) {
  DenseFile::Options options;
  options.num_pages = num_pages;
  options.d = 8;
  options.D = 36;  // same geometry as the cache sweep (E16)

  FileBackend::Options fb;
  if (config.use_file) {
    const std::string dir = base_dir + "/" + config.label;
    DSF_CHECK(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST)
        << "mkdir " << dir;
    fb.directory = dir;
    fb.direct_io = config.direct_io;
    options.backend_factory = FileBackend::CreateFactory(fb);
  } else if (config.use_memory_backend) {
    options.backend_factory = [](int64_t pages, int64_t page_capacity)
        -> StatusOr<std::unique_ptr<StorageBackend>> {
      return std::unique_ptr<StorageBackend>(
          std::make_unique<MemoryBackend>(pages, page_capacity));
    };
  }

  // The load's records depend only on the geometry, so build them
  // before the clock starts.
  const Key key_space = static_cast<Key>(num_pages * options.d);
  std::vector<Record> initial;
  const int64_t skip = std::max<int64_t>(2, 100 / (100 - fill_percent));
  for (Key k = 1; k <= key_space; ++k) {
    if (static_cast<int64_t>(k % skip) != 0) initial.push_back(Record{k, k});
  }

  Row row;
  const auto load_start = std::chrono::steady_clock::now();
  StatusOr<std::unique_ptr<DenseFile>> created = DenseFile::Create(options);
  DSF_CHECK(created.ok()) << created.status();
  std::unique_ptr<DenseFile> owned = std::move(created).value();
  DenseFile& file = *owned;
  DSF_CHECK(static_cast<Key>(file.capacity()) == key_space);
  DSF_CHECK(file.BulkLoad(initial).ok());
  row.load_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - load_start)
                         .count();
  file.ResetIoStats();

  const auto start = std::chrono::steady_clock::now();
  for (const Op& op : trace) {
    const Status s = Apply(file, op);
    DSF_CHECK(s.ok() || s.IsAlreadyExists() || s.IsNotFound()) << s;
  }
  const auto end = std::chrono::steady_clock::now();

  row.label = config.label;
  row.backend_name =
      file.storage_backend() == nullptr ? "simulated"
                                        : file.storage_backend()->Name();
  row.wall_seconds = std::chrono::duration<double>(end - start).count();
  row.ops_per_second = static_cast<double>(trace.size()) / row.wall_seconds;
  row.io = file.io_stats();
  if (config.use_file) {
    const auto* backend = static_cast<FileBackend*>(file.storage_backend());
    row.file_stats = backend->stats();
    row.slot_bytes = backend->slot_bytes();
    row.data_file_bytes = backend->num_pages() * backend->slot_bytes();
    row.has_file_stats = true;
  }
  // After the counters: validation reads every page (M more preads).
  DSF_CHECK(file.ValidateInvariants().ok());

  if (config.use_file) {
    DSF_CHECK(file.Flush().ok());
    owned.reset();  // close the pair
    options.backend_factory = FileBackend::OpenFactory(fb);
    const auto open_start = std::chrono::steady_clock::now();
    StatusOr<std::unique_ptr<DenseFile>> reopened = DenseFile::Open(options);
    row.open_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - open_start)
                           .count();
    DSF_CHECK(reopened.ok()) << reopened.status();
  }
  return row;
}

// Runs per config; each row reports median times.
constexpr int64_t kReps = 3;

// The median wall, load and open times over kReps runs of one config;
// the accounting of every run is identical, so the row keeps the last
// run's counters.
Row RunMedian(const Config& config, const Trace& trace, int64_t num_pages,
              int64_t fill_percent, const std::string& base_dir) {
  std::vector<double> walls, loads, opens;
  Row row;
  for (int64_t r = 0; r < kReps; ++r) {
    row = RunConfig(config, trace, num_pages, fill_percent, base_dir);
    walls.push_back(row.wall_seconds);
    loads.push_back(row.load_seconds);
    opens.push_back(row.open_seconds);
  }
  row.wall_seconds = bench::Median(walls);
  row.load_seconds = bench::Median(loads);
  row.open_seconds = bench::Median(opens);
  row.ops_per_second = static_cast<double>(trace.size()) / row.wall_seconds;
  return row;
}

void WriteJson(std::ostream& os, const std::vector<Row>& rows,
               int64_t num_pages, int64_t total_ops, int64_t fill_percent) {
  os << "{\n";
  os << "  \"benchmark\": \"durable_sweep\",\n";
  bench::WriteProvenance(os, kReps);
  os << "  \"num_pages\": " << num_pages << ",\n";
  os << "  \"total_ops\": " << total_ops << ",\n";
  os << "  \"fill_percent\": " << fill_percent << ",\n";
  os << "  \"workload_mix\": {\"insert\": " << kInsertFraction
     << ", \"delete\": " << kDeleteFraction << ", \"get\": "
     << 1.0 - kInsertFraction - kDeleteFraction << "},\n";
  os << "  \"configs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"label\": \"" << r.label << "\""
       << ", \"backend\": \"" << r.backend_name << "\""
       << ", \"wall_seconds\": " << r.wall_seconds
       << ", \"load_s\": " << r.load_seconds;
    if (r.has_file_stats) {
      os << ", \"open_s\": " << r.open_seconds
         << ", \"slot_bytes\": " << r.slot_bytes
         << ", \"data_file_bytes\": " << r.data_file_bytes;
    } else {
      os << ", \"open_s\": null, \"slot_bytes\": null"
         << ", \"data_file_bytes\": null";
    }
    os
       << ", \"ops_per_second\": " << r.ops_per_second
       << ", \"slowdown_vs_simulated\": " << r.slowdown_vs_simulated
       << ", \"logical_reads\": " << r.io.logical_reads
       << ", \"physical_reads\": " << r.io.page_reads
       << ", \"logical_writes\": " << r.io.logical_writes
       << ", \"physical_writes\": " << r.io.page_writes
       << ", \"seeks\": " << r.io.seeks
       << ", \"preads\": " << (r.has_file_stats ? r.file_stats.preads : 0)
       << ", \"pwrites\": " << (r.has_file_stats ? r.file_stats.pwrites : 0)
       << ", \"read_syscalls\": "
       << (r.has_file_stats ? r.file_stats.read_syscalls : 0)
       << ", \"write_syscalls\": "
       << (r.has_file_stats ? r.file_stats.write_syscalls : 0)
       << ", \"syncs\": " << (r.has_file_stats ? r.file_stats.syncs : 0)
       << ", \"direct_active\": "
       << (r.has_file_stats && r.file_stats.direct_active ? "true" : "false")
       << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

int Main(int argc, char** argv) {
  int64_t total_ops = 20000;
  int64_t num_pages = 1024;
  int64_t fill_percent = 80;
  std::string dir;  // empty: fresh temp dir
  std::string out = "-";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--ops=", 0) == 0) {
      total_ops = std::stoll(arg.substr(6));
    } else if (arg.rfind("--num_pages=", 0) == 0) {
      num_pages = std::stoll(arg.substr(12));
    } else if (arg.rfind("--fill_percent=", 0) == 0) {
      fill_percent = std::stoll(arg.substr(15));
      DSF_CHECK(fill_percent >= 1 && fill_percent <= 99);
    } else if (arg.rfind("--dir=", 0) == 0) {
      dir = arg.substr(6);
    } else if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 1;
    }
  }

  std::unique_ptr<ScopedTempDir> temp;
  if (dir.empty()) {
    temp = std::make_unique<ScopedTempDir>("dsf-durable-sweep");
    dir = temp->path();
  }

  const Key key_space = static_cast<Key>(num_pages) * 8;
  Rng rng(20260807);
  const Trace trace = UniformMix(total_ops, kInsertFraction, kDeleteFraction,
                                 key_space, rng);

  const std::vector<Config> configs = {
      {"simulated", false, false, false},
      {"memory-backend", false, true, false},
      {"file-buffered", true, false, false},
      {"file-odirect", true, false, true},
  };

  bench::Section("E21: storage backend cost (simulated vs durable file)");
  bench::Table table({"config", "backend", "wall s", "Kops/s", "slowdown",
                      "load ms", "open ms", "slot B", "data KiB", "preads",
                      "pwrites", "syncs"});
  std::vector<Row> rows;
  double simulated_ops_per_second = 0;
  for (const Config& config : configs) {
    Row row = RunMedian(config, trace, num_pages, fill_percent, dir);
    if (config.label == "simulated") {
      simulated_ops_per_second = row.ops_per_second;
    }
    row.slowdown_vs_simulated =
        simulated_ops_per_second / row.ops_per_second;
    table.Row(row.label, row.backend_name, row.wall_seconds,
              row.ops_per_second * 1e-3, row.slowdown_vs_simulated,
              row.load_seconds * 1e3, row.open_seconds * 1e3,
              row.slot_bytes, row.data_file_bytes / 1024,
              row.has_file_stats ? row.file_stats.preads : 0,
              row.has_file_stats ? row.file_stats.pwrites : 0,
              row.has_file_stats ? row.file_stats.syncs : 0);
    rows.push_back(std::move(row));
  }
  table.Print();

  // The accounting-parity invariant, asserted on the artifact itself.
  for (const Row& row : rows) {
    DSF_CHECK(row.io.page_reads == rows[0].io.page_reads &&
              row.io.page_writes == rows[0].io.page_writes)
        << row.label << ": backend perturbed the accounted I/O";
  }

  if (out == "-") {
    WriteJson(std::cout, rows, num_pages, total_ops, fill_percent);
  } else {
    std::ofstream f(out);
    DSF_CHECK(f.good()) << "cannot open " << out;
    WriteJson(f, rows, num_pages, total_ops, fill_percent);
    bench::Note("JSON written to " + out);
  }
  return 0;
}

}  // namespace
}  // namespace dsf

int main(int argc, char** argv) { return dsf::Main(argc, argv); }
