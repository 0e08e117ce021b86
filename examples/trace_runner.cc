// trace_runner: replay an operation trace file against a chosen policy
// and report cost statistics — the repository's workbench for ad-hoc
// experiments and for replaying saved fuzz regressions.
//
// Usage:
//   trace_runner [trace_file] [control2|control1|localshift] [M d D J]
//
// With no arguments it generates, saves and replays a demo trace so the
// binary is self-contained for `for b in examples/*; do $b; done` runs.
// Trace format (see src/workload/trace.h): one op per line —
//   I <key> <value> | D <key> | G <key> | S <lo> <hi>

#include <iostream>
#include <memory>
#include <string>

#include "core/dense_file.h"
#include "util/random.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace {

dsf::StatusOr<dsf::DenseFile::Policy> ParsePolicy(const std::string& name) {
  if (name == "control2") return dsf::DenseFile::Policy::kControl2;
  if (name == "control1") return dsf::DenseFile::Policy::kControl1;
  if (name == "localshift") return dsf::DenseFile::Policy::kLocalShift;
  return dsf::Status::InvalidArgument("unknown policy: " + name);
}

int Run(const std::string& trace_path, const std::string& policy_name,
        const dsf::DenseFile::Options& base_options) {
  dsf::StatusOr<dsf::Trace> trace = dsf::ReadTraceFile(trace_path);
  if (!trace.ok()) {
    std::cerr << "cannot read trace: " << trace.status() << "\n";
    return 1;
  }
  dsf::StatusOr<dsf::DenseFile::Policy> policy = ParsePolicy(policy_name);
  if (!policy.ok()) {
    std::cerr << policy.status() << "\n";
    return 1;
  }
  dsf::DenseFile::Options options = base_options;
  options.policy = *policy;
  auto file_or = dsf::DenseFile::Create(options);
  if (!file_or.ok()) {
    std::cerr << "create failed: " << file_or.status() << "\n";
    return 1;
  }
  std::unique_ptr<dsf::DenseFile> file = std::move(*file_or);

  int64_t ok = 0;
  int64_t benign = 0;  // duplicate inserts, missing deletes/gets
  int64_t scanned = 0;
  for (const dsf::Op& op : *trace) {
    dsf::Status s;
    switch (op.kind) {
      case dsf::Op::Kind::kInsert:
        s = file->Insert(op.record);
        break;
      case dsf::Op::Kind::kDelete:
        s = file->Delete(op.record.key);
        break;
      case dsf::Op::Kind::kGet:
        s = file->Get(op.record.key).status();
        break;
      case dsf::Op::Kind::kScan: {
        std::vector<dsf::Record> out;
        s = file->Scan(op.record.key, op.scan_hi, &out);
        scanned += static_cast<int64_t>(out.size());
        break;
      }
    }
    if (s.ok()) {
      ++ok;
    } else if (s.IsAlreadyExists() || s.IsNotFound() ||
               s.IsCapacityExceeded()) {
      ++benign;
    } else {
      std::cerr << "trace op failed hard: " << s << "\n";
      return 1;
    }
  }

  std::cout << "policy " << file->PolicyName() << ": " << trace->size()
            << " ops (" << ok << " ok, " << benign
            << " benign rejections), " << scanned << " records scanned\n";
  std::cout << "  population " << file->size() << "/" << file->capacity()
            << ", packing " << file->ScanEfficiency() << " records/page\n";
  std::cout << "  I/O " << file->io_stats().ToString() << "\n";
  std::cout << "  per command: mean "
            << file->command_stats().MeanAccessesPerCommand() << ", worst "
            << file->command_stats().max_command_accesses
            << " page accesses\n";
  const dsf::Status invariants = file->ValidateInvariants();
  std::cout << "  invariants: " << invariants << "\n";
  return invariants.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  dsf::DenseFile::Options options;
  options.num_pages = 256;
  options.d = 8;
  options.D = 8 + 33;

  if (argc >= 3) {
    if (argc >= 7) {
      options.num_pages = std::stoll(argv[3]);
      options.d = std::stoll(argv[4]);
      options.D = std::stoll(argv[5]);
      options.J = std::stoll(argv[6]);
    }
    return Run(argv[1], argv[2], options);
  }

  // Demo mode: synthesize a mixed trace, save it, replay on every policy.
  dsf::Rng rng(20260707);
  dsf::Trace demo = dsf::UniformMix(4000, 0.5, 0.3, 1500, rng);
  dsf::Trace surge = dsf::HotspotSurge(300, 5000, 6000, rng);
  demo.insert(demo.end(), surge.begin(), surge.end());
  demo.push_back(dsf::Op{dsf::Op::Kind::kScan, dsf::Record{1, 0}, 10000});
  const std::string path = "/tmp/dsf_demo_trace.txt";
  if (!dsf::WriteTraceFile(demo, path).ok()) return 1;
  std::cout << "demo trace: " << demo.size() << " ops -> " << path
            << "\n\n";
  for (const char* policy : {"control2", "control1", "localshift"}) {
    if (const int rc = Run(path, policy, options); rc != 0) return rc;
    std::cout << "\n";
  }
  return 0;
}
