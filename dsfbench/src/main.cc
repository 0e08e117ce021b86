// dsfbench: the libdsf benchmark program.
//
//   dsfbench --workload <uniform|hotspot|durable|sharded> --seed <n>
//            --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with every observer off;
// --trace 1 measures the per-layer metrics with the tracer, the metrics
// registry and (durable) the timing backend installed, and writes the
// spans to <out-dir>. Prints a table, writes <out-dir>/result-*.json and
// ends with one JSON summary line. Exit code 0 only when every output
// check passed.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "replay.h"
#include "report.h"
#include "workloads.h"

namespace dsfbench {
namespace {

int Usage(const std::string& error) {
  std::cerr << "dsfbench: " << error
            << "\nusage: dsfbench --workload <uniform|hotspot|durable|"
               "sharded> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n";
  return 2;
}

int Main(int argc, char** argv) {
  RunArgs args;
  args.out_dir = "dsfbench-out";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!IsKnownWorkload(args.workload)) {
    return Usage("unknown workload '" + args.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace need valid values");
  }

  Report report;
  report.Check(MakeDirs(args.out_dir), "create " + args.out_dir);
  report.Describe("seed", std::to_string(args.seed));
  report.Describe("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Describe("build_type", DSFBENCH_BUILD_TYPE);
  if (IsSingleFileWorkload(args.workload)) {
    RunSingleFile(args, &report);
  } else {
    RunSharded(args, &report);
  }

  report.PrintHuman(std::cout, args.trace);
  const std::string path = args.out_dir + "/result-" + args.workload +
                           "-seed" + std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream result(path, std::ios::trunc);
  result << report.ResultJson(args.workload, args.seed, args.trace);
  report.Check(result.good(), "write " + path);
  std::cout << report.SummaryLine(args.trace) << std::endl;
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace dsfbench

int main(int argc, char** argv) { return dsfbench::Main(argc, argv); }
