// The benchmark's workloads: geometry, op mix and seeded input generation.
//
// Every workload is generated in full from the seed before any timing
// starts, together with the outcome each operation must have (from a
// ReferenceModel replay), so the timed loop only replays and the checks
// only compare. Why each workload exists is recorded in
// dsfbench/workloads.json and dsfbench/README.md.

#ifndef DSFBENCH_WORKLOADS_H_
#define DSFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dense_file.h"
#include "shard/sharded_dense_file.h"
#include "storage/record.h"
#include "util/status.h"
#include "workload/workload.h"

namespace dsfbench {

// What one operation must return: the status code, the value of a
// successful get, and the number of records a scan returns.
struct Expected {
  dsf::StatusCode code = dsf::StatusCode::kOk;
  dsf::Value value = 0;
  int64_t scan_records = 0;
};

// A trace plus its expected per-op outcomes, replayed by one client.
struct ClientTrace {
  dsf::Trace ops;
  std::vector<Expected> expected;
  // Scans whose results depend on another client's interleaving are not
  // compared record for record (the sharded workload's threads share
  // key ranges for scans only).
  bool check_scans = true;
};

// Uniform, hotspot and durable: one DenseFile, one client.
struct SingleWorkload {
  std::string name;
  dsf::DenseFile::Options options;  // geometry and pool; no backend/obs
  bool durable = false;
  std::vector<dsf::Record> initial;
  ClientTrace client;
  std::vector<dsf::Record> final_contents;
};

// Sharded: one ShardedDenseFile, kShardedClients threads.
struct ShardedWorkload {
  std::string name;
  dsf::ShardedDenseFile::Options options;
  std::vector<dsf::Record> initial;
  std::vector<ClientTrace> clients;
  std::vector<dsf::Record> final_contents;
};

inline constexpr int kShardedClients = 2;

bool IsSingleFileWorkload(const std::string& name);
bool IsKnownWorkload(const std::string& name);

// Builds the named single-file workload ("uniform", "hotspot",
// "durable") from `seed`.
SingleWorkload MakeSingleWorkload(const std::string& name, uint64_t seed);
ShardedWorkload MakeShardedWorkload(uint64_t seed);

// One line per property (geometry, mix, clients, ops per round) for the
// run's result file.
std::vector<std::pair<std::string, std::string>> DescribeSingle(
    const SingleWorkload& w);
std::vector<std::pair<std::string, std::string>> DescribeSharded(
    const ShardedWorkload& w);

}  // namespace dsfbench

#endif  // DSFBENCH_WORKLOADS_H_
