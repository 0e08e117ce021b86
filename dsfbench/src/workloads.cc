#include "workloads.h"

#include <string>
#include <utility>

#include "ingest/memtable.h"
#include "util/check.h"
#include "util/random.h"
#include "workload/parallel_replayer.h"
#include "workload/reference_model.h"

namespace dsfbench {
namespace {

using dsf::Key;
using dsf::Op;
using dsf::Record;

// uniform / hotspot / sharded share one (d, D) and one capacity d*M.
constexpr int64_t kPages = 16384;
constexpr int64_t kSmallD = 16;
constexpr int64_t kBigD = 64;
// Bulk-loaded to 80% of d*M. Point keys are drawn from twice the loaded
// count, so inserts and deletes succeed equally often and the fill
// stays near 80% for the whole run.
constexpr double kLoadFraction = 0.8;
constexpr int64_t kScanSpan = 64;

constexpr int64_t kUniformOps = 400000;

// HotspotChurn: a batch of kHotspotBatch descending keys below one pivot
// is inserted, then deleted; kHotspotBatches batches, each under its own
// seeded pivot. Loaded keys sit kHotspotSpacing apart, so a whole batch
// fits between two neighbours. A single pivot's cost depends strongly
// on where it falls in the calibrator tree; spreading the pivots over
// the file keeps the page-access counts nearly seed-independent.
constexpr int64_t kHotspotBatch = 8000;
constexpr int64_t kHotspotBatches = 32;
constexpr Key kHotspotSpacing = 16384;

// durable: the E16/E21 geometry with a pool of 5% of M.
constexpr int64_t kDurableSmallD = 8;
constexpr int64_t kDurableBigD = 36;
constexpr int64_t kDurablePoolFrames = kPages / 20;
constexpr double kZipfTheta = 1.1;
constexpr int64_t kDurableOps = 40000;

// sharded: 4 shards of 4096 pages, pool of 25% of the pages, 1024
// staged entries per shard.
constexpr int kShards = 4;
constexpr int64_t kShardPages = kPages / kShards;
constexpr int64_t kShardPoolFrames = kShardPages / 4;
constexpr int64_t kShardStagingEntries = 1024;
constexpr int64_t kShardedOpsPerClient = 150000;

int64_t LoadedRecords(int64_t d, int64_t pages) {
  return static_cast<int64_t>(kLoadFraction * static_cast<double>(d * pages));
}

// Replays `trace` against `model`, recording what each op must return.
void ExpectOutcomes(dsf::ReferenceModel& model, ClientTrace* client) {
  client->expected.reserve(client->ops.size());
  for (const Op& op : client->ops) {
    Expected e;
    switch (op.kind) {
      case Op::Kind::kInsert:
        e.code = model.Insert(op.record).code();
        break;
      case Op::Kind::kDelete:
        e.code = model.Delete(op.record.key).code();
        break;
      case Op::Kind::kGet: {
        dsf::StatusOr<Record> r = model.Get(op.record.key);
        e.code = r.status().code();
        if (r.ok()) e.value = r->value;
        break;
      }
      case Op::Kind::kScan:
        e.scan_records = static_cast<int64_t>(
            model.Scan(op.record.key, op.scan_hi).size());
        break;
    }
    client->expected.push_back(e);
  }
}

dsf::ReferenceModel LoadedModel(const std::vector<Record>& initial,
                                int64_t capacity) {
  dsf::ReferenceModel model(capacity);
  DSF_CHECK(model.Load(initial).ok());
  return model;
}

// ZipfMix whose updates always change the file: an insert redraws its
// Zipf key until the key is absent, a delete until it is present (both
// give up after kRedraws and then take the nearest such key). Plain
// ZipfMix rejects about half of them as AlreadyExists / NotFound, and
// how many depends on the seed, so the update latency median would
// jump between the cost of a rejection and that of a durable write.
dsf::Trace EffectiveZipfMix(int64_t num_ops, double insert_fraction,
                            double delete_fraction, Key key_space,
                            double theta, const std::vector<Record>& initial,
                            dsf::Rng& rng) {
  constexpr int kRedraws = 64;
  const dsf::ZipfGenerator zipf(key_space, theta);
  std::vector<bool> present(key_space + 1, false);
  for (const Record& r : initial) present[r.key] = true;
  dsf::Trace trace;
  trace.reserve(static_cast<size_t>(num_ops));
  for (int64_t i = 0; i < num_ops; ++i) {
    const double roll = rng.NextDouble();
    Op op;
    if (roll < insert_fraction + delete_fraction) {
      const bool insert = roll < insert_fraction;
      Key k = zipf.Sample(rng) + 1;
      for (int r = 0; r < kRedraws && present[k] == insert; ++r) {
        k = zipf.Sample(rng) + 1;
      }
      while (present[k] == insert) k = k % key_space + 1;
      present[k] = insert;
      op.kind = insert ? Op::Kind::kInsert : Op::Kind::kDelete;
      op.record = Record{k, insert ? k : 0};
    } else {
      op.kind = Op::Kind::kGet;
      op.record.key = zipf.Sample(rng) + 1;
    }
    trace.push_back(op);
  }
  return trace;
}

SingleWorkload MakeUniform(uint64_t seed) {
  SingleWorkload w;
  w.name = "uniform";
  w.options.num_pages = kPages;
  w.options.d = kSmallD;
  w.options.D = kBigD;
  const int64_t n = LoadedRecords(kSmallD, kPages);
  const Key key_space = static_cast<Key>(2 * n);
  dsf::Rng rng(seed);
  w.initial = dsf::MakeUniformRecords(n, key_space, rng);
  w.client.ops = dsf::ParallelReplayer::DisjointUniformMixes(
      1, kUniformOps, 0.25, 0.25, 0.05, key_space, kScanSpan, seed)[0];
  return w;
}

SingleWorkload MakeHotspot(uint64_t seed) {
  SingleWorkload w;
  w.name = "hotspot";
  w.options.num_pages = kPages;
  w.options.d = kSmallD;
  w.options.D = kBigD;
  const int64_t n = LoadedRecords(kSmallD, kPages);
  w.initial = dsf::MakeAscendingRecords(n, kHotspotSpacing, kHotspotSpacing);
  // Batch b sits under a seeded loaded key in the b-th of kHotspotBatches
  // equal slices of the middle 80% of the file (stratified, so every
  // seed spreads its batches over the whole calibrator tree).
  dsf::Rng rng(seed);
  const int64_t slice = (8 * n / 10) / kHotspotBatches;
  for (int64_t b = 0; b < kHotspotBatches; ++b) {
    const int64_t lo = n / 10 + b * slice;
    const int64_t pivot_index = rng.UniformInRange(lo, lo + slice - 1);
    const Key pivot = w.initial[static_cast<size_t>(pivot_index)].key;
    const dsf::Trace batch = dsf::HotspotChurn(1, kHotspotBatch, pivot);
    w.client.ops.insert(w.client.ops.end(), batch.begin(), batch.end());
  }
  return w;
}

SingleWorkload MakeDurable(uint64_t seed) {
  SingleWorkload w;
  w.name = "durable";
  w.durable = true;
  w.options.num_pages = kPages;
  w.options.d = kDurableSmallD;
  w.options.D = kDurableBigD;
  w.options.cache_frames = kDurablePoolFrames;
  const int64_t n = LoadedRecords(kDurableSmallD, kPages);
  const Key key_space = static_cast<Key>(2 * n);
  // Every other key is loaded, so which hot keys are present does not
  // depend on the seed; only the trace does.
  w.initial = dsf::MakeAscendingRecords(n, 2, 2);
  dsf::Rng rng(seed);
  w.client.ops = EffectiveZipfMix(kDurableOps, 0.2, 0.2, key_space,
                                  kZipfTheta, w.initial, rng);
  return w;
}

std::string Mix(double insert, double del, double get, double scan) {
  return std::to_string(static_cast<int>(insert * 100)) + "% insert / " +
         std::to_string(static_cast<int>(del * 100)) + "% delete / " +
         std::to_string(static_cast<int>(get * 100)) + "% get / " +
         std::to_string(static_cast<int>(scan * 100)) + "% scan";
}

}  // namespace

bool IsSingleFileWorkload(const std::string& name) {
  return name == "uniform" || name == "hotspot" || name == "durable";
}

bool IsKnownWorkload(const std::string& name) {
  return IsSingleFileWorkload(name) || name == "sharded";
}

SingleWorkload MakeSingleWorkload(const std::string& name, uint64_t seed) {
  SingleWorkload w;
  if (name == "uniform") {
    w = MakeUniform(seed);
  } else if (name == "hotspot") {
    w = MakeHotspot(seed);
  } else {
    DSF_CHECK(name == "durable") << "unknown single-file workload " << name;
    w = MakeDurable(seed);
  }
  dsf::ReferenceModel model =
      LoadedModel(w.initial, w.options.d * w.options.num_pages);
  ExpectOutcomes(model, &w.client);
  w.final_contents = model.ScanAll();
  return w;
}

ShardedWorkload MakeShardedWorkload(uint64_t seed) {
  ShardedWorkload w;
  w.name = "sharded";
  w.options.num_shards = kShards;
  w.options.shard.num_pages = kShardPages;
  w.options.shard.d = kSmallD;
  w.options.shard.D = kBigD;
  const int64_t n = LoadedRecords(kSmallD, kPages);
  const Key key_space = static_cast<Key>(2 * n);
  w.options.key_space = key_space;
  w.options.cache_bytes = kShards * kShardPoolFrames * (kBigD + 1) *
                          static_cast<int64_t>(sizeof(Record));
  w.options.staging_bytes = kShards * kShardStagingEntries *
                            static_cast<int64_t>(sizeof(dsf::StagedEntry));
  dsf::Rng rng(seed);
  w.initial = dsf::MakeUniformRecords(n, key_space, rng);
  std::vector<dsf::Trace> traces =
      dsf::ParallelReplayer::DisjointUniformMixes(
          kShardedClients, kShardedOpsPerClient, 0.25, 0.25, 0.05, key_space,
          kScanSpan, seed);
  // Client key sets are disjoint, so replaying the clients one after the
  // other gives every point op the outcome it has under any interleaving.
  dsf::ReferenceModel model = LoadedModel(w.initial, kSmallD * kPages);
  for (dsf::Trace& trace : traces) {
    ClientTrace client;
    client.ops = std::move(trace);
    client.check_scans = false;
    ExpectOutcomes(model, &client);
    w.clients.push_back(std::move(client));
  }
  w.final_contents = model.ScanAll();
  return w;
}

std::vector<std::pair<std::string, std::string>> DescribeSingle(
    const SingleWorkload& w) {
  std::vector<std::pair<std::string, std::string>> out = {
      {"geometry", "M=" + std::to_string(w.options.num_pages) +
                       " d=" + std::to_string(w.options.d) +
                       " D=" + std::to_string(w.options.D)},
      {"pool_frames", std::to_string(w.options.cache_frames)},
      {"loaded_records", std::to_string(w.initial.size())},
      {"ops_per_round", std::to_string(w.client.ops.size())},
      {"clients", "1 (closed loop)"},
      {"policy", "CONTROL 2"},
  };
  if (w.name == "uniform") {
    out.emplace_back("mix", Mix(0.25, 0.25, 0.45, 0.05) + " of " +
                                std::to_string(kScanSpan) + " keys");
  } else if (w.name == "hotspot") {
    out.emplace_back("mix", "HotspotChurn: " +
                                std::to_string(kHotspotBatches) +
                                " batches, each " +
                                std::to_string(kHotspotBatch) +
                                " descending inserts below a seeded pivot, "
                                "then their deletes");
  } else {
    out.emplace_back("mix", "Zipf(1.1) " + Mix(0.2, 0.2, 0.6, 0.0) +
                                ", every update effective");
    out.emplace_back("backend",
                     "FileBackend, buffered, verify-on-read");
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> DescribeSharded(
    const ShardedWorkload& w) {
  return {
      {"geometry", std::to_string(w.options.num_shards) + " shards x M=" +
                       std::to_string(w.options.shard.num_pages) +
                       " d=" + std::to_string(w.options.shard.d) +
                       " D=" + std::to_string(w.options.shard.D)},
      {"cache_bytes", std::to_string(w.options.cache_bytes)},
      {"staging_bytes", std::to_string(w.options.staging_bytes)},
      {"loaded_records", std::to_string(w.initial.size())},
      {"ops_per_round", std::to_string(kShardedClients *
                                       kShardedOpsPerClient)},
      {"clients", std::to_string(kShardedClients) +
                      " threads (closed loop, disjoint key sets)"},
      {"mix", Mix(0.25, 0.25, 0.45, 0.05) + " of " +
                  std::to_string(kScanSpan) + " keys"},
      {"policy", "CONTROL 2"},
  };
}

}  // namespace dsfbench
