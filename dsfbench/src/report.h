// Run report: the metric catalog, output checks, and the three
// renderings of one run — a human-readable table, a JSON result file
// with every metric and its sample count, and the single JSON summary
// line printed last.

#ifndef DSFBENCH_REPORT_H_
#define DSFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace dsfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Nearest-rank quantile (q in [0, 1]) of `samples`; reorders them.
// 0 when empty.
double Quantile(std::vector<int64_t>* samples, double q);
double Median(std::vector<double> values);

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metrics BENCHMARK.json declares, in its order. Every workload
// reports every end-to-end metric; a per-layer metric whose layer a
// workload never enters reads 0 with 0 samples (dsfbench/layers.json
// lists where each one applies).
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;  // observations behind the value
};

class Report {
 public:
  // Catalog metrics: end-to-end from an untraced run, per-layer from a
  // traced one. The unit comes from the catalog.
  void AddEndToEnd(const std::string& name, double value, int64_t samples);
  void AddPerLayer(const std::string& name, double value, int64_t samples);
  // Metrics that apply to only some workloads: printed and written to
  // the result file, never part of the summary line.
  void AddDetail(const std::string& name, double value,
                 const std::string& unit, int64_t samples);

  // Per-round values behind a metric, written to the result file only.
  void AddSeries(const std::string& name, std::vector<double> values);

  // Records a failed output check; the run then reports correct=false.
  void Check(bool ok, const std::string& what);
  void Describe(const std::string& key, const std::string& value);

  // Counts replayed operations; `unexpected` of them returned a status
  // that is neither OK nor an expected rejection (AlreadyExists /
  // NotFound).
  void CountOps(int64_t attempted, int64_t unexpected) {
    attempted_ += attempted;
    failed_ += unexpected;
  }

  bool correct() const { return failures_.empty(); }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  // Table of every metric and check, for people.
  void PrintHuman(std::ostream& os, bool trace) const;
  // Every metric with its sample count, the description and the checks.
  std::string ResultJson(const std::string& workload, uint64_t seed,
                         bool trace) const;
  // The one-line summary: correct, attempted, failed and every catalog
  // metric of the requested kind.
  std::string SummaryLine(bool trace) const;

 private:
  // Catalog metrics of one kind in catalog order; a missing per-layer
  // metric is filled in as 0 with 0 samples.
  std::vector<Metric> Catalog(bool trace) const;

  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> per_layer_;
  std::vector<Metric> detail_;
  std::vector<std::pair<std::string, std::vector<double>>> series_;
  // Failed check -> how often it failed.
  std::map<std::string, int64_t> failures_;
  std::vector<std::pair<std::string, std::string>> description_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace dsfbench

#endif  // DSFBENCH_REPORT_H_
