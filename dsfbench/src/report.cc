#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "util/check.h"

namespace dsfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"accesses_per_cmd_mean", "count"},
    {"accesses_per_cmd_max", "count"},
    {"device_io_per_cmd", "count"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"core.locate_ns_p50", "ns"},
    {"core.shifts_per_cmd", "count"},
    {"core.shift_records_per_cmd", "count"},
    {"core.activations_per_cmd", "count"},
    {"core.warnings_lowered_per_cmd", "count"},
    {"core.redistributions_per_cmd", "count"},
    {"core.maintenance_access_share", "ratio"},
    {"core.budget_use", "ratio"},
    {"core.self_ns_per_cmd", "ns"},
    {"storage.page_search_ns_p50", "ns"},
    {"storage.logical_reads_per_cmd", "count"},
    {"storage.logical_writes_per_cmd", "count"},
    {"storage.seek_share", "ratio"},
    {"storage.pool.hit_rate", "ratio"},
    {"storage.pool.evictions_per_cmd", "count"},
    {"storage.pool.writebacks_per_cmd", "count"},
    {"storage.pool.flush_runs_per_cmd", "count"},
    {"storage.pool.write_combines_per_cmd", "count"},
    {"storage.backend.read_ns_p50", "ns"},
    {"storage.backend.write_ns_p50", "ns"},
    {"storage.backend.sync_ns_p50", "ns"},
    {"storage.backend.sync_ns_p99", "ns"},
    {"storage.backend.reads_per_cmd", "count"},
    {"storage.backend.writes_per_cmd", "count"},
    {"storage.backend.syncs_per_cmd", "count"},
    {"storage.backend.busy_share", "ratio"},
    {"storage.backend.open_reads", "count"},
    {"storage.backend.crc_failures", "count"},
    {"ingest.put_share", "ratio"},
    {"ingest.hit_rate", "ratio"},
    {"ingest.annihilations_per_put", "ratio"},
    {"ingest.drain_steps_per_cmd", "count"},
    {"ingest.drained_per_step", "count"},
    {"shard.contention_ns_per_op", "ns"},
    {"shard.imbalance", "ratio"},
    {"shard.epoch_hit_ratio", "ratio"},
    {"shard.epoch_fallback_ratio", "ratio"},
    {"obs.trace_overhead", "ratio"},
    {"baseline.btree_ns_per_op", "ns"},
};

namespace {

// Shortest text that reads back as exactly `v` (no rounding).
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

const char* UnitOf(const std::vector<MetricSpec>& catalog,
                   const std::string& name) {
  for (const MetricSpec& spec : catalog) {
    if (name == spec.name) return spec.unit;
  }
  DSF_CHECK(false) << "metric " << name << " is not in the catalog";
  return "";
}

void AppendMetrics(std::ostringstream& os, const std::vector<Metric>& ms,
                   bool with_samples) {
  os << "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << Quote(ms[i].name) << ": {\"value\": "
       << Num(ms[i].value) << ", \"unit\": " << Quote(ms[i].unit);
    if (with_samples) os << ", \"samples\": " << ms[i].samples;
    os << "}";
  }
  os << "}";
}

}  // namespace

double Quantile(std::vector<int64_t>* samples, double q) {
  if (samples->empty()) return 0;
  const size_t n = samples->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples->begin(), samples->begin() + (rank - 1),
                   samples->end());
  return static_cast<double>((*samples)[rank - 1]);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Report::AddEndToEnd(const std::string& name, double value,
                         int64_t samples) {
  end_to_end_[name] =
      Metric{name, value, UnitOf(kEndToEndMetrics, name), samples};
}

void Report::AddPerLayer(const std::string& name, double value,
                         int64_t samples) {
  per_layer_[name] =
      Metric{name, value, UnitOf(kPerLayerMetrics, name), samples};
}

void Report::AddDetail(const std::string& name, double value,
                       const std::string& unit, int64_t samples) {
  detail_.push_back(Metric{name, value, unit, samples});
}

void Report::AddSeries(const std::string& name, std::vector<double> values) {
  series_.emplace_back(name, std::move(values));
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) ++failures_[what];
}

void Report::Describe(const std::string& key, const std::string& value) {
  description_.emplace_back(key, value);
}

std::vector<Metric> Report::Catalog(bool trace) const {
  const std::vector<MetricSpec>& specs =
      trace ? kPerLayerMetrics : kEndToEndMetrics;
  const std::map<std::string, Metric>& have = trace ? per_layer_ : end_to_end_;
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    const auto it = have.find(spec.name);
    out.push_back(it != have.end() ? it->second
                                   : Metric{spec.name, 0, spec.unit, 0});
  }
  return out;
}

void Report::PrintHuman(std::ostream& os, bool trace) const {
  for (const auto& [key, value] : description_) {
    os << "# " << key << ": " << value << "\n";
  }
  auto table = [&os](const char* title, const std::vector<Metric>& ms) {
    os << "## " << title << "\n";
    for (const Metric& m : ms) {
      os << "  " << std::left << std::setw(40) << m.name << std::right
         << std::setw(22) << Num(m.value) << " " << std::left
         << std::setw(6) << m.unit << " n=" << m.samples << "\n";
    }
  };
  table(trace ? "per-layer (traced run)" : "end-to-end (untraced run)",
        Catalog(trace));
  if (!detail_.empty()) table("detail", detail_);
  os << "## checks: " << (failures_.empty() ? "all passed" : "FAILED") << "\n";
  for (const auto& [what, times] : failures_) {
    os << "  FAILED: " << what << " (x" << times << ")\n";
  }
  os << "## ops attempted " << attempted_ << ", unexpected statuses "
     << failed_ << "\n";
}

std::string Report::ResultJson(const std::string& workload, uint64_t seed,
                               bool trace) const {
  std::ostringstream os;
  os << "{\"workload\": " << Quote(workload) << ", \"seed\": " << seed
     << ", \"trace\": " << (trace ? 1 : 0) << ", \"description\": {";
  for (size_t i = 0; i < description_.size(); ++i) {
    os << (i ? ", " : "") << Quote(description_[i].first) << ": "
       << Quote(description_[i].second);
  }
  os << "}, \"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"failures\": [";
  bool first = true;
  for (const auto& [what, times] : failures_) {
    os << (first ? "" : ", ") << Quote(what + " (x" + std::to_string(times) +
                                       ")");
    first = false;
  }
  os << "], \"" << (trace ? "per_layer" : "end_to_end") << "\": ";
  AppendMetrics(os, Catalog(trace), true);
  os << ", \"detail\": ";
  AppendMetrics(os, detail_, true);
  os << ", \"series\": {";
  for (size_t i = 0; i < series_.size(); ++i) {
    os << (i ? ", " : "") << Quote(series_[i].first) << ": [";
    for (size_t j = 0; j < series_[i].second.size(); ++j) {
      os << (j ? ", " : "") << Num(series_[i].second[j]);
    }
    os << "]";
  }
  os << "}}\n";
  return os.str();
}

std::string Report::SummaryLine(bool trace) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": ";
  AppendMetrics(os, Catalog(trace), false);
  os << "}";
  return os.str();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace dsfbench
