// Shared helpers for the experiment binaries: aligned table printing and
// small driver utilities. Each bench prints the rows the corresponding
// paper artifact (table/figure/theorem) reports, in paper-vs-measured
// form where applicable; EXPERIMENTS.md captures representative output.

#ifndef DSF_BENCH_BENCH_COMMON_H_
#define DSF_BENCH_BENCH_COMMON_H_

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace dsf::bench {

// Fixed-width table printer:
//   Table t({"M", "max cost", "bound"});
//   t.Row(64, 18, 20.5);  t.Print();
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  template <typename... Ts>
  void Row(const Ts&... cells) {
    std::vector<std::string> row;
    (row.push_back(ToCell(cells)), ...);
    rows_.push_back(std::move(row));
  }

  void Print(std::ostream& os = std::cout) const {
    std::vector<size_t> widths(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t i = 0; i < row.size(); ++i) {
        os << "  " << std::setw(static_cast<int>(widths[i])) << row[i];
      }
      os << "\n";
    };
    print_row(headers_);
    std::string rule;
    for (const size_t w : widths) rule += "  " + std::string(w, '-');
    os << rule << "\n";
    for (const auto& row : rows_) print_row(row);
  }

 private:
  template <typename T>
  static std::string ToCell(const T& value) {
    if constexpr (std::is_floating_point_v<T>) {
      std::ostringstream os;
      os << std::fixed << std::setprecision(2) << value;
      return os.str();
    } else if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(value);
    } else {
      return std::to_string(value);
    }
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline void Section(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

inline void Note(const std::string& text) { std::cout << text << "\n"; }

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Where a BENCH_*.json artifact was measured: the JSON lines naming the
// host, its online CPUs, the build type and the repetitions per row.
inline void WriteProvenance(std::ostream& os, int64_t repetitions) {
  char host[256] = {0};
  if (::gethostname(host, sizeof(host) - 1) != 0) {
    std::string("unknown").copy(host, sizeof(host) - 1);
  }
  os << "  \"host\": \"" << host << "\",\n";
  os << "  \"num_cpus\": " << ::sysconf(_SC_NPROCESSORS_ONLN) << ",\n";
#ifdef NDEBUG
  os << "  \"build_type\": \"release\",\n";
#else
  os << "  \"build_type\": \"debug\",\n";
#endif
  os << "  \"repetitions\": " << repetitions << ",\n";
}

}  // namespace dsf::bench

#endif  // DSF_BENCH_BENCH_COMMON_H_
