// dsflint's analysis passes: a scope/annotation database built from the
// token streams, body-level lock and field tracking, and the typed rule
// catalog (see report.h for the kinds and docs/ANALYSIS.md for the full
// catalog semantics).
//
// The analyzer is deliberately a *project-shape* checker, not a general
// C++ front end: it understands exactly the idioms this codebase uses —
// DSF_GUARDED_BY / DSF_REQUIRES annotations, dsf::MutexLock-family RAII
// guards, `mu.Lock()` manual holds, `if (mu.TryLock())` conditional
// holds, `Class::Method` out-of-line definitions — and stays silent
// where it cannot resolve a construct. Conservatism budget: a rule must
// run clean over the real tree with zero escapes it cannot justify, so
// unresolvable expressions are skipped, never guessed.

#ifndef DSF_TOOLS_DSFLINT_ANALYZER_H_
#define DSF_TOOLS_DSFLINT_ANALYZER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"
#include "report.h"

namespace dsflint {

struct AnalyzerOptions {
  // Rules to run; empty = all. Names as in RuleKindName (rule-kind
  // groups: "lock-order" enables both the hierarchy and cycle checks).
  std::set<std::string> rules;

  // Path to the declared lock hierarchy (see lock_hierarchy.txt). Empty
  // disables the hierarchy half of lock-order (cycle detection and
  // graph extraction still run).
  std::string hierarchy_file;

  // Directory substrings (matched against the scanned path) in which the
  // structural rules are ENFORCED: guarded-by, lock-order, raw-page-io,
  // discarded-status, no-naked-mutex, spankind-catalog. Files outside
  // still contribute to the database (class annotations, catalog
  // declarations, call summaries) but produce no findings for these
  // rules. metric-catalog is enforced over every scanned file.
  std::vector<std::string> strict_dirs = {"src/", "tools/"};

  // RawWrite confinement: paths containing one of these are the storage
  // layer and may write pages unaccounted.
  std::vector<std::string> raw_page_dirs = {"src/storage/"};

  // Raw-syscall confinement: only the durable backend (and the temp-dir
  // test helper) may call the file I/O syscalls directly. Everything
  // else goes through StorageBackend, so fault injection, IoStats and
  // the kill-test write accounting can't be bypassed.
  std::vector<std::string> raw_syscall_dirs = {"src/storage/",
                                               "src/util/temp_dir"};

  // check-on-fault-path enforcement set (fault-reachable code).
  std::vector<std::string> fault_dirs = {"src/core/",   "src/storage/",
                                         "src/shard/",  "src/varsize/",
                                         "src/ingest/", "src/tune/"};

  // no-naked-mutex exemptions inside strict_dirs: the annotated wrapper
  // itself and the deadlock detector legitimately hold std primitives.
  std::vector<std::string> naked_mutex_exempt_dirs = {"src/util/"};

  // metric-catalog: files whose basename matches this declare the
  // catalog; raw string literals to FindOrCreate* are allowed only in
  // paths containing one of metric_free_dirs (the metrics module and its
  // own tests).
  std::string metric_catalog_basename = "metric_names.h";
  std::vector<std::string> metric_free_dirs = {"src/obs/"};
};

class Analyzer {
 public:
  explicit Analyzer(AnalyzerOptions options);

  // Adds one file's contents to the analysis set.
  void AddFile(const std::string& path, const std::string& text);

  // Runs every configured rule over the accumulated files and returns
  // the findings, sorted by (file, line).
  LintReport Run();

  // The statically extracted lock acquisition graph, one
  // "from -> to [site]" line per edge — for --dump-lock-graph and the
  // hierarchy-writing workflow in docs/ANALYSIS.md.
  std::string DumpLockGraph() const;

 private:
  struct Impl;
  AnalyzerOptions options_;
  std::vector<SourceFile> files_;
  std::string lock_graph_dump_;
};

}  // namespace dsflint

#endif  // DSF_TOOLS_DSFLINT_ANALYZER_H_
