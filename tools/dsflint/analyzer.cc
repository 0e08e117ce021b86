#include "analyzer.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

namespace dsflint {

namespace {

// ---------------------------------------------------------------------
// Database built in pass 1.

struct MethodAnnotations {
  std::set<std::string> requires_locks;  // DSF_REQUIRES arguments
  bool exempt = false;                   // DSF_NO_THREAD_SAFETY_ANALYSIS
};

struct ClassInfo {
  std::string name;  // qualified by enclosing classes: "Outer::Inner"
  std::map<std::string, std::string> guarded;  // field -> guard expr
  std::set<std::string> mutex_members;  // names of Mutex/SharedMutex fields
  std::map<std::string, MethodAnnotations> methods;
};

struct Site {
  int file = -1;
  int line = 0;
};

// One function/method body queued for pass 2. The owning class is
// resolved lazily in pass 2 (the declaring header may sort after the
// .cc file in the scan order).
struct BodyJob {
  int file = -1;
  size_t body_open = 0;     // token index of the '{'
  size_t params_open = 0;   // token index of the parameter-list '('
  std::string qualifier;    // "Outer::Inner" prefix of an out-of-line def
  std::string lexical_class;  // enclosing class scope at the definition
  std::string fn_name;      // bare name ("Get", "~Foo", "operator", ...)
  MethodAnnotations annotations;
  int line = 0;
};

struct FnSummary {
  std::string bare_name;
  std::set<std::string> direct_locks;  // resolved lock classes
  std::set<std::string> callees;       // bare callee names
  std::set<std::string> all_locks;     // after fixed-point propagation
};

struct LockEdge {
  std::string from;
  std::string to;
  Site site;
  std::string via;  // "" for direct nesting, else the callee name
};

// A call made while at least one resolved lock class was held.
struct CallSite {
  std::string callee;
  std::vector<std::string> held;
  Site site;
};

struct Db {
  std::map<std::string, ClassInfo> classes;  // by qualified name
  // mutex member name -> class names declaring it.
  std::map<std::string, std::vector<std::string>> mutex_owners;
  // guarded field name -> (class name, guard expr) declaring it.
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      guarded_fields;
  std::set<std::string> status_fns;  // names returning Status/StatusOr
  // Names also declared with a non-Status return somewhere: ambiguous by
  // bare name, so the discarded-status rule skips them.
  std::set<std::string> nonstatus_fns;

  // Metric catalog: declared constants and out-of-catalog uses.
  bool has_catalog = false;
  std::map<std::string, Site> metric_constants;
  std::set<std::string> metric_constants_used;
  std::vector<std::pair<std::string, Site>> metric_uses;

  // SpanKind enum and the exporter bodies that must cover it.
  std::vector<std::string> spankind_enumerators;
  struct Exporter {
    Site site;
    std::set<std::string> idents;
  };
  std::vector<Exporter> spankind_exporters;

  std::vector<BodyJob> bodies;
  std::map<std::string, FnSummary> fns;  // key: Class::name or name
  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  std::vector<CallSite> call_sites;
};

const std::set<std::string>& AnnotationMacros() {
  static const std::set<std::string>* macros = new std::set<std::string>{
      "DSF_GUARDED_BY", "DSF_PT_GUARDED_BY", "DSF_REQUIRES", "DSF_EXCLUDES",
      "DSF_ACQUIRE", "DSF_RELEASE", "DSF_TRY_ACQUIRE", "DSF_ACQUIRE_SHARED",
      "DSF_RELEASE_SHARED", "DSF_TRY_ACQUIRE_SHARED", "DSF_CAPABILITY",
      "DSF_SCOPED_CAPABILITY", "DSF_RETURN_CAPABILITY",
      "DSF_NO_THREAD_SAFETY_ANALYSIS", "DSF_THREAD_ANNOTATION"};
  return *macros;
}

const std::set<std::string>& Keywords() {
  static const std::set<std::string>* kw = new std::set<std::string>{
      "if", "for", "while", "switch", "return", "sizeof", "alignof",
      "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
      "case", "new", "delete", "catch", "throw", "decltype", "noexcept",
      "static_assert", "alignas", "co_await", "co_return", "assert"};
  return *kw;
}

const std::set<std::string>& NakedMutexTypes() {
  static const std::set<std::string>* types = new std::set<std::string>{
      "mutex", "shared_mutex", "shared_timed_mutex", "recursive_mutex",
      "timed_mutex", "lock_guard", "scoped_lock", "unique_lock",
      "shared_lock"};
  return *types;
}

// The file-I/O syscall surface the raw-syscall-io rule confines to the
// storage backend. Deliberately NOT read/write/lseek: those names are
// too common as method identifiers, and the backend only ever uses the
// positioned forms anyway.
const std::set<std::string>& RawIoSyscalls() {
  static const std::set<std::string>* calls = new std::set<std::string>{
      "open",  "openat", "pread",     "pwrite",    "preadv", "pwritev",
      "fsync", "fdatasync", "ftruncate", "posix_fallocate"};
  return *calls;
}

bool PathContainsAny(const std::string& path,
                     const std::vector<std::string>& needles) {
  for (const std::string& d : needles) {
    if (path.find(d) != std::string::npos) return true;
  }
  return false;
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// ---------------------------------------------------------------------
// The analysis engine. One instance per Run().

class Engine {
 public:
  Engine(const AnalyzerOptions& options, const std::vector<SourceFile>& files)
      : options_(options), files_(files) {}

  LintReport Run();
  const std::string& lock_graph_dump() const { return lock_graph_dump_; }

 private:
  static bool Is(const Token& t, const char* s) { return t.text == s; }
  static bool IsIdent(const Token& t) { return t.kind == TokKind::kIdent; }

  // Index of the token after the matching closer for the opener at `i`.
  static size_t SkipBalanced(const std::vector<Token>& t, size_t i,
                             const char* open, const char* close) {
    int depth = 0;
    for (; i < t.size(); ++i) {
      if (t[i].text == open) ++depth;
      if (t[i].text == close && --depth == 0) return i + 1;
    }
    return t.size();
  }

  bool RuleEnabled(const char* name) const {
    return options_.rules.empty() || options_.rules.count(name) != 0;
  }
  bool Strict(const SourceFile& f) const {
    return PathContainsAny(f.path, options_.strict_dirs);
  }
  bool Allowed(const SourceFile& f, RuleKind kind, int line) const {
    if (f.Allowed(RuleKindName(kind), line)) return true;
    // Legacy escape spelling from the grep-linter era.
    return kind == RuleKind::kUnknownMetricName &&
           f.Allowed("unregistered-metric-name", line);
  }
  void Add(RuleKind kind, const SourceFile& f, int line, std::string msg) {
    if (Allowed(f, kind, line)) return;
    report_.findings.push_back({kind, f.path, line, std::move(msg)});
  }

  void ScanFile(int file_index);
  size_t ParseDeclaration(int file_index, size_t i, size_t end,
                          const std::string& class_path);
  ClassInfo& GetClass(const std::string& name) {
    ClassInfo& c = db_.classes[name];
    c.name = name;
    return c;
  }
  std::string ResolveClassPath(const std::string& qualifier) const;

  void AnalyzeBody(const BodyJob& job);
  std::string WalkChain(const std::vector<Token>& t, size_t last,
                        size_t* chain_start) const;
  std::string ResolveLockClass(
      const std::string& expr, const std::string& class_path,
      const std::map<std::string, std::string>& aliases) const;
  void RecordEdge(const std::string& from, const std::string& to, Site site,
                  const std::string& via);

  void TokenRules(int file_index);
  void CatalogRules();
  void LockGraphRules();

  const AnalyzerOptions& options_;
  const std::vector<SourceFile>& files_;
  Db db_;
  LintReport report_;
  std::string lock_graph_dump_;
};

// ---------------------------------------------------------------------
// Pass 1 — declaration scanning.

void Engine::ScanFile(int file_index) {
  const SourceFile& f = files_[static_cast<size_t>(file_index)];
  const std::vector<Token>& t = f.tokens;

  struct Scope {
    std::string class_path;  // "" for namespaces / plain braces
    bool is_class = false;
  };
  std::vector<Scope> scopes;
  auto current_class = [&]() -> std::string {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->is_class) return it->class_path;
    }
    return "";
  };

  size_t i = 0;
  while (i < t.size()) {
    const Token& tok = t[i];
    if (Is(tok, "}")) {
      if (!scopes.empty()) scopes.pop_back();
      ++i;
      continue;
    }
    if (Is(tok, "{")) {  // stray block (extern "C", ...)
      scopes.push_back({"", false});
      ++i;
      continue;
    }
    if (Is(tok, "template")) {
      // Skip the <...> parameter list; no expression '<' appears inside
      // template headers in this codebase.
      size_t j = i + 1;
      if (j < t.size() && Is(t[j], "<")) {
        int depth = 0;
        for (; j < t.size(); ++j) {
          if (t[j].text == "<") {
            ++depth;
          } else if (t[j].text == ">") {
            if (--depth == 0) {
              ++j;
              break;
            }
          } else if (t[j].text == ">>") {
            depth -= 2;
            if (depth <= 0) {
              ++j;
              break;
            }
          }
        }
      }
      i = j;
      continue;
    }
    if (Is(tok, "namespace")) {
      size_t j = i + 1;
      while (j < t.size() && !Is(t[j], "{") && !Is(t[j], ";")) ++j;
      if (j < t.size() && Is(t[j], "{")) scopes.push_back({"", false});
      i = j + 1;
      continue;
    }
    if ((Is(tok, "class") || Is(tok, "struct")) &&
        (i == 0 || (!Is(t[i - 1], "<") && !Is(t[i - 1], ",") &&
                    !Is(t[i - 1], "typename") && !Is(t[i - 1], "enum")))) {
      // Class name = last plain identifier before '{', ':' or ';',
      // skipping attributes and annotation macros.
      std::string name;
      size_t j = i + 1;
      for (; j < t.size(); ++j) {
        if (Is(t[j], "(")) {
          j = SkipBalanced(t, j, "(", ")") - 1;
          continue;
        }
        if (Is(t[j], "[")) {
          j = SkipBalanced(t, j, "[", "]") - 1;
          continue;
        }
        if (Is(t[j], "{") || Is(t[j], ":") || Is(t[j], ";")) break;
        if (IsIdent(t[j]) && AnnotationMacros().count(t[j].text) == 0 &&
            t[j].text != "final" && t[j].text != "alignas") {
          name = t[j].text;
        }
      }
      while (j < t.size() && !Is(t[j], "{") && !Is(t[j], ";")) ++j;
      if (j < t.size() && Is(t[j], "{") && !name.empty()) {
        const std::string outer = current_class();
        const std::string path = outer.empty() ? name : outer + "::" + name;
        GetClass(path);
        scopes.push_back({path, true});
        i = j + 1;
        continue;
      }
      i = j + 1;  // forward declaration or anonymous
      continue;
    }
    if (Is(tok, "enum")) {
      size_t j = i + 1;
      std::string name;
      while (j < t.size() && !Is(t[j], "{") && !Is(t[j], ";") &&
             !Is(t[j], ":")) {
        if (IsIdent(t[j]) && t[j].text != "class" && t[j].text != "struct") {
          name = t[j].text;
        }
        ++j;
      }
      while (j < t.size() && !Is(t[j], "{") && !Is(t[j], ";")) ++j;
      if (j < t.size() && Is(t[j], "{")) {
        const size_t close = SkipBalanced(t, j, "{", "}");
        if (name == "SpanKind") {
          for (size_t k = j + 1; k + 1 < close; ++k) {
            if (IsIdent(t[k]) && (Is(t[k + 1], ",") || Is(t[k + 1], "}") ||
                                  Is(t[k + 1], "="))) {
              db_.spankind_enumerators.push_back(t[k].text);
            }
          }
        }
        i = close;
        continue;
      }
      i = j + 1;
      continue;
    }
    if (Is(tok, "using") || Is(tok, "typedef") || Is(tok, "friend") ||
        Is(tok, "extern")) {
      while (i < t.size() && !Is(t[i], ";") && !Is(t[i], "{")) ++i;
      if (i < t.size() && Is(t[i], ";")) ++i;
      continue;
    }
    if (Is(tok, ";") || Is(tok, "public") || Is(tok, "private") ||
        Is(tok, "protected") || Is(tok, ":") || tok.kind == TokKind::kString ||
        tok.kind == TokKind::kNumber) {
      ++i;
      continue;
    }
    i = ParseDeclaration(file_index, i, t.size(), current_class());
  }
}

size_t Engine::ParseDeclaration(int file_index, size_t i, size_t end,
                                const std::string& class_path) {
  const std::vector<Token>& t =
      files_[static_cast<size_t>(file_index)].tokens;
  const size_t decl_start = i;

  MethodAnnotations ann;
  std::string guarded_field, guard_expr;
  std::string fn_name, fn_qualifier;
  bool have_params = false;
  size_t params_open = 0;
  bool saw_mutex_type = false;
  std::string last_ident;
  int fn_line = t[i].line;

  auto join = [&](size_t a, size_t b) {  // tokens [a, b) joined
    std::string out;
    for (size_t k = a; k < b; ++k) {
      out += t[k].text == "->" ? "." : t[k].text;
    }
    return out;
  };
  auto note_status_return = [&](size_t name_limit) {
    // Return type = tokens before the (possibly qualified) name.
    bool is_status = false;
    for (size_t k = decl_start; k < name_limit; ++k) {
      if (t[k].text == fn_name &&
          (k + 1 >= name_limit || !Is(t[k + 1], "::"))) {
        break;
      }
      if (Is(t[k], "Status") || Is(t[k], "StatusOr")) {
        is_status = true;
        break;
      }
    }
    if (is_status) {
      db_.status_fns.insert(fn_name);
    } else {
      db_.nonstatus_fns.insert(fn_name);
    }
  };

  size_t j = i;
  while (j < end) {
    const Token& tok = t[j];
    if (Is(tok, ";")) {
      if (!class_path.empty() && !guarded_field.empty()) {
        GetClass(class_path).guarded[guarded_field] = guard_expr;
        db_.guarded_fields[guarded_field].push_back({class_path, guard_expr});
      } else if (!class_path.empty() && saw_mutex_type && !have_params &&
                 !last_ident.empty() && last_ident != "Mutex" &&
                 last_ident != "SharedMutex") {
        GetClass(class_path).mutex_members.insert(last_ident);
        db_.mutex_owners[last_ident].push_back(class_path);
      }
      if (have_params && !fn_name.empty()) {
        if (!ann.requires_locks.empty() || ann.exempt) {
          const std::string cls = !fn_qualifier.empty()
                                      ? ResolveClassPath(fn_qualifier)
                                      : class_path;
          if (!cls.empty()) {
            MethodAnnotations& m = GetClass(cls).methods[fn_name];
            m.exempt = m.exempt || ann.exempt;
            m.requires_locks.insert(ann.requires_locks.begin(),
                                    ann.requires_locks.end());
          }
        }
        note_status_return(j);
      }
      return j + 1;
    }
    if (IsIdent(tok)) {
      if (tok.text == "Mutex" || tok.text == "SharedMutex") {
        saw_mutex_type = true;
        last_ident = tok.text;
      } else if (tok.text == "DSF_GUARDED_BY" ||
                 tok.text == "DSF_PT_GUARDED_BY") {
        if (j + 1 < end && Is(t[j + 1], "(")) {
          guarded_field = last_ident;
          const size_t close = SkipBalanced(t, j + 1, "(", ")");
          guard_expr = join(j + 2, close - 1);
          j = close;
          continue;
        }
      } else if (tok.text == "DSF_REQUIRES") {
        if (j + 1 < end && Is(t[j + 1], "(")) {
          const size_t close = SkipBalanced(t, j + 1, "(", ")");
          ann.requires_locks.insert(join(j + 2, close - 1));
          j = close;
          continue;
        }
      } else if (tok.text == "DSF_NO_THREAD_SAFETY_ANALYSIS") {
        ann.exempt = true;
      } else if (AnnotationMacros().count(tok.text) != 0) {
        if (j + 1 < end && Is(t[j + 1], "(")) {
          j = SkipBalanced(t, j + 1, "(", ")");
          continue;
        }
      } else {
        last_ident = tok.text;
      }
      ++j;
      continue;
    }
    if (Is(tok, "(")) {
      const bool prev_is_name = j > decl_start && IsIdent(t[j - 1]) &&
                                AnnotationMacros().count(t[j - 1].text) == 0;
      if (!have_params && prev_is_name) {
        fn_name = t[j - 1].text;
        fn_line = t[j - 1].line;
        size_t q = j - 1;
        if (q > decl_start && Is(t[q - 1], "~")) {
          fn_name = "~" + fn_name;
          --q;
        }
        std::vector<std::string> quals;
        while (q >= decl_start + 2 && Is(t[q - 1], "::") &&
               IsIdent(t[q - 2])) {
          quals.insert(quals.begin(), t[q - 2].text);
          q -= 2;
        }
        for (size_t k = 0; k < quals.size(); ++k) {
          fn_qualifier += (k ? "::" : "") + quals[k];
        }
        have_params = true;
        params_open = j;
      }
      j = SkipBalanced(t, j, "(", ")");
      continue;
    }
    if (Is(tok, "[")) {
      j = SkipBalanced(t, j, "[", "]");
      continue;
    }
    if (Is(tok, "=")) {
      // Initializer, `= default`, `= delete`, `= 0`: consume to ';'.
      ++j;
      while (j < end && !Is(t[j], ";")) {
        if (Is(t[j], "(")) {
          j = SkipBalanced(t, j, "(", ")");
        } else if (Is(t[j], "{")) {
          j = SkipBalanced(t, j, "{", "}");
        } else if (Is(t[j], "[")) {
          j = SkipBalanced(t, j, "[", "]");
        } else {
          ++j;
        }
      }
      continue;
    }
    if (Is(tok, ":") && have_params) {
      // Constructor initializer list: `name (...)` / `name {...}` groups,
      // then the body '{'.
      ++j;
      while (j < end) {
        if (Is(t[j], "{")) break;  // the body
        if (Is(t[j], "(")) {
          j = SkipBalanced(t, j, "(", ")");
          continue;
        }
        if (IsIdent(t[j]) && j + 1 < end && Is(t[j + 1], "{")) {
          j = SkipBalanced(t, j + 1, "{", "}");
          continue;
        }
        ++j;
      }
      continue;
    }
    if (Is(tok, "{")) {
      if (!have_params || fn_name.empty()) {
        // Either a field's brace initializer, or the body of a function
        // whose name we could not extract (operator overloads): the
        // latter ends the declaration and is recognizable by the token
        // right before the brace.
        if (j > decl_start &&
            (Is(t[j - 1], ")") || Is(t[j - 1], "const") ||
             Is(t[j - 1], "noexcept") || Is(t[j - 1], "override"))) {
          return SkipBalanced(t, j, "{", "}");
        }
        j = SkipBalanced(t, j, "{", "}");
        continue;
      }
      // A function definition: queue the body for pass 2.
      note_status_return(j);
      BodyJob job;
      job.file = file_index;
      job.body_open = j;
      job.params_open = params_open;
      job.qualifier = fn_qualifier;
      job.lexical_class = class_path;
      job.fn_name = fn_name;
      job.line = fn_line;
      job.annotations = ann;
      db_.bodies.push_back(job);
      return SkipBalanced(t, j, "{", "}");
    }
    ++j;
  }
  return end;
}

std::string Engine::ResolveClassPath(const std::string& qualifier) const {
  if (db_.classes.count(qualifier) != 0) return qualifier;
  for (const auto& [name, info] : db_.classes) {
    (void)info;
    if (name.size() > qualifier.size() + 2 &&
        name.compare(name.size() - qualifier.size() - 2, 2, "::") == 0 &&
        name.compare(name.size() - qualifier.size(), qualifier.size(),
                     qualifier) == 0) {
      return name;
    }
  }
  return "";
}

// ---------------------------------------------------------------------
// Pass 2 — body analysis.

std::string Engine::WalkChain(const std::vector<Token>& t, size_t last,
                              size_t* chain_start) const {
  if (last >= t.size() || (!IsIdent(t[last]) && t[last].text != "this")) {
    return "";
  }
  std::vector<std::string> parts = {t[last].text};
  size_t j = last;
  while (j >= 2 && (Is(t[j - 1], ".") || Is(t[j - 1], "->")) &&
         (IsIdent(t[j - 2]) || Is(t[j - 2], "this"))) {
    parts.insert(parts.begin(), t[j - 2].text);
    j -= 2;
  }
  // A complex base (call/index result) makes the chain unresolvable.
  if (j >= 1 && (Is(t[j - 1], ")") || Is(t[j - 1], "]"))) return "";
  *chain_start = j;
  std::string out;
  for (size_t k = 0; k < parts.size(); ++k) out += (k ? "." : "") + parts[k];
  return out;
}

std::string Engine::ResolveLockClass(
    const std::string& expr, const std::string& class_path,
    const std::map<std::string, std::string>& aliases) const {
  const size_t dot = expr.rfind('.');
  if (dot == std::string::npos) {
    auto alias = aliases.find(expr);
    if (alias != aliases.end()) return alias->second;
    // The innermost enclosing class declaring such a mutex member wins.
    std::string cls = class_path;
    while (!cls.empty()) {
      auto it = db_.classes.find(cls);
      if (it != db_.classes.end() &&
          it->second.mutex_members.count(expr) != 0) {
        return cls + "::" + expr;
      }
      const size_t sep = cls.rfind("::");
      cls = sep == std::string::npos ? "" : cls.substr(0, sep);
    }
    auto owners = db_.mutex_owners.find(expr);
    if (owners != db_.mutex_owners.end() && owners->second.size() == 1) {
      return owners->second[0] + "::" + expr;
    }
    return "";
  }
  const std::string member = expr.substr(dot + 1);
  const std::string base = expr.substr(0, dot);
  if (base == "this") return ResolveLockClass(member, class_path, aliases);
  auto owners = db_.mutex_owners.find(member);
  if (owners != db_.mutex_owners.end() && owners->second.size() == 1) {
    return owners->second[0] + "::" + member;
  }
  return "";
}

void Engine::RecordEdge(const std::string& from, const std::string& to,
                        Site site, const std::string& via) {
  const auto key = std::make_pair(from, to);
  if (db_.edges.count(key) != 0) return;
  db_.edges[key] = {from, to, site, via};
}

void Engine::AnalyzeBody(const BodyJob& job) {
  const SourceFile& f = files_[static_cast<size_t>(job.file)];
  const std::vector<Token>& t = f.tokens;

  // Resolve the owning class now that the whole DB exists.
  const std::string class_name = !job.qualifier.empty()
                                     ? ResolveClassPath(job.qualifier)
                                     : job.lexical_class;
  const std::string tail = class_name.find("::") != std::string::npos
                               ? class_name.substr(class_name.rfind("::") + 2)
                               : class_name;
  const bool ctor_dtor = !class_name.empty() &&
                         (job.fn_name == tail || job.fn_name == "~" + tail);

  const std::string fn_key =
      class_name.empty() ? job.fn_name : class_name + "::" + job.fn_name;
  FnSummary& summary = db_.fns[fn_key];
  summary.bare_name = job.fn_name;

  // Effective annotations: definition side plus any header declaration.
  MethodAnnotations ann = job.annotations;
  if (!class_name.empty()) {
    auto cls = db_.classes.find(class_name);
    if (cls != db_.classes.end()) {
      auto m = cls->second.methods.find(job.fn_name);
      if (m != cls->second.methods.end()) {
        ann.exempt = ann.exempt || m->second.exempt;
        ann.requires_locks.insert(m->second.requires_locks.begin(),
                                  m->second.requires_locks.end());
      }
    }
  }
  const bool check_fields = Strict(f) && RuleEnabled("guarded-by") &&
                            !ann.exempt && !ctor_dtor &&
                            !class_name.empty();

  // Typed locals (parameters plus body declarations) whose class is in
  // the DB: the only bases on which `base.field` guard checks fire.
  std::map<std::string, std::string> typed_locals;  // var -> class
  auto note_typed_local = [&](size_t type_idx, size_t var_idx) {
    std::vector<std::string> parts = {t[type_idx].text};
    size_t q = type_idx;
    while (q >= 2 && Is(t[q - 1], "::") && IsIdent(t[q - 2])) {
      parts.insert(parts.begin(), t[q - 2].text);
      q -= 2;
    }
    std::string type;
    for (size_t k = 0; k < parts.size(); ++k) {
      type += (k ? "::" : "") + parts[k];
    }
    const std::string cls = ResolveClassPath(type);
    if (!cls.empty()) typed_locals[t[var_idx].text] = cls;
  };
  if (job.params_open != 0) {
    const size_t params_end =
        SkipBalanced(t, job.params_open, "(", ")") - 1;
    for (size_t k = job.params_open + 1; k + 1 < params_end; ++k) {
      if (IsIdent(t[k]) && (Is(t[k + 1], "&") || Is(t[k + 1], "*")) &&
          k + 2 < params_end && IsIdent(t[k + 2]) &&
          (k + 3 >= params_end || Is(t[k + 3], ",") ||
           Is(t[k + 3], ")") || Is(t[k + 3], "="))) {
        note_typed_local(k, k + 2);
      }
    }
  }

  struct Hold {
    std::string expr;  // normalized guard expression text
    int depth;
  };
  std::vector<Hold> held;
  for (const std::string& r : ann.requires_locks) held.push_back({r, 0});
  std::map<std::string, std::string> aliases;  // local ref -> lock class

  auto held_has = [&](const std::string& expr) {
    for (const Hold& h : held) {
      if (h.expr == expr || h.expr == "this." + expr ||
          "this." + h.expr == expr) {
        return true;
      }
    }
    return false;
  };
  auto record_acquire = [&](const std::string& expr, int line) {
    const std::string cls = ResolveLockClass(expr, class_name, aliases);
    if (cls.empty()) return;
    summary.direct_locks.insert(cls);
    for (const Hold& h : held) {
      const std::string from =
          ResolveLockClass(h.expr, class_name, aliases);
      if (!from.empty() && from != cls) {
        RecordEdge(from, cls, {job.file, line}, "");
      }
    }
  };

  int depth = 1;
  const size_t end = SkipBalanced(t, job.body_open, "{", "}") - 1;
  size_t i = job.body_open + 1;
  while (i < end) {
    const Token& tok = t[i];
    if (Is(tok, "{")) {
      ++depth;
      ++i;
      continue;
    }
    if (Is(tok, "}")) {
      --depth;
      held.erase(
          std::remove_if(held.begin(), held.end(),
                         [&](const Hold& h) { return h.depth > depth; }),
          held.end());
      ++i;
      continue;
    }
    if (!IsIdent(tok)) {
      ++i;
      continue;
    }

    // RAII guard declarations: `MutexLock lock(EXPR);` and friends.
    if ((tok.text == "MutexLock" || tok.text == "WriterMutexLock" ||
         tok.text == "ReaderMutexLock") &&
        i + 2 < end && IsIdent(t[i + 1]) && Is(t[i + 2], "(")) {
      const size_t close = SkipBalanced(t, i + 2, "(", ")");
      std::string expr;
      for (size_t k = i + 3; k + 1 < close; ++k) {
        expr += t[k].text == "->" ? "." : t[k].text;
      }
      record_acquire(expr, tok.line);
      held.push_back({expr, depth});
      i = close;
      continue;
    }
    // Local mutex references: `SharedMutex& mu = EXPR;` (MultiShardLock's
    // acquisition loop) — alias for lock-class resolution.
    if ((tok.text == "Mutex" || tok.text == "SharedMutex") && i + 3 < end &&
        Is(t[i + 1], "&") && IsIdent(t[i + 2]) && Is(t[i + 3], "=")) {
      size_t semi = i + 4;
      while (semi < end && !Is(t[semi], ";")) ++semi;
      for (size_t k = semi; k-- > i + 4;) {
        if (IsIdent(t[k])) {
          const std::string cls =
              ResolveLockClass("rhs." + t[k].text, class_name, aliases);
          if (!cls.empty()) aliases[t[i + 2].text] = cls;
          break;
        }
      }
      i = semi;
      continue;
    }
    // Manual lock operations on an access chain.
    if ((tok.text == "Lock" || tok.text == "ReaderLock" ||
         tok.text == "Unlock" || tok.text == "ReaderUnlock" ||
         tok.text == "TryLock" || tok.text == "ReaderTryLock") &&
        i >= 1 && (Is(t[i - 1], ".") || Is(t[i - 1], "->")) && i + 1 < end &&
        Is(t[i + 1], "(")) {
      size_t chain_start = 0;
      const std::string expr = WalkChain(t, i - 2, &chain_start);
      const size_t after_call = SkipBalanced(t, i + 1, "(", ")");
      if (!expr.empty()) {
        if (tok.text == "Lock" || tok.text == "ReaderLock") {
          record_acquire(expr, tok.line);
          held.push_back({expr, depth});
        } else if (tok.text == "Unlock" || tok.text == "ReaderUnlock") {
          for (size_t k = held.size(); k-- > 0;) {
            if (held[k].expr == expr) {
              held.erase(held.begin() + static_cast<long>(k));
              break;
            }
          }
        } else if (after_call < end && Is(t[after_call], ")") &&
                   after_call + 1 < end && Is(t[after_call + 1], "{")) {
          // `if (expr.TryLock()) { ... }`: the hold spans the guarded
          // block. A stored TryLock result is untracked (conservative).
          record_acquire(expr, tok.line);
          held.push_back({expr, depth + 1});
        }
      }
      i = after_call;
      continue;
    }

    // Typed local declarations: `Shard& s = ...`, `const Shard* s;`.
    if (i + 3 < end && (Is(t[i + 1], "&") || Is(t[i + 1], "*")) &&
        IsIdent(t[i + 2]) && (Is(t[i + 3], "=") || Is(t[i + 3], ";"))) {
      note_typed_local(i, i + 2);
    }

    // Call events for the lock-graph summaries.
    if (i + 1 < end && Is(t[i + 1], "(") && Keywords().count(tok.text) == 0 &&
        AnnotationMacros().count(tok.text) == 0 &&
        !StartsWith(tok.text, "DSF_")) {
      summary.callees.insert(tok.text);
      if (!held.empty()) {
        std::vector<std::string> held_classes;
        for (const Hold& h : held) {
          const std::string cls =
              ResolveLockClass(h.expr, class_name, aliases);
          if (!cls.empty()) held_classes.push_back(cls);
        }
        if (!held_classes.empty()) {
          db_.call_sites.push_back(
              {tok.text, std::move(held_classes), {job.file, tok.line}});
        }
      }
    }

    // Guarded-field access checks.
    if (check_fields) {
      const bool after_member_op =
          i >= 1 && (Is(t[i - 1], ".") || Is(t[i - 1], "->"));
      const bool after_scope = i >= 1 && Is(t[i - 1], "::");
      if (after_member_op) {
        size_t chain_start = 0;
        const std::string chain = WalkChain(t, i, &chain_start);
        if (!chain.empty()) {
          const size_t dot = chain.rfind('.');
          const std::string base = chain.substr(0, dot);
          const std::string field = chain.substr(dot + 1);
          if (base == "this") {
            auto cls = db_.classes.find(class_name);
            if (cls != db_.classes.end()) {
              auto g = cls->second.guarded.find(field);
              if (g != cls->second.guarded.end() && !held_has(g->second)) {
                Add(RuleKind::kGuardedByViolation, f, tok.line,
                    "field '" + field + "' of " + class_name +
                        " is DSF_GUARDED_BY(" + g->second +
                        ") but no hold of it is in scope in " + fn_key +
                        "()");
              }
            }
          } else if (base.find('.') == std::string::npos &&
                     typed_locals.count(base) != 0 &&
                     !(i + 1 < end && Is(t[i + 1], "("))) {
            // Only bases whose class we know from a typed local/param are
            // checked (a trailing '(' means a method call on some other
            // type, not a field read).
            auto cls = db_.classes.find(typed_locals[base]);
            if (cls != db_.classes.end()) {
              auto g = cls->second.guarded.find(field);
              if (g != cls->second.guarded.end() &&
                  !held_has(base + "." + g->second)) {
                Add(RuleKind::kGuardedByViolation, f, tok.line,
                    "field '" + base + "." + field + "' (" +
                        cls->second.name + ") is DSF_GUARDED_BY(" +
                        g->second + ") but no hold of '" + base + "." +
                        g->second + "' is in scope in " + fn_key + "()");
              }
            }
          }
        }
      } else if (!after_scope) {
        auto cls = db_.classes.find(class_name);
        if (cls != db_.classes.end()) {
          auto g = cls->second.guarded.find(tok.text);
          if (g != cls->second.guarded.end() && !held_has(g->second)) {
            Add(RuleKind::kGuardedByViolation, f, tok.line,
                "field '" + tok.text + "' of " + class_name +
                    " is DSF_GUARDED_BY(" + g->second +
                    ") but no hold of it is in scope in " + fn_key + "()");
          }
        }
      }
    }
    ++i;
  }
}

// ---------------------------------------------------------------------
// Pass 3 — token-local rules (single linear scan per file).

void Engine::TokenRules(int file_index) {
  const SourceFile& f = files_[static_cast<size_t>(file_index)];
  const std::vector<Token>& t = f.tokens;
  const bool strict = Strict(f);
  const bool is_catalog =
      Basename(f.path) == options_.metric_catalog_basename;
  if (is_catalog) db_.has_catalog = true;

  for (size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (!IsIdent(tok)) continue;

    // raw-page-io: `.RawWrite(` — the unaccounted device write — outside
    // the storage layer.
    if (strict && RuleEnabled("raw-page-io") && tok.text == "RawWrite" &&
        i >= 1 && (Is(t[i - 1], ".") || Is(t[i - 1], "->")) &&
        i + 1 < t.size() && Is(t[i + 1], "(") &&
        !PathContainsAny(f.path, options_.raw_page_dirs)) {
      Add(RuleKind::kRawPageIo, f, tok.line,
          "unaccounted page write outside the storage layer; go through "
          "the accounted PageFile read/write API");
    }

    // raw-syscall-io: a file-I/O syscall called as a free function
    // outside the durable backend. Member calls (`stream.open(`) are not
    // syscalls, and neither are declarations (`int open(...)`) — both
    // have a telltale preceding token (./-> or a type identifier); only
    // `return` may legitimately precede a flagged call as an identifier.
    if (strict && RuleEnabled("raw-syscall-io") &&
        RawIoSyscalls().count(tok.text) != 0 && i + 1 < t.size() &&
        Is(t[i + 1], "(") &&
        (i == 0 || (!Is(t[i - 1], ".") && !Is(t[i - 1], "->") &&
                    !(IsIdent(t[i - 1]) && t[i - 1].text != "return"))) &&
        !PathContainsAny(f.path, options_.raw_syscall_dirs)) {
      Add(RuleKind::kRawSyscallIo, f, tok.line,
          "raw " + tok.text +
              "() outside src/storage/; durable I/O must go through "
              "StorageBackend so fault injection and write accounting "
              "cannot be bypassed");
    }

    // check-on-fault-path: DSF_CHECK(...ok()...) in fault-reachable code.
    if (RuleEnabled("check-on-fault-path") &&
        (tok.text == "DSF_CHECK" || tok.text == "DSF_DCHECK") &&
        i + 1 < t.size() && Is(t[i + 1], "(") &&
        PathContainsAny(f.path, options_.fault_dirs)) {
      const size_t close = SkipBalanced(t, i + 1, "(", ")");
      for (size_t k = i + 2; k + 2 < close; ++k) {
        if ((Is(t[k], ".") || Is(t[k], "->")) && Is(t[k + 1], "ok") &&
            Is(t[k + 2], "(")) {
          Add(RuleKind::kCheckOnFaultPath, f, tok.line,
              tok.text + " over a Status in fault-reachable code; "
                         "propagate the error instead of crashing");
          break;
        }
      }
    }

    // no-naked-mutex: std:: synchronization primitives outside the
    // annotated wrapper layer.
    if (strict && RuleEnabled("no-naked-mutex") && tok.text == "std" &&
        i + 2 < t.size() && Is(t[i + 1], "::") && IsIdent(t[i + 2]) &&
        NakedMutexTypes().count(t[i + 2].text) != 0 &&
        !PathContainsAny(f.path, options_.naked_mutex_exempt_dirs)) {
      Add(RuleKind::kNakedMutex, f, tok.line,
          "std::" + t[i + 2].text +
              " bypasses the annotated dsf::Mutex wrappers (and the "
              "deadlock detector)");
    }

    // metric-catalog: raw literals at registration sites...
    if (RuleEnabled("metric-catalog") &&
        (tok.text == "FindOrCreateCounter" ||
         tok.text == "FindOrCreateGauge" ||
         tok.text == "FindOrCreateHistogram") &&
        i + 2 < t.size() && Is(t[i + 1], "(") &&
        t[i + 2].kind == TokKind::kString &&
        !PathContainsAny(f.path, options_.metric_free_dirs)) {
      Add(RuleKind::kUnknownMetricName, f, t[i + 2].line,
          tok.text + " passed a raw string literal; use a k* constant "
                     "from " +
              options_.metric_catalog_basename);
    }
    // ...catalog declarations and kMetric* uses.
    if (StartsWith(tok.text, "kMetric")) {
      if (is_catalog && i + 1 < t.size() && Is(t[i + 1], "[")) {
        db_.metric_constants[tok.text] = {file_index, tok.line};
      } else if (!is_catalog) {
        db_.metric_uses.push_back({tok.text, {file_index, tok.line}});
      }
    }

    // spankind-catalog: exporter bodies must cover every enumerator.
    if (RuleEnabled("spankind-catalog") && tok.text == "SpanKindToString" &&
        i + 1 < t.size() && Is(t[i + 1], "(")) {
      const size_t close = SkipBalanced(t, i + 1, "(", ")");
      if (close < t.size() && Is(t[close], "{")) {
        Db::Exporter exp;
        exp.site = {file_index, tok.line};
        const size_t body_end = SkipBalanced(t, close, "{", "}");
        for (size_t k = close + 1; k + 1 < body_end; ++k) {
          if (IsIdent(t[k])) exp.idents.insert(t[k].text);
        }
        db_.spankind_exporters.push_back(std::move(exp));
      }
    }

    // discarded-status: a Status/StatusOr call as a bare expression
    // statement.
    if (strict && RuleEnabled("discarded-status") &&
        db_.status_fns.count(tok.text) != 0 &&
        db_.nonstatus_fns.count(tok.text) == 0 && i + 1 < t.size() &&
        Is(t[i + 1], "(")) {
      const size_t after = SkipBalanced(t, i + 1, "(", ")");
      if (after < t.size() && Is(t[after], ";")) {
        // Find the start of the full call expression (receiver chain or
        // qualifier), then classify the token before it.
        size_t start = i;
        if (i >= 2 && (Is(t[i - 1], ".") || Is(t[i - 1], "->"))) {
          size_t chain_start = 0;
          if (WalkChain(t, i, &chain_start).empty()) continue;
          start = chain_start;
        } else {
          while (start >= 2 && Is(t[start - 1], "::") &&
                 IsIdent(t[start - 2])) {
            start -= 2;
          }
        }
        // NB: ':' is NOT a boundary — it would misread the else-branch
        // of a ternary whose value is being assigned.
        static const std::set<std::string>* stmt_ends =
            new std::set<std::string>{";", "{", "}", ")", "else", "do"};
        if (start == 0 || stmt_ends->count(t[start - 1].text) != 0) {
          Add(RuleKind::kDiscardedStatus, f, tok.line,
              "result of " + tok.text +
                  "() (Status/StatusOr) is discarded; handle it, "
                  "DSF_RETURN_IF_ERROR it, or pass it to IgnoreStatus()");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Pass 4 — cross-file rules.

void Engine::CatalogRules() {
  if (RuleEnabled("metric-catalog") && db_.has_catalog) {
    for (const auto& [name, site] : db_.metric_uses) {
      if (db_.metric_constants.count(name) != 0) {
        db_.metric_constants_used.insert(name);
      } else {
        Add(RuleKind::kUnknownMetricName,
            files_[static_cast<size_t>(site.file)], site.line,
            "'" + name + "' is not declared in " +
                options_.metric_catalog_basename +
                "; the metric catalog is closed");
      }
    }
    // Stale constants only make sense on a whole-tree scan.
    if (files_.size() > 1) {
      for (const auto& [name, site] : db_.metric_constants) {
        if (db_.metric_constants_used.count(name) == 0) {
          Add(RuleKind::kStaleMetricConstant,
              files_[static_cast<size_t>(site.file)], site.line,
              "catalog constant '" + name +
                  "' is never referenced outside the catalog");
        }
      }
    }
  }

  if (RuleEnabled("spankind-catalog") && !db_.spankind_enumerators.empty()) {
    for (const Db::Exporter& exp : db_.spankind_exporters) {
      const SourceFile& f = files_[static_cast<size_t>(exp.site.file)];
      if (!Strict(f)) continue;
      for (const std::string& e : db_.spankind_enumerators) {
        if (exp.idents.count(e) == 0) {
          Add(RuleKind::kUnhandledSpanKind, f, exp.site.line,
              "SpanKind::" + e + " is not handled in this "
                                 "SpanKindToString exporter");
        }
      }
    }
  }
}

void Engine::LockGraphRules() {
  // Fixed-point propagation of acquired-lock sets through bare-name call
  // summaries (only names with a body in the scan set resolve).
  std::map<std::string, std::vector<FnSummary*>> by_name;
  for (auto& [key, fn] : db_.fns) {
    (void)key;
    fn.all_locks = fn.direct_locks;
    by_name[fn.bare_name].push_back(&fn);
  }
  bool changed = true;
  int rounds = 0;
  while (changed && ++rounds < 32) {
    changed = false;
    for (auto& [key, fn] : db_.fns) {
      (void)key;
      for (const std::string& callee : fn.callees) {
        auto it = by_name.find(callee);
        if (it == by_name.end()) continue;
        for (const FnSummary* target : it->second) {
          for (const std::string& lock : target->all_locks) {
            if (fn.all_locks.insert(lock).second) changed = true;
          }
        }
      }
    }
  }

  // Call-mediated edges: held locks -> anything the callee may acquire.
  for (const CallSite& cs : db_.call_sites) {
    auto it = by_name.find(cs.callee);
    if (it == by_name.end()) continue;
    std::set<std::string> acquired;
    for (const FnSummary* target : it->second) {
      acquired.insert(target->all_locks.begin(), target->all_locks.end());
    }
    for (const std::string& from : cs.held) {
      for (const std::string& to : acquired) {
        if (from != to) RecordEdge(from, to, cs.site, cs.callee);
      }
    }
  }

  // Graph dump (deterministic: the edge map is keyed on (from, to)).
  std::ostringstream dump;
  for (const auto& [key, e] : db_.edges) {
    (void)key;
    dump << e.from << " -> " << e.to;
    if (!e.via.empty()) dump << "  [via call " << e.via << "()]";
    dump << "  (" << files_[static_cast<size_t>(e.site.file)].path << ":"
         << e.site.line << ")\n";
  }
  lock_graph_dump_ = dump.str();

  if (!RuleEnabled("lock-order")) return;

  // Cycle detection over the extracted graph (DFS, white/grey/black).
  std::map<std::string, std::vector<const LockEdge*>> adj;
  std::set<std::string> nodes;
  for (const auto& [key, e] : db_.edges) {
    (void)key;
    adj[e.from].push_back(&e);
    nodes.insert(e.from);
    nodes.insert(e.to);
  }
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::set<std::string> reported_cycles;
  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    color[node] = 1;
    stack.push_back(node);
    for (const LockEdge* e : adj[node]) {
      if (color[e->to] == 1) {
        // Cycle: the stack suffix from e->to, closed by this back edge.
        auto at = std::find(stack.begin(), stack.end(), e->to);
        std::vector<std::string> cycle(at, stack.end());
        auto min_it = std::min_element(cycle.begin(), cycle.end());
        std::string canon;
        for (size_t k = 0; k < cycle.size(); ++k) {
          canon += cycle[(static_cast<size_t>(min_it - cycle.begin()) + k) %
                         cycle.size()] +
                   "|";
        }
        if (reported_cycles.insert(canon).second) {
          std::string path;
          for (const std::string& n : cycle) path += n + " -> ";
          path += e->to;
          const SourceFile& f = files_[static_cast<size_t>(e->site.file)];
          if (Strict(f)) {
            Add(RuleKind::kLockCycle, f, e->site.line,
                "lock acquisition cycle: " + path);
          }
        }
      } else if (color[e->to] == 0) {
        dfs(e->to);
      }
    }
    stack.pop_back();
    color[node] = 2;
  };
  for (const std::string& n : nodes) {
    if (color[n] == 0) dfs(n);
  }

  // Hierarchy conformance, when a hierarchy file is declared.
  if (options_.hierarchy_file.empty()) return;
  std::ifstream in(options_.hierarchy_file);
  if (!in) return;
  std::map<std::string, int> rank;
  std::set<std::string> ordered;
  std::string line;
  int next_rank = 0;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    std::string name, tag;
    if (!(ls >> name)) continue;
    rank[name] = next_rank++;
    if (ls >> tag && tag == "[ordered]") ordered.insert(name);
  }
  for (const auto& [key, e] : db_.edges) {
    (void)key;
    const SourceFile& f = files_[static_cast<size_t>(e.site.file)];
    if (!Strict(f)) continue;
    const std::string via =
        e.via.empty() ? "" : " (via call to " + e.via + "())";
    if (rank.count(e.from) == 0 || rank.count(e.to) == 0) {
      const std::string missing = rank.count(e.from) == 0 ? e.from : e.to;
      Add(RuleKind::kLockOrderViolation, f, e.site.line,
          "lock class " + missing + " is acquired nested" + via +
              " but is not declared in the lock hierarchy (" +
              options_.hierarchy_file + ")");
      continue;
    }
    if (e.from == e.to) {
      if (ordered.count(e.from) == 0) {
        Add(RuleKind::kLockOrderViolation, f, e.site.line,
            "self-nested acquisition of " + e.from + via +
                "; only [ordered] multi-instance locks may nest with "
                "themselves");
      }
      continue;
    }
    if (rank[e.from] > rank[e.to]) {
      Add(RuleKind::kLockOrderViolation, f, e.site.line,
          "acquisition order " + e.from + " -> " + e.to + via +
              " contradicts the declared hierarchy (" + e.to +
              " ranks above " + e.from + ")");
    }
  }
}

// ---------------------------------------------------------------------

LintReport Engine::Run() {
  for (size_t i = 0; i < files_.size(); ++i) ScanFile(static_cast<int>(i));
  for (const BodyJob& job : db_.bodies) AnalyzeBody(job);
  for (size_t i = 0; i < files_.size(); ++i) TokenRules(static_cast<int>(i));
  CatalogRules();
  LockGraphRules();

  report_.files_scanned = static_cast<int>(files_.size());
  std::sort(report_.findings.begin(), report_.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  return report_;
}

}  // namespace

// ---------------------------------------------------------------------

Analyzer::Analyzer(AnalyzerOptions options) : options_(std::move(options)) {}

void Analyzer::AddFile(const std::string& path, const std::string& text) {
  files_.push_back(Lex(path, text));
}

LintReport Analyzer::Run() {
  Engine engine(options_, files_);
  LintReport report = engine.Run();
  lock_graph_dump_ = engine.lock_graph_dump();
  return report;
}

std::string Analyzer::DumpLockGraph() const { return lock_graph_dump_; }

}  // namespace dsflint
