// dsflint's C++ tokenizer.
//
// dsflint (tools/dsflint/README in docs/ANALYSIS.md) deliberately does
// not depend on libclang: the container that builds and tests this
// repository is GCC-only, and the point of the tool is a lock/status
// discipline gate that runs *everywhere the code compiles*. What the
// rules need is not a full parse — it is a faithful token stream
// (comments, string literals and preprocessor text stripped, so a
// ".RawWrite(" inside a string can never fire the raw-page-io rule
// again) plus enough structure to track scopes, which analyzer.cc
// layers on top.
//
// The lexer keeps comments separately, keyed by line, because the
// project's `lint:allow(<rule>)` escape markers live in comments on or
// just above the offending line.

#ifndef DSF_TOOLS_DSFLINT_LEXER_H_
#define DSF_TOOLS_DSFLINT_LEXER_H_

#include <map>
#include <string>
#include <vector>

namespace dsflint {

enum class TokKind {
  kIdent,    // identifiers and keywords
  kNumber,   // numeric literals
  kString,   // string literal (text includes quotes; raw strings folded)
  kChar,     // character literal
  kPunct,    // operators and punctuation, maximal munch
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;
  int line = 0;
};

struct SourceFile {
  std::string path;
  std::vector<Token> tokens;
  // line -> concatenated comment text on that line (for lint:allow).
  std::map<int, std::string> comments;

  // True when a comment on `line` or within the three lines above it
  // contains `lint:allow(<rule>)` (the marker is often the second line
  // of a two-line comment).
  bool Allowed(const std::string& rule, int line) const;
};

// Tokenizes `text` (the contents of `path`). Never fails: bytes that fit
// no token class are skipped. Preprocessor directives are dropped
// (including line continuations); block and line comments are recorded
// in `comments` and otherwise dropped.
SourceFile Lex(const std::string& path, const std::string& text);

}  // namespace dsflint

#endif  // DSF_TOOLS_DSFLINT_LEXER_H_
