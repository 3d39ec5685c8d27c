// hunterlint rule definitions.
//
// Each rule is a named, individually suppressible check over a lexed file.
// The rules encode project invariants that the compiler cannot see but that
// HUNTER's reproducibility contract depends on (see DESIGN.md §9):
//
//   no-wall-clock              all time flows through common::SimClock
//   no-unseeded-rng            all randomness flows through common::Rng
//   no-naked-thread            all parallelism flows through common::ThreadPool
//   no-unordered-iteration-emit  files that produce ordered output must not
//                              range-for over unordered containers
//   journal-emit-through-obs   run-journal bytes are produced only by
//                              src/obs/
//   no-matrix-row-copy-in-loop  ml/linalg hot loops must not call the
//                              allocating Matrix::Row() per iteration —
//                              they take the non-allocating RowView/RowSpan
//   no-raw-intrinsics-outside-simd  vector intrinsics stay in
//                              src/linalg/simd/
//   no-alloc-in-hot-loop       no new/push_back/resize/vector construction
//                              in loops of functions annotated
//                              `// hunterlint: hot`
//   header-guard               headers carry #pragma once or a matched
//                              #ifndef/#define include guard
//   no-using-namespace-header  headers must not inject namespaces
//   include-style              quoted includes are source-root-relative
//                              ("dir/file.h"), never "file.h", "../x.h",
//                              or absolute
//
// Two meta rules police the directives themselves and cannot be
// suppressed: suppression-needs-reason and unknown-rule.

#ifndef HUNTER_TOOLS_HUNTERLINT_RULES_H_
#define HUNTER_TOOLS_HUNTERLINT_RULES_H_

#include <string>
#include <vector>

#include "hunterlint/lexer.h"

namespace hunter::lint {

struct Violation {
  std::string rule;
  std::string path;  // repo-relative, forward slashes
  int line = 0;
  std::string message;
};

struct FileCtx {
  std::string rel_path;  // repo-relative, forward slashes
  const LexedFile* lex = nullptr;
  bool is_header = false;
  // Target lines of the file's `// hunterlint: hot` directives (the
  // comment's own line, or the next one when the comment is alone on its
  // line); no-alloc-in-hot-loop checks the definitions starting there.
  std::vector<int> hot_lines;
};

// Names of all substantive rules, in reporting order. Does not include the
// meta rules (which exist only to police annotations).
const std::vector<std::string>& AllRuleNames();

// One-line description for --list-rules; empty string for unknown names.
std::string RuleDescription(const std::string& rule);

// True for substantive rules and meta rules alike (valid in allow(...)
// only for substantive ones, but recognized so the error is precise).
bool IsKnownRule(const std::string& rule);

// Runs every rule over the file. Suppressions are NOT applied here; the
// driver matches them against annotations.
std::vector<Violation> RunRules(const FileCtx& ctx);

}  // namespace hunter::lint

#endif  // HUNTER_TOOLS_HUNTERLINT_RULES_H_
