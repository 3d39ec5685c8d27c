// hunterlint driver: lint files, apply suppression annotations, walk trees.
//
// Two directives are matched inside any comment. The suppression
//
//   // hunterlint: allow(rule-name) reason the violation is intentional
//
// suppresses `rule-name` on its own line; when the comment is alone on its
// line it suppresses the immediately following line instead. The reason
// text is mandatory — an annotation without one is itself reported (rule
// `suppression-needs-reason`), as is an annotation naming a rule that does
// not exist (rule `unknown-rule`). The marker
//
//   // hunterlint: hot
//
// on a function definition's first line, or alone on the line above it,
// puts the function's loops under rule `no-alloc-in-hot-loop`. Any other
// word after `hunterlint:` is reported as `unknown-rule`. The two meta
// rules cannot be suppressed.

#ifndef HUNTER_TOOLS_HUNTERLINT_HUNTERLINT_H_
#define HUNTER_TOOLS_HUNTERLINT_HUNTERLINT_H_

#include <string>
#include <vector>

#include "hunterlint/rules.h"

namespace hunter::lint {

// Lints a single in-memory file. `rel_path` selects per-path rule
// exemptions (e.g. src/common/sim_clock.*) and is echoed into violations.
std::vector<Violation> LintFile(const std::string& rel_path,
                                const std::string& source);

// Recursively collects lintable files (.h .hpp .cc .cpp .cxx) under each of
// `paths` (files are taken as-is), resolved against `root`. The returned
// repo-relative paths are sorted so reports and exit codes are stable
// across filesystems.
std::vector<std::string> CollectFiles(const std::string& root,
                                      const std::vector<std::string>& paths);

// Lints files on disk (repo-relative paths, resolved against root), one
// LintFile call each. IO errors are reported as violations of pseudo-rule
// "io-error".
std::vector<Violation> LintTree(const std::string& root,
                                const std::vector<std::string>& rel_paths);

// "path:line: [rule] message" — the single line format printed per finding.
std::string FormatViolation(const Violation& v);

}  // namespace hunter::lint

#endif  // HUNTER_TOOLS_HUNTERLINT_HUNTERLINT_H_
