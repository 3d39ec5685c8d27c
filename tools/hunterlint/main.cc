// hunterlint — static checks for HUNTER's determinism invariants.
//
// Usage:
//   hunterlint [--root DIR] [--list-rules] [PATH...]
//
// PATHs (files or directories, default: src tests bench examples) are
// resolved against --root (default: current directory) and scanned for
// .h/.hpp/.cc/.cpp/.cxx files.
//
// Exit status is 0 when the tree is clean, 1 when any unsuppressed
// violation is found — including a PATH that cannot be read, which is
// reported as an `io-error` finding — and 2 on usage errors.

#include <cstdio>
#include <string>
#include <vector>

#include "hunterlint/hunterlint.h"
#include "hunterlint/rules.h"

int main(int argc, char** argv) {
  std::string root = ".";
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hunterlint: --root needs a directory\n");
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--list-rules") {
      for (const std::string& rule : hunter::lint::AllRuleNames()) {
        std::printf("%-28s %s\n", rule.c_str(),
                    hunter::lint::RuleDescription(rule).c_str());
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: hunterlint [--root DIR] [--list-rules] [PATH...]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "hunterlint: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) paths = {"src", "tests", "bench", "examples"};

  const std::vector<std::string> files =
      hunter::lint::CollectFiles(root, paths);
  const std::vector<hunter::lint::Violation> violations =
      hunter::lint::LintTree(root, files);

  for (const hunter::lint::Violation& v : violations) {
    std::fprintf(stderr, "%s\n", hunter::lint::FormatViolation(v).c_str());
  }
  if (violations.empty()) {
    std::printf("hunterlint: %zu files clean\n", files.size());
    return 0;
  }
  std::fprintf(stderr, "hunterlint: %zu violation(s) in %zu files\n",
               violations.size(), files.size());
  return 1;
}
