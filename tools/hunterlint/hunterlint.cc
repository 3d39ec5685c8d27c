#include "hunterlint/hunterlint.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "hunterlint/lexer.h"

namespace hunter::lint {

namespace {

// One `hunterlint:` directive parsed out of a comment: `allow(rule)
// reason`, `hot`, or an unknown word, which is reported.
struct Directive {
  std::string verb;
  std::string rule;         // allow(...) only
  int line = 0;             // line the comment starts on
  bool owns_line = false;
  bool has_reason = false;  // allow(...) only
};

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// Parses every `hunterlint: <word>` directive out of a comment. An `allow`
// without a parenthesized rule is ignored, as is a marker followed by no
// word: they read as prose mentioning hunterlint, not as directives.
void ParseDirectives(const Comment& comment, std::vector<Directive>* out) {
  const std::string kMarker = "hunterlint:";
  const std::string& text = comment.text;
  size_t pos = 0;
  while ((pos = text.find(kMarker, pos)) != std::string::npos) {
    pos += kMarker.size();
    const size_t word = std::min(text.find_first_not_of(" \t", pos),
                                 text.size());
    size_t word_end = word;
    while (word_end < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[word_end])) ||
            text[word_end] == '_')) {
      ++word_end;
    }
    if (word_end == word) continue;
    Directive d;
    d.verb = text.substr(word, word_end - word);
    d.line = comment.line;
    d.owns_line = comment.owns_line;
    pos = word_end;
    if (d.verb == "allow") {
      const size_t open = text.find_first_not_of(" \t", word_end);
      if (open == std::string::npos || text[open] != '(') continue;
      const size_t close = text.find(')', open);
      if (close == std::string::npos) continue;
      d.rule = Trim(text.substr(open + 1, close - open - 1));
      // The reason runs to the end of the comment (or the next directive).
      size_t reason_end = text.find(kMarker, close);
      if (reason_end == std::string::npos) reason_end = text.size();
      d.has_reason =
          !Trim(text.substr(close + 1, reason_end - close - 1)).empty();
      pos = close;
    }
    out->push_back(std::move(d));
  }
}

bool IsLintableExtension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp" ||
         ext == ".cxx";
}

// Applies `allow(...)` suppressions, then polices the directives
// themselves, then orders by line.
std::vector<Violation> ApplySuppressions(
    const std::string& rel_path, const std::vector<Directive>& directives,
    const std::vector<Violation>& raw) {
  std::vector<Violation> out;
  for (const Violation& v : raw) {
    bool suppressed = false;
    for (const Directive& d : directives) {
      if (d.verb != "allow" || d.rule != v.rule || !d.has_reason) continue;
      if (d.line == v.line || (d.owns_line && d.line + 1 == v.line)) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) out.push_back(v);
  }

  // Police the directives themselves. These meta findings are never
  // suppressible: an escape hatch only stays trustworthy if every use of
  // it carries a reviewable reason, and a misspelled or unsupported
  // directive must not sit in the tree doing nothing.
  for (const Directive& d : directives) {
    if (d.verb == "hot") continue;
    if (d.verb != "allow") {
      out.push_back({"unknown-rule", rel_path, d.line,
                     "unknown hunterlint directive '" + d.verb +
                         "' — the directives are allow(rule) and hot"});
    } else if (!IsKnownRule(d.rule)) {
      out.push_back({"unknown-rule", rel_path, d.line,
                     "hunterlint annotation names unknown rule '" + d.rule +
                         "' (see hunterlint --list-rules)"});
    } else if (!d.has_reason) {
      out.push_back({"suppression-needs-reason", rel_path, d.line,
                     "hunterlint: allow(" + d.rule +
                         ") must be followed by a written reason"});
    }
  }

  std::stable_sort(
      out.begin(), out.end(),
      [](const Violation& a, const Violation& b) { return a.line < b.line; });
  return out;
}

}  // namespace

std::vector<Violation> LintFile(const std::string& rel_path,
                                const std::string& source) {
  const LexedFile lex = Lex(source);
  std::vector<Directive> directives;
  for (const Comment& comment : lex.comments) {
    ParseDirectives(comment, &directives);
  }
  FileCtx ctx;
  ctx.rel_path = rel_path;
  ctx.lex = &lex;
  const size_t dot = rel_path.find_last_of('.');
  const std::string ext =
      (dot == std::string::npos) ? "" : rel_path.substr(dot);
  ctx.is_header = (ext == ".h" || ext == ".hpp");
  for (const Directive& d : directives) {
    if (d.verb == "hot") {
      ctx.hot_lines.push_back(d.owns_line ? d.line + 1 : d.line);
    }
  }
  return ApplySuppressions(rel_path, directives, RunRules(ctx));
}

std::vector<std::string> CollectFiles(const std::string& root,
                                      const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  const fs::path root_path(root);
  for (const std::string& p : paths) {
    const fs::path abs = fs::path(p).is_absolute() ? fs::path(p)
                                                   : root_path / p;
    std::error_code ec;
    if (fs::is_directory(abs, ec)) {
      for (fs::recursive_directory_iterator it(abs, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file() && IsLintableExtension(it->path())) {
          files.push_back(
              fs::relative(it->path(), root_path).generic_string());
        }
      }
    } else if (fs::is_regular_file(abs, ec)) {
      files.push_back(fs::relative(abs, root_path).generic_string());
    } else {
      // Nonexistent input: surface as-is; LintTree reports the IO error.
      files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

std::vector<Violation> LintTree(const std::string& root,
                                const std::vector<std::string>& rel_paths) {
  std::vector<Violation> out;
  for (const std::string& rel : rel_paths) {
    std::ifstream in(std::filesystem::path(root) / rel, std::ios::binary);
    if (!in) {
      out.push_back({"io-error", rel, 0, "cannot open file"});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::vector<Violation> file = LintFile(rel, buf.str());
    out.insert(out.end(), file.begin(), file.end());
  }
  return out;
}

std::string FormatViolation(const Violation& v) {
  return v.path + ":" + std::to_string(v.line) + ": [" + v.rule + "] " +
         v.message;
}

}  // namespace hunter::lint
