#include "hunterlint/rules.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <unordered_set>
#include <utility>

namespace hunter::lint {

namespace {

using TokenVec = std::vector<Token>;

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

const std::string& TokText(const TokenVec& toks, size_t i) {
  static const std::string kEmpty;
  if (i >= toks.size()) return kEmpty;
  return toks[i].text;
}

bool IsIdent(const TokenVec& toks, size_t i) {
  return i < toks.size() && toks[i].kind == TokKind::kIdentifier;
}

// True when toks[i] is a free-function call: `name(` not reached through
// `.`, `->`, or a non-std `::` qualifier. `std::name(` still counts.
bool IsFreeCall(const TokenVec& toks, size_t i) {
  if (TokText(toks, i + 1) != "(") return false;
  if (i == 0) return true;
  const std::string& prev = toks[i - 1].text;
  if (prev == "." || prev == "->") return false;
  if (prev == "::") {
    return i >= 2 && toks[i - 2].text == "std";
  }
  return true;
}

bool QualifiedStd(const TokenVec& toks, size_t i) {
  return i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "std";
}

// The text of toks[i] when it is punctuation, else "" — so a "{" or ";"
// inside a string or character literal never counts as structure.
const std::string& PunctText(const TokenVec& toks, size_t i) {
  static const std::string kEmpty;
  if (i >= toks.size() || toks[i].kind != TokKind::kPunct) return kEmpty;
  return toks[i].text;
}

// Index of the `)` or `}` closing the bracket at toks[open], or toks.size()
// when it is unbalanced.
size_t MatchClose(const TokenVec& toks, size_t open) {
  const std::string& opener = PunctText(toks, open);
  if (opener != "(" && opener != "{") return toks.size();
  const std::string closer = opener == "(" ? ")" : "}";
  int depth = 0;
  for (size_t j = open; j < toks.size(); ++j) {
    const std::string& t = PunctText(toks, j);
    if (t == opener) ++depth;
    else if (t == closer && --depth == 0) return j;
  }
  return toks.size();
}

// True when `name(` at toks[i] is a function declaration or definition
// rather than a call: the token after the matching `)` is a definition
// body, cv/ref/noexcept qualifier, trailing return, or `= default/delete`.
// Lets a project member accessor legally be named `clock()` or `time()`.
bool LooksLikeFunctionDecl(const TokenVec& toks, size_t i) {
  const std::string& after = TokText(toks, MatchClose(toks, i + 1) + 1);
  return after == "{" || after == "const" || after == "override" ||
         after == "noexcept" || after == "final" || after == "->" ||
         after == "=" || after == "&" || after == "&&";
}

// ---------------------------------------------------------------------------
// no-wall-clock

// Clock sources banned outright wherever they appear as identifiers.
const std::unordered_set<std::string>& BannedClockTypes() {
  static const std::unordered_set<std::string> kSet = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "utc_clock",     "tai_clock",    "gps_clock",
      "file_clock",    "gettimeofday", "clock_gettime",
      "timespec_get",
  };
  return kSet;
}

// C time functions banned in free-call position only, so member functions
// and fields that happen to be called `time` stay legal.
const std::unordered_set<std::string>& BannedClockCalls() {
  static const std::unordered_set<std::string> kSet = {
      "time",   "clock",     "localtime", "gmtime",
      "mktime", "asctime",   "ctime",     "difftime",
  };
  return kSet;
}

void CheckWallClock(const FileCtx& ctx, std::vector<Violation>* out) {
  if (StartsWith(ctx.rel_path, "src/common/sim_clock.")) return;
  const TokenVec& toks = ctx.lex->tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    if (BannedClockTypes().count(toks[i].text)) {
      out->push_back({"no-wall-clock", ctx.rel_path, toks[i].line,
                      "wall-clock source '" + toks[i].text +
                          "' — tuning time must flow through "
                          "common::SimClock"});
    } else if (BannedClockCalls().count(toks[i].text) &&
               IsFreeCall(toks, i) &&
               !(!QualifiedStd(toks, i) && LooksLikeFunctionDecl(toks, i))) {
      out->push_back({"no-wall-clock", ctx.rel_path, toks[i].line,
                      "wall-clock call '" + toks[i].text +
                          "()' — tuning time must flow through "
                          "common::SimClock"});
    }
  }
}

// ---------------------------------------------------------------------------
// no-unseeded-rng

const std::unordered_set<std::string>& RandomEngineTypes() {
  static const std::unordered_set<std::string> kSet = {
      "mt19937",       "mt19937_64",    "default_random_engine",
      "minstd_rand",   "minstd_rand0",  "ranlux24",
      "ranlux48",      "ranlux24_base", "ranlux48_base",
      "knuth_b",
  };
  return kSet;
}

void CheckUnseededRng(const FileCtx& ctx, std::vector<Violation>* out) {
  if (StartsWith(ctx.rel_path, "src/common/rng.")) return;
  const TokenVec& toks = ctx.lex->tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    const std::string& text = toks[i].text;

    if (text == "random_device") {
      out->push_back({"no-unseeded-rng", ctx.rel_path, toks[i].line,
                      "std::random_device is nondeterministic — derive "
                      "seeds from common::Rng::Fork()"});
      continue;
    }
    if ((text == "rand" || text == "srand" || text == "drand48" ||
         text == "lrand48" || text == "srand48") &&
        IsFreeCall(toks, i)) {
      out->push_back({"no-unseeded-rng", ctx.rel_path, toks[i].line,
                      "'" + text + "()' bypasses the seeded common::Rng"});
      continue;
    }
    if (RandomEngineTypes().count(text)) {
      // Flag default construction only: `mt19937 g;`, `mt19937 g{};`,
      // `mt19937 g();`, or a default-constructed temporary. Seeded uses
      // and references/pointers to an engine are legal.
      size_t j = i + 1;
      const std::string& next = TokText(toks, j);
      bool flagged = false;
      if (next == "(" || next == "{") {
        const std::string closer = (next == "(") ? ")" : "}";
        flagged = TokText(toks, j + 1) == closer;
      } else if (IsIdent(toks, j)) {
        const std::string& after = TokText(toks, j + 1);
        flagged = after == ";" ||
                  (after == "{" && TokText(toks, j + 2) == "}") ||
                  (after == "(" && TokText(toks, j + 2) == ")");
      }
      if (flagged) {
        out->push_back({"no-unseeded-rng", ctx.rel_path, toks[i].line,
                        "default-constructed std::" + text +
                            " is unseeded — use common::Rng (or seed "
                            "explicitly from a forked Rng stream)"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// no-naked-thread

void CheckNakedThread(const FileCtx& ctx, std::vector<Violation>* out) {
  if (StartsWith(ctx.rel_path, "src/common/thread_pool.")) return;
  const TokenVec& toks = ctx.lex->tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    const std::string& text = toks[i].text;
    if ((text == "thread" || text == "jthread") && QualifiedStd(toks, i)) {
      // `std::thread::hardware_concurrency()` (and other statics/nested
      // types) query the platform without spawning; only the object itself
      // is a rogue execution agent.
      if (TokText(toks, i + 1) == "::") continue;
      out->push_back({"no-naked-thread", ctx.rel_path, toks[i].line,
                      "std::" + text +
                          " outside common::ThreadPool — parallel sections "
                          "must go through the pool to keep deterministic "
                          "work order"});
    } else if (text == "async" && QualifiedStd(toks, i)) {
      out->push_back({"no-naked-thread", ctx.rel_path, toks[i].line,
                      "std::async outside common::ThreadPool — parallel "
                      "sections must go through the pool"});
    } else if ((text == "pthread_create" || text == "pthread_detach") &&
               IsFreeCall(toks, i)) {
      out->push_back({"no-naked-thread", ctx.rel_path, toks[i].line,
                      "'" + text + "' outside common::ThreadPool"});
    }
  }
}

// ---------------------------------------------------------------------------
// no-unordered-iteration-emit

const std::unordered_set<std::string>& UnorderedContainerTypes() {
  static const std::unordered_set<std::string> kSet = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kSet;
}

// Output sinks whose presence marks a file as producing ordered output.
const std::unordered_set<std::string>& EmitSinks() {
  static const std::unordered_set<std::string> kSet = {
      "printf", "fprintf", "puts",     "fputs",        "fwrite",
      "cout",   "cerr",    "ofstream", "TablePrinter",
  };
  return kSet;
}

// Advances past a balanced template argument list starting at toks[i]=="<".
// Returns the index just after the closing ">". `>>` closes two levels.
size_t SkipTemplateArgs(const TokenVec& toks, size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "<") depth += 1;
    else if (t == ">") depth -= 1;
    else if (t == ">>") depth -= 2;
    else if (t == ";") return i;  // malformed; bail out
    if (depth <= 0) return i + 1;
  }
  return i;
}

void CheckUnorderedIterationEmit(const FileCtx& ctx,
                                 std::vector<Violation>* out) {
  const TokenVec& toks = ctx.lex->tokens;

  bool emits = false;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kIdentifier && EmitSinks().count(t.text)) {
      emits = true;
      break;
    }
  }
  if (!emits) return;

  // Pass 1: names whose iteration order is unordered — type aliases of
  // unordered containers and variables/members declared with them.
  std::unordered_set<std::string> unordered_aliases;
  std::unordered_set<std::string> unordered_vars;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    const std::string& text = toks[i].text;
    if (text == "using" && IsIdent(toks, i + 1) &&
        TokText(toks, i + 2) == "=") {
      for (size_t j = i + 3; j < toks.size() && toks[j].text != ";"; ++j) {
        if (UnorderedContainerTypes().count(toks[j].text)) {
          unordered_aliases.insert(toks[i + 1].text);
          break;
        }
      }
    } else if (text == "typedef") {
      size_t j = i + 1;
      bool unordered = false;
      while (j < toks.size() && toks[j].text != ";") {
        if (UnorderedContainerTypes().count(toks[j].text)) unordered = true;
        ++j;
      }
      if (unordered && j > i + 1 && IsIdent(toks, j - 1)) {
        unordered_aliases.insert(toks[j - 1].text);
      }
    }
  }
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    if (!UnorderedContainerTypes().count(toks[i].text) &&
        !unordered_aliases.count(toks[i].text)) {
      continue;
    }
    size_t j = i + 1;
    if (TokText(toks, j) == "<") j = SkipTemplateArgs(toks, j);
    while (TokText(toks, j) == "*" || TokText(toks, j) == "&" ||
           TokText(toks, j) == "&&" || TokText(toks, j) == "const") {
      ++j;
    }
    while (IsIdent(toks, j)) {
      unordered_vars.insert(toks[j].text);
      if (TokText(toks, j + 1) != ",") break;
      j += 2;
    }
  }
  if (unordered_vars.empty() && unordered_aliases.empty()) return;

  // Pass 2: range-for statements whose range expression names one of them.
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier || toks[i].text != "for" ||
        toks[i + 1].text != "(") {
      continue;
    }
    int depth = 0;
    size_t colon = 0, close = 0;
    for (size_t j = i + 1; j < toks.size(); ++j) {
      const std::string& t = toks[j].text;
      if (t == "(") ++depth;
      else if (t == ")") {
        --depth;
        if (depth == 0) { close = j; break; }
      } else if (t == ":" && depth == 1 && colon == 0) {
        colon = j;
      } else if (t == ";" && depth == 1) {
        colon = 0;  // classic for loop
        break;
      }
    }
    if (colon == 0 || close == 0) continue;
    for (size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind != TokKind::kIdentifier) continue;
      if (unordered_vars.count(toks[j].text) ||
          unordered_aliases.count(toks[j].text) ||
          UnorderedContainerTypes().count(toks[j].text)) {
        out->push_back(
            {"no-unordered-iteration-emit", ctx.rel_path, toks[i].line,
             "range-for over unordered container '" + toks[j].text +
                 "' in a file that produces ordered output — iterate a "
                 "sorted key list (or use an ordered container) so emitted "
                 "output is deterministic"});
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// journal-emit-through-obs

// A string literal that spells out a journal record by hand. The lexer
// keeps escape backslashes in the token text, so the `"type"` key appears
// either raw (inside a raw string literal) or as \"type\" (inside an
// ordinary literal); match both spellings.
bool ContainsJournalMarker(const std::string& s) {
  static const char* kRecordTypes[] = {"span", "event", "metrics", "meta"};
  for (const char* type : kRecordTypes) {
    if (s.find(std::string("\"type\":\"") + type + "\"") !=
        std::string::npos) {
      return true;
    }
    if (s.find(std::string("\\\"type\\\":\\\"") + type + "\\\"") !=
        std::string::npos) {
      return true;
    }
  }
  return s.find("hunter.journal") != std::string::npos;
}

void CheckJournalEmit(const FileCtx& ctx, std::vector<Violation>* out) {
  // The obs layer is the one legitimate producer of journal bytes.
  if (StartsWith(ctx.rel_path, "src/obs/")) return;
  const TokenVec& toks = ctx.lex->tokens;
  for (const Token& t : toks) {
    if (t.kind != TokKind::kString) continue;
    if (ContainsJournalMarker(t.text)) {
      out->push_back(
          {"journal-emit-through-obs", ctx.rel_path, t.line,
           "hand-rolled journal record bytes — emit through obs::Journal "
           "(and parse through obs::ParseJournal) so the schema and "
           "byte-stability contract stay in one place"});
    }
  }
}

// ---------------------------------------------------------------------------
// Loop bodies, shared by the two allocation-in-loop rules

// Token ranges [first, last] of the bodies of the for, while and do loops
// whose keyword lies in [from, to): a braced block up to its `}`, or a
// single statement up to its `;`. Nested loops give nested ranges (callers
// dedupe their findings), and the `while (...)` ending a do loop gives an
// empty one.
std::vector<std::pair<size_t, size_t>> LoopBodies(const TokenVec& toks,
                                                  size_t from, size_t to) {
  std::vector<std::pair<size_t, size_t>> bodies;
  for (size_t i = from; i < to; ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    const std::string& t = toks[i].text;
    size_t first;
    if ((t == "for" || t == "while") && PunctText(toks, i + 1) == "(") {
      first = MatchClose(toks, i + 1) + 1;
    } else if (t == "do" && PunctText(toks, i + 1) == "{") {
      first = i + 1;
    } else {
      continue;
    }
    size_t last = first;
    if (PunctText(toks, first) == "{") {
      last = MatchClose(toks, first);
    } else {
      while (last < toks.size() && PunctText(toks, last) != ";") ++last;
    }
    if (last < toks.size()) bodies.emplace_back(first, last);
  }
  return bodies;
}

// ---------------------------------------------------------------------------
// no-matrix-row-copy-in-loop

// linalg::Matrix::Row() allocates a fresh std::vector per call; inside a
// loop body in the ml/linalg hot paths that is an O(iterations) allocation
// churn the non-allocating RowView/RowSpan exists to avoid. The directory
// scope is substring-matched ("src/ml/", "src/linalg/") so test fixtures
// that mirror the tree under testdata/ stay in scope.
void CheckNoMatrixRowCopyInLoop(const FileCtx& ctx,
                                std::vector<Violation>* out) {
  if (ctx.rel_path.find("src/ml/") == std::string::npos &&
      ctx.rel_path.find("src/linalg/") == std::string::npos) {
    return;
  }
  const TokenVec& toks = ctx.lex->tokens;
  // Token indices already flagged — a `.Row(` inside nested loops falls in
  // several bodies but must be reported once.
  std::unordered_set<size_t> flagged;
  for (const auto& [first, last] : LoopBodies(toks, 0, toks.size())) {
    for (size_t j = first; j + 2 <= last; ++j) {
      if ((toks[j].text == "." || toks[j].text == "->") &&
          TokText(toks, j + 1) == "Row" && IsIdent(toks, j + 1) &&
          TokText(toks, j + 2) == "(" && flagged.insert(j + 1).second) {
        out->push_back(
            {"no-matrix-row-copy-in-loop", ctx.rel_path, toks[j + 1].line,
             "Matrix::Row() allocates a fresh vector every iteration — use "
             "the non-allocating RowView()/RowSpan in hot loops, or hoist "
             "the copy out of the loop"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// no-alloc-in-hot-loop

struct HotFunction {
  std::string name;
  size_t body_first = 0;  // the body's `{`
  size_t body_last = 0;   // its matching `}`
};

// The function definition a `// hunterlint: hot` directive targeting `line`
// attaches to. The definition starts with the first token on that line, and
// its body is the first `{` after a closed `(...)` and before any `;`. A
// directive on a declaration, a class or namespace, or quoted in prose
// attaches to nothing. The directive must sit on the definition: one on a
// header declaration does not reach a body in another file.
std::optional<HotFunction> HotFunctionAt(const TokenVec& toks, int line) {
  const auto start = std::lower_bound(
      toks.begin(), toks.end(), line,
      [](const Token& t, int l) { return t.line < l; });
  if (start == toks.end() || start->line != line) return std::nullopt;
  HotFunction fn;
  int depth = 0;
  bool closed_parens = false;
  for (size_t i = static_cast<size_t>(start - toks.begin()); i < toks.size();
       ++i) {
    const std::string& t = PunctText(toks, i);
    if (t == "(") {
      if (depth++ == 0 && fn.name.empty() && i > 0 && IsIdent(toks, i - 1)) {
        fn.name = toks[i - 1].text;
      }
    } else if (t == ")") {
      if (--depth < 0) return std::nullopt;
      closed_parens = true;
    } else if (depth == 0 && (t == ";" || t == "}")) {
      return std::nullopt;
    } else if (depth == 0 && t == "{") {
      if (!closed_parens) return std::nullopt;
      fn.body_first = i;
      fn.body_last = MatchClose(toks, i);
      if (fn.body_last == toks.size()) return std::nullopt;
      return fn;
    }
  }
  return std::nullopt;
}

// Allocation inside a loop of a hot function: `new`, a `.`/`->` call of
// push_back/emplace_back/resize, or a std::vector constructed (not a
// reference or pointer to one, and not a nested name like vector<T>::size).
void CheckNoAllocInHotLoop(const FileCtx& ctx, std::vector<Violation>* out) {
  const TokenVec& toks = ctx.lex->tokens;
  std::unordered_set<size_t> flagged;
  for (const int line : ctx.hot_lines) {
    const std::optional<HotFunction> fn = HotFunctionAt(toks, line);
    if (!fn) continue;
    for (const auto& [first, last] :
         LoopBodies(toks, fn->body_first, fn->body_last)) {
      for (size_t i = first; i < last; ++i) {
        if (toks[i].kind != TokKind::kIdentifier) continue;
        const std::string& t = toks[i].text;
        std::string what;
        if (t == "new") {
          what = "'new'";
        } else if ((t == "push_back" || t == "emplace_back" ||
                    t == "resize") &&
                   i > first &&
                   (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
                   TokText(toks, i + 1) == "(") {
          what = "'" + t + "'";
        } else if (t == "vector" && TokText(toks, i + 1) == "<") {
          const std::string& after =
              TokText(toks, SkipTemplateArgs(toks, i + 1));
          if (after != "&" && after != "*" && after != "::") {
            what = "std::vector construction";
          }
        }
        if (what.empty() || !flagged.insert(i).second) continue;
        out->push_back(
            {"no-alloc-in-hot-loop", ctx.rel_path, toks[i].line,
             what + " inside a loop of '" + fn->name +
                 "' which is annotated '// hunterlint: hot' — hot paths "
                 "must not allocate per iteration; hoist the buffer out of "
                 "the loop"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// no-raw-intrinsics-outside-simd

// An x86 vector intrinsic or register-type identifier: _mm_*, _mm256_*,
// _mm512_*, __m128/__m256d/__m512i, ... The prefix check keeps ordinary
// identifiers like _mmap_size or __members out of scope.
bool IsRawSimdToken(const std::string& t) {
  if (t.size() > 3 && t.compare(0, 3, "_mm") == 0 &&
      (t[3] == '_' || (t[3] >= '0' && t[3] <= '9'))) {
    return true;
  }
  if (t.size() > 3 && t.compare(0, 3, "__m") == 0 && t[3] >= '0' &&
      t[3] <= '9') {
    return true;
  }
  return false;
}

// Vector code is quarantined: kernels live in src/linalg/simd/; everything
// else calls the dispatched linalg::simd entry points. The path is
// substring-matched so test fixtures that mirror the tree under testdata/
// stay in scope.
void CheckRawIntrinsics(const FileCtx& ctx, std::vector<Violation>* out) {
  if (ctx.rel_path.find("src/linalg/simd/") != std::string::npos) return;
  for (const Token& t : ctx.lex->tokens) {
    if (t.kind != TokKind::kIdentifier) continue;
    if (IsRawSimdToken(t.text)) {
      out->push_back(
          {"no-raw-intrinsics-outside-simd", ctx.rel_path, t.line,
           "raw SIMD token '" + t.text +
               "' — vector kernels are quarantined in src/linalg/simd/; "
               "call the dispatched linalg::simd entry points instead"});
    }
  }
}

// ---------------------------------------------------------------------------
// header hygiene

void CheckHeaderGuard(const FileCtx& ctx, std::vector<Violation>* out) {
  const TokenVec& toks = ctx.lex->tokens;
  if (toks.empty()) return;
  if (TokText(toks, 0) == "#" && TokText(toks, 1) == "pragma" &&
      TokText(toks, 2) == "once") {
    return;
  }
  if (TokText(toks, 0) == "#" && TokText(toks, 1) == "ifndef" &&
      IsIdent(toks, 2) && TokText(toks, 3) == "#" &&
      TokText(toks, 4) == "define") {
    if (TokText(toks, 5) == TokText(toks, 2)) return;
    out->push_back({"header-guard", ctx.rel_path, toks[4].line,
                    "include guard #define '" + TokText(toks, 5) +
                        "' does not match #ifndef '" + TokText(toks, 2) +
                        "'"});
    return;
  }
  out->push_back({"header-guard", ctx.rel_path, toks[0].line,
                  "header must start with '#pragma once' or a matched "
                  "#ifndef/#define include guard"});
}

void CheckUsingNamespaceHeader(const FileCtx& ctx,
                               std::vector<Violation>* out) {
  const TokenVec& toks = ctx.lex->tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kIdentifier && toks[i].text == "using" &&
        toks[i + 1].text == "namespace") {
      out->push_back({"no-using-namespace-header", ctx.rel_path,
                      toks[i].line,
                      "'using namespace' in a header leaks into every "
                      "includer — qualify names instead"});
    }
  }
}

void CheckIncludeStyle(const FileCtx& ctx, std::vector<Violation>* out) {
  for (const IncludeDirective& inc : ctx.lex->includes) {
    if (inc.path.find("..") != std::string::npos) {
      out->push_back({"include-style", ctx.rel_path, inc.line,
                      "#include path '" + inc.path +
                          "' uses '..' — include source-root-relative "
                          "paths instead"});
      continue;
    }
    if (inc.angled) continue;
    if (!inc.path.empty() && inc.path.front() == '/') {
      out->push_back({"include-style", ctx.rel_path, inc.line,
                      "#include path '" + inc.path + "' is absolute"});
    } else if (inc.path.find('/') == std::string::npos) {
      out->push_back({"include-style", ctx.rel_path, inc.line,
                      "#include \"" + inc.path +
                          "\" is not source-root-relative — spell it as "
                          "\"<dir>/" +
                          inc.path + "\""});
    }
  }
}

}  // namespace

const std::vector<std::string>& AllRuleNames() {
  static const std::vector<std::string> kNames = {
      "no-wall-clock",
      "no-unseeded-rng",
      "no-naked-thread",
      "no-unordered-iteration-emit",
      "journal-emit-through-obs",
      "no-matrix-row-copy-in-loop",
      "no-raw-intrinsics-outside-simd",
      "no-alloc-in-hot-loop",
      "header-guard",
      "no-using-namespace-header",
      "include-style",
  };
  return kNames;
}

std::string RuleDescription(const std::string& rule) {
  if (rule == "no-wall-clock") {
    return "bans system_clock/steady_clock/time()/... outside "
           "common/sim_clock.* (time must flow through common::SimClock)";
  }
  if (rule == "no-unseeded-rng") {
    return "bans std::random_device, rand(), and default-constructed "
           "engines outside common/rng.* (randomness flows through "
           "common::Rng)";
  }
  if (rule == "no-naked-thread") {
    return "bans std::thread/std::async outside common/thread_pool.* "
           "(parallelism flows through common::ThreadPool)";
  }
  if (rule == "no-unordered-iteration-emit") {
    return "flags range-for over unordered containers in files that "
           "produce ordered output";
  }
  if (rule == "journal-emit-through-obs") {
    return "flags string literals that hand-roll run-journal records "
           "(\"type\":\"span\"/... or the hunter.journal schema tag) "
           "outside src/obs/ — journal bytes must go through obs::Journal";
  }
  if (rule == "no-matrix-row-copy-in-loop") {
    return "flags allocating Matrix::Row() calls inside loop bodies "
           "under src/ml/ and src/linalg/ — hot loops take the "
           "non-allocating RowView()/RowSpan instead";
  }
  if (rule == "no-raw-intrinsics-outside-simd") {
    return "bans raw vector intrinsics and register types (_mm*/__m128/"
           "__m256d/...) outside src/linalg/simd/ — hot paths call the "
           "runtime-dispatched linalg::simd kernels";
  }
  if (rule == "no-alloc-in-hot-loop") {
    return "bans new/push_back/emplace_back/resize/std::vector "
           "construction inside loops of functions annotated "
           "'// hunterlint: hot'";
  }
  if (rule == "header-guard") {
    return "headers must start with #pragma once or a matched "
           "#ifndef/#define guard";
  }
  if (rule == "no-using-namespace-header") {
    return "bans 'using namespace' in headers";
  }
  if (rule == "include-style") {
    return "quoted includes must be source-root-relative "
           "(\"dir/file.h\"), never \"file.h\", \"../x.h\", or absolute";
  }
  return "";
}

bool IsKnownRule(const std::string& rule) {
  const std::vector<std::string>& names = AllRuleNames();
  return std::find(names.begin(), names.end(), rule) != names.end() ||
         rule == "suppression-needs-reason" || rule == "unknown-rule";
}

std::vector<Violation> RunRules(const FileCtx& ctx) {
  std::vector<Violation> out;
  CheckWallClock(ctx, &out);
  CheckUnseededRng(ctx, &out);
  CheckNakedThread(ctx, &out);
  CheckUnorderedIterationEmit(ctx, &out);
  CheckJournalEmit(ctx, &out);
  CheckNoMatrixRowCopyInLoop(ctx, &out);
  CheckRawIntrinsics(ctx, &out);
  CheckNoAllocInHotLoop(ctx, &out);
  if (ctx.is_header) {
    CheckHeaderGuard(ctx, &out);
    CheckUsingNamespaceHeader(ctx, &out);
  }
  CheckIncludeStyle(ctx, &out);
  std::stable_sort(
      out.begin(), out.end(),
      [](const Violation& a, const Violation& b) { return a.line < b.line; });
  return out;
}

}  // namespace hunter::lint
