// Unit and golden-fixture tests for hunterlint.
//
// The inline tests pin each rule's firing conditions and the suppression
// semantics; the fixture tests pin exact (rule, line) pairs against the
// checked-in files under testdata/ so the whole pipeline (lexer → rules →
// suppression → reporting) is covered end to end.

#include "hunterlint/hunterlint.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hunterlint/lexer.h"
#include "hunterlint/rules.h"

namespace hunter::lint {
namespace {

using RuleLine = std::pair<std::string, int>;

std::vector<RuleLine> RulesAndLines(const std::vector<Violation>& vs) {
  std::vector<RuleLine> out;
  out.reserve(vs.size());
  for (const Violation& v : vs) out.emplace_back(v.rule, v.line);
  return out;
}

// --------------------------------------------------------------------------
// Lexer

TEST(LexerTest, SkipsStringContentsAndRecordsComments) {
  const LexedFile lexed = Lex(
      "int x = 1; // trailing note\n"
      "const char* s = \"std::thread steady_clock rand()\";\n"
      "/* block\n   comment */ int y = 2;\n");
  for (const Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "steady_clock") << "banned names in strings must not "
                                         "surface as identifier tokens";
  }
  ASSERT_EQ(lexed.comments.size(), 2u);
  EXPECT_EQ(lexed.comments[0].text, " trailing note");
  EXPECT_FALSE(lexed.comments[0].owns_line);
  EXPECT_EQ(lexed.comments[1].line, 3);
  EXPECT_TRUE(lexed.comments[1].owns_line);
}

TEST(LexerTest, CapturesIncludeDirectives) {
  const LexedFile lexed = Lex(
      "#include <vector>\n"
      "#include \"common/rng.h\"\n");
  ASSERT_EQ(lexed.includes.size(), 2u);
  EXPECT_EQ(lexed.includes[0].path, "vector");
  EXPECT_TRUE(lexed.includes[0].angled);
  EXPECT_EQ(lexed.includes[1].path, "common/rng.h");
  EXPECT_FALSE(lexed.includes[1].angled);
  EXPECT_EQ(lexed.includes[1].line, 2);
}

TEST(LexerTest, KeepsScopeResolutionAsOneToken) {
  const LexedFile lexed = Lex("a::b c : d\n");
  std::vector<std::string> texts;
  for (const Token& t : lexed.tokens) texts.push_back(t.text);
  EXPECT_EQ(texts, (std::vector<std::string>{"a", "::", "b", "c", ":", "d"}));
}

TEST(LexerTest, RawStringContentsDoNotLexAsTokens) {
  const LexedFile lexed = Lex(
      "const char* s = R\"(std::thread \"quoted\" \\n)\";\n"
      "int after = 1;\n");
  for (const Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "thread") << "raw string interior leaked into tokens";
  }
  // The literal's value is the verbatim interior, backslashes included.
  bool found = false;
  for (const Token& t : lexed.tokens) {
    if (t.kind == TokKind::kString) {
      EXPECT_EQ(t.text, "std::thread \"quoted\" \\n");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LexerTest, RawStringDelimiterAndLineNumbers) {
  const LexedFile lexed = Lex(
      "auto s = R\"x(contains )\" inside)x\";\n"
      "auto t = R\"(line one\nline two)\";\n"
      "int after = 1;\n");
  // `after` sits on line 4: the second raw literal spans lines 2-3.
  bool saw_after = false;
  for (const Token& t : lexed.tokens) {
    if (t.text == "after") {
      saw_after = true;
      EXPECT_EQ(t.line, 4);
    }
  }
  EXPECT_TRUE(saw_after);
}

TEST(LexerTest, RawStringPrefixMustBeAdjacent) {
  // `R "x"` (space) and `FooR"x"` are ordinary literals, not raw ones: a
  // raw parse would run off looking for )x" and swallow the rest.
  const LexedFile a = Lex("auto v = R \"x\"; int tail = 1;\n");
  const LexedFile b = Lex("auto v = FooR\"x\"; int tail = 1;\n");
  for (const LexedFile* f : {&a, &b}) {
    bool saw_tail = false;
    for (const Token& t : f->tokens) saw_tail |= t.text == "tail";
    EXPECT_TRUE(saw_tail);
  }
}

TEST(LexerTest, DigitSeparatorsStayOneNumber) {
  const LexedFile lexed = Lex("long n = 1'000'000; int k = 0xFF'00;\n");
  std::vector<std::string> numbers;
  for (const Token& t : lexed.tokens) {
    if (t.kind == TokKind::kNumber) numbers.push_back(t.text);
  }
  EXPECT_EQ(numbers, (std::vector<std::string>{"1'000'000", "0xFF'00"}));
}

TEST(LexerTest, LineSplicesJoinIdentifiersAndComments) {
  // `ab\<newline>c` is the single identifier abc, reported on its first
  // line; a // comment ending in a backslash continues onto the next line,
  // so `int swallowed` is comment text, not code.
  const LexedFile lexed = Lex(
      "int ab\\\nc = 1;\n"
      "// trailing splice \\\nint swallowed = 2;\n"
      "int after = 3;\n");
  bool saw_joined = false;
  for (const Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "swallowed");
    if (t.text == "abc") {
      saw_joined = true;
      EXPECT_EQ(t.line, 1);
    }
    if (t.text == "after") {
      EXPECT_EQ(t.line, 5);
    }
  }
  EXPECT_TRUE(saw_joined);
  ASSERT_EQ(lexed.comments.size(), 1u);
  EXPECT_NE(lexed.comments[0].text.find("swallowed"),
            std::string::npos);
}

TEST(LexerTest, SpliceInsideStringAdvancesLineCounter) {
  const LexedFile lexed = Lex(
      "const char* s = \"split \\\nacross lines\";\n"
      "int after = 1;\n");
  for (const Token& t : lexed.tokens) {
    if (t.text == "after") {
      EXPECT_EQ(t.line, 3);
    }
    if (t.kind == TokKind::kString) {
      // The splice itself is not part of the value.
      EXPECT_EQ(t.text, "split across lines");
    }
  }
}

// --------------------------------------------------------------------------
// no-wall-clock

TEST(NoWallClockTest, FlagsClockSourcesAndFreeTimeCalls) {
  const std::vector<Violation> vs = LintFile(
      "src/cdb/engine.cc",
      "#include <chrono>\n"
      "auto a = std::chrono::steady_clock::now();\n"
      "auto b = time(nullptr);\n");
  EXPECT_EQ(RulesAndLines(vs),
            (std::vector<RuleLine>{{"no-wall-clock", 2}, {"no-wall-clock", 3}}));
}

TEST(NoWallClockTest, MemberAndQualifiedTimeCallsAreLegal) {
  const std::vector<Violation> vs = LintFile(
      "src/cdb/engine.cc",
      "double t1 = clock.time();\n"
      "double t2 = Budget::time(3);\n"
      "double time = 0.0;\n"
      "const common::SimClock& clock() const { return clock_; }\n"
      "double time() override;\n");
  EXPECT_TRUE(vs.empty()) << FormatViolation(vs.front());
}

TEST(NoWallClockTest, SimClockItselfIsExempt) {
  const std::vector<Violation> vs = LintFile(
      "src/common/sim_clock.h",
      "#pragma once\n"
      "// may mention steady_clock semantics in real code\n"
      "inline double Now() { return static_cast<double>(time(nullptr)); }\n");
  EXPECT_TRUE(vs.empty()) << FormatViolation(vs.front());
}

// --------------------------------------------------------------------------
// no-unseeded-rng

TEST(NoUnseededRngTest, FlagsDeviceRandAndDefaultEngines) {
  const std::vector<Violation> vs = LintFile(
      "src/ml/foo.cc",
      "std::random_device rd;\n"
      "int r = rand();\n"
      "std::mt19937 gen;\n"
      "std::mt19937 temp{};\n");
  EXPECT_EQ(RulesAndLines(vs), (std::vector<RuleLine>{{"no-unseeded-rng", 1},
                                                      {"no-unseeded-rng", 2},
                                                      {"no-unseeded-rng", 3},
                                                      {"no-unseeded-rng", 4}}));
}

TEST(NoUnseededRngTest, SeededEnginesAndReferencesAreLegal) {
  const std::vector<Violation> vs = LintFile(
      "src/ml/foo.cc",
      "std::mt19937 gen(seed);\n"
      "std::mt19937 gen2{seed};\n"
      "void Mix(std::mt19937& engine);\n"
      "using Result = std::mt19937::result_type;\n");
  EXPECT_TRUE(vs.empty()) << FormatViolation(vs.front());
}

TEST(NoUnseededRngTest, RngModuleIsExempt) {
  const std::vector<Violation> vs = LintFile(
      "src/common/rng.cc",
      "#include \"common/rng.h\"\n"
      "static std::mt19937 fallback;\n");
  EXPECT_TRUE(vs.empty()) << FormatViolation(vs.front());
}

// --------------------------------------------------------------------------
// no-naked-thread

TEST(NoNakedThreadTest, FlagsThreadAndAsync) {
  const std::vector<Violation> vs = LintFile(
      "src/controller/foo.cc",
      "std::thread t(Work);\n"
      "auto f = std::async(Work);\n"
      "std::vector<std::thread> workers;\n");
  EXPECT_EQ(RulesAndLines(vs), (std::vector<RuleLine>{{"no-naked-thread", 1},
                                                      {"no-naked-thread", 2},
                                                      {"no-naked-thread", 3}}));
}

TEST(NoNakedThreadTest, StaticsAndPoolModuleAreLegal) {
  EXPECT_TRUE(LintFile("src/controller/foo.cc",
                       "unsigned n = std::thread::hardware_concurrency();\n")
                  .empty());
  EXPECT_TRUE(LintFile("src/common/thread_pool.cc",
                       "std::thread t(Work);\n")
                  .empty());
}

// --------------------------------------------------------------------------
// no-unordered-iteration-emit

TEST(NoUnorderedIterationEmitTest, FlagsRangeForInEmittingFile) {
  const std::vector<Violation> vs = LintFile(
      "src/common/report.cc",
      "#include <cstdio>\n"
      "std::unordered_map<int, double> scores;\n"
      "void Dump() {\n"
      "  for (const auto& kv : scores) printf(\"%d\\n\", kv.first);\n"
      "}\n");
  EXPECT_EQ(RulesAndLines(vs),
            (std::vector<RuleLine>{{"no-unordered-iteration-emit", 4}}));
}

TEST(NoUnorderedIterationEmitTest, SilentFilesAndOrderedContainersAreLegal) {
  // Same iteration, but the file never emits: legal.
  EXPECT_TRUE(LintFile("src/common/quiet.cc",
                       "std::unordered_map<int, double> scores;\n"
                       "double Sum() {\n"
                       "  double s = 0;\n"
                       "  for (const auto& kv : scores) s += kv.second;\n"
                       "  return s;\n"
                       "}\n")
                  .empty());
  // Emitting file iterating an ordered container: legal.
  EXPECT_TRUE(LintFile("src/common/report.cc",
                       "#include <cstdio>\n"
                       "std::map<int, double> scores;\n"
                       "void Dump() {\n"
                       "  for (const auto& kv : scores) printf(\"x\");\n"
                       "}\n")
                  .empty());
}

TEST(NoUnorderedIterationEmitTest, TracksAliasesThroughUsing) {
  const std::vector<Violation> vs = LintFile(
      "src/common/report.cc",
      "using Index = std::unordered_map<int, int>;\n"
      "void Dump(const Index& index) {\n"
      "  for (auto kv : index) std::printf(\"%d\\n\", kv.first);\n"
      "}\n");
  EXPECT_EQ(RulesAndLines(vs),
            (std::vector<RuleLine>{{"no-unordered-iteration-emit", 3}}));
}

// --------------------------------------------------------------------------
// journal-emit-through-obs

TEST(JournalEmitTest, FlagsRawEscapedAndSchemaTagSpellings) {
  const std::vector<Violation> vs = LintFile(
      "src/controller/report.cc",
      "const char* a = \"{\\\"type\\\":\\\"span\\\",\\\"seq\\\":0}\";\n"
      "const char* b = R\"({\"type\":\"metrics\"})\";\n"
      "const char* c = \"hunter.journal.v1\";\n");
  EXPECT_EQ(RulesAndLines(vs),
            (std::vector<RuleLine>{{"journal-emit-through-obs", 1},
                                   {"journal-emit-through-obs", 2},
                                   {"journal-emit-through-obs", 3}}));
}

TEST(JournalEmitTest, ObsModuleAndNonJournalStringsAreLegal) {
  EXPECT_TRUE(LintFile("src/obs/journal.cc",
                       "const char* k = \"{\\\"type\\\":\\\"span\\\"}\";\n")
                  .empty());
  EXPECT_TRUE(LintFile("src/controller/report.cc",
                       "const char* k = \"span type metrics\";\n"
                       "const char* j = \"{\\\"type\\\":\\\"knob\\\"}\";\n")
                  .empty());
}

// --------------------------------------------------------------------------
// no-matrix-row-copy-in-loop

TEST(NoMatrixRowCopyTest, FlagsRowCopiesInLoopBodies) {
  const std::vector<Violation> vs = LintFile(
      "src/ml/gaussian_process.cc",
      "void F(const linalg::Matrix& m) {\n"
      "  for (size_t r = 0; r < m.rows(); ++r) {\n"
      "    auto row = m.Row(r);\n"
      "  }\n"
      "  for (size_t r = 0; r < m.rows(); ++r) Use(m.Row(r));\n"
      "}\n");
  EXPECT_EQ(RulesAndLines(vs),
            (std::vector<RuleLine>{{"no-matrix-row-copy-in-loop", 3},
                                   {"no-matrix-row-copy-in-loop", 5}}));
}

TEST(NoMatrixRowCopyTest, FlagsWhileAndDoLoopBodies) {
  const std::vector<Violation> vs = LintFile(
      "src/ml/gaussian_process.cc",
      "void F(const linalg::Matrix& m) {\n"
      "  size_t r = 0;\n"
      "  while (r < m.rows()) {\n"
      "    Use(m.Row(r++));\n"
      "  }\n"
      "  while (r > 0) Use(m.Row(--r));\n"
      "  do {\n"
      "    Use(m.Row(r));\n"
      "  } while (++r < m.rows());\n"
      "}\n");
  EXPECT_EQ(RulesAndLines(vs),
            (std::vector<RuleLine>{{"no-matrix-row-copy-in-loop", 4},
                                   {"no-matrix-row-copy-in-loop", 6},
                                   {"no-matrix-row-copy-in-loop", 8}}));
}

TEST(NoMatrixRowCopyTest, NestedLoopsFlagOnce) {
  const std::vector<Violation> vs = LintFile(
      "src/linalg/pca.cc",
      "void F(const Matrix& m, const Matrix* p) {\n"
      "  for (size_t r = 0; r < m.rows(); ++r) {\n"
      "    for (size_t c = 0; c < m.cols(); ++c) {\n"
      "      Use(p->Row(c));\n"
      "    }\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(RulesAndLines(vs),
            (std::vector<RuleLine>{{"no-matrix-row-copy-in-loop", 4}}));
}

TEST(NoMatrixRowCopyTest, OutOfScopeFilesAndNonLoopUsesAreLegal) {
  // Identical code outside src/ml/ and src/linalg/: legal.
  EXPECT_TRUE(LintFile("src/controller/actor.cc",
                       "void F() { for (;;) { auto r = m.Row(0); } }\n")
                  .empty());
  // A row copy outside any loop: legal.
  EXPECT_TRUE(LintFile("src/ml/gaussian_process.cc",
                       "void F() { auto r = m.Row(0); }\n")
                  .empty());
  // The non-allocating view inside a loop: legal.
  EXPECT_TRUE(LintFile("src/ml/gaussian_process.cc",
                       "void F() {\n"
                       "  for (size_t r = 0; r < m.rows(); ++r) {\n"
                       "    auto v = m.RowView(r);\n"
                       "  }\n"
                       "}\n")
                  .empty());
}

TEST(NoMatrixRowCopyTest, SuppressibleWithReason) {
  EXPECT_TRUE(
      LintFile("src/ml/gaussian_process.cc",
               "// hunterlint: allow(no-matrix-row-copy-in-loop) mutated copy\n"
               "for (size_t r = 0; r < n; ++r) rows.push_back(m.Row(r));\n")
          .empty());
}

// --------------------------------------------------------------------------
// no-raw-intrinsics-outside-simd

TEST(NoRawIntrinsicsTest, OnlyTheSimdDirectoryIsExempt) {
  // The same two lines: legal in a simd kernel, flagged (both tokens) in
  // linalg/matrix.h, which sits next to the simd directory but hosts no
  // kernels.
  const std::string text =
      "#pragma once\n"
      "inline __m256d Zero() { return _mm256_setzero_pd(); }\n";
  const std::vector<Violation> kernel =
      LintFile("src/linalg/simd/k.cc", text);
  EXPECT_TRUE(kernel.empty()) << FormatViolation(kernel.front());
  EXPECT_EQ(RulesAndLines(LintFile("src/linalg/matrix.h", text)),
            (std::vector<RuleLine>{{"no-raw-intrinsics-outside-simd", 2},
                                   {"no-raw-intrinsics-outside-simd", 2}}));
}

// --------------------------------------------------------------------------
// no-alloc-in-hot-loop

TEST(HotLoopTest, FlagsPerIterationAllocations) {
  const std::vector<Violation> vs = LintFile(
      "src/ml/foo.cc",
      "#include <vector>\n"
      "// hunterlint: hot\n"
      "void F(std::vector<double>* out) {\n"
      "  while (out->size() < 8) {\n"
      "    out->push_back(0.0);\n"
      "    double* p = new double[4];\n"
      "    delete[] p;\n"
      "  }\n"
      "  for (int i = 0; i < 4; ++i) out->resize(8);\n"
      "}\n");
  EXPECT_EQ(RulesAndLines(vs),
            (std::vector<RuleLine>{{"no-alloc-in-hot-loop", 5},
                                   {"no-alloc-in-hot-loop", 6},
                                   {"no-alloc-in-hot-loop", 9}}));
}

TEST(HotLoopTest, PreLoopAllocationAndColdFunctionsAreLegal) {
  // Hoisted buffers before the loop are the fix the rule asks for; the
  // same loop body in an unannotated function is out of scope.
  EXPECT_TRUE(LintFile("src/ml/foo.cc",
                       "#include <vector>\n"
                       "// hunterlint: hot\n"
                       "void Hot(std::vector<double>* out, int n) {\n"
                       "  out->resize(static_cast<size_t>(n));\n"
                       "  std::vector<double> tmp(4);\n"
                       "  for (int i = 0; i < n; ++i) (*out)[i] = tmp[0];\n"
                       "}\n"
                       "void Cold(std::vector<double>* out, int n) {\n"
                       "  for (int i = 0; i < n; ++i) out->push_back(0.0);\n"
                       "}\n")
                  .empty());
}

TEST(HotLoopTest, VectorTypeReferencesInLoopsAreLegal) {
  // vector<T>& / vector<T>* mention the type without constructing one.
  EXPECT_TRUE(LintFile(
                  "src/ml/foo.cc",
                  "#include <vector>\n"
                  "// hunterlint: hot\n"
                  "double F(const std::vector<std::vector<double>>& rows) {\n"
                  "  double s = 0.0;\n"
                  "  for (size_t i = 0; i < rows.size(); ++i) {\n"
                  "    const std::vector<double>& row = rows[i];\n"
                  "    s += row[0];\n"
                  "  }\n"
                  "  return s;\n"
                  "}\n")
                  .empty());
}

TEST(HotLoopTest, AttachesToTemplateFunctions) {
  const std::vector<Violation> vs = LintFile(
      "src/linalg/simd/foo.cc",
      "#include <cstddef>\n"
      "// hunterlint: hot\n"
      "template <bool kTransposed, std::size_t kWidth>\n"
      "void Panel(const double* a, std::size_t n,\n"
      "           std::vector<double>* out) {\n"
      "  for (std::size_t i = 0; i < n; ++i) {\n"
      "    out->push_back(a[i]);\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(RulesAndLines(vs),
            (std::vector<RuleLine>{{"no-alloc-in-hot-loop", 7}}));
}

TEST(HotLoopTest, AttachesToOutOfLineConstMembers) {
  // A qualified name, a parameter list over two lines and a trailing const
  // between the parameters and the body.
  const std::vector<Violation> vs = LintFile(
      "src/ml/foo.cc",
      "// hunterlint: hot\n"
      "void Gp::PredictBatch(const Matrix& x,\n"
      "                      std::vector<Prediction>* out) const {\n"
      "  const size_t m = x.rows();\n"
      "  out->resize(m);\n"
      "  for (size_t i = 0; i < m; ++i) {\n"
      "    std::vector<double> k(m);\n"
      "    (*out)[i] = Predict(k);\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(RulesAndLines(vs),
            (std::vector<RuleLine>{{"no-alloc-in-hot-loop", 7}}));
}

TEST(HotLoopTest, AttachesToInlineMethodsOnly) {
  // The directive covers the method below it, not the class around it.
  const std::vector<Violation> vs = LintFile(
      "src/cdb/foo.cc",
      "class Pool {\n"
      " public:\n"
      "  // hunterlint: hot\n"
      "  bool Access(int page) {\n"
      "    while (pages_.size() < 4) pages_.emplace_back(page);\n"
      "    return true;\n"
      "  }\n"
      "  void Cold(int page) {\n"
      "    while (pages_.size() < 4) pages_.emplace_back(page);\n"
      "  }\n"
      " private:\n"
      "  std::vector<int> pages_;\n"
      "};\n");
  EXPECT_EQ(RulesAndLines(vs),
            (std::vector<RuleLine>{{"no-alloc-in-hot-loop", 5}}));
}

TEST(HotLoopTest, DeclarationsAndProseAttachToNothing) {
  // Line 2 quotes the directive in prose above a namespace, and line 4
  // marks a declaration. Neither may reach Cold's body: taking the next
  // `{` would make the namespace, or Cold, hot.
  EXPECT_TRUE(
      LintFile("src/ml/foo.cc",
               "#include <vector>\n"
               "// Functions annotated `// hunterlint: hot` must not "
               "allocate in loops.\n"
               "namespace fixture {\n"
               "// hunterlint: hot\n"
               "void Declared(std::vector<double>* out);\n"
               "void Cold(std::vector<double>* out) {\n"
               "  for (int i = 0; i < 4; ++i) out->push_back(0.0);\n"
               "}\n"
               "}  // namespace fixture\n")
          .empty());
}

TEST(HotLoopTest, BracesInLiteralsAreNotStructure) {
  // A literal's token text is its contents: '}' and "}" must not close the
  // loop body early.
  const std::vector<Violation> vs = LintFile(
      "src/ml/foo.cc",
      "// hunterlint: hot\n"
      "void F(std::vector<char>* out, int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    Log(\"}\", '}');\n"
      "    out->push_back('{');\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(RulesAndLines(vs),
            (std::vector<RuleLine>{{"no-alloc-in-hot-loop", 5}}));
}

// --------------------------------------------------------------------------
// header hygiene

TEST(HeaderHygieneTest, RequiresGuardOnlyInHeaders) {
  const std::string source = "int Value();\n";
  EXPECT_EQ(RulesAndLines(LintFile("src/cdb/foo.h", source)),
            (std::vector<RuleLine>{{"header-guard", 1}}));
  EXPECT_TRUE(LintFile("src/cdb/foo.cc", source).empty());
}

TEST(HeaderHygieneTest, AcceptsPragmaOnceAndMatchedGuards) {
  EXPECT_TRUE(LintFile("src/a.h", "#pragma once\nint V();\n").empty());
  EXPECT_TRUE(LintFile("src/a.h",
                       "// comment first is fine\n"
                       "#ifndef HUNTER_A_H_\n"
                       "#define HUNTER_A_H_\n"
                       "#endif\n")
                  .empty());
}

TEST(HeaderHygieneTest, FlagsMismatchedGuardDefine) {
  const std::vector<Violation> vs = LintFile(
      "src/a.h",
      "#ifndef HUNTER_A_H_\n"
      "#define HUNTER_B_H_\n"
      "#endif\n");
  EXPECT_EQ(RulesAndLines(vs), (std::vector<RuleLine>{{"header-guard", 2}}));
}

TEST(HeaderHygieneTest, FlagsUsingNamespaceInHeadersOnly) {
  const std::string source = "#pragma once\nusing namespace std;\n";
  EXPECT_EQ(RulesAndLines(LintFile("src/a.h", source)),
            (std::vector<RuleLine>{{"no-using-namespace-header", 2}}));
  EXPECT_TRUE(LintFile("src/a.cc", "using namespace std;\n").empty());
}

TEST(HeaderHygieneTest, IncludeStyle) {
  const std::vector<Violation> vs = LintFile(
      "src/cdb/foo.cc",
      "#include <vector>\n"
      "#include \"common/rng.h\"\n"
      "#include \"rng.h\"\n"
      "#include \"../common/rng.h\"\n");
  EXPECT_EQ(RulesAndLines(vs), (std::vector<RuleLine>{{"include-style", 3},
                                                      {"include-style", 4}}));
}

// --------------------------------------------------------------------------
// suppression semantics

TEST(SuppressionTest, SameLineAndOwnLineFormsSuppress) {
  EXPECT_TRUE(LintFile("src/a.cc",
                       "auto t = std::chrono::steady_clock::now();  "
                       "// hunterlint: allow(no-wall-clock) timer fixture\n")
                  .empty());
  EXPECT_TRUE(LintFile("src/a.cc",
                       "// hunterlint: allow(no-wall-clock) timer fixture\n"
                       "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
}

TEST(SuppressionTest, OnlyTheNamedRuleIsSuppressed) {
  const std::vector<Violation> vs = LintFile(
      "src/a.cc",
      "// hunterlint: allow(no-naked-thread) wrong rule for the next line\n"
      "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(RulesAndLines(vs),
            (std::vector<RuleLine>{{"no-wall-clock", 2}}));
}

TEST(SuppressionTest, OwnLineFormDoesNotLeakPastOneLine) {
  const std::vector<Violation> vs = LintFile(
      "src/a.cc",
      "// hunterlint: allow(no-wall-clock) only covers the next line\n"
      "int unrelated = 0;\n"
      "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(RulesAndLines(vs),
            (std::vector<RuleLine>{{"no-wall-clock", 3}}));
}

TEST(SuppressionTest, ReasonIsMandatory) {
  const std::vector<Violation> vs = LintFile(
      "src/a.cc",
      "// hunterlint: allow(no-wall-clock)\n"
      "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(RulesAndLines(vs),
            (std::vector<RuleLine>{{"suppression-needs-reason", 1},
                                   {"no-wall-clock", 2}}));
}

TEST(SuppressionTest, UnknownRuleNamesAreReported) {
  const std::vector<Violation> vs = LintFile(
      "src/a.cc", "// hunterlint: allow(no-wallclock) typo in rule name\n");
  EXPECT_EQ(RulesAndLines(vs), (std::vector<RuleLine>{{"unknown-rule", 1}}));
}

TEST(SuppressionTest, UnknownDirectivesAreReported) {
  // allow(...) and hot are the only directives: any other word is reported
  // instead of sitting in the tree doing nothing. A marker with no word
  // after it reads as prose.
  const std::vector<Violation> vs = LintFile(
      "src/a.cc",
      "int count_ = 0;  // hunterlint: guarded_by(mu_)\n"
      "// hunterlint: requires(mu_)\n"
      "void BumpLocked();\n"
      "// hunterlint: hott\n"
      "// A trailing marker reads as prose, hunterlint:\n");
  EXPECT_EQ(RulesAndLines(vs), (std::vector<RuleLine>{{"unknown-rule", 1},
                                                      {"unknown-rule", 2},
                                                      {"unknown-rule", 4}}));
}

TEST(SuppressionTest, SemanticRulesAreSuppressible) {
  // allow(no-alloc-in-hot-loop) with a reason silences the hot-loop rule
  // like any other; the annotation lives on the violating line.
  EXPECT_TRUE(
      LintFile("src/ml/foo.cc",
               "#include <vector>\n"
               "// hunterlint: hot\n"
               "void F(std::vector<double>* out) {\n"
               "  for (int i = 0; i < 4; ++i) {\n"
               "    out->push_back(0.0);  "
               "// hunterlint: allow(no-alloc-in-hot-loop) startup only\n"
               "  }\n"
               "}\n")
          .empty());
}

TEST(SuppressionTest, SemanticRuleSuppressionStillNeedsAReason) {
  const std::vector<Violation> vs = LintFile(
      "src/ml/foo.cc",
      "#include <vector>\n"
      "// hunterlint: hot\n"
      "void F(std::vector<double>* out) {\n"
      "  for (int i = 0; i < 4; ++i) {\n"
      "    // hunterlint: allow(no-alloc-in-hot-loop)\n"
      "    out->push_back(0.0);\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(RulesAndLines(vs),
            (std::vector<RuleLine>{{"suppression-needs-reason", 5},
                                   {"no-alloc-in-hot-loop", 6}}));
}

TEST(SuppressionTest, NewRuleNamesAreKnownToAllow) {
  // no-alloc-in-hot-loop is nameable in allow(); guarded-by and
  // deadlock-order are not rules.
  const std::vector<Violation> known = LintFile(
      "src/a.cc",
      "// hunterlint: allow(no-alloc-in-hot-loop) reason text here\n");
  EXPECT_TRUE(known.empty()) << FormatViolation(known.front());
  for (const char* rule : {"guarded-by", "deadlock-order"}) {
    const std::vector<Violation> vs = LintFile(
        "src/a.cc", std::string("// hunterlint: allow(") + rule +
                        ") reason text here\n");
    EXPECT_EQ(RulesAndLines(vs),
              (std::vector<RuleLine>{{"unknown-rule", 1}}))
        << rule;
  }
}

// --------------------------------------------------------------------------
// golden fixtures

std::vector<Violation> LintFixture(const std::string& rel) {
  return LintTree(HUNTERLINT_TESTDATA_DIR, {rel});
}

TEST(FixtureTest, WallClock) {
  EXPECT_EQ(RulesAndLines(LintFixture("violations/wall_clock.cc")),
            (std::vector<RuleLine>{{"no-wall-clock", 7},
                                   {"no-wall-clock", 8},
                                   {"no-wall-clock", 9}}));
}

TEST(FixtureTest, UnseededRng) {
  EXPECT_EQ(RulesAndLines(LintFixture("violations/unseeded_rng.cc")),
            (std::vector<RuleLine>{{"no-unseeded-rng", 7},
                                   {"no-unseeded-rng", 8},
                                   {"no-unseeded-rng", 12}}));
}

TEST(FixtureTest, NakedThread) {
  EXPECT_EQ(RulesAndLines(LintFixture("violations/naked_thread.cc")),
            (std::vector<RuleLine>{{"no-naked-thread", 9},
                                   {"no-naked-thread", 10}}));
}

TEST(FixtureTest, UnorderedEmit) {
  EXPECT_EQ(RulesAndLines(LintFixture("violations/unordered_emit.cc")),
            (std::vector<RuleLine>{{"no-unordered-iteration-emit", 12}}));
}

TEST(FixtureTest, RawJournal) {
  EXPECT_EQ(RulesAndLines(LintFixture("violations/raw_journal.cc")),
            (std::vector<RuleLine>{{"journal-emit-through-obs", 7},
                                   {"journal-emit-through-obs", 11}}));
}

TEST(FixtureTest, MatrixRowCopy) {
  EXPECT_EQ(
      RulesAndLines(LintFixture("violations/src/ml/matrix_row_copy.cc")),
      (std::vector<RuleLine>{{"no-matrix-row-copy-in-loop", 10},
                             {"no-matrix-row-copy-in-loop", 14},
                             {"no-matrix-row-copy-in-loop", 17}}));
}

TEST(FixtureTest, RawIntrinsics) {
  EXPECT_EQ(RulesAndLines(LintFixture("violations/raw_intrinsics.cc")),
            (std::vector<RuleLine>{{"no-raw-intrinsics-outside-simd", 8},
                                   {"no-raw-intrinsics-outside-simd", 8},
                                   {"no-raw-intrinsics-outside-simd", 10},
                                   {"no-raw-intrinsics-outside-simd", 10},
                                   {"no-raw-intrinsics-outside-simd", 10},
                                   {"no-raw-intrinsics-outside-simd", 11},
                                   {"no-raw-intrinsics-outside-simd", 11},
                                   {"no-raw-intrinsics-outside-simd", 12}}));
}

TEST(FixtureTest, BadHeader) {
  EXPECT_EQ(RulesAndLines(LintFixture("violations/bad_header.h")),
            (std::vector<RuleLine>{{"header-guard", 3},
                                   {"include-style", 3},
                                   {"no-using-namespace-header", 5}}));
}

TEST(FixtureTest, BadSuppression) {
  EXPECT_EQ(RulesAndLines(LintFixture("violations/bad_suppression.cc")),
            (std::vector<RuleLine>{{"suppression-needs-reason", 8},
                                   {"no-wall-clock", 9},
                                   {"unknown-rule", 11}}));
}

TEST(FixtureTest, HotAlloc) {
  EXPECT_EQ(RulesAndLines(LintFixture("violations/hot_alloc.cc")),
            (std::vector<RuleLine>{{"no-alloc-in-hot-loop", 14},
                                   {"no-alloc-in-hot-loop", 15},
                                   {"no-alloc-in-hot-loop", 17},
                                   {"no-alloc-in-hot-loop", 19}}));
}

TEST(FixtureTest, CleanDirectoryIsClean) {
  const std::vector<std::string> files =
      CollectFiles(HUNTERLINT_TESTDATA_DIR, {"clean"});
  ASSERT_EQ(files.size(), 5u);
  const std::vector<Violation> vs =
      LintTree(HUNTERLINT_TESTDATA_DIR, files);
  EXPECT_TRUE(vs.empty()) << FormatViolation(vs.front());
}

TEST(FixtureTest, CollectFilesIsSortedAndDeduplicated) {
  const std::vector<std::string> files = CollectFiles(
      HUNTERLINT_TESTDATA_DIR, {"violations", "clean", "clean"});
  ASSERT_FALSE(files.empty());
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  EXPECT_EQ(std::adjacent_find(files.begin(), files.end()), files.end());
}

TEST(FixtureTest, MissingFileReportsIoError) {
  const std::vector<Violation> vs =
      LintTree(HUNTERLINT_TESTDATA_DIR, {"does/not/exist.cc"});
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "io-error");
}

}  // namespace
}  // namespace hunter::lint
