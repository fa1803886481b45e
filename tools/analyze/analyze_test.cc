// Tests for the wican front end (tokenizer + indexer) and the three passes
// over the seeded-defect fixture corpus in testdata/. Every "bad" fixture
// must produce its expected findings and every "good" control must be clean
// — this is the proof that a zero-finding run over src/ means the passes
// looked and found nothing, not that they looked at nothing.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "index.h"
#include "passes.h"
#include "tokenizer.h"

namespace wiclean {
namespace analyze {
namespace {

std::string ReadFixture(const std::string& name) {
  std::ifstream in(std::string(WICAN_TESTDATA) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

RepoIndex IndexFixtures(const std::vector<std::string>& names) {
  std::vector<FileIndex> files;
  for (const std::string& name : names) {
    files.push_back(IndexFile(name, ReadFixture(name)));
  }
  return BuildRepoIndex(std::move(files));
}

size_t CountRule(const std::vector<AnalyzeFinding>& findings,
                 const std::string& rule) {
  size_t n = 0;
  for (const AnalyzeFinding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

std::string Render(const std::vector<AnalyzeFinding>& findings) {
  std::string out;
  for (const AnalyzeFinding& f : findings) out += f.ToString() + "\n";
  return out;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

std::vector<std::string> Texts(const TokenizedFile& tf) {
  std::vector<std::string> out;
  for (const Token& t : tf.tokens) out.push_back(t.text);
  return out;
}

TEST(Tokenizer, RawStringWithTrickyContents) {
  TokenizedFile tf =
      Tokenize("auto s = R\"delim(a \"quoted\" )notdelim\" x)delim\";");
  ASSERT_EQ(tf.tokens.size(), 5u);  // auto s = <string> ;
  EXPECT_EQ(tf.tokens[3].kind, TokKind::kString);
  EXPECT_EQ(tf.tokens[3].text, "a \"quoted\" )notdelim\" x");
}

TEST(Tokenizer, LineSplicePreservesPhysicalLines) {
  // The spliced identifier is one token; the token after the splice reports
  // the line where the statement *started* (splices vanish before lexing).
  TokenizedFile tf = Tokenize("int ab\\\ncd = 3;\nint next;");
  std::vector<std::string> texts = Texts(tf);
  ASSERT_GE(texts.size(), 4u);
  EXPECT_EQ(texts[1], "abcd");
  // `next` is on physical line 3.
  EXPECT_EQ(tf.tokens[texts.size() - 2].text, "next");
  EXPECT_EQ(tf.tokens[texts.size() - 2].line, 3u);
}

TEST(Tokenizer, DirectiveTokensAreFlagged) {
  TokenizedFile tf = Tokenize("#define FOO 1\nint x = FOO;");
  bool saw_directive_foo = false, saw_code_foo = false;
  for (const Token& t : tf.tokens) {
    if (t.text == "FOO") {
      (t.in_directive ? saw_directive_foo : saw_code_foo) = true;
    }
  }
  EXPECT_TRUE(saw_directive_foo);
  EXPECT_TRUE(saw_code_foo);
}

TEST(Tokenizer, SplicedDirectiveStaysDirective) {
  // A #define continued with a backslash-newline is one logical directive.
  TokenizedFile tf = Tokenize("#define M(x) \\\n  ((x) + 1)\nint y;");
  for (const Token& t : tf.tokens) {
    if (t.text == "y" || t.text == "int") {
      EXPECT_FALSE(t.in_directive) << t.text;
    }
    if (t.text == "M" || t.text == "1") {
      EXPECT_TRUE(t.in_directive) << t.text;
    }
  }
}

TEST(Tokenizer, MaximalMunchAndDigitSeparators) {
  TokenizedFile tf = Tokenize("a <<= b >> c <=> 1'000'000 + 0x1p-3;");
  std::vector<std::string> texts = Texts(tf);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "<<="), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), ">>"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "<=>"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "1'000'000"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "0x1p-3"), texts.end());
}

TEST(Tokenizer, CommentsCapturedNotTokenized) {
  TokenizedFile tf =
      Tokenize("int a; // wican:allow(x): y\n/* block */ int b;");
  ASSERT_EQ(tf.comments.size(), 2u);
  EXPECT_EQ(tf.comments[0].line, 1u);
  EXPECT_NE(tf.comments[0].text.find("wican:allow"), std::string::npos);
  for (const Token& t : tf.tokens) {
    EXPECT_EQ(t.text.find("wican"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Indexer
// ---------------------------------------------------------------------------

TEST(Index, FunctionSummariesAndAnnotations) {
  const char* src =
      "struct Reader {\n"
      "  Status ReadCount(uint64_t* v) WC_UNTRUSTED;\n"
      "  std::string_view Body() const WC_BORROWED_VIEW { return b_; }\n"
      "  void Drain() WC_REQUIRES(mu_);\n"
      "  std::string_view b_;\n"
      "  Mutex mu_;\n"
      "};\n"
      "void Reader::Drain() {}\n";
  RepoIndex idx = BuildRepoIndex({IndexFile("r.h", src)});
  EXPECT_EQ(idx.untrusted_functions.count("ReadCount"), 1u);
  EXPECT_EQ(idx.borrowed_view_functions.count("Body"), 1u);

  const FileIndex& f = idx.files[0];
  ASSERT_GE(f.functions.size(), 4u);
  const FunctionInfo* drain_def = nullptr;
  for (const FunctionInfo& fn : f.functions) {
    if (fn.name == "Drain" && !fn.is_definition) {
      ASSERT_EQ(fn.requires_locks.size(), 1u);
      EXPECT_EQ(fn.requires_locks[0], "mu_");
    }
    if (fn.name == "Drain" && fn.is_definition) drain_def = &fn;
    if (fn.name == "ReadCount") {
      EXPECT_EQ(fn.class_name, "Reader");
      ASSERT_EQ(fn.params.size(), 1u);
      EXPECT_EQ(fn.params[0].type_head, "uint64_t");
      EXPECT_EQ(fn.params[0].name, "v");
    }
  }
  // Out-of-class definition resolves its class from the qualifier.
  ASSERT_NE(drain_def, nullptr);
  EXPECT_EQ(drain_def->class_name, "Reader");
  EXPECT_EQ(drain_def->qualified_name, "Reader::Drain");
}

TEST(Index, FieldsWithGuardsAndTaint) {
  const char* src =
      "struct Q {\n"
      "  Mutex mu;\n"
      "  std::deque<std::function<void()>> items WC_GUARDED_BY(mu);\n"
      "  uint64_t declared WC_UNTRUSTED;\n"
      "};\n";
  RepoIndex idx = BuildRepoIndex({IndexFile("q.h", src)});
  const auto& fields = idx.fields_by_class.at("Q");
  EXPECT_EQ(fields.at("items").guarded_by, "mu");
  EXPECT_EQ(fields.at("items").type_head, "deque");
  EXPECT_TRUE(fields.at("declared").untrusted);
  EXPECT_EQ(fields.at("mu").type_head, "Mutex");
}

TEST(Index, NestedTemplatesAndDoubleAngle) {
  // `>>` must close two template levels; the field after it must parse.
  const char* src =
      "struct S {\n"
      "  std::map<std::string, std::vector<int>> table;\n"
      "  int after;\n"
      "};\n";
  RepoIndex idx = BuildRepoIndex({IndexFile("s.h", src)});
  const auto& fields = idx.fields_by_class.at("S");
  EXPECT_EQ(fields.at("table").type_head, "map");
  EXPECT_EQ(fields.at("after").type_head, "int");
}

TEST(Index, DeterministicAcrossFileOrderings) {
  std::vector<std::string> names = {
      "taint_bad_resize.cc",   "taint_bad_loop.cc",  "taint_bad_memcpy.cc",
      "taint_bad_alloc.cc",    "taint_good_gated.cc", "lock_bad_cycle_a.cc",
      "lock_bad_cycle_b.cc",   "lock_bad_self.cc",   "lock_bad_unguarded.cc",
      "lock_good.cc",          "view_bad_member.cc", "view_bad_return.cc",
      "view_bad_capture.cc",   "view_good.cc",       "suppress_ok.cc",
      "suppress_bad.cc",       "lock_bad_epoch_refcount.cc",
  };
  std::string forward = DebugSummary(IndexFixtures(names));
  std::vector<std::string> reversed(names.rbegin(), names.rend());
  std::string backward = DebugSummary(IndexFixtures(reversed));
  EXPECT_EQ(forward, backward);

  // A rotation (neither sorted nor reversed) must also agree.
  std::vector<std::string> rotated(names.begin() + 7, names.end());
  rotated.insert(rotated.end(), names.begin(), names.begin() + 7);
  EXPECT_EQ(forward, DebugSummary(IndexFixtures(rotated)));
}

// ---------------------------------------------------------------------------
// Taint pass
// ---------------------------------------------------------------------------

TEST(TaintPass, FlagsUngatedResizeAndReserve) {
  auto f = RunAllPasses(IndexFixtures({"taint_bad_resize.cc"}));
  EXPECT_EQ(CountRule(f, "tainted-size"), 2u) << Render(f);
}

TEST(TaintPass, FlagsUngatedLoopBounds) {
  auto f = RunAllPasses(IndexFixtures({"taint_bad_loop.cc"}));
  EXPECT_EQ(CountRule(f, "tainted-size"), 2u) << Render(f);
}

TEST(TaintPass, FlagsMemcpyLengthAndArrayIndex) {
  auto f = RunAllPasses(IndexFixtures({"taint_bad_memcpy.cc"}));
  EXPECT_EQ(CountRule(f, "tainted-size"), 2u) << Render(f);
}

TEST(TaintPass, FlagsSizedConstructionParamAndFieldSources) {
  auto f = RunAllPasses(IndexFixtures({"taint_bad_alloc.cc"}));
  EXPECT_EQ(CountRule(f, "tainted-size"), 3u) << Render(f);
}

TEST(TaintPass, GatedControlIsClean) {
  auto f = RunAllPasses(IndexFixtures({"taint_good_gated.cc"}));
  EXPECT_EQ(f.size(), 0u) << Render(f);
}

// ---------------------------------------------------------------------------
// Lock pass
// ---------------------------------------------------------------------------

TEST(LockPass, CrossFileCycleNeedsBothFiles) {
  // Each half alone is clean: the inversion only exists in the merged graph.
  auto a = RunAllPasses(IndexFixtures({"lock_bad_cycle_a.cc"}));
  EXPECT_EQ(CountRule(a, "lock-order"), 0u) << Render(a);
  auto b = RunAllPasses(IndexFixtures({"lock_bad_cycle_b.cc"}));
  EXPECT_EQ(CountRule(b, "lock-order"), 0u) << Render(b);

  auto both = RunAllPasses(
      IndexFixtures({"lock_bad_cycle_a.cc", "lock_bad_cycle_b.cc"}));
  ASSERT_EQ(CountRule(both, "lock-order"), 1u) << Render(both);
  for (const AnalyzeFinding& f : both) {
    if (f.rule == "lock-order") {
      EXPECT_NE(f.message.find("cycle"), std::string::npos) << f.message;
      EXPECT_NE(f.message.find("Pair::a"), std::string::npos) << f.message;
      EXPECT_NE(f.message.find("Pair::b"), std::string::npos) << f.message;
    }
  }
}

TEST(LockPass, FlagsDirectAndThroughCalleeRelock) {
  auto f = RunAllPasses(IndexFixtures({"lock_bad_self.cc"}));
  EXPECT_EQ(CountRule(f, "lock-order"), 2u) << Render(f);
}

TEST(LockPass, FlagsUnguardedAccess) {
  auto f = RunAllPasses(IndexFixtures({"lock_bad_unguarded.cc"}));
  EXPECT_EQ(CountRule(f, "unguarded-access"), 2u) << Render(f);
}

TEST(LockPass, FlagsUnguardedEpochRefcount) {
  // Seeded-defect twin of serve::SnapshotRegistry (see
  // src/serve/snapshot_registry.h): the pin refcount is bumped lock-free in
  // Acquire(), the current-epoch cursor is read outside the lock in both
  // Acquire() and Publish(), and the refcount is decremented after the
  // MutexLock scope closed in Release(). Guarded accesses inside the lock
  // scopes and the unannotated published counter must stay clean.
  auto f = RunAllPasses(IndexFixtures({"lock_bad_epoch_refcount.cc"}));
  EXPECT_EQ(CountRule(f, "unguarded-access"), 4u) << Render(f);
}

TEST(LockPass, CleanControlHasNoFindings) {
  auto f = RunAllPasses(IndexFixtures({"lock_good.cc"}));
  EXPECT_EQ(f.size(), 0u) << Render(f);
}

// ---------------------------------------------------------------------------
// Lifetime pass
// ---------------------------------------------------------------------------

TEST(LifetimePass, FlagsMemberStoreOfLocalView) {
  auto f = RunAllPasses(IndexFixtures({"view_bad_member.cc"}));
  EXPECT_EQ(CountRule(f, "view-escape"), 1u) << Render(f);
}

TEST(LifetimePass, FlagsReturnAndOutParamEscape) {
  auto f = RunAllPasses(IndexFixtures({"view_bad_return.cc"}));
  EXPECT_EQ(CountRule(f, "view-escape"), 2u) << Render(f);
}

TEST(LifetimePass, FlagsDeferredCapture) {
  auto f = RunAllPasses(IndexFixtures({"view_bad_capture.cc"}));
  EXPECT_EQ(CountRule(f, "view-escape"), 1u) << Render(f);
}

TEST(LifetimePass, CleanControlHasNoFindings) {
  auto f = RunAllPasses(IndexFixtures({"view_good.cc"}));
  EXPECT_EQ(f.size(), 0u) << Render(f);
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

TEST(Suppressions, JustifiedAllowSilencesFinding) {
  auto f = RunAllPasses(IndexFixtures({"suppress_ok.cc"}));
  EXPECT_EQ(f.size(), 0u) << Render(f);
}

TEST(Suppressions, HygieneViolationsAreFindings) {
  auto f = RunAllPasses(IndexFixtures({"suppress_bad.cc"}));
  EXPECT_EQ(CountRule(f, "bad-suppression"), 3u) << Render(f);
  // The underlying findings stay suppressed — hygiene is its own rule.
  EXPECT_EQ(CountRule(f, "tainted-size"), 0u) << Render(f);
}

}  // namespace
}  // namespace analyze
}  // namespace wiclean
