// Fixture tests for laco-analyze (tools/analyze_core.hpp): every rule
// has at least one failing fixture under tests/analyze_fixtures pinning
// the exact diagnostic (path, line, rule id, message), so a rule that
// silently stops firing breaks the build. The AnalyzeRules/AnalyzeTree
// suites cover the token and include-graph rules, LintRules/LintTree
// the text and tests/ registration rules, and LintStripper plus
// AnalyzeTokenizer the cases the old line-oriented stripper got wrong
// (raw strings, digit separators, spliced literals, macro bodies).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze_core.hpp"

namespace {

namespace analyze = laco::analyze;
namespace fs = std::filesystem;

fs::path fixture(const std::string& name) {
  return fs::path(LACO_ANALYZE_FIXTURE_DIR) / name;
}

/// Runs the per-file rules on one fixture as if it lived at `relpath`
/// (which decides every rule's scope) and renders the diagnostics.
std::vector<std::string> diags(const std::string& name, const std::string& relpath) {
  std::vector<std::string> out;
  for (const analyze::Diagnostic& d : analyze::analyze_file(fixture(name), relpath)) {
    out.push_back(d.str());
  }
  return out;
}

std::vector<std::string> tree_diags(const fs::path& root) {
  std::vector<std::string> out;
  for (const analyze::Diagnostic& d : analyze::analyze_tree(root)) out.push_back(d.str());
  return out;
}

// ------------------------------------------------------------ file rules

TEST(AnalyzeRules, TensorByValueFlagsValueParamsAndHonorsSuppression) {
  EXPECT_EQ(
      diags("tensor_by_value.cpp", "src/fixture/tensor_by_value.cpp"),
      (std::vector<std::string>{
          "src/fixture/tensor_by_value.cpp:7: [tensor-by-value] parameter 'dense' takes "
          "nn::Tensor by value (one shared-impl copy per call); pass const Tensor& — or, "
          "for an intentional sink parameter, add // analyze-ok(tensor-by-value)",
          "src/fixture/tensor_by_value.cpp:8: [tensor-by-value] parameter 'frames' takes "
          "nn::Tensor by value (one shared-impl copy per call); pass const Tensor& — or, "
          "for an intentional sink parameter, add // analyze-ok(tensor-by-value)"}));
}

TEST(AnalyzeRules, DeterministicRegionsRejectUnorderedAccumulation) {
  EXPECT_EQ(
      diags("nondet_accum.cpp", "src/fixture/nondet_accum.cpp"),
      (std::vector<std::string>{
          "src/fixture/nondet_accum.cpp:11: [nondeterministic-accum] atomic fetch_add "
          "inside a LACO_DETERMINISTIC region: cross-thread accumulation order is "
          "unspecified — use per-shard partial sums reduced in index order",
          "src/fixture/nondet_accum.cpp:20: [nondeterministic-accum] reduction over "
          "std::unordered_map inside a LACO_DETERMINISTIC region: iteration order is "
          "unspecified — use a sorted container or index-ordered loop",
          "src/fixture/nondet_accum.cpp:29: [nondeterministic-accum] std::atomic<double> "
          "inside a LACO_DETERMINISTIC region: floating-point accumulation through an "
          "atomic is unordered — use per-shard partial sums reduced in index order"}));
}

TEST(AnalyzeRules, TiledReductionPatternPassesAndSharedAccumulateFails) {
  // The kernel-pool idiom (docs/KERNELS.md): per-tile partials merged
  // in index order are clean; one shared atomic across tiles is not.
  EXPECT_EQ(
      diags("tiled_reduction.cpp", "src/fixture/tiled_reduction.cpp"),
      (std::vector<std::string>{
          "src/fixture/tiled_reduction.cpp:34: [nondeterministic-accum] atomic fetch_add "
          "inside a LACO_DETERMINISTIC region: cross-thread accumulation order is "
          "unspecified — use per-shard partial sums reduced in index order"}));
}

TEST(AnalyzeRules, GuardedAccessRequiresLockOrAnnotation) {
  // Only Counter::bump fires: locked_bump holds a MutexLock,
  // annotated_bump is LACO_REQUIRES, and the declaration line itself
  // is exempt.
  EXPECT_EQ(diags("guarded_access.cpp", "src/fixture/guarded_access.cpp"),
            (std::vector<std::string>{
                "src/fixture/guarded_access.cpp:24: [guarded-access] field 'value_' is "
                "LACO_GUARDED_BY a mutex but is touched with no MutexLock in scope and "
                "outside any LACO_REQUIRES method — lock first, or annotate the method"}));
}

TEST(AnalyzeRules, DuplicateIncludeFlagsSecondOccurrence) {
  EXPECT_EQ(diags("dup_include.cpp", "src/fixture/dup_include.cpp"),
            (std::vector<std::string>{
                "src/fixture/dup_include.cpp:4: [duplicate-include] \"cstddef\" is "
                "already included by this file — drop the duplicate"}));
}

TEST(AnalyzeRules, CleanFixtureProducesNoDiagnostics) {
  EXPECT_EQ(diags("clean.cpp", "src/fixture/clean.cpp"), std::vector<std::string>{});
}

TEST(AnalyzeRules, SerialVersionedDemandsExplicitFormatVersion) {
  // GoodBlob (kVersion) and PlainStruct (no serial usage) stay quiet;
  // SuppressedBlob is analyze-ok'd.
  EXPECT_EQ(diags("serial_versioned.cpp", "src/fixture/serial_versioned.cpp"),
            (std::vector<std::string>{
                "src/fixture/serial_versioned.cpp:13: [serial-versioned] 'BadBlob' is "
                "serialized through laco::serial but declares no kVersion — every "
                "serialized struct carries an explicit format version so old files fail "
                "cleanly (docs/RELIABILITY.md)",
                "src/fixture/serial_versioned.cpp:17: [serial-versioned] 'BadReaderBlob' "
                "is serialized through laco::serial but declares no kVersion — every "
                "serialized struct carries an explicit format version so old files fail "
                "cleanly (docs/RELIABILITY.md)"}));
}

// ------------------------------------------------------------ tree rules

TEST(AnalyzeTree, LayerDagCycleAndIwyuFireOnSeededTree) {
  // layer_tree/ is a miniature repo: an nn header including serve
  // (upward include), two util headers including each other (cycle),
  // and a .cpp including a header it never references (IWYU).
  EXPECT_EQ(
      tree_diags(fixture("layer_tree")),
      (std::vector<std::string>{
          "src/nn/bad_upward.hpp:3: [layer-dag] include of \"src/serve/svc.hpp\" breaks "
          "the layer DAG: layer 'nn' must not depend on layer 'serve' "
          "(docs/STATIC_ANALYSIS.md)",
          "src/util/cycle_a.hpp:3: [include-cycle] include cycle: src/util/cycle_a.hpp "
          "-> src/util/cycle_b.hpp -> src/util/cycle_a.hpp",
          "src/util/unused_inc.cpp:1: [iwyu-unused-include] nothing declared by "
          "\"src/util/provides.hpp\" is referenced in this file — drop the include (or "
          "include what you actually use)"}));
}

TEST(AnalyzeTree, SerialRoundTripCoverageFlagsUntestedCodecs) {
  // serial_tree/ has two versioned codec structs; only CoveredBlob is
  // mentioned by its tests/test_snapshot.cpp.
  EXPECT_EQ(tree_diags(fixture("serial_tree")),
            (std::vector<std::string>{
                "src/util/blob.hpp:12: [serial-roundtrip] 'UncoveredBlob' is serialized "
                "through laco::serial but never appears in tests/test_snapshot.cpp — "
                "cover it in the snapshot round-trip suite"}));
}

TEST(AnalyzeTree, LayerTableMatchesLinkGraph) {
  EXPECT_TRUE(analyze::layer_may_include("placer", "util"));   // transitive
  EXPECT_TRUE(analyze::layer_may_include("serve", "plan"));    // direct
  EXPECT_TRUE(analyze::layer_may_include("nn", "nn"));         // reflexive
  EXPECT_FALSE(analyze::layer_may_include("nn", "serve"));     // upward
  EXPECT_FALSE(analyze::layer_may_include("util", "gridmap")); // upward
  EXPECT_FALSE(analyze::layer_may_include("placer", "router"));  // would be a cycle

  EXPECT_EQ(analyze::layer_of("src/nn/tensor.hpp"), "nn");
  EXPECT_EQ(analyze::layer_of("src/placer/nesterov.cpp"), "placer");
  // The laco_flows sources live under src/placer/ but sit above router.
  EXPECT_EQ(analyze::layer_of("src/placer/inflation.cpp"), "flows");
  EXPECT_EQ(analyze::layer_of("src/placer/net_weighting.hpp"), "flows");
  EXPECT_EQ(analyze::layer_of("tools/laco_cli.cpp"), "");
}

// ------------------------------------------------------------- tokenizer

TEST(AnalyzeTokenizer, RawStringsAreBlankedWithLinesPreserved) {
  const std::string src =
      "int x = 0;\n"
      "const char* doc = R\"doc(\n"
      "  int* leak = new int[8];\n"
      ")doc\";\n"
      "int y = 1;\n";
  const std::string stripped = analyze::strip_source(src);
  EXPECT_EQ(stripped.find("new int"), std::string::npos);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  // `y` still lexes on its true line after the multi-line literal.
  const analyze::TokenizedFile tf = analyze::tokenize(src);
  bool found = false;
  for (const analyze::Token& t : tf.tokens) {
    if (t.text == "y") {
      EXPECT_EQ(t.line, 5);
      found = true;
    }
    EXPECT_NE(t.text, "leak");
  }
  EXPECT_TRUE(found);
}

TEST(AnalyzeTokenizer, DigitSeparatorsDoNotOpenCharLiterals) {
  // The old stripper treated the ' in 50'000 as a char literal opener
  // and blanked everything to the next apostrophe.
  const std::string src =
      "int big = 50'000;\n"
      "char c = 'x';\n"
      "int after = 1;\n";
  const analyze::TokenizedFile tf = analyze::tokenize(src);
  bool saw_number = false;
  bool saw_after = false;
  for (const analyze::Token& t : tf.tokens) {
    if (t.text == "50'000") {
      EXPECT_EQ(t.kind, analyze::Token::Kind::kNumber);
      saw_number = true;
    }
    if (t.text == "after") {
      EXPECT_EQ(t.line, 3);
      saw_after = true;
    }
    EXPECT_NE(t.text, "x");  // char literal contents stay blanked
  }
  EXPECT_TRUE(saw_number);
  EXPECT_TRUE(saw_after);
}

TEST(AnalyzeTokenizer, SplicedStringLiteralKeepsLineNumbers) {
  const std::string src =
      "const char* s = \"abc\\\n"
      "def\";\n"
      "int after_splice = 2;\n";
  const std::string stripped = analyze::strip_source(src);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  const analyze::TokenizedFile tf = analyze::tokenize(src);
  bool found = false;
  for (const analyze::Token& t : tf.tokens) {
    if (t.text == "after_splice") {
      EXPECT_EQ(t.line, 3);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AnalyzeTokenizer, MarkersAndSuppressionsAreCaptured) {
  const std::string src =
      "// LACO_DETERMINISTIC: ordered reduction\n"
      "int a = 1;  // analyze-ok(tensor-by-value): fixture\n";
  const analyze::TokenizedFile tf = analyze::tokenize(src);
  ASSERT_EQ(tf.deterministic_marks.size(), 1u);
  EXPECT_EQ(tf.deterministic_marks[0], 1);
  ASSERT_EQ(tf.suppressions.count(2), 1u);
  EXPECT_EQ(tf.suppressions.at(2).count("tensor-by-value"), 1u);
}

TEST(AnalyzeTokenizer, PreprocessorDirectivesProduceNoTokens) {
  const std::string src =
      "#define FIXTURE_MACRO(n) \\\n"
      "  do { auto* p = new int[n]; delete[] p; } while (0)\n"
      "#include \"util/check.hpp\"\n"
      "int code = 3;\n";
  const analyze::TokenizedFile tf = analyze::tokenize(src);
  for (const analyze::Token& t : tf.tokens) {
    EXPECT_NE(t.text, "new");  // macro body is not code
    EXPECT_NE(t.text, "do");
  }
  ASSERT_EQ(tf.includes.size(), 1u);
  EXPECT_EQ(tf.includes[0].path, "util/check.hpp");
  EXPECT_FALSE(tf.includes[0].angled);
  EXPECT_EQ(tf.includes[0].line, 3);
  ASSERT_EQ(tf.defines.size(), 1u);
  EXPECT_EQ(tf.defines[0], "FIXTURE_MACRO");
}

// ------------------------------------------------------------ text rules

TEST(LintRules, PragmaOnceMissing) {
  EXPECT_EQ(diags("missing_pragma.hpp", "src/fixture/missing_pragma.hpp"),
            std::vector<std::string>{
                "src/fixture/missing_pragma.hpp:1: [pragma-once] header must use '#pragma once'"});
}

TEST(LintRules, BareAssertOnlyInSrc) {
  EXPECT_EQ(diags("bare_assert.cpp", "src/fixture/bare_assert.cpp"),
            std::vector<std::string>{
                "src/fixture/bare_assert.cpp:10: [bare-assert] use LACO_CHECK/LACO_DCHECK "
                "(util/check.hpp); bare asserts vanish under NDEBUG"});
  // The same file under tests/ is fine: GoogleTest code may assert.
  EXPECT_TRUE(diags("bare_assert.cpp", "tests/bare_assert.cpp").empty());
}

TEST(LintRules, NakedNewAndDelete) {
  const std::vector<std::string> expected = {
      "src/fixture/naked_new.cpp:8: [naked-new] use std::make_unique/std::make_shared or "
      "containers instead of naked allocation",
      "src/fixture/naked_new.cpp:9: [naked-new] use RAII owners instead of manual deallocation"};
  EXPECT_EQ(diags("naked_new.cpp", "src/fixture/naked_new.cpp"), expected);
}

TEST(LintRules, RandForbiddenEverywhereButRngImpl) {
  const std::vector<std::string> expected = {
      "src/fixture/uses_rand.cpp:7: [rand] use util/rng.hpp (seeded, reproducible) instead of "
      "the C PRNG",
      "src/fixture/uses_rand.cpp:8: [rand] use util/rng.hpp (seeded, reproducible) instead of "
      "the C PRNG"};
  EXPECT_EQ(diags("uses_rand.cpp", "src/fixture/uses_rand.cpp"), expected);
  // The rng implementation itself is the one allowed wrapper point.
  EXPECT_TRUE(diags("uses_rand.cpp", "src/util/rng.cpp").empty());
}

TEST(LintRules, IostreamOnlyOutsideLoggingToolsBench) {
  const std::vector<std::string> expected = {
      "src/fixture/uses_cout.cpp:6: [iostream] use util/logging.hpp (LACO_LOG_*) for library "
      "output",
      "src/fixture/uses_cout.cpp:7: [iostream] use util/logging.hpp (LACO_LOG_*) for library "
      "output"};
  EXPECT_EQ(diags("uses_cout.cpp", "src/fixture/uses_cout.cpp"), expected);
  EXPECT_TRUE(diags("uses_cout.cpp", "bench/uses_cout.cpp").empty());
  EXPECT_TRUE(diags("uses_cout.cpp", "tools/uses_cout.cpp").empty());
  EXPECT_TRUE(diags("uses_cout.cpp", "src/util/logging.cpp").empty());
}

TEST(LintRules, UnguardedMutexMember) {
  EXPECT_EQ(diags("unguarded_mutex.hpp", "src/fixture/unguarded_mutex.hpp"),
            std::vector<std::string>{
                "src/fixture/unguarded_mutex.hpp:12: [mutex-guard] mutex member without any "
                "LACO_GUARDED_BY annotation in this header"});
  // util/mutex.hpp wraps the raw std::mutex and is exempt.
  EXPECT_TRUE(diags("unguarded_mutex.hpp", "src/util/mutex.hpp").empty());
}

TEST(LintRules, ForwardOutsideNoGradGuard) {
  const std::vector<std::string> expected = {
      "src/serve/nograd_missing.cpp:7: [nograd-forward] model forward() in src/serve must run "
      "under nn::NoGradGuard",
      "src/serve/nograd_missing.cpp:12: [nograd-forward] model forward() in src/serve must run "
      "under nn::NoGradGuard"};
  EXPECT_EQ(diags("nograd_missing.cpp", "src/serve/nograd_missing.cpp"), expected);
  // Outside src/serve the contract is out of scope.
  EXPECT_TRUE(diags("nograd_missing.cpp", "src/laco/nograd_missing.cpp").empty());
}

TEST(LintRules, CatchSwallowInFaultHandlingLayers) {
  const std::vector<std::string> expected = {
      "src/serve/catch_swallow.cpp:10: [catch-swallow] catch (...) in src/serve//src/laco must "
      "rethrow, log (LACO_LOG_*), or forward the exception (set_exception/fail_batch); "
      "swallowed faults defeat the reliability layer"};
  EXPECT_EQ(diags("catch_swallow.cpp", "src/serve/catch_swallow.cpp"), expected);
  // src/laco is the other fault-handling layer; elsewhere out of scope.
  EXPECT_EQ(diags("catch_swallow.cpp", "src/laco/catch_swallow.cpp").size(), 1u);
  EXPECT_TRUE(diags("catch_swallow.cpp", "src/placer/catch_swallow.cpp").empty());
  EXPECT_TRUE(diags("catch_swallow.cpp", "tools/catch_swallow.cpp").empty());
}

TEST(LintRules, PlanHotPathMustNotAllocate) {
  const auto expect_line = [](int line) {
    return "src/plan/executor_fixture.cpp:" + std::to_string(line) +
           ": [plan-hot-alloc] no allocations in the plan executor hot path: Tensor "
           "factories, make_shared/make_unique, and container growth belong in "
           "Workspace::prepare (docs/PLAN.md)";
  };
  const std::vector<std::string> expected = {expect_line(8),  expect_line(9),
                                             expect_line(10), expect_line(11),
                                             expect_line(12), expect_line(13),
                                             expect_line(14), expect_line(15)};
  EXPECT_EQ(diags("plan_hot_alloc.cpp", "src/plan/executor_fixture.cpp"), expected);
  // The rule is scoped to executor translation units: the compiler and
  // cache (cold path) allocate freely, as does everything outside
  // src/plan.
  EXPECT_TRUE(diags("plan_hot_alloc.cpp", "src/plan/compiler.cpp").empty());
  EXPECT_TRUE(diags("plan_hot_alloc.cpp", "src/serve/batcher.cpp").empty());
  // The real executor stays clean under its real relpath.
  EXPECT_TRUE(diags("../../src/plan/executor.cpp", "src/plan/executor.cpp").empty());
}

TEST(LintRules, CleanFileHasNoDiagnostics) {
  EXPECT_TRUE(diags("clean.hpp", "src/fixture/clean.hpp").empty());
}

TEST(LintRules, StripperRemovesCommentsAndStringsOnly) {
  const std::string stripped = analyze::strip_source(
      "int x = 1; // trailing\nconst char* s = \"str\\\"ing\";\n/* multi\nline */ int y;\n");
  EXPECT_EQ(stripped,
            "int x = 1;            \nconst char* s =           ;\n        \n        int y;\n");
}

// ---------------------------------------------- test registration, tree gate

TEST(LintTree, UnregisteredTestFileIsFlagged) {
  // Synthesized tree: test_good.cpp is registered, test_orphan.cpp is
  // not — only the orphan may be diagnosed, and only by this rule.
  const fs::path root = fs::path(::testing::TempDir()) / "lint_reg_tree";
  fs::remove_all(root);
  fs::create_directories(root / "tests");
  const auto put = [](const fs::path& p, const std::string& text) {
    std::ofstream out(p);
    out << text;
  };
  put(root / "tests" / "test_good.cpp", "int main() { return 0; }\n");
  put(root / "tests" / "test_orphan.cpp", "int main() { return 0; }\n");
  put(root / "tests" / "helper.cpp", "int helper() { return 1; }\n");  // not a test: exempt
  put(root / "tests" / "CMakeLists.txt", "laco_add_test(test_good)\n");

  EXPECT_EQ(tree_diags(root),
            std::vector<std::string>{
                "tests/test_orphan.cpp:1: [test-registered] register it with "
                "laco_add_test(test_orphan) in tests/CMakeLists.txt — unregistered tests "
                "never run"});

  // Registering the orphan clears the diagnostic (whitespace-tolerant).
  put(root / "tests" / "CMakeLists.txt",
      "laco_add_test(test_good)\nlaco_add_test( test_orphan )\n");
  EXPECT_TRUE(analyze::analyze_tree(root).empty());
  fs::remove_all(root);
}

TEST(LintTree, RepoIsCleanAndWalkSkipsFixtures) {
  // The ctest gate runs the binary; this is the API-level equivalent,
  // and proves the walk never descends into analyze_fixtures/.
  const fs::path root = fs::path(LACO_ANALYZE_FIXTURE_DIR) / ".." / "..";
  const std::vector<std::string> files = analyze::collect_files(root);
  ASSERT_FALSE(files.empty());
  for (const std::string& rel : files) {
    EXPECT_EQ(rel.find("analyze_fixtures"), std::string::npos) << rel;
  }
  EXPECT_EQ(tree_diags(root), std::vector<std::string>{});
}

// ------------------------------------------------------------- stripping

// Regression pins for the tokenizer-based stripper: each of these
// fixtures made the old hand-rolled state machine misfire or drift line
// numbers.

TEST(LintStripper, RawStringBodiesNeverMatchRules) {
  // Violations spelled inside R"doc(...)doc" are prose; the one real
  // allocation after the literal keeps its exact line number.
  EXPECT_EQ(diags("raw_string.cpp", "src/fixture/raw_string.cpp"),
            std::vector<std::string>{
                "src/fixture/raw_string.cpp:12: [naked-new] use "
                "std::make_unique/std::make_shared or containers instead of naked allocation"});
}

TEST(LintStripper, MacroContinuationLinesAreNotCode) {
  EXPECT_EQ(diags("macro_continuation.cpp", "src/fixture/macro_continuation.cpp"),
            std::vector<std::string>{});
}

TEST(LintStripper, SplicedStringLiteralKeepsLineNumbers) {
  // The backslash-newline splice inside the literal used to swallow a
  // newline and shift every later diagnostic up a line.
  EXPECT_EQ(diags("spliced_string.cpp", "src/fixture/spliced_string.cpp"),
            std::vector<std::string>{
                "src/fixture/spliced_string.cpp:7: [naked-new] use "
                "std::make_unique/std::make_shared or containers instead of naked allocation"});
}

}  // namespace
