// laco-analyze — the static analyzer for the LACO tree
// (docs/STATIC_ANALYSIS.md). It lexes real C++ tokens (comments,
// string/char literals, raw strings, and line-spliced literals all
// removed with exact line numbers preserved) and builds the project
// include graph, so it can prove structural invariants:
//
//   - the layer DAG (util → obs → nn → plan → serve, …): no upward or
//     cyclic includes between src/ subsystems,
//   - include hygiene (IWYU-lite unused project headers, duplicates,
//     file-level include cycles),
//   - lock discipline: LACO_GUARDED_BY fields only touched under a
//     MutexLock scope or inside a LACO_REQUIRES-annotated method,
//   - Tensor pass-by-value (an accidental shared_ptr copy per call),
//   - determinism: regions marked `// LACO_DETERMINISTIC` must not use
//     unordered floating-point accumulation idioms,
//   - serialization discipline: a struct whose body uses serial::Writer
//     or serial::Reader must declare an explicit kVersion
//     (serial-versioned) and must appear in tests/test_snapshot.cpp's
//     round-trip suite (serial-roundtrip).
//
// The same pass runs the project-invariant text rules over the stripped
// lines (pragma-once, bare-assert, naked-new, rand, iostream,
// mutex-guard, nograd-forward, catch-swallow, plan-hot-alloc), the tree
// rule test-registered, and — on request — compiles every header on its
// own (self-contained).
//
// This header is the library half: tools/laco_analyze.cpp wraps it in
// a CLI (registered as the `laco_analyze` and `laco_analyze_headers`
// ctest gates) and tests/test_analyze.cpp drives it over fixtures
// asserting exact diagnostics. A token-rule finding can be suppressed
// with a trailing `// analyze-ok(rule-id)` comment stating why; the
// text rules have scope tables only.
#pragma once

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace laco::analyze {

struct Diagnostic {
  std::string relpath;  ///< root-relative, '/' separators
  int line = 1;
  std::string rule;     ///< stable id, e.g. "layer-dag"
  std::string message;

  /// Canonical rendering: "path:line: [rule] message".
  std::string str() const;
};

/// One lexed token of the comment/string-stripped source.
struct Token {
  enum class Kind { kIdentifier, kNumber, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 1;
};

struct IncludeDirective {
  std::string path;  ///< as written inside the quotes/brackets
  int line = 1;
  bool angled = false;  ///< <...> (system) vs "..." (project)
};

/// The tokenizer's full view of one file.
struct TokenizedFile {
  /// Code tokens only: comments, strings, chars, raw strings and
  /// preprocessor directive lines are excluded.
  std::vector<Token> tokens;
  std::vector<IncludeDirective> includes;
  std::vector<std::string> defines;  ///< #define'd macro names
  bool has_pragma_once = false;
  /// Lines carrying a `// LACO_DETERMINISTIC` marker comment.
  std::vector<int> deterministic_marks;
  /// line -> rule ids suppressed by `// analyze-ok(rule)` on that line.
  std::map<int, std::set<std::string>> suppressions;
  /// The stripped source with preprocessor *continuation* lines (the
  /// lines after a `#…\` splice) blanked: what the text rules match, so
  /// macro bodies never trip them while a directive's first line
  /// (`#define NAME \`) stays visible.
  std::string line_text;
};

/// Strips //, /* */ comments and string/char literals — including raw
/// strings R"(…)" and backslash-newline-spliced literals — while
/// preserving line structure exactly, so downstream patterns never
/// match inside prose and diagnostics keep true line numbers.
std::string strip_source(const std::string& source);

/// Full tokenization of `source` (see TokenizedFile).
TokenizedFile tokenize(const std::string& source);

/// The architectural layer of a root-relative path, e.g.
/// "src/nn/tensor.hpp" -> "nn". The laco_flows sources that live under
/// src/placer/ (inflation, net_weighting) map to the virtual layer
/// "flows" above router. Empty for paths outside src/.
std::string layer_of(const std::string& relpath);

/// Layers `from` may include headers from (reflexive-transitive
/// closure of the CMake link graph in src/CMakeLists.txt).
bool layer_may_include(const std::string& from, const std::string& to);

/// Runs every per-file rule — the token rules and the text rules — on
/// one file. `relpath` decides scope (e.g. bare-assert only fires under
/// src/); the file itself may live anywhere, which is how the fixture
/// tests exercise scoped rules. `root` locates the paired header for
/// guarded-field harvesting (pass an empty path to skip pairing —
/// fixture mode).
std::vector<Diagnostic> analyze_file(const std::filesystem::path& file,
                                     const std::string& relpath,
                                     const std::filesystem::path& root = {});

/// Root-relative paths of every C++ file the tree walk visits
/// (src/ tests/ tools/ bench/, skipping *_fixtures/ directories).
std::vector<std::string> collect_files(const std::filesystem::path& root);

/// Whole-tree analysis: the per-file rules on every collected file plus
/// the tree rules — layer-dag, include-cycle, iwyu-unused-include and
/// serial-roundtrip over src/, and test-registered (every
/// tests/test_*.cpp appears as laco_add_test(<stem>) in
/// tests/CMakeLists.txt; a no-op when that list is absent, as in
/// fixture trees). Diagnostics are sorted by path then line.
std::vector<Diagnostic> analyze_tree(const std::filesystem::path& root);

/// Rule "self-contained": compiles each header among `relpaths` on its
/// own (`cxx cxx_flags -fsyntax-only`, one compile per hardware thread)
/// to prove it includes what it uses. An empty `cxx` means "c++"; empty
/// `cxx_flags` mean "-std=c++20 -I <root>/src". Relative include paths
/// in `cxx_flags` resolve against the current directory.
std::vector<Diagnostic> check_headers(const std::filesystem::path& root,
                                      const std::vector<std::string>& relpaths,
                                      const std::string& cxx, const std::string& cxx_flags);

}  // namespace laco::analyze
