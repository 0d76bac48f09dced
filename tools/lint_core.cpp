#include "lint_core.hpp"

#include "analyze_core.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <thread>

#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace laco::lint {
namespace {

namespace fs = std::filesystem;

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_header(const std::string& relpath) {
  return ends_with(relpath, ".hpp") || ends_with(relpath, ".h");
}

bool is_source(const std::string& relpath) {
  return ends_with(relpath, ".cpp") || ends_with(relpath, ".cc");
}

std::string read_file(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) throw std::runtime_error("laco-lint: cannot read " + file.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string::size_type pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

// Rule scopes. A relpath is the root-relative path with '/' separators.
bool in_src(const std::string& p) { return starts_with(p, "src/"); }
bool in_tests(const std::string& p) { return starts_with(p, "tests/"); }
bool in_serve_source(const std::string& p) { return starts_with(p, "src/serve/") && is_source(p); }
// The plan executor hot path (docs/PLAN.md): every per-forward
// allocation there defeats the arena design, so allocating constructs
// are banned outright; preallocation belongs in Workspace::prepare.
bool in_plan_hot_path(const std::string& p) {
  return starts_with(p, "src/plan/") && p.find("executor") != std::string::npos;
}
// Fault-handling layers (docs/RELIABILITY.md): the serving stack and
// the placement flow, where a silently swallowed exception turns into
// a hung future or a placement that skips its penalty without a trace.
bool in_fault_scope(const std::string& p) {
  return starts_with(p, "src/serve/") || starts_with(p, "src/laco/");
}

bool iostream_exempt(const std::string& p) {
  // util/logging owns the terminal; tools and bench are end-user
  // programs whose stdout IS the product (CSV tables, CLI output).
  return starts_with(p, "tools/") || starts_with(p, "bench/") ||
         starts_with(p, "src/util/logging");
}

bool rand_exempt(const std::string& p) { return starts_with(p, "src/util/rng"); }
bool mutex_rule_exempt(const std::string& p) {
  // util/mutex.hpp wraps the raw std::mutex everything else annotates.
  return p == "src/util/mutex.hpp";
}

void add(std::vector<Diagnostic>& out, const std::string& relpath, int line,
         const char* rule, const std::string& message) {
  Diagnostic d;
  d.relpath = relpath;
  d.line = line;
  d.rule = rule;
  d.message = message;
  out.push_back(std::move(d));
}

// Patterns are spliced ("as" "sert") so laco-lint never flags its own
// source: string literals are stripped before matching, but keeping the
// tokens out of this file entirely is cheap insurance.
const std::regex& assert_re() {
  static const std::regex re("(^|[^A-Za-z0-9_])as" "sert\\s*\\(");
  return re;
}
const std::regex& new_re() {
  static const std::regex re("(^|[^A-Za-z0-9_])n" "ew[^A-Za-z0-9_]");
  return re;
}
const std::regex& delete_re() {
  static const std::regex re("(^|[^A-Za-z0-9_])del" "ete([^A-Za-z0-9_]|$)");
  return re;
}
const std::regex& rand_re() {
  static const std::regex re("(^|[^A-Za-z0-9_])s?ra" "nd\\s*\\(");
  return re;
}
const std::regex& iostream_re() {
  static const std::regex re("std::c" "(out|err)[^A-Za-z0-9_]");
  return re;
}
const std::regex& mutex_member_re() {
  static const std::regex re("^\\s*(mutable\\s+)?(std::mu" "tex|laco::Mutex|Mutex)\\s+[A-Za-z_][A-Za-z0-9_]*\\s*;");
  return re;
}
const std::regex& forward_call_re() {
  static const std::regex re("(->|\\.)\\s*forward\\s*\\(");
  return re;
}
const std::regex& catch_all_re() {
  static const std::regex re("(^|[^A-Za-z0-9_])ca" "tch\\s*\\(\\s*\\.\\.\\.\\s*\\)");
  return re;
}
const std::regex& plan_alloc_re() {
  static const std::regex re(
      "Tensor::(ze" "ros|fu" "ll|from" "_data|sca" "lar)\\s*\\(|"
      "make_sh" "ared|make_un" "ique|"
      "(^|[^A-Za-z0-9_])(push_b" "ack|emplace_b" "ack|res" "ize|res" "erve)\\s*\\(");
  return re;
}

/// `= delete;` (deleted special members) is not memory management.
bool is_deleted_function(const std::string& line, std::size_t match_pos) {
  for (std::size_t i = match_pos; i-- > 0;) {
    const char c = line[i];
    if (c == ' ' || c == '\t') continue;
    return c == '=';
  }
  return false;
}

// Runs on stripped text so a comment merely mentioning the directive
// does not satisfy the rule.
void check_pragma_once(const std::string& stripped, const std::string& relpath,
                       std::vector<Diagnostic>& out) {
  static const std::regex pragma_re("#\\s*pragma\\s+once");
  if (!std::regex_search(stripped, pragma_re)) {
    add(out, relpath, 1, "pragma-once", "header must use '#pragma once'");
  }
}

void check_line_rules(const std::vector<std::string>& lines, const std::string& relpath,
                      std::vector<Diagnostic>& out) {
  const bool src = in_src(relpath);
  const bool check_iostream = (src || in_tests(relpath)) && !iostream_exempt(relpath);
  const bool check_rand = !rand_exempt(relpath);
  const bool hot_path = in_plan_hot_path(relpath);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const int lineno = static_cast<int>(i) + 1;
    std::smatch m;
    if (hot_path && std::regex_search(line, m, plan_alloc_re())) {
      add(out, relpath, lineno, "plan-hot-alloc",
          "no allocations in the plan executor hot path: Tensor factories, make_shared/"
          "make_unique, and container growth belong in Workspace::prepare (docs/PLAN.md)");
    }
    if (src && std::regex_search(line, m, assert_re())) {
      add(out, relpath, lineno, "bare-assert",
          "use LACO_CHECK/LACO_DCHECK (util/check.hpp); bare asserts vanish under NDEBUG");
    }
    if (src && std::regex_search(line, m, new_re())) {
      add(out, relpath, lineno, "naked-new",
          "use std::make_unique/std::make_shared or containers instead of naked allocation");
    }
    if (src && std::regex_search(line, m, delete_re()) &&
        !is_deleted_function(line, static_cast<std::size_t>(m.position(0)))) {
      add(out, relpath, lineno, "naked-new",
          "use RAII owners instead of manual deallocation");
    }
    if (check_rand && std::regex_search(line, m, rand_re())) {
      add(out, relpath, lineno, "rand",
          "use util/rng.hpp (seeded, reproducible) instead of the C PRNG");
    }
    if (check_iostream && std::regex_search(line, m, iostream_re())) {
      add(out, relpath, lineno, "iostream",
          "use util/logging.hpp (LACO_LOG_*) for library output");
    }
  }
}

void check_mutex_guarded(const std::vector<std::string>& lines, const std::string& stripped,
                         const std::string& relpath, std::vector<Diagnostic>& out) {
  if (!in_src(relpath) || !is_header(relpath) || mutex_rule_exempt(relpath)) return;
  const bool has_guard = stripped.find("LACO_GUARDED_BY(") != std::string::npos;
  if (has_guard) return;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (std::regex_search(lines[i], mutex_member_re())) {
      add(out, relpath, static_cast<int>(i) + 1, "mutex-guard",
          "mutex member without any LACO_GUARDED_BY annotation in this header");
    }
  }
}

/// Brace-depth scan: every model forward in src/serve must execute
/// under an nn::NoGradGuard in an enclosing scope (tensor.hpp
/// concurrency contract — grad recording on shared weights is a race).
void check_nograd_forward(const std::vector<std::string>& lines, const std::string& relpath,
                          std::vector<Diagnostic>& out) {
  if (!in_serve_source(relpath)) return;
  int depth = 0;
  std::vector<int> guard_depths;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.find("NoGradGuard") != std::string::npos) guard_depths.push_back(depth);
    if (std::regex_search(line, forward_call_re()) && guard_depths.empty()) {
      add(out, relpath, static_cast<int>(i) + 1, "nograd-forward",
          "model forward() in src/serve must run under nn::NoGradGuard");
    }
    for (const char c : line) {
      if (c == '{') ++depth;
      if (c == '}') --depth;
    }
    while (!guard_depths.empty() && depth < guard_depths.back()) guard_depths.pop_back();
  }
}

/// Brace-matched scan over the stripped text: a `catch (...)` in the
/// fault-handling layers must visibly do something with the exception —
/// rethrow, log, or forward it into a promise/batch — or it swallows a
/// fault the reliability machinery (typed futures, degradation) exists
/// to surface. Runs on stripped text, so a marker inside a
/// comment or string does not satisfy the rule.
void check_catch_swallow(const std::string& stripped, const std::string& relpath,
                         std::vector<Diagnostic>& out) {
  if (!in_fault_scope(relpath)) return;
  static const char* const kHandlingMarkers[] = {
      "throw",              // rethrow / throw-new / std::rethrow_exception
      "LACO_LOG_",          // at minimum, the fault leaves a trace
      "set_exception",      // forwarded into a promise
      "fail_batch",         // forwarded into a batch's promises
      "current_exception",  // captured for later propagation
      "abort",              // deliberate crash is not a swallow
  };
  const auto end = std::sregex_iterator();
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(), catch_all_re());
       it != end; ++it) {
    const std::size_t match_pos = static_cast<std::size_t>(it->position(0));
    const std::size_t open = stripped.find('{', match_pos + static_cast<std::size_t>(it->length(0)));
    if (open == std::string::npos) continue;
    int depth = 0;
    std::size_t close = open;
    for (; close < stripped.size(); ++close) {
      if (stripped[close] == '{') ++depth;
      if (stripped[close] == '}' && --depth == 0) break;
    }
    const std::string block = stripped.substr(open, close - open + 1);
    const bool handled = std::any_of(std::begin(kHandlingMarkers), std::end(kHandlingMarkers),
                                     [&block](const char* marker) {
                                       return block.find(marker) != std::string::npos;
                                     });
    if (handled) continue;
    // Group 1 is the non-identifier prefix (possibly a newline): count
    // lines up to the keyword itself, not the character before it.
    const std::size_t keyword_pos = match_pos + static_cast<std::size_t>((*it)[1].length());
    const int lineno = 1 + static_cast<int>(std::count(
                               stripped.begin(),
                               stripped.begin() + static_cast<std::ptrdiff_t>(keyword_pos), '\n'));
    add(out, relpath, lineno, "catch-swallow",
        "catch (...) in src/serve//src/laco must rethrow, log (LACO_LOG_*), or forward the "
        "exception (set_exception/fail_batch); swallowed faults defeat the reliability layer");
  }
}

/// Compiles `header` standalone (-fsyntax-only) to prove it includes
/// what it uses. Returns the compiler exit status.
int compile_header(const std::string& cxx, const std::string& flags, const fs::path& header,
                   const fs::path& scratch_dir, std::size_t index) {
  const fs::path tu = scratch_dir / ("header_" + std::to_string(index) + ".cpp");
  {
    std::ofstream out(tu);
    out << "#include \"" << header.generic_string() << "\"\n";
  }
  const std::string command =
      cxx + " " + flags + " -fsyntax-only " + tu.string() + " > /dev/null 2>&1";
  return std::system(command.c_str());
}

}  // namespace

std::string Diagnostic::str() const {
  return relpath + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

std::string strip_comments_and_strings(const std::string& source) {
  // Delegates to the laco-analyze tokenizer (tools/analyze_core.hpp):
  // the shared stripper handles raw strings R"( … )" and
  // backslash-newline-spliced literals with exact line preservation,
  // and blanks preprocessor continuation lines so multi-line macro
  // bodies never trip per-line rules. Fixture tests in
  // tests/test_lint.cpp pin the exact output.
  return analyze::strip_for_line_rules(source);
}

std::vector<Diagnostic> lint_file(const fs::path& file, const std::string& relpath,
                                  const Options& options) {
  std::vector<Diagnostic> out;
  if (!options.text_rules) return out;
  const std::string raw = read_file(file);
  const std::string stripped = strip_comments_and_strings(raw);
  const std::vector<std::string> lines = split_lines(stripped);
  if (is_header(relpath)) check_pragma_once(stripped, relpath, out);
  check_line_rules(lines, relpath, out);
  check_mutex_guarded(lines, stripped, relpath, out);
  check_nograd_forward(lines, relpath, out);
  check_catch_swallow(stripped, relpath, out);
  std::stable_sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    return a.line < b.line;
  });
  return out;
}

std::vector<std::string> collect_files(const fs::path& root) {
  std::vector<std::string> files;
  for (const char* top : {"src", "tests", "tools", "bench"}) {
    const fs::path dir = root / top;
    if (!fs::exists(dir)) continue;
    for (auto it = fs::recursive_directory_iterator(dir); it != fs::recursive_directory_iterator();
         ++it) {
      // Fixture trees (lint_fixtures/, analyze_fixtures/, ...) violate
      // rules on purpose; they are driven explicitly by their tests.
      const std::string dirname = it->is_directory() ? it->path().filename().string() : "";
      if (it->is_directory() && dirname.size() >= 9 &&
          dirname.compare(dirname.size() - 9, 9, "_fixtures") == 0) {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      const std::string rel = fs::relative(it->path(), root).generic_string();
      if (is_header(rel) || is_source(rel)) files.push_back(rel);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<Diagnostic> check_tests_registered(const fs::path& root,
                                               const std::vector<std::string>& files) {
  std::vector<Diagnostic> out;
  const fs::path cmake_list = root / "tests" / "CMakeLists.txt";
  if (!fs::exists(cmake_list)) return out;
  const std::string cmake = read_file(cmake_list);
  for (const std::string& rel : files) {
    if (rel.rfind("tests/test_", 0) != 0 || rel.find('/', 6) != std::string::npos) continue;
    if (rel.size() < 4 || rel.compare(rel.size() - 4, 4, ".cpp") != 0) continue;
    const std::string stem = rel.substr(6, rel.size() - 6 - 4);  // "test_*"
    const std::regex registered("laco_add_test\\s*\\(\\s*" + stem + "\\s*\\)");
    if (!std::regex_search(cmake, registered)) {
      add(out, rel, 1, "test-registered",
          "register it with laco_add_test(" + stem +
              ") in tests/CMakeLists.txt — unregistered tests never run");
    }
  }
  return out;
}

std::vector<Diagnostic> lint_tree(const fs::path& root, const Options& options) {
  const std::vector<std::string> files = collect_files(root);
  std::vector<Diagnostic> out;
  for (const std::string& rel : files) {
    std::vector<Diagnostic> file_diags = lint_file(root / rel, rel, options);
    out.insert(out.end(), file_diags.begin(), file_diags.end());
  }
  if (options.text_rules) {
    std::vector<Diagnostic> reg = check_tests_registered(root, files);
    out.insert(out.end(), reg.begin(), reg.end());
  }

  if (options.check_self_contained) {
    const std::string cxx = options.cxx.empty() ? "c++" : options.cxx;
    std::string flags = options.cxx_flags;
    if (flags.empty()) flags = "-std=c++20 -I " + (root / "src").string();
    const fs::path scratch =
        fs::temp_directory_path() / ("laco_lint_" + std::to_string(::getpid()));
    fs::create_directories(scratch);

    std::vector<std::string> headers;
    for (const std::string& rel : files) {
      if (is_header(rel)) headers.push_back(rel);
    }
    const int jobs = options.jobs > 0
                         ? options.jobs
                         : std::max(1u, std::thread::hardware_concurrency());
    Mutex mutex;
    std::vector<Diagnostic> failures;  // guarded by `mutex` (local, so no attribute)
    {
      ThreadPool pool(jobs, headers.size() + 1);
      for (std::size_t i = 0; i < headers.size(); ++i) {
        const std::string rel = headers[i];
        pool.submit([&, rel, i] {
          const int status = compile_header(cxx, flags, root / rel, scratch, i);
          if (status != 0) {
            MutexLock lock(mutex);
            add(failures, rel, 1, "self-contained",
                "header does not compile standalone (missing includes?)");
          }
        });
      }
      pool.shutdown();
    }
    std::error_code ec;
    fs::remove_all(scratch, ec);
    std::sort(failures.begin(), failures.end(),
              [](const Diagnostic& a, const Diagnostic& b) { return a.relpath < b.relpath; });
    out.insert(out.end(), failures.begin(), failures.end());
  }
  return out;
}

}  // namespace laco::lint
