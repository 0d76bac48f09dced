// laco-analyze CLI — the static analyzer for the LACO tree
// (tools/analyze_core.hpp, docs/STATIC_ANALYSIS.md). Registered as two
// tier-1 ctest gates, so `ctest` fails on any violation: `laco_analyze`
// runs every rule over the whole tree, and `laco_analyze_headers`
// compiles each header on its own.
//
// Usage:
//   laco-analyze --root DIR [--headers [--cxx PATH] [--cxxflags FLAGS]] [relpath...]
//     --root DIR        repository root (default: current directory)
//     --headers         compile each header standalone instead of running the rules
//     --cxx PATH        compiler for --headers (default: c++)
//     --cxxflags FLAGS  flags for --headers (default: -std=c++20 -I DIR/src)
//     relpath...        only these root-relative files: the per-file rules,
//                       or with --headers the header compiles
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "analyze_core.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --root DIR [--headers [--cxx PATH] [--cxxflags FLAGS]] [relpath...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool headers = false;
  std::string cxx;
  std::string cxx_flags;
  std::vector<std::string> explicit_files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--root") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      root = v;
    } else if (arg == "--headers") {
      headers = true;
    } else if (arg == "--cxx") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cxx = v;
    } else if (arg == "--cxxflags") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cxx_flags = v;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      explicit_files.push_back(arg);
    }
  }

  std::vector<laco::analyze::Diagnostic> diagnostics;
  try {
    if (headers) {
      diagnostics = laco::analyze::check_headers(
          root, explicit_files.empty() ? laco::analyze::collect_files(root) : explicit_files,
          cxx, cxx_flags);
    } else if (explicit_files.empty()) {
      diagnostics = laco::analyze::analyze_tree(root);
    } else {
      for (const std::string& rel : explicit_files) {
        auto file_diags =
            laco::analyze::analyze_file(std::filesystem::path(root) / rel, rel, root);
        diagnostics.insert(diagnostics.end(), file_diags.begin(), file_diags.end());
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "laco-analyze: " << e.what() << '\n';
    return 2;
  }

  for (const auto& d : diagnostics) std::cout << d.str() << '\n';
  if (!diagnostics.empty()) {
    std::cerr << "laco-analyze: " << diagnostics.size() << " violation(s)\n";
    return 1;
  }
  return 0;
}
