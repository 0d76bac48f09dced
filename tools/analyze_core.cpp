#include "analyze_core.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/thread_pool.hpp"

namespace laco::analyze {
namespace {

namespace fs = std::filesystem;

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_header(const std::string& relpath) {
  return ends_with(relpath, ".hpp") || ends_with(relpath, ".h");
}

bool is_source(const std::string& relpath) {
  return ends_with(relpath, ".cpp") || ends_with(relpath, ".cc");
}

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
}

std::string read_file(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) throw std::runtime_error("laco-analyze: cannot read " + file.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void add(std::vector<Diagnostic>& out, const std::string& relpath, int line, const char* rule,
         const std::string& message) {
  Diagnostic d;
  d.relpath = relpath;
  d.line = line;
  d.rule = rule;
  d.message = message;
  out.push_back(std::move(d));
}

// ------------------------------------------------------------ stripping

/// True when the '"' at `i` opens a raw string literal: R"…, u8R"…,
/// uR"…, UR"…, LR"… with no identifier character glued before the
/// prefix (so `FOUR"x"` is not one).
bool is_raw_string_start(const std::string& s, std::size_t i) {
  if (i == 0 || s[i - 1] != 'R') return false;
  std::size_t p = i - 1;  // index of 'R'
  if (p >= 2 && s[p - 2] == 'u' && s[p - 1] == '8') {
    p -= 2;
  } else if (p >= 1 && (s[p - 1] == 'u' || s[p - 1] == 'U' || s[p - 1] == 'L')) {
    p -= 1;
  }
  return p == 0 || !is_ident_char(s[p - 1]);
}

struct CommentNote {
  int line;
  std::string text;
};

/// The shared stripping pass. Emits a line-structure-preserving copy
/// of `source` with comments and every literal kind blanked; collects
/// the comment texts so marker comments (LACO_DETERMINISTIC,
/// analyze-ok) survive the strip.
std::string strip_impl(const std::string& source, std::vector<CommentNote>* comments) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  std::string out;
  out.reserve(source.size());
  State state = State::kCode;
  int line = 1;
  std::string comment_text;
  int comment_line = 1;
  const auto flush_comment = [&]() {
    if (comments != nullptr && !comment_text.empty()) {
      comments->push_back(CommentNote{comment_line, comment_text});
    }
    comment_text.clear();
  };
  // Tracks pp-number context so the C++14 digit separator in 50'000
  // is not mistaken for a char-literal opening quote.
  bool in_number = false;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    if (state == State::kCode) {
      if (in_number) {
        const bool separator =
            c == '\'' && (is_ident_char(next) || (next >= '0' && next <= '9'));
        if (!is_ident_char(c) && c != '.' && !separator) in_number = false;
      } else if (c >= '0' && c <= '9') {
        const char prev = i > 0 ? source[i - 1] : '\0';
        if (!is_ident_char(prev) && prev != '.') in_number = true;
      }
    } else {
      in_number = false;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment_line = line;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment_line = line;
          out += "  ";
          ++i;
        } else if (c == '"' && is_raw_string_start(source, i)) {
          // Raw string: R"delim( … )delim". Blank everything between
          // the quotes, keeping newlines so line numbers stay exact.
          std::size_t j = i + 1;
          std::string delim;
          while (j < source.size() && source[j] != '(' && delim.size() <= 16) {
            delim += source[j];
            ++j;
          }
          const std::string closer = ")" + delim + "\"";
          const std::size_t close = source.find(closer, j);
          const std::size_t end =
              close == std::string::npos ? source.size() : close + closer.size();
          for (std::size_t k = i; k < end; ++k) {
            if (source[k] == '\n') {
              out += '\n';
              ++line;
            } else {
              out += ' ';
            }
          }
          i = end - 1;
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'' && !in_number) {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
          if (c == '\n') ++line;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          flush_comment();
          out += '\n';
          ++line;
        } else {
          comment_text += c;
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          flush_comment();
          out += "  ";
          ++i;
        } else {
          comment_text += c;
          if (c == '\n') {
            out += '\n';
            ++line;
          } else {
            out += ' ';
          }
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\' && next == '\n') {
          // Spliced literal: the escape continues the literal on the
          // next physical line. Keep the newline (line numbers!).
          out += " \n";
          ++line;
          ++i;
        } else if (c == '\\' && next != '\0') {
          out += "  ";
          ++i;
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          state = State::kCode;
          out += ' ';
        } else if (c == '\n') {
          // Unterminated literal on this line (or a multi-line string
          // in broken input): fail open, back to code.
          out += '\n';
          ++line;
        } else {
          out += ' ';
        }
        break;
    }
  }
  flush_comment();
  return out;
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

bool line_is_directive_start(const std::string& line) {
  for (const char c : line) {
    if (c == ' ' || c == '\t') continue;
    return c == '#';
  }
  return false;
}

bool line_continues(const std::string& line) {
  for (std::size_t i = line.size(); i-- > 0;) {
    const char c = line[i];
    if (c == ' ' || c == '\t' || c == '\r') continue;
    return c == '\\';
  }
  return false;
}

/// Marks every line (0-based) that belongs to a preprocessor
/// directive; `continuation` additionally marks only the spliced
/// follow-on lines.
void mark_directive_lines(const std::vector<std::string>& lines, std::vector<bool>& directive,
                          std::vector<bool>& continuation) {
  directive.assign(lines.size(), false);
  continuation.assign(lines.size(), false);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!line_is_directive_start(lines[i])) continue;
    directive[i] = true;
    std::size_t j = i;
    while (j < lines.size() && line_continues(lines[j]) && j + 1 < lines.size()) {
      ++j;
      directive[j] = true;
      continuation[j] = true;
    }
    i = j;
  }
}

// ------------------------------------------------------------- lexing

const std::set<std::string>& keywords() {
  static const std::set<std::string> kw = {
      "alignas",  "alignof",  "auto",     "bool",     "break",    "case",      "catch",
      "char",     "class",    "const",    "constexpr", "continue", "decltype", "default",
      "delete",   "do",       "double",   "else",     "enum",     "explicit",  "extern",
      "false",    "final",    "float",    "for",      "friend",   "goto",      "if",
      "inline",   "int",      "long",     "mutable",  "namespace", "new",      "noexcept",
      "nullptr",  "operator", "override", "private",  "protected", "public",   "return",
      "short",    "signed",   "sizeof",   "static",   "struct",   "switch",    "template",
      "this",     "throw",    "true",     "try",      "typedef",  "typename",  "union",
      "unsigned", "using",    "virtual",  "void",     "volatile", "while"};
  return kw;
}

void lex(const std::vector<std::string>& lines, const std::vector<bool>& skip_line,
         std::vector<Token>& out) {
  for (std::size_t li = 0; li < lines.size(); ++li) {
    if (skip_line[li]) continue;
    const std::string& line = lines[li];
    const int lineno = static_cast<int>(li) + 1;
    for (std::size_t i = 0; i < line.size();) {
      const char c = line[i];
      if (c == ' ' || c == '\t' || c == '\r' || c == '\\') {
        ++i;
        continue;
      }
      Token t;
      t.line = lineno;
      if (is_ident_char(c) && !(c >= '0' && c <= '9')) {
        std::size_t j = i;
        while (j < line.size() && is_ident_char(line[j])) ++j;
        t.kind = Token::Kind::kIdentifier;
        t.text = line.substr(i, j - i);
        i = j;
      } else if (c >= '0' && c <= '9') {
        std::size_t j = i;
        while (j < line.size() &&
               (is_ident_char(line[j]) || line[j] == '.' || line[j] == '\'')) {
          ++j;
        }
        t.kind = Token::Kind::kNumber;
        t.text = line.substr(i, j - i);
        i = j;
      } else {
        t.kind = Token::Kind::kPunct;
        const char next = i + 1 < line.size() ? line[i + 1] : '\0';
        if ((c == ':' && next == ':') || (c == '-' && next == '>')) {
          t.text = std::string(1, c) + next;
          i += 2;
        } else {
          t.text = std::string(1, c);
          ++i;
        }
      }
      out.push_back(std::move(t));
    }
  }
}

// --------------------------------------------------------- layer model

/// Direct layer dependencies, mirroring the target_link_libraries graph
/// in src/CMakeLists.txt. "flows" is the virtual layer of the
/// routability-driven sources that live under src/placer/ but sit above
/// the router (laco_flows).
const std::map<std::string, std::set<std::string>>& layer_deps() {
  static const std::map<std::string, std::set<std::string>> deps = {
      {"util", {}},
      {"obs", {"util"}},
      {"gridmap", {"util"}},
      {"netlist", {"util", "gridmap"}},
      {"features", {"netlist", "gridmap"}},
      {"metrics", {"gridmap", "netlist"}},
      {"nn", {"util", "obs"}},
      {"plan", {"nn", "obs"}},
      {"models", {"nn", "gridmap", "features"}},
      {"placer", {"netlist", "features", "gridmap", "obs"}},
      {"router", {"netlist", "gridmap", "placer", "metrics"}},
      {"flows", {"placer", "router"}},
      {"train", {"models", "placer", "router", "flows", "metrics", "nn"}},
      {"laco", {"train"}},
      {"serve", {"laco", "plan"}},
  };
  return deps;
}

/// Reflexive-transitive closure of layer_deps(), computed once. Also
/// proves the declared graph is a DAG: a cycle would make the closure
/// contain X in closure(X) via a non-trivial path, which the assertion
/// below would catch at first use.
const std::map<std::string, std::set<std::string>>& layer_closure() {
  static const std::map<std::string, std::set<std::string>> closure = [] {
    std::map<std::string, std::set<std::string>> out;
    std::function<const std::set<std::string>&(const std::string&)> resolve =
        [&](const std::string& layer) -> const std::set<std::string>& {
      auto it = out.find(layer);
      if (it != out.end()) return it->second;
      std::set<std::string>& mine = out[layer];
      mine.insert(layer);
      const auto dep_it = layer_deps().find(layer);
      if (dep_it != layer_deps().end()) {
        for (const std::string& d : dep_it->second) {
          const std::set<std::string>& sub = resolve(d);
          mine.insert(sub.begin(), sub.end());
        }
      }
      return mine;
    };
    for (const auto& [layer, _] : layer_deps()) resolve(layer);
    return out;
  }();
  return closure;
}

// ----------------------------------------------------- rule scaffolding

bool in_src(const std::string& p) { return starts_with(p, "src/"); }

bool suppressed(const TokenizedFile& tf, int line, const char* rule) {
  const auto it = tf.suppressions.find(line);
  return it != tf.suppressions.end() && it->second.count(rule) > 0;
}

// ------------------------------------------------------ tensor-by-value

void check_tensor_by_value(const TokenizedFile& tf, const std::string& relpath,
                           std::vector<Diagnostic>& out) {
  if (!in_src(relpath)) return;
  const std::vector<Token>& t = tf.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text != "Tensor" || t[i].kind != Token::Kind::kIdentifier) continue;
    // Optional nn:: qualification.
    std::size_t first = i;
    if (first >= 2 && t[first - 1].text == "::" && t[first - 2].text == "nn") first -= 2;
    if (first == 0) continue;
    std::size_t prev = first - 1;
    if (t[prev].text == "const") {
      if (prev == 0) continue;
      --prev;
    }
    // A parameter starts right after '(' or ','.
    if (t[prev].text != "(" && t[prev].text != ",") continue;
    if (i + 2 >= t.size()) continue;
    const Token& name = t[i + 1];
    const Token& after = t[i + 2];
    if (name.kind != Token::Kind::kIdentifier || keywords().count(name.text) > 0) continue;
    if (after.text != "," && after.text != ")" && after.text != "=") continue;
    if (suppressed(tf, t[i].line, "tensor-by-value")) continue;
    add(out, relpath, t[i].line, "tensor-by-value",
        "parameter '" + name.text +
            "' takes nn::Tensor by value (one shared-impl copy per call); pass const "
            "Tensor& — or, for an intentional sink parameter, add // "
            "analyze-ok(tensor-by-value)");
  }
}

// ------------------------------------------------- nondeterministic-accum

void check_deterministic_regions(const TokenizedFile& tf, const std::string& relpath,
                                 std::vector<Diagnostic>& out) {
  const std::vector<Token>& t = tf.tokens;
  for (const int mark_line : tf.deterministic_marks) {
    // The region is the first brace block opening at or after the
    // marker (a loop body or function body); to end of file if none.
    std::size_t begin = t.size();
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].line >= mark_line && t[i].text == "{") {
        begin = i;
        break;
      }
    }
    std::size_t end = t.size();
    if (begin < t.size()) {
      int depth = 0;
      for (std::size_t i = begin; i < t.size(); ++i) {
        if (t[i].text == "{") ++depth;
        if (t[i].text == "}" && --depth == 0) {
          end = i;
          break;
        }
      }
    } else {
      begin = 0;  // marker after the last brace: scan the tail
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].line >= mark_line) {
          begin = i;
          break;
        }
      }
    }
    for (std::size_t i = begin; i < end; ++i) {
      if (suppressed(tf, t[i].line, "nondeterministic-accum")) continue;
      if (t[i].text == "fetch_add" || t[i].text == "fetch_sub") {
        add(out, relpath, t[i].line, "nondeterministic-accum",
            "atomic " + t[i].text +
                " inside a LACO_DETERMINISTIC region: cross-thread accumulation order is "
                "unspecified — use per-shard partial sums reduced in index order");
      } else if (t[i].text == "atomic" && i + 2 < end && t[i + 1].text == "<" &&
                 (t[i + 2].text == "float" || t[i + 2].text == "double")) {
        add(out, relpath, t[i].line, "nondeterministic-accum",
            "std::atomic<" + t[i + 2].text +
            "> inside a LACO_DETERMINISTIC region: floating-point accumulation through an "
            "atomic is unordered — use per-shard partial sums reduced in index order");
      } else if (t[i].text == "unordered_map" || t[i].text == "unordered_set") {
        add(out, relpath, t[i].line, "nondeterministic-accum",
            "reduction over std::" + t[i].text +
                " inside a LACO_DETERMINISTIC region: iteration order is unspecified — use a "
                "sorted container or index-ordered loop");
      }
    }
  }
}

// --------------------------------------------------------- guarded-access

struct GuardInfo {
  std::set<std::string> guarded_fields;
  std::set<std::string> requires_methods;  ///< declared with LACO_REQUIRES
};

void harvest_guards(const TokenizedFile& tf, GuardInfo& info) {
  const std::vector<Token>& t = tf.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text == "LACO_GUARDED_BY" && i > 0 &&
        t[i - 1].kind == Token::Kind::kIdentifier) {
      info.guarded_fields.insert(t[i - 1].text);
    }
    if (t[i].text == "LACO_REQUIRES" && i > 0) {
      // … NAME ( params ) [const|noexcept|override]* LACO_REQUIRES
      std::size_t j = i - 1;
      while (j > 0 && (t[j].text == "const" || t[j].text == "noexcept" ||
                       t[j].text == "override" || t[j].text == "final")) {
        --j;
      }
      if (t[j].text != ")") continue;
      int depth = 1;
      while (j > 0 && depth > 0) {
        --j;
        if (t[j].text == ")") ++depth;
        if (t[j].text == "(") --depth;
      }
      if (j > 0 && t[j - 1].kind == Token::Kind::kIdentifier) {
        info.requires_methods.insert(t[j - 1].text);
      }
    }
  }
}

const std::set<std::string>& lock_types() {
  static const std::set<std::string> types = {"MutexLock", "lock_guard", "unique_lock",
                                              "scoped_lock"};
  return types;
}

/// Finds the '(' that matches the ')' at `close`; returns npos-like
/// t.size() on failure.
std::size_t match_paren_back(const std::vector<Token>& t, std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (t[i].text == ")") ++depth;
    if (t[i].text == "(") {
      if (--depth == 0) return i;
    }
    if (i == 0) break;
  }
  return t.size();
}

/// True when the ')' ending at `close` belongs to a constructor
/// definition, i.e. `Name :: Name ( … )` (possibly reached by walking
/// back through a member-initializer list).
bool paren_is_ctor(const std::vector<Token>& t, std::size_t close) {
  std::size_t open = match_paren_back(t, close);
  for (int hops = 0; hops < 64; ++hops) {
    if (open >= t.size() || open == 0) return false;
    const std::size_t name = open - 1;
    if (t[name].kind == Token::Kind::kIdentifier) {
      if (name >= 2 && t[name - 1].text == "::" && t[name - 2].text == t[name].text) {
        return true;  // Name::Name(…)
      }
      if (name >= 1 && t[name - 1].text == "~") return true;  // destructor
    }
    // Member-initializer item: walk back over `, field(…)` / `: field(…)`
    // to the parameter list of the constructor itself.
    if (name == 0) return false;
    const std::size_t before = name - 1;
    if (t[before].text == ",") {
      // previous init item ends with ')' just before the ','… no: the
      // ',' separates items, the previous item's ')' is at before-1.
      if (before == 0 || t[before - 1].text != ")") return false;
      open = match_paren_back(t, before - 1);
      // loop: inspect that item's name and keep walking.
      continue;
    }
    if (t[before].text == ":") {
      if (before == 0 || t[before - 1].text != ")") return false;
      return paren_is_ctor(t, before - 1);
    }
    return false;
  }
  return false;
}

/// Lock-discipline scan over one src/ .cpp: occurrences of guarded
/// field names inside a function body must be covered by a live
/// MutexLock in an enclosing scope or a LACO_REQUIRES-annotated
/// method. Constructors/destructors are exempt (no concurrency before
/// the object escapes).
void check_guarded_access(const TokenizedFile& tf, const GuardInfo& info,
                          const std::string& relpath, std::vector<Diagnostic>& out) {
  if (!in_src(relpath) || !is_source(relpath) || info.guarded_fields.empty()) return;
  const std::vector<Token>& t = tf.tokens;
  struct Scope {
    bool function = false;  ///< this '{' opened a function body
    bool exempt = false;    ///< ctor/dtor or LACO_REQUIRES method
  };
  std::vector<Scope> scopes;
  std::vector<std::size_t> lock_depths;  // scope depth at MutexLock declaration
  int function_depth = 0;                // nesting count of function-body scopes
  int exempt_depth = 0;

  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& text = t[i].text;
    if (text == "{") {
      Scope s;
      if (i > 0) {
        std::size_t p = i - 1;
        while (p > 0 && (t[p].text == "const" || t[p].text == "noexcept" ||
                         t[p].text == "override" || t[p].text == "final")) {
          --p;
        }
        if (t[p].text == ")") {
          const std::size_t open = match_paren_back(t, p);
          if (open < t.size() && open > 0) {
            const Token& callee = t[open - 1];
            const bool control = callee.text == "if" || callee.text == "for" ||
                                 callee.text == "while" || callee.text == "switch" ||
                                 callee.text == "catch";
            const bool lambda = callee.text == "]";
            if (!control && !lambda && function_depth == 0 &&
                callee.kind == Token::Kind::kIdentifier) {
              s.function = true;
              s.exempt = paren_is_ctor(t, p) || info.requires_methods.count(callee.text) > 0;
            }
          }
        }
      }
      if (s.function) {
        ++function_depth;
        if (s.exempt) ++exempt_depth;
      }
      scopes.push_back(s);
      continue;
    }
    if (text == "}") {
      if (!scopes.empty()) {
        if (scopes.back().function) {
          --function_depth;
          if (scopes.back().exempt) --exempt_depth;
        }
        scopes.pop_back();
        while (!lock_depths.empty() && lock_depths.back() > scopes.size()) {
          lock_depths.pop_back();
        }
      }
      continue;
    }
    if (lock_types().count(text) > 0 && i + 1 < t.size() &&
        t[i + 1].kind == Token::Kind::kIdentifier) {
      lock_depths.push_back(scopes.size());
      continue;
    }
    if (t[i].kind != Token::Kind::kIdentifier || info.guarded_fields.count(text) == 0) {
      continue;
    }
    // Only accesses inside a non-exempt function body count; the
    // declaration itself (`T field_ LACO_GUARDED_BY(mu_);`) and
    // member-initializer lists sit outside any body.
    if (function_depth == 0 || exempt_depth > 0) continue;
    if (i + 1 < t.size() && t[i + 1].text == "LACO_GUARDED_BY") continue;
    if (!lock_depths.empty()) continue;
    if (suppressed(tf, t[i].line, "guarded-access")) continue;
    add(out, relpath, t[i].line, "guarded-access",
        "field '" + text +
            "' is LACO_GUARDED_BY a mutex but is touched with no MutexLock in scope and "
            "outside any LACO_REQUIRES method — lock first, or annotate the method");
  }
}

// ------------------------------------------------------- serial-versioned

/// A struct/class whose body mentions serial::Writer or serial::Reader
/// — i.e. it participates in the v2 checkpoint container format.
struct SerialStructInfo {
  std::string name;
  int line = 1;
  bool has_version = false;  ///< body declares kVersion
};

std::vector<SerialStructInfo> find_serial_structs(const TokenizedFile& tf) {
  std::vector<SerialStructInfo> out;
  const std::vector<Token>& t = tf.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text != "struct" && t[i].text != "class") continue;
    if (i > 0 && t[i - 1].text == "enum") continue;
    if (i + 1 >= t.size() || t[i + 1].kind != Token::Kind::kIdentifier) continue;
    // Find the body opener; hitting ';' first means a forward
    // declaration, '(' a declarator like `struct stat st(…)`.
    std::size_t open = i + 2;
    while (open < t.size() && t[open].text != "{" && t[open].text != ";" &&
           t[open].text != "(") {
      ++open;
    }
    if (open >= t.size() || t[open].text != "{") continue;
    int depth = 0;
    std::size_t end = t.size();
    for (std::size_t j = open; j < t.size(); ++j) {
      if (t[j].text == "{") ++depth;
      if (t[j].text == "}" && --depth == 0) {
        end = j;
        break;
      }
    }
    SerialStructInfo info;
    info.name = t[i + 1].text;
    info.line = t[i].line;
    bool uses_serial = false;
    for (std::size_t j = open; j < end; ++j) {
      if (t[j].text == "kVersion") info.has_version = true;
      if (t[j].text == "serial" && j + 2 < end && t[j + 1].text == "::" &&
          (t[j + 2].text == "Writer" || t[j + 2].text == "Reader")) {
        uses_serial = true;
      }
    }
    if (uses_serial) out.push_back(std::move(info));
  }
  return out;
}

/// Every struct serialized through laco::serial must declare an explicit
/// kVersion: unversioned payloads can only fail as checksum noise when
/// the layout changes, versioned ones fail with "unsupported format
/// version N" (docs/RELIABILITY.md "Checkpoint integrity").
void check_serial_versioned(const TokenizedFile& tf, const std::string& relpath,
                            std::vector<Diagnostic>& out) {
  if (!in_src(relpath)) return;
  for (const SerialStructInfo& s : find_serial_structs(tf)) {
    if (s.has_version) continue;
    if (suppressed(tf, s.line, "serial-versioned")) continue;
    add(out, relpath, s.line, "serial-versioned",
        "'" + s.name +
            "' is serialized through laco::serial but declares no kVersion — every "
            "serialized struct carries an explicit format version so old files fail "
            "cleanly (docs/RELIABILITY.md)");
  }
}

// ------------------------------------------------------ duplicate-include

void check_duplicate_includes(const TokenizedFile& tf, const std::string& relpath,
                              std::vector<Diagnostic>& out) {
  std::set<std::string> seen;
  for (const IncludeDirective& inc : tf.includes) {
    const std::string key = (inc.angled ? "<" : "\"") + inc.path;
    if (!seen.insert(key).second) {
      if (suppressed(tf, inc.line, "duplicate-include")) continue;
      add(out, relpath, inc.line, "duplicate-include",
          "\"" + inc.path + "\" is already included by this file — drop the duplicate");
    }
  }
}

// ------------------------------------------------------------ text rules
//
// Regexes over TokenizedFile::line_text, one finding per rule per line.
// These rules honour no analyze-ok comment: a misfire is fixed in the
// scope table below, with a comment justifying the exemption.

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

// Patterns are spliced ("as" "sert") so the analyzer never flags its
// own source: string literals are stripped before matching, but keeping
// the tokens out of this file entirely is cheap insurance.
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

void check_mutex_guarded(const std::vector<std::string>& lines, const std::string& line_text,
                         const std::string& relpath, std::vector<Diagnostic>& out) {
  if (!in_src(relpath) || !is_header(relpath) || mutex_rule_exempt(relpath)) return;
  if (line_text.find("LACO_GUARDED_BY(") != std::string::npos) return;
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
/// to surface. A marker inside a comment or string does not count.
void check_catch_swallow(const std::string& line_text, const std::string& relpath,
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
  for (auto it = std::sregex_iterator(line_text.begin(), line_text.end(), catch_all_re());
       it != end; ++it) {
    const std::size_t match_pos = static_cast<std::size_t>(it->position(0));
    const std::size_t open =
        line_text.find('{', match_pos + static_cast<std::size_t>(it->length(0)));
    if (open == std::string::npos) continue;
    int depth = 0;
    std::size_t close = open;
    for (; close < line_text.size(); ++close) {
      if (line_text[close] == '{') ++depth;
      if (line_text[close] == '}' && --depth == 0) break;
    }
    const std::string block = line_text.substr(open, close - open + 1);
    const bool handled = std::any_of(std::begin(kHandlingMarkers), std::end(kHandlingMarkers),
                                     [&block](const char* marker) {
                                       return block.find(marker) != std::string::npos;
                                     });
    if (handled) continue;
    // Group 1 is the non-identifier prefix (possibly a newline): count
    // lines up to the keyword itself, not the character before it.
    const std::size_t keyword_pos = match_pos + static_cast<std::size_t>((*it)[1].length());
    const int lineno = 1 + static_cast<int>(std::count(
                               line_text.begin(),
                               line_text.begin() + static_cast<std::ptrdiff_t>(keyword_pos), '\n'));
    add(out, relpath, lineno, "catch-swallow",
        "catch (...) in src/serve//src/laco must rethrow, log (LACO_LOG_*), or forward the "
        "exception (set_exception/fail_batch); swallowed faults defeat the reliability layer");
  }
}

void check_text_rules(const TokenizedFile& tf, const std::string& relpath,
                      std::vector<Diagnostic>& out) {
  const std::vector<std::string> lines = split_lines(tf.line_text);
  if (is_header(relpath) && !tf.has_pragma_once) {
    add(out, relpath, 1, "pragma-once", "header must use '#pragma once'");
  }
  check_line_rules(lines, relpath, out);
  check_mutex_guarded(lines, tf.line_text, relpath, out);
  check_nograd_forward(lines, relpath, out);
  check_catch_swallow(tf.line_text, relpath, out);
}

// --------------------------------------------------------- include graph

struct TreeFile {
  std::string relpath;
  TokenizedFile tf;
  std::vector<std::pair<std::string, int>> project_includes;  ///< resolved relpath, line
};

/// Resolves a quoted include to a root-relative path: against src/
/// first (the include root), then against the including file's own
/// directory. Empty when the target is not part of the tree.
std::string resolve_include(const fs::path& root, const std::string& includer_rel,
                            const std::string& inc_path) {
  const fs::path as_src = root / "src" / inc_path;
  if (fs::exists(as_src)) return (fs::path("src") / inc_path).generic_string();
  const fs::path sibling = root / fs::path(includer_rel).parent_path() / inc_path;
  if (fs::exists(sibling)) {
    return (fs::path(includer_rel).parent_path() / inc_path).lexically_normal().generic_string();
  }
  return "";
}

void check_layer_dag(const std::vector<TreeFile>& files, std::vector<Diagnostic>& out) {
  for (const TreeFile& f : files) {
    const std::string from = layer_of(f.relpath);
    if (from.empty()) continue;
    for (const auto& [target, line] : f.project_includes) {
      const std::string to = layer_of(target);
      if (to.empty() || to == from) continue;
      if (layer_closure().count(from) == 0 || layer_closure().count(to) == 0) continue;
      if (layer_may_include(from, to)) continue;
      if (suppressed(f.tf, line, "layer-dag")) continue;
      add(out, f.relpath, line, "layer-dag",
          "include of \"" + target + "\" breaks the layer DAG: layer '" + from +
              "' must not depend on layer '" + to + "' (docs/STATIC_ANALYSIS.md)");
    }
  }
}

void check_include_cycles(const std::vector<TreeFile>& files, std::vector<Diagnostic>& out) {
  std::map<std::string, const TreeFile*> by_path;
  for (const TreeFile& f : files) by_path[f.relpath] = &f;
  enum class Mark { kWhite, kGrey, kBlack };
  std::map<std::string, Mark> marks;
  std::vector<std::string> path_stack;
  std::set<std::string> reported;  // canonical cycle keys

  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    marks[node] = Mark::kGrey;
    path_stack.push_back(node);
    const auto it = by_path.find(node);
    if (it != by_path.end()) {
      for (const auto& [target, line] : it->second->project_includes) {
        (void)line;
        const auto mark = marks.find(target);
        if (mark != marks.end() && mark->second == Mark::kGrey) {
          // Cycle: extract the loop from the stack.
          const auto start = std::find(path_stack.begin(), path_stack.end(), target);
          std::vector<std::string> cycle(start, path_stack.end());
          std::vector<std::string> key = cycle;
          std::sort(key.begin(), key.end());
          std::string canon;
          for (const std::string& p : key) canon += p + "|";
          if (reported.insert(canon).second) {
            // Report on the lexicographically smallest member, with
            // the loop spelled out starting there.
            const std::string& anchor = key.front();
            const auto at = std::find(cycle.begin(), cycle.end(), anchor);
            std::rotate(cycle.begin(), at, cycle.end());
            std::string loop;
            for (const std::string& p : cycle) loop += p + " -> ";
            loop += cycle.front();
            int line_no = 1;
            const TreeFile* anchor_file = by_path.at(anchor);
            const std::string& next = cycle.size() > 1 ? cycle[1] : cycle[0];
            for (const auto& [t2, l2] : anchor_file->project_includes) {
              if (t2 == next) {
                line_no = l2;
                break;
              }
            }
            add(out, anchor, line_no, "include-cycle", "include cycle: " + loop);
          }
          continue;
        }
        if (mark == marks.end() || mark->second == Mark::kWhite) dfs(target);
      }
    }
    path_stack.pop_back();
    marks[node] = Mark::kBlack;
  };
  std::vector<std::string> order;
  for (const TreeFile& f : files) order.push_back(f.relpath);
  std::sort(order.begin(), order.end());
  for (const std::string& node : order) {
    if (marks[node] == Mark::kWhite || marks.count(node) == 0) dfs(node);
  }
}

/// Names a header plausibly provides: declared types, using-aliases,
/// macros, and anything that syntactically looks like a function name
/// (identifier followed by '('). Deliberately a superset — any shared
/// name counts as use, so the rule only fires when an include provides
/// *nothing* the includer mentions.
std::set<std::string> provided_names(const TokenizedFile& tf) {
  std::set<std::string> names;
  for (const std::string& d : tf.defines) names.insert(d);
  const std::vector<Token>& t = tf.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& text = t[i].text;
    if ((text == "class" || text == "struct" || text == "union") && i + 1 < t.size() &&
        t[i + 1].kind == Token::Kind::kIdentifier) {
      names.insert(t[i + 1].text);
    }
    if (text == "enum" && i + 1 < t.size()) {
      std::size_t j = i + 1;
      if (t[j].text == "class" || t[j].text == "struct") ++j;
      if (j < t.size() && t[j].kind == Token::Kind::kIdentifier) names.insert(t[j].text);
    }
    if (text == "using" && i + 2 < t.size() && t[i + 1].kind == Token::Kind::kIdentifier &&
        t[i + 2].text == "=") {
      names.insert(t[i + 1].text);
    }
    if (t[i].kind == Token::Kind::kIdentifier && keywords().count(text) == 0 &&
        i + 1 < t.size() && t[i + 1].text == "(") {
      if (i == 0 || (t[i - 1].text != "." && t[i - 1].text != "->")) names.insert(text);
    }
  }
  return names;
}

void check_iwyu(const fs::path& root, const std::vector<TreeFile>& files,
                std::vector<Diagnostic>& out) {
  std::map<std::string, const TreeFile*> by_path;
  for (const TreeFile& f : files) by_path[f.relpath] = &f;
  std::map<std::string, std::set<std::string>> provides_cache;
  const auto provides = [&](const std::string& header) -> const std::set<std::string>& {
    auto it = provides_cache.find(header);
    if (it != provides_cache.end()) return it->second;
    const auto fit = by_path.find(header);
    std::set<std::string> names;
    if (fit != by_path.end()) {
      names = provided_names(fit->second->tf);
    } else if (fs::exists(root / header)) {
      names = provided_names(tokenize(read_file(root / header)));
    }
    return provides_cache.emplace(header, std::move(names)).first->second;
  };

  for (const TreeFile& f : files) {
    if (!in_src(f.relpath)) continue;
    std::set<std::string> used;
    for (const Token& t : f.tf.tokens) {
      if (t.kind == Token::Kind::kIdentifier) used.insert(t.text);
    }
    const std::string own_stem = fs::path(f.relpath).stem().string();
    const std::string own_dir = fs::path(f.relpath).parent_path().generic_string();
    for (const auto& [target, line] : f.project_includes) {
      if (!is_header(target)) continue;
      // A .cpp always keeps its own header (it implements it), and the
      // nn ops TUs share nn/ops.hpp the same way.
      if (is_source(f.relpath) && fs::path(target).parent_path().generic_string() == own_dir &&
          fs::path(target).stem().string() == own_stem) {
        continue;
      }
      const std::set<std::string>& names = provides(target);
      bool referenced = false;
      for (const std::string& n : names) {
        if (used.count(n) > 0) {
          referenced = true;
          break;
        }
      }
      if (referenced) continue;
      if (suppressed(f.tf, line, "iwyu-unused-include")) continue;
      add(out, f.relpath, line, "iwyu-unused-include",
          "nothing declared by \"" + target +
              "\" is referenced in this file — drop the include (or include what you "
              "actually use)");
    }
  }
}

// ------------------------------------------------------- serial-roundtrip

/// Tree half of the serialization discipline: every serial-codec struct
/// in src/ must appear in tests/test_snapshot.cpp, the suite that
/// round-trips snapshot payloads bitwise and pins the corruption
/// wording. A codec nobody round-trips is a codec whose load path is
/// first exercised by a production crash.
void check_serial_roundtrip(const fs::path& root, const std::vector<TreeFile>& files,
                            std::vector<Diagnostic>& out) {
  const fs::path suite = root / "tests" / "test_snapshot.cpp";
  std::set<std::string> covered;
  if (fs::exists(suite)) {
    for (const Token& t : tokenize(read_file(suite)).tokens) {
      if (t.kind == Token::Kind::kIdentifier) covered.insert(t.text);
    }
  }
  for (const TreeFile& f : files) {
    for (const SerialStructInfo& s : find_serial_structs(f.tf)) {
      if (covered.count(s.name) > 0) continue;
      if (suppressed(f.tf, s.line, "serial-roundtrip")) continue;
      add(out, f.relpath, s.line, "serial-roundtrip",
          "'" + s.name +
              "' is serialized through laco::serial but never appears in "
              "tests/test_snapshot.cpp — cover it in the snapshot round-trip suite");
    }
  }
}

/// Tree rule: every tests/test_*.cpp among `relpaths` must appear as
/// laco_add_test(<stem>) in tests/CMakeLists.txt under `root` — an
/// unregistered test compiles nowhere and silently never runs in CI.
/// No-op when the CMake list is absent (fixture trees).
void check_tests_registered(const fs::path& root, const std::vector<std::string>& relpaths,
                            std::vector<Diagnostic>& out) {
  const fs::path cmake_list = root / "tests" / "CMakeLists.txt";
  if (!fs::exists(cmake_list)) return;
  const std::string cmake = read_file(cmake_list);
  for (const std::string& rel : relpaths) {
    if (!starts_with(rel, "tests/test_") || rel.find('/', 6) != std::string::npos) continue;
    if (!ends_with(rel, ".cpp")) continue;
    const std::string stem = rel.substr(6, rel.size() - 6 - 4);  // "test_*"
    const std::regex registered("laco_add_test\\s*\\(\\s*" + stem + "\\s*\\)");
    if (!std::regex_search(cmake, registered)) {
      add(out, rel, 1, "test-registered",
          "register it with laco_add_test(" + stem +
              ") in tests/CMakeLists.txt — unregistered tests never run");
    }
  }
}

// ---------------------------------------------------------- self-contained

/// Compiles `header` standalone (-fsyntax-only) to prove it includes
/// what it uses. The translation unit lives in `scratch_dir`, so it
/// names the header by absolute path: a relative root would not
/// resolve from there. Returns the compiler exit status.
int compile_header(const std::string& cxx, const std::string& flags, const fs::path& header,
                   const fs::path& scratch_dir, std::size_t index) {
  const fs::path tu = scratch_dir / ("header_" + std::to_string(index) + ".cpp");
  {
    std::ofstream out(tu);
    out << "#include \"" << fs::absolute(header).generic_string() << "\"\n";
  }
  const std::string command =
      cxx + " " + flags + " -fsyntax-only " + tu.string() + " > /dev/null 2>&1";
  return std::system(command.c_str());
}

/// The per-file rules over one tokenized file. `paired_header`, when
/// given, contributes the guarded fields and LACO_REQUIRES methods it
/// declares: the annotations live on the declarations.
std::vector<Diagnostic> file_rules(const TokenizedFile& tf, const TokenizedFile* paired_header,
                                   const std::string& relpath) {
  GuardInfo guards;
  harvest_guards(tf, guards);
  if (paired_header != nullptr) harvest_guards(*paired_header, guards);

  std::vector<Diagnostic> out;
  check_tensor_by_value(tf, relpath, out);
  check_deterministic_regions(tf, relpath, out);
  check_guarded_access(tf, guards, relpath, out);
  check_duplicate_includes(tf, relpath, out);
  check_serial_versioned(tf, relpath, out);
  check_text_rules(tf, relpath, out);

  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) { return a.line < b.line; });
  return out;
}

}  // namespace

std::string Diagnostic::str() const {
  return relpath + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

std::string strip_source(const std::string& source) { return strip_impl(source, nullptr); }

TokenizedFile tokenize(const std::string& source) {
  TokenizedFile tf;
  std::vector<CommentNote> comments;
  const std::string stripped = strip_impl(source, &comments);

  for (const CommentNote& note : comments) {
    if (note.text.find("LACO_DETERMINISTIC") != std::string::npos) {
      tf.deterministic_marks.push_back(note.line);
    }
    static const std::regex ok_re("analyze-ok\\(([a-z-]+)\\)");
    for (auto it = std::sregex_iterator(note.text.begin(), note.text.end(), ok_re);
         it != std::sregex_iterator(); ++it) {
      tf.suppressions[note.line].insert((*it)[1].str());
    }
  }

  const std::vector<std::string> stripped_lines = split_lines(stripped);
  const std::vector<std::string> raw_lines = split_lines(source);
  std::vector<bool> directive, continuation;
  mark_directive_lines(stripped_lines, directive, continuation);

  tf.line_text.reserve(stripped.size());
  for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
    if (continuation[i]) {
      tf.line_text.append(stripped_lines[i].size(), ' ');
    } else {
      tf.line_text += stripped_lines[i];
    }
    if (i + 1 < stripped_lines.size()) tf.line_text += '\n';
  }

  static const std::regex pragma_once_re("^\\s*#\\s*pragma\\s+once\\b");
  static const std::regex include_re("^\\s*#\\s*include");
  static const std::regex define_re("^\\s*#\\s*define\\s+([A-Za-z_][A-Za-z0-9_]*)");
  static const std::regex include_path_re("[<\"]([^\">]+)[\">]");
  for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
    if (!directive[i] || continuation[i]) continue;
    const std::string& line = stripped_lines[i];
    if (std::regex_search(line, pragma_once_re)) tf.has_pragma_once = true;
    std::smatch m;
    if (std::regex_search(line, m, define_re)) tf.defines.push_back(m[1].str());
    if (std::regex_search(line, include_re) && i < raw_lines.size()) {
      // The path is a quoted token, which the strip blanked: recover
      // it from the raw line (include paths never span lines).
      std::smatch pm;
      if (std::regex_search(raw_lines[i], pm, include_path_re)) {
        IncludeDirective inc;
        inc.path = pm[1].str();
        inc.line = static_cast<int>(i) + 1;
        inc.angled = raw_lines[i][static_cast<std::size_t>(pm.position(0))] == '<';
        tf.includes.push_back(std::move(inc));
      }
    }
  }

  lex(stripped_lines, directive, tf.tokens);
  return tf;
}

std::string layer_of(const std::string& relpath) {
  if (!starts_with(relpath, "src/")) return "";
  const std::string rest = relpath.substr(4);
  const auto slash = rest.find('/');
  if (slash == std::string::npos) return "";
  const std::string dir = rest.substr(0, slash);
  if (dir == "placer") {
    const std::string stem = fs::path(rest).stem().string();
    if (stem == "inflation" || stem == "net_weighting") return "flows";
  }
  return dir;
}

bool layer_may_include(const std::string& from, const std::string& to) {
  const auto it = layer_closure().find(from);
  if (it == layer_closure().end()) return true;  // unknown layer: out of scope
  return it->second.count(to) > 0;
}

std::vector<Diagnostic> analyze_file(const fs::path& file, const std::string& relpath,
                                     const fs::path& root) {
  const TokenizedFile tf = tokenize(read_file(file));
  const fs::path header = root / fs::path(relpath).replace_extension(".hpp");
  if (root.empty() || !is_source(relpath) || !fs::exists(header)) {
    return file_rules(tf, nullptr, relpath);
  }
  const TokenizedFile paired = tokenize(read_file(header));
  return file_rules(tf, &paired, relpath);
}

std::vector<std::string> collect_files(const fs::path& root) {
  std::vector<std::string> files;
  for (const char* top : {"src", "tests", "tools", "bench"}) {
    const fs::path dir = root / top;
    if (!fs::exists(dir)) continue;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() && ends_with(it->path().filename().string(), "_fixtures")) {
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

std::vector<Diagnostic> analyze_tree(const fs::path& root) {
  // Each file is tokenized once: its per-file rules, the .cpp that pairs
  // with it as a header, and the include-graph rules share the result.
  const std::vector<std::string> relpaths = collect_files(root);
  std::map<std::string, TokenizedFile> parsed;
  for (const std::string& rel : relpaths) parsed.emplace(rel, tokenize(read_file(root / rel)));

  std::vector<Diagnostic> out;
  for (const auto& [rel, tf] : parsed) {
    const auto header = is_source(rel)
                            ? parsed.find(fs::path(rel).replace_extension(".hpp").generic_string())
                            : parsed.end();
    std::vector<Diagnostic> file_diags =
        file_rules(tf, header == parsed.end() ? nullptr : &header->second, rel);
    out.insert(out.end(), file_diags.begin(), file_diags.end());
  }

  std::vector<TreeFile> files;
  for (auto& [rel, tf] : parsed) {
    if (!in_src(rel)) continue;
    TreeFile f;
    f.relpath = rel;
    f.tf = std::move(tf);
    for (const IncludeDirective& inc : f.tf.includes) {
      if (inc.angled) continue;
      const std::string target = resolve_include(root, rel, inc.path);
      if (!target.empty()) f.project_includes.emplace_back(target, inc.line);
    }
    files.push_back(std::move(f));
  }
  check_layer_dag(files, out);
  check_include_cycles(files, out);
  check_iwyu(root, files, out);
  check_serial_roundtrip(root, files, out);
  check_tests_registered(root, relpaths, out);

  std::stable_sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.relpath != b.relpath) return a.relpath < b.relpath;
    return a.line < b.line;
  });
  return out;
}

std::vector<Diagnostic> check_headers(const fs::path& root,
                                      const std::vector<std::string>& relpaths,
                                      const std::string& cxx, const std::string& cxx_flags) {
  const std::string compiler = cxx.empty() ? "c++" : cxx;
  const std::string flags =
      cxx_flags.empty() ? "-std=c++20 -I " + (root / "src").string() : cxx_flags;
  std::vector<std::string> headers;
  for (const std::string& rel : relpaths) {
    if (is_header(rel)) headers.push_back(rel);
  }
  const fs::path scratch =
      fs::temp_directory_path() / ("laco_analyze_" + std::to_string(::getpid()));
  fs::create_directories(scratch);
  std::vector<int> status(headers.size(), 0);  // slot i written only by task i
  {
    ThreadPool pool(static_cast<int>(std::max(1u, std::thread::hardware_concurrency())),
                    headers.size() + 1);
    for (std::size_t i = 0; i < headers.size(); ++i) {
      pool.submit(
          [&, i] { status[i] = compile_header(compiler, flags, root / headers[i], scratch, i); });
    }
    pool.shutdown();
  }
  std::error_code ec;
  fs::remove_all(scratch, ec);

  std::vector<Diagnostic> out;
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (status[i] != 0) {
      add(out, headers[i], 1, "self-contained",
          "header does not compile standalone (missing includes?)");
    }
  }
  return out;
}

}  // namespace laco::analyze
