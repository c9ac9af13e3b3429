// parlint — static enforcement of where threads may live and of the
// state-snapshot bracket.
//
// DESIGN.md §9 keeps parallel results scheduling-independent by
// routing every thread through src/parallel/ (ParallelFor, whose body
// writes only its own index's slot), and §10 keeps saved state
// versions from piling up through a snapshot bracket discipline (every
// Snapshot() id reaches Commit or RevertTo on every path). parlint
// checks both: raw threading outside src/parallel/, and one-sided
// snapshot brackets.
//
// Like detlint, this is a heuristic token-level scanner built on the
// shared liblint driver (tools/liblint/), not a compiler plugin. The
// snapshot rule is a scope-based approximation (see DESIGN.md §11 for
// why); intentional deviations carry inline
//
//     // parlint:allow(<rule>[,<rule>...]): justification
//
// waivers on the offending line or the line above.
//
// Usage:
//   parlint [--report <file.json>] [--root <dir>] [--list-rules]
//           [--rules-md] [--check-waivers] <dir-or-file>...
//
// Exit codes: 0 = clean, 1 = usage / IO error, 2 = unsuppressed
// findings present.

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "liblint/liblint.h"

namespace {

using liblint::EmitFinding;
using liblint::Finding;
using liblint::IsIdentChar;
using liblint::MatchParen;
using liblint::RuleInfo;
using liblint::Source;
using liblint::TokenAt;

constexpr RuleInfo kRules[] = {
    {"raw-threading",
     "std::thread/async/future/promise/call_once/mutex/atomic/"
     "condition_variable (and friends) or a thread_local declaration "
     "outside src/parallel/; all concurrency must go through its "
     "primitives so the §9 determinism contract stays in one place"},
    {"unbalanced-snapshot",
     "Snapshot() whose id does not reach both Commit and RevertTo later "
     "in the enclosing function (scope-based approximation); a one-sided "
     "bracket either pins a whole old state version or loses the rollback "
     "path (§10)"},
};

// raw-threading does not apply here: src/parallel/ is the one place
// allowed to touch the primitives it wraps.
constexpr char kParallelDir[] = "src/parallel/";

const std::set<std::string>& ThreadingNames() {
  static const std::set<std::string> kNames = {
      "thread",
      "jthread",
      "this_thread",
      "async",
      "future",
      "shared_future",
      "promise",
      "packaged_task",
      "mutex",
      "timed_mutex",
      "recursive_mutex",
      "recursive_timed_mutex",
      "shared_mutex",
      "shared_timed_mutex",
      "lock_guard",
      "unique_lock",
      "shared_lock",
      "scoped_lock",
      "condition_variable",
      "condition_variable_any",
      "atomic",
      "atomic_flag",
      "atomic_ref",
      "atomic_thread_fence",
      "counting_semaphore",
      "binary_semaphore",
      "latch",
      "barrier",
      "call_once",
      "once_flag",
  };
  return kNames;
}

// ------------------------------ Scanner ---------------------------------

class Scanner {
 public:
  Scanner(const Source& src, std::vector<Finding>* out)
      : src_(src), code_(src.code()), out_(out) {}

  void ScanFile() {
    ScanRawThreading();
    ScanSnapshots();
  }

 private:
  void Emit(size_t offset, const char* rule) {
    EmitFinding(src_, offset, rule, out_);
  }

  // Reads the identifier starting at `pos` (empty if none).
  std::string IdentAt(size_t pos) const {
    size_t end = pos;
    while (end < code_.size() && IsIdentChar(code_[end])) ++end;
    return code_.substr(pos, end - pos);
  }

  // Reads the identifier ENDING at `end` (exclusive); empty if none.
  std::string IdentEndingAt(size_t end) const {
    size_t begin = end;
    while (begin > 0 && IsIdentChar(code_[begin - 1])) --begin;
    return code_.substr(begin, end - begin);
  }

  size_t SkipWs(size_t pos) const {
    while (pos < code_.size() &&
           std::isspace(static_cast<unsigned char>(code_[pos]))) {
      ++pos;
    }
    return pos;
  }

  // Last non-whitespace position before `pos`, or npos.
  size_t PrevNonWs(size_t pos) const {
    while (pos > 0) {
      --pos;
      if (!std::isspace(static_cast<unsigned char>(code_[pos]))) return pos;
    }
    return std::string::npos;
  }

  // Rule 1: raw-threading — `std::` followed by a threading name, or a
  // bare `thread_local` declaration (per-thread state makes results a
  // function of the schedule), anywhere outside src/parallel/.
  void ScanRawThreading() {
    if (src_.path().find(kParallelDir) != std::string::npos) return;
    size_t pos = 0;
    while ((pos = code_.find("std::", pos)) != std::string::npos) {
      const std::string ident = IdentAt(pos + 5);
      if (!ident.empty() && ThreadingNames().count(ident) > 0) {
        Emit(pos, "raw-threading");
      }
      pos += 5;
    }
    pos = 0;
    while ((pos = code_.find("thread_local", pos)) != std::string::npos) {
      if (TokenAt(code_, pos, "thread_local")) {
        Emit(pos, "raw-threading");
      }
      pos += 12;
    }
  }

  // ---- Rule 2 helpers: enclosing-function lookup over brace pairs ----

  struct Brace {
    size_t open;
    size_t close;
  };

  void CollectBraces() {
    if (!braces_.empty()) return;
    std::vector<size_t> stack;
    for (size_t i = 0; i < code_.size(); ++i) {
      if (code_[i] == '{') stack.push_back(i);
      if (code_[i] == '}' && !stack.empty()) {
        braces_.push_back({stack.back(), i});
        stack.pop_back();
      }
    }
  }

  // Matches backward from `close` (indexing ')') to its '('.
  size_t MatchParenBackward(size_t close) const {
    int depth = 0;
    for (size_t i = close + 1; i-- > 0;) {
      if (code_[i] == ')') ++depth;
      if (code_[i] == '(' && --depth == 0) return i;
    }
    return std::string::npos;
  }

  // The innermost enclosing block that reads like a function body:
  // opener preceded by ')' whose matching '(' follows a plain
  // identifier (not if/for/while/switch/catch, not a lambda's ']').
  // Control blocks, else/try/do blocks, and lambda bodies are ascended
  // through; if nothing qualifies, the outermost enclosing block wins.
  Brace EnclosingFunctionBody(size_t offset) {
    CollectBraces();
    std::vector<Brace> enclosing;
    for (const Brace& b : braces_) {
      if (b.open < offset && offset < b.close) enclosing.push_back(b);
    }
    std::sort(enclosing.begin(), enclosing.end(),
              [](const Brace& a, const Brace& b) {
                return a.close - a.open < b.close - b.open;
              });
    for (const Brace& b : enclosing) {
      const size_t prev = PrevNonWs(b.open);
      if (prev == std::string::npos) continue;
      char c = code_[prev];
      size_t at = prev;
      // Skip trailing specifiers: `) const {`, `) noexcept {`.
      while (IsIdentChar(c)) {
        const std::string ident = IdentEndingAt(at + 1);
        static const std::set<std::string> kSpecifiers = {
            "const", "noexcept", "override", "final", "mutable"};
        if (kSpecifiers.count(ident) == 0) break;
        const size_t before = PrevNonWs(at + 1 - ident.size());
        if (before == std::string::npos) break;
        at = before;
        c = code_[at];
      }
      if (c == ')') {
        const size_t open_paren = MatchParenBackward(at);
        if (open_paren == std::string::npos) continue;
        const size_t before = PrevNonWs(open_paren);
        if (before == std::string::npos) continue;
        if (code_[before] == ']') continue;  // Lambda body: ascend.
        if (IsIdentChar(code_[before])) {
          const std::string head = IdentEndingAt(before + 1);
          static const std::set<std::string> kControl = {
              "if", "for", "while", "switch", "catch"};
          if (kControl.count(head) > 0) continue;  // Control: ascend.
          return b;
        }
        continue;
      }
      if (IsIdentChar(c)) {
        const std::string head = IdentEndingAt(at + 1);
        if (head == "else" || head == "try" || head == "do") continue;
        // namespace/class/struct scope: no function body below here.
        break;
      }
    }
    return enclosing.empty() ? Brace{0, code_.size() - 1} : enclosing.back();
  }

  // Does `fn`(args-containing-`id`) appear in [begin, end)?
  bool CallWithArg(const std::string& fn, const std::string& id, size_t begin,
                   size_t end) const {
    size_t pos = begin;
    while ((pos = code_.find(fn, pos)) != std::string::npos && pos < end) {
      if (!TokenAt(code_, pos, fn)) {
        pos += fn.size();
        continue;
      }
      const size_t open = SkipWs(pos + fn.size());
      if (open < end && code_[open] == '(') {
        const size_t close = MatchParen(code_, open);
        if (close != std::string::npos) {
          const std::string args = code_.substr(open + 1, close - open - 1);
          size_t p = 0;
          while ((p = args.find(id, p)) != std::string::npos) {
            if (TokenAt(args, p, id)) return true;
            p += id.size();
          }
        }
      }
      pos += fn.size();
    }
    return false;
  }

  // Rule 2: unbalanced-snapshot — `x.Snapshot()` / `x->Snapshot()`
  // whose assigned id is not later passed to both Commit and RevertTo
  // within the enclosing function body. A call whose id is discarded
  // is always flagged.
  void ScanSnapshots() {
    size_t pos = 0;
    const std::string name = "Snapshot";
    while ((pos = code_.find(name, pos)) != std::string::npos) {
      if (!TokenAt(code_, pos, name)) {
        pos += name.size();
        continue;
      }
      // Must be a member call: preceded by '.' or '->'.
      const bool dot = pos > 0 && code_[pos - 1] == '.';
      const bool arrow =
          pos > 1 && code_[pos - 2] == '-' && code_[pos - 1] == '>';
      size_t after = SkipWs(pos + name.size());
      const bool empty_call =
          (dot || arrow) && after < code_.size() && code_[after] == '(' &&
          SkipWs(after + 1) < code_.size() &&
          code_[SkipWs(after + 1)] == ')';
      if (!empty_call) {
        pos += name.size();
        continue;
      }
      // Statement start, then the id on the left of the last `=`.
      size_t start = pos;
      while (start > 0) {
        const char c = code_[start - 1];
        if (c == ';' || c == '{' || c == '}') break;
        --start;
      }
      std::string id;
      size_t eq = std::string::npos;
      for (size_t i = start; i < pos; ++i) {
        if (code_[i] == '=' && i + 1 < pos && code_[i + 1] != '=' &&
            i > 0 && std::string("=!<>+-*/%&|^").find(code_[i - 1]) ==
                         std::string::npos) {
          eq = i;
        }
      }
      if (eq != std::string::npos) {
        size_t e = eq;
        while (e > start &&
               std::isspace(static_cast<unsigned char>(code_[e - 1]))) {
          --e;
        }
        id = IdentEndingAt(e);
      }
      if (id.empty()) {
        Emit(pos, "unbalanced-snapshot");  // Snapshot id discarded.
        pos += name.size();
        continue;
      }
      const Brace body = EnclosingFunctionBody(pos);
      const bool committed = CallWithArg("Commit", id, pos, body.close);
      const bool reverted = CallWithArg("RevertTo", id, pos, body.close);
      if (!committed || !reverted) {
        Emit(pos, "unbalanced-snapshot");
      }
      pos += name.size();
    }
  }

  const Source& src_;
  const std::string& code_;
  std::vector<Finding>* out_;
  std::vector<Brace> braces_;
};

}  // namespace

int main(int argc, char** argv) {
  liblint::Tool tool;
  tool.name = "parlint";
  tool.tagline =
      "where §9 allows threads, and the §10 snapshot bracket";
  tool.rules = kRules;
  tool.rule_count = sizeof(kRules) / sizeof(kRules[0]);
  tool.scan = [](const Source& src, std::vector<Finding>* out) {
    Scanner scanner(src, out);
    scanner.ScanFile();
  };
  return liblint::RunLinter(tool, argc, argv);
}
