// parlint — static enforcement of the parallel-determinism and
// state-snapshot contracts.
//
// DESIGN.md §9 makes parallel results scheduling-independent through a
// four-rule contract (fixed chunking, disjoint writes, ordered
// reduction, per-chunk ChunkSeed RNG streams), and §10 keeps saved
// state versions from piling up through a snapshot bracket discipline
// (every Snapshot() id reaches Commit or RevertTo on every path). Both were
// hand-enforced conventions: a reviewer could merge a `[&]`-capturing
// ParallelFor body or a leaked snapshot and nothing failed until a
// seed or a TSan run happened to hit it. parlint turns them into
// machine-checked invariants.
//
// Like detlint, this is a heuristic token-level scanner built on the
// shared liblint driver (tools/liblint/), not a compiler plugin. Rules
// 2–4 are conservative approximations over lexical call extents and
// rule 5 is a scope-based approximation (see DESIGN.md §11 for why);
// intentional deviations carry inline
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
using liblint::MatchBrace;
using liblint::MatchParen;
using liblint::RuleInfo;
using liblint::Source;
using liblint::TokenAt;

constexpr RuleInfo kRules[] = {
    {"raw-threading",
     "std::thread/async/future/promise/call_once/mutex/atomic/"
     "condition_variable (and friends) or a thread_local declaration "
     "outside src/parallel/; all concurrency must go through the §9 "
     "primitives so the determinism contract stays in one place"},
    {"parallel-ref-capture",
     "[&] or by-reference default capture on a lambda at a "
     "ParallelFor/ParallelChunks call site; §9 rule 2 "
     "(disjoint writes) is only reviewable when every captured name is "
     "explicit"},
    {"unseeded-parallel-rng",
     "RNG constructed inside a parallel body without a ChunkSeed(...)-"
     "derived seed; §9 rule 4 requires per-chunk streams, anything else "
     "makes results depend on chunk scheduling"},
    {"shared-accumulation",
     "+=/push_back on a captured non-local inside a ParallelFor body; "
     "accumulate into per-chunk slots and fold them in chunk order"},
    {"unbalanced-snapshot",
     "Snapshot() whose id does not reach both Commit and RevertTo later "
     "in the enclosing function (scope-based approximation); a one-sided "
     "bracket either pins a whole old state version or loses the rollback "
     "path (§10)"},
    {"nested-parallel",
     "ParallelFor/ParallelChunks lexically inside another "
     "parallel body; legal but it serializes inline, so it must carry an "
     "explicit waiver acknowledging the flattened schedule"},
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

const std::set<std::string>& RngTypeNames() {
  static const std::set<std::string> kNames = {
      "Rng",          "mt19937",       "mt19937_64",
      "minstd_rand",  "minstd_rand0",  "default_random_engine",
      "knuth_b",      "ranlux24",      "ranlux48",
      "ranlux24_base", "ranlux48_base",
  };
  return kNames;
}

bool IsKeyword(const std::string& ident) {
  static const std::set<std::string> kKeywords = {
      "if",     "else",  "while",  "for",      "do",    "return",
      "switch", "case",  "const",  "auto",     "break", "continue",
      "void",   "throw", "static", "constexpr"};
  return kKeywords.count(ident) > 0;
}

// ------------------------------ Scanner ---------------------------------

class Scanner {
 public:
  Scanner(const Source& src, std::vector<Finding>* out)
      : src_(src), code_(src.code()), out_(out) {}

  void ScanFile() {
    CollectParallelCalls();
    ScanRawThreading();
    ScanRefCaptures();
    ScanParallelRng();
    ScanSharedAccumulation();
    ScanSnapshots();
    ScanNestedParallel();
  }

 private:
  // A ParallelFor/ParallelChunks call site and the
  // lexical extent of its argument list. The lambda body an invocation
  // carries lives inside [open, close], which is what rules 2–4 and 6
  // scan — a conservative approximation of "the parallel body".
  struct Call {
    size_t name_pos = 0;
    size_t open = 0;   // '('.
    size_t close = 0;  // Matching ')'.
    bool is_for = false;
  };

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

  void CollectParallelCalls() {
    for (const char* fn : {"ParallelChunks", "ParallelFor"}) {
      const std::string name = fn;
      size_t pos = 0;
      while ((pos = code_.find(name, pos)) != std::string::npos) {
        if (!TokenAt(code_, pos, name)) {
          pos += name.size();
          continue;
        }
        const size_t open = SkipWs(pos + name.size());
        if (open >= code_.size() || code_[open] != '(') {
          pos += name.size();
          continue;
        }
        const size_t close = MatchParen(code_, open);
        if (close == std::string::npos) {
          pos += name.size();
          continue;
        }
        Call call;
        call.name_pos = pos;
        call.open = open;
        call.close = close;
        call.is_for = name == "ParallelFor";
        calls_.push_back(call);
        pos += name.size();
      }
    }
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

  // Rule 2: parallel-ref-capture — `[&]` / `[&, ...]` anywhere inside a
  // parallel call's argument list.
  void ScanRefCaptures() {
    for (const Call& call : calls_) {
      for (size_t i = call.open + 1; i < call.close; ++i) {
        if (code_[i] != '[') continue;
        size_t j = SkipWs(i + 1);
        if (j >= call.close || code_[j] != '&') continue;
        j = SkipWs(j + 1);
        if (j < code_.size() && (code_[j] == ']' || code_[j] == ',')) {
          Emit(i, "parallel-ref-capture");
        }
      }
    }
  }

  // Rule 3: unseeded-parallel-rng — an RNG constructed inside a
  // parallel call extent whose constructor arguments never mention
  // ChunkSeed.
  void ScanParallelRng() {
    for (const Call& call : calls_) {
      for (const std::string& type : RngTypeNames()) {
        size_t pos = call.open;
        while ((pos = code_.find(type, pos)) != std::string::npos &&
               pos < call.close) {
          if (!TokenAt(code_, pos, type)) {
            pos += type.size();
            continue;
          }
          size_t after = SkipWs(pos + type.size());
          // `Rng name(args)`, `Rng name{args}`, `Rng name;`,
          // `Rng name = expr;`, or a bare temporary `Rng(args)`.
          std::string seed_expr;
          bool is_construction = false;
          if (after < call.close && IsIdentChar(code_[after]) &&
              !std::isdigit(static_cast<unsigned char>(code_[after]))) {
            const std::string name = IdentAt(after);
            size_t next = SkipWs(after + name.size());
            if (next < call.close &&
                (code_[next] == '(' || code_[next] == '{')) {
              const size_t end = code_[next] == '('
                                     ? MatchParen(code_, next)
                                     : MatchBrace(code_, next);
              if (end != std::string::npos && end <= call.close) {
                is_construction = true;
                seed_expr = code_.substr(next + 1, end - next - 1);
              }
            } else if (next < call.close && code_[next] == ';') {
              is_construction = true;  // Default-constructed: no seed.
            } else if (next < call.close && code_[next] == '=' &&
                       next + 1 < call.close && code_[next + 1] != '=') {
              const size_t semi = code_.find(';', next);
              if (semi != std::string::npos && semi <= call.close) {
                is_construction = true;
                seed_expr = code_.substr(next + 1, semi - next - 1);
              }
            }
          } else if (after < call.close && code_[after] == '(') {
            const size_t end = MatchParen(code_, after);
            if (end != std::string::npos && end <= call.close) {
              is_construction = true;
              seed_expr = code_.substr(after + 1, end - after - 1);
            }
          }
          if (is_construction && seed_expr.find("ChunkSeed") ==
                                     std::string::npos) {
            Emit(pos, "unseeded-parallel-rng");
          }
          pos += type.size();
        }
      }
    }
  }

  // True when `name` looks locally declared inside [begin, end): some
  // occurrence is preceded by a type-ish token (identifier that is not
  // `return`-like, or `&`/`*`/`>` that itself follows a type). Capture
  // lists (`[&name`) and address-of arguments (`(&name`, `, &name`) do
  // NOT count as declarations.
  bool LocallyDeclared(const std::string& name, size_t begin,
                       size_t end) const {
    size_t pos = begin;
    while ((pos = code_.find(name, pos)) != std::string::npos && pos < end) {
      if (!TokenAt(code_, pos, name)) {
        pos += name.size();
        continue;
      }
      const size_t prev = PrevNonWs(pos);
      if (prev == std::string::npos) return false;
      const char c = code_[prev];
      if (IsIdentChar(c)) {
        const std::string before = IdentEndingAt(prev + 1);
        static const std::set<std::string> kNotTypes = {
            "return", "throw", "new", "delete", "goto", "case", "co_return"};
        if (kNotTypes.count(before) == 0) return true;
      } else if (c == '&' || c == '*' || c == '>') {
        const size_t prev2 = PrevNonWs(prev);
        if (prev2 != std::string::npos &&
            (IsIdentChar(code_[prev2]) || code_[prev2] == '>')) {
          return true;  // `SubslotPartial& p`, `vector<T>* v`, `T> x`.
        }
      }
      pos += name.size();
    }
    return false;
  }

  // Root identifier of the statement containing `op_pos`: the first
  // non-keyword identifier after the previous ';'/'{'/'}'.
  std::string StatementRoot(size_t op_pos, size_t extent_begin) const {
    size_t start = op_pos;
    while (start > extent_begin) {
      const char c = code_[start - 1];
      if (c == ';' || c == '{' || c == '}') break;
      --start;
    }
    for (size_t i = start; i < op_pos; ++i) {
      if (IsIdentChar(code_[i]) &&
          (i == 0 || !IsIdentChar(code_[i - 1])) &&
          !std::isdigit(static_cast<unsigned char>(code_[i]))) {
        const std::string ident = IdentAt(i);
        if (!IsKeyword(ident)) return ident;
        i += ident.size();
      }
    }
    return {};
  }

  // Rule 4: shared-accumulation — `+=` / push_back / emplace_back on a
  // captured (not locally declared) target inside a ParallelFor body.
  void ScanSharedAccumulation() {
    for (const Call& call : calls_) {
      if (!call.is_for) continue;
      // `+=` sites.
      for (size_t i = call.open + 1; i + 1 < call.close; ++i) {
        if (code_[i] != '+' || code_[i + 1] != '=') continue;
        if (i > 0 && code_[i - 1] == '+') continue;  // `++` then `=`? no.
        const std::string root = StatementRoot(i, call.open + 1);
        if (!root.empty() &&
            !LocallyDeclared(root, call.open + 1, call.close)) {
          Emit(i, "shared-accumulation");
        }
      }
      // Growth calls.
      for (const char* member : {"push_back", "emplace_back"}) {
        const std::string name = member;
        size_t pos = call.open;
        while ((pos = code_.find(name, pos)) != std::string::npos &&
               pos < call.close) {
          if (!TokenAt(code_, pos, name)) {
            pos += name.size();
            continue;
          }
          const size_t prev = PrevNonWs(pos);
          const bool member_call =
              prev != std::string::npos &&
              (code_[prev] == '.' ||
               (code_[prev] == '>' && prev > 0 && code_[prev - 1] == '-'));
          if (member_call) {
            const std::string root = StatementRoot(pos, call.open + 1);
            if (!root.empty() &&
                !LocallyDeclared(root, call.open + 1, call.close)) {
              Emit(pos, "shared-accumulation");
            }
          }
          pos += name.size();
        }
      }
    }
  }

  // ---- Rule 5 helpers: enclosing-function lookup over brace pairs ----

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

  // Rule 5: unbalanced-snapshot — `x.Snapshot()` / `x->Snapshot()`
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

  // Rule 6: nested-parallel — a parallel call whose name sits inside
  // another parallel call's argument extent.
  void ScanNestedParallel() {
    for (const Call& inner : calls_) {
      for (const Call& outer : calls_) {
        if (inner.name_pos > outer.open && inner.name_pos < outer.close) {
          Emit(inner.name_pos, "nested-parallel");
          break;
        }
      }
    }
  }

  const Source& src_;
  const std::string& code_;
  std::vector<Finding>* out_;
  std::vector<Call> calls_;
  std::vector<Brace> braces_;
};

}  // namespace

int main(int argc, char** argv) {
  liblint::Tool tool;
  tool.name = "parlint";
  tool.tagline =
      "the §9 parallel-determinism and §10 snapshot-bracket contracts";
  tool.rules = kRules;
  tool.rule_count = sizeof(kRules) / sizeof(kRules[0]);
  tool.scan = [](const Source& src, std::vector<Finding>* out) {
    Scanner scanner(src, out);
    scanner.ScanFile();
  };
  return liblint::RunLinter(tool, argc, argv);
}
