// flowlint — interprocedural taint analysis of the determinism and
// parallel contracts.
//
// detlint and parlint are lexical, per-file scanners: they cannot see a
// helper that reads the wall clock called three frames below
// Ledger::BuildBlock, or a function invoked from inside a ParallelFor
// body that takes a StateDB snapshot. flowlint closes that gap: it
// builds a token-level function index and call graph over everything it
// is given (liblint's ExtractFunctions/ExtractCallSites), seeds taints
// at nondeterminism sources and contract-relevant effects, propagates
// them to callers with a worklist fixpoint, and reports violations with
// the full call chain (`BuildBlock (f.cc:10) → PackCandidates (f.cc:5)
// → system_clock [nondet:wall-clock] (f.cc:7)`).
//
// Taint labels:
//   nondet:wall-clock       system_clock/steady_clock/time()/clock()
//   nondet:entropy          std::random_device
//   nondet:rand             rand()/srand() (global C RNG)
//   nondet:env              getenv()
//   nondet:hw-threads       hardware_concurrency()
//   nondet:ptr-order        std::map/set keyed on a pointer
//   effect:parallel         ParallelFor
//   effect:snapshot         member Snapshot()/RevertTo() (and Commit()
//                           when the same body opens a bracket)
//   effect:static-mutation  non-const local static state
//
// In-source annotations (comments, scanned from the raw text):
//   // flowlint: deterministic-root   — consensus entry point; rule 1
//       flags it when any nondet:* taint becomes reachable. The
//       required root set (DESIGN.md §7 entry points) is pinned in
//       kRequiredRoots; rule 3 flags a required root defined without
//       the annotation.
//   // flowlint: contract-barrier     — certified boundary (the §9
//       primitive ParallelFor): taints inside it do NOT propagate to
//       callers. Call resolution is by name, so ParallelFor's
//       `pool->Run` also resolves to BlockPipeline::Run; without the
//       barrier that pipeline's effect:snapshot would reach every
//       caller of VerifyBatch and VrfEvaluateBatch.
//
// The per-function taint summary is checked in at
// tools/flowlint/summaries.json and regenerated with
// `--summaries <file> --write-summaries`; rule 4 (taint-summary-drift)
// fails CI when the computed summary and the checked-in one diverge,
// so a review diff shows exactly which functions gained a taint.
//
// Like its siblings this is a heuristic token-level scanner on the
// shared liblint driver, not a compiler plugin: call resolution is an
// over-approximation (an unqualified callee resolves to every function
// with that name), so it errs toward flagging and intentional uses
// carry `// flowlint:allow(<rule>): justification` waivers.
//
// Usage:
//   flowlint [--report <file.json>] [--sarif <file.sarif>]
//            [--root <dir>] [--summaries <file.json>]
//            [--write-summaries] [--list-rules] [--rules-md]
//            [--check-waivers] <dir-or-file>...
//
// Exit codes: 0 = clean, 1 = usage / IO error, 2 = unsuppressed
// findings present.

#include <algorithm>
#include <cctype>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "liblint/liblint.h"

namespace {

using liblint::CallSite;
using liblint::EmitFinding;
using liblint::ExtractCallSites;
using liblint::ExtractFunctions;
using liblint::Finding;
using liblint::FunctionDef;
using liblint::IsIdentChar;
using liblint::JsonEscape;
using liblint::MatchAngle;
using liblint::MatchParen;
using liblint::RuleInfo;
using liblint::Source;
using liblint::TokenAt;

constexpr RuleInfo kRules[] = {
    {"consensus-reaches-nondet",
     "a declared deterministic root (// flowlint: deterministic-root) "
     "transitively reaches a nondeterminism source — wall clock, "
     "entropy, global RNG, getenv, hardware_concurrency, or "
     "pointer-keyed ordering; two honest miners would derive different "
     "bytes from the same broadcast (DESIGN.md §7)"},
    {"parallel-body-effects",
     "a ParallelFor body performs, or calls anything that transitively "
     "performs, snapshot-journal ops, nested parallelism, or static "
     "mutation; the §9 contract lets a body write only its own index's "
     "slot"},
    {"unannotated-root",
     "a consensus entry point (Ledger::BuildBlock, the codec "
     "encode/decode pairs, the games) defined without its "
     "`// flowlint: deterministic-root` annotation; the root set must "
     "be declared in-source so rule 1 audits every entry point"},
    {"taint-summary-drift",
     "the computed per-function taint summary differs from the "
     "checked-in tools/flowlint/summaries.json; not waivable — "
     "regenerate with `--summaries <file> --write-summaries` so the "
     "review diff shows exactly which functions changed"},
};

// The consensus entry points every miner must recompute bit-identically
// from the leader's unified parameters (Sec. IV-C; DESIGN.md §7). Each
// must carry `// flowlint: deterministic-root` at its definition.
constexpr const char* kRequiredRoots[] = {
    "Ledger::BuildBlock",
    "ShardingSystem::ComputeShardSelectionPlans",
    "EncodeUnifiedParameters",
    "DecodeUnifiedParameters",
    "EncodeSelectionPlan",
    "DecodeSelectionPlan",
    "EncodeMergePlan",
    "DecodeMergePlan",
    "RunSelectionGame",
    "RunOneTimeMerge",
    "RunIterativeMerge",
    "RunRandomizedMerge",
    // Churn and migration byte streams (DESIGN.md §12): epoch records,
    // account handoffs, and migration plans are consensus-compared
    // byte-for-byte across miners.
    "EncodeEpochRecord",
    "DecodeEpochRecord",
    "EncodeAccountState",
    "DecodeAccountState",
    "EncodeHandoffRecord",
    "DecodeHandoffRecord",
    "EncodeMigrationPlan",
    "DecodeMigrationPlan",
    // Mempool emission and pipelined block production (DESIGN.md §14):
    // TopByFee feeds every miner's packing decision and the pipeline
    // must emit serial-identical block bytes.
    "TxPool::TopByFee",
    "BlockPipeline::Run",
};

constexpr char kRootAnnotation[] = "flowlint: deterministic-root";
constexpr char kBarrierAnnotation[] = "flowlint: contract-barrier";

// An annotation comment binds to the function whose name starts within
// this many lines below it (covers a return type on its own line).
constexpr size_t kAnnotationMargin = 3;

std::string LastComponent(const std::string& qualified) {
  const size_t sep = qualified.rfind("::");
  return sep == std::string::npos ? qualified : qualified.substr(sep + 2);
}

// ------------------------------ Analysis --------------------------------

struct Seed {
  std::string taint;
  std::string token;  // What to print in the chain's last hop.
  size_t offset = 0;
};

struct Edge {
  size_t callee = 0;  // Index into fns_.
  size_t offset = 0;  // Call-site offset in the caller's file.
};

struct Fn {
  FunctionDef def;
  size_t src_index = 0;
  bool is_root = false;
  bool is_barrier = false;
  std::vector<Seed> seeds;
  std::vector<Edge> edges;           // In call-site offset order.
  std::set<std::string> taints;      // Seeds ∪ non-barrier callees'.
};

class Analysis {
 public:
  explicit Analysis(const std::vector<Source>& sources)
      : sources_(sources) {}

  void Run() {
    IndexFunctions();
    HarvestAnnotations();
    for (Fn& fn : fns_) SeedTaints(&fn);
    BuildEdges();
    Propagate();
  }

  void EmitRootFindings(std::vector<Finding>* out) const;
  void EmitParallelBodyFindings(std::vector<Finding>* out) const;
  void EmitUnannotatedRootFindings(std::vector<Finding>* out) const;

  // Final taints per function name (union over same-named definitions,
  // non-empty sets only) — the summary rule 4 diffs and writes.
  std::map<std::string, std::set<std::string>> Summaries() const {
    std::map<std::string, std::set<std::string>> out;
    for (const Fn& fn : fns_) {
      if (fn.taints.empty()) continue;
      out[fn.def.name].insert(fn.taints.begin(), fn.taints.end());
    }
    return out;
  }

 private:
  void IndexFunctions() {
    for (size_t s = 0; s < sources_.size(); ++s) {
      for (FunctionDef& def : ExtractFunctions(sources_[s])) {
        Fn fn;
        fn.def = std::move(def);
        fn.src_index = s;
        by_name_[fn.def.name].push_back(fns_.size());
        by_last_[LastComponent(fn.def.name)].push_back(fns_.size());
        fns_.push_back(std::move(fn));
      }
    }
  }

  // `// flowlint: deterministic-root` / `contract-barrier` comments,
  // read from the RAW text (they are comments, blanked in code()).
  void HarvestAnnotations() {
    for (Fn& fn : fns_) {
      const Source& src = sources_[fn.src_index];
      const size_t name_line = src.LineOf(fn.def.name_pos);
      const size_t first =
          name_line > kAnnotationMargin ? name_line - kAnnotationMargin : 1;
      for (size_t line = first; line <= name_line; ++line) {
        const std::string text = src.LineText(line);
        if (text.find(kRootAnnotation) != std::string::npos) {
          fn.is_root = true;
        }
        if (text.find(kBarrierAnnotation) != std::string::npos) {
          fn.is_barrier = true;
        }
      }
    }
  }

  void AddSeed(Fn* fn, const char* taint, const std::string& token,
               size_t offset) {
    fn->seeds.push_back({taint, token, offset});
    fn->taints.insert(taint);
  }

  void SeedTaints(Fn* fn) {
    const std::string& code = sources_[fn->src_index].code();
    const size_t begin = fn->def.body_open + 1;
    const size_t end = fn->def.body_close;

    struct Pattern {
      const char* token;
      const char* taint;
      bool needs_call;  // Must be followed by '('.
    };
    constexpr Pattern kPatterns[] = {
        {"system_clock", "nondet:wall-clock", false},
        {"steady_clock", "nondet:wall-clock", false},
        {"high_resolution_clock", "nondet:wall-clock", false},
        {"time", "nondet:wall-clock", true},
        {"gettimeofday", "nondet:wall-clock", true},
        {"clock", "nondet:wall-clock", true},
        {"random_device", "nondet:entropy", false},
        {"rand", "nondet:rand", true},
        {"srand", "nondet:rand", true},
        {"getenv", "nondet:env", true},
        {"hardware_concurrency", "nondet:hw-threads", false},
        {"ParallelFor", "effect:parallel", true},
    };
    for (const Pattern& p : kPatterns) {
      const std::string token = p.token;
      size_t pos = begin;
      while ((pos = code.find(token, pos)) != std::string::npos &&
             pos < end) {
        if (!TokenAt(code, pos, token) ||
            (pos > 0 && code[pos - 1] == '.')) {
          pos += token.size();  // `obj.time` is a member, not libc.
          continue;
        }
        if (p.needs_call) {
          const size_t after = SkipWs(code, pos + token.size());
          if (after >= code.size() || code[after] != '(') {
            pos += token.size();
            continue;
          }
        }
        AddSeed(fn, p.taint, token, pos);
        pos += token.size();
      }
    }

    SeedSnapshotOps(fn, code, begin, end);
    SeedStaticMutation(fn, code, begin, end);
    SeedPointerKeys(fn, code, begin, end);
  }

  // Member Snapshot()/RevertTo() always seed effect:snapshot; Commit()
  // only when the body also opens a bracket (Snapshot or RevertTo), so
  // unrelated Commit methods (a beacon round, a batch writer) do not
  // read as journal ops.
  void SeedSnapshotOps(Fn* fn, const std::string& code, size_t begin,
                       size_t end) {
    bool has_bracket = false;
    std::vector<Seed> commits;
    for (const char* name : {"Snapshot", "RevertTo", "Commit"}) {
      const std::string token = name;
      size_t pos = begin;
      while ((pos = code.find(token, pos)) != std::string::npos &&
             pos < end) {
        const bool dot = pos > 0 && code[pos - 1] == '.';
        const bool arrow =
            pos > 1 && code[pos - 2] == '-' && code[pos - 1] == '>';
        const size_t after = SkipWs(code, pos + token.size());
        if (!TokenAt(code, pos, token) || !(dot || arrow) ||
            after >= code.size() || code[after] != '(') {
          pos += token.size();
          continue;
        }
        if (token == "Commit") {
          commits.push_back({"effect:snapshot", token, pos});
        } else {
          has_bracket = true;
          AddSeed(fn, "effect:snapshot", token, pos);
        }
        pos += token.size();
      }
    }
    if (has_bracket) {
      for (const Seed& s : commits) {
        AddSeed(fn, "effect:snapshot", s.token, s.offset);
      }
    }
  }

  // A non-const local `static` is mutable cross-call state: results
  // depend on invocation history, and under parallelism on the
  // schedule.
  void SeedStaticMutation(Fn* fn, const std::string& code, size_t begin,
                          size_t end) {
    size_t pos = begin;
    while ((pos = code.find("static", pos)) != std::string::npos &&
           pos < end) {
      if (!TokenAt(code, pos, "static")) {
        pos += 6;
        continue;
      }
      const size_t after = SkipWs(code, pos + 6);
      if (!TokenAt(code, after, "const") &&
          !TokenAt(code, after, "constexpr")) {
        AddSeed(fn, "effect:static-mutation", "static", pos);
      }
      pos += 6;
    }
  }

  // std::map/set (and multi variants) keyed on a pointer: iteration
  // order is decided by the allocator, not the data.
  void SeedPointerKeys(Fn* fn, const std::string& code, size_t begin,
                       size_t end) {
    for (const char* type : {"map", "set", "multimap", "multiset"}) {
      const std::string token = type;
      size_t pos = begin;
      while ((pos = code.find(token, pos)) != std::string::npos &&
             pos < end) {
        if (!TokenAt(code, pos, token) ||
            code.find('<', pos) != pos + token.size()) {
          pos += token.size();
          continue;
        }
        const size_t open = pos + token.size();
        const size_t close = MatchAngle(code, open);
        if (close == std::string::npos) {
          pos += token.size();
          continue;
        }
        int depth = 0;
        size_t key_end = close;
        for (size_t i = open; i <= close; ++i) {
          if (code[i] == '<') ++depth;
          if (code[i] == '>') --depth;
          if (code[i] == ',' && depth == 1) {
            key_end = i;
            break;
          }
        }
        std::string key = code.substr(open + 1, key_end - open - 1);
        while (!key.empty() &&
               std::isspace(static_cast<unsigned char>(key.back()))) {
          key.pop_back();
        }
        if (!key.empty() && key.back() == '*') {
          AddSeed(fn, "nondet:ptr-order", token, pos);
        }
        pos = close;
      }
    }
  }

  // Call resolution, over-approximating by design:
  //  - `std::`-qualified callees are leaves (the std library's taints
  //    are modeled by the seed patterns, not by resolution);
  //  - a qualified callee resolves only to exact name matches;
  //  - an unqualified callee from inside class C prefers C's member of
  //    that name, else resolves to EVERY function with that last
  //    component.
  void BuildEdges() {
    for (Fn& fn : fns_) {
      const Source& src = sources_[fn.src_index];
      const std::string class_prefix = ClassPrefix(fn.def.name);
      for (const CallSite& call : ExtractCallSites(
               src, fn.def.body_open + 1, fn.def.body_close)) {
        if (call.callee.rfind("std::", 0) == 0) continue;
        std::vector<size_t> targets;
        if (call.callee.find("::") != std::string::npos) {
          auto it = by_name_.find(call.callee);
          if (it != by_name_.end()) targets = it->second;
        } else {
          if (!class_prefix.empty()) {
            auto it = by_name_.find(class_prefix + "::" + call.callee);
            if (it != by_name_.end()) targets = it->second;
          }
          if (targets.empty()) {
            auto it = by_last_.find(call.callee);
            if (it != by_last_.end()) targets = it->second;
          }
        }
        for (size_t t : targets) {
          fn.edges.push_back({t, call.offset});
        }
      }
    }
  }

  static std::string ClassPrefix(const std::string& name) {
    const size_t sep = name.rfind("::");
    return sep == std::string::npos ? std::string() : name.substr(0, sep);
  }

  // Worklist fixpoint: a caller carries every taint of its non-barrier
  // callees. Monotone over finite sets, so iterate to stability.
  void Propagate() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (Fn& fn : fns_) {
        for (const Edge& e : fn.edges) {
          const Fn& callee = fns_[e.callee];
          if (callee.is_barrier) continue;
          for (const std::string& t : callee.taints) {
            if (fn.taints.insert(t).second) changed = true;
          }
        }
      }
    }
  }

  // ------------------------------ Chains --------------------------------

  std::string Hop(const Fn& fn) const {
    const Source& src = sources_[fn.src_index];
    return fn.def.name + " (" + src.path() + ":" +
           std::to_string(src.LineOf(fn.def.name_pos)) + ")";
  }

  std::string SeedHop(const Fn& fn, const Seed& seed) const {
    const Source& src = sources_[fn.src_index];
    return seed.token + " [" + seed.taint + "] (" + src.path() + ":" +
           std::to_string(src.LineOf(seed.offset)) + ")";
  }

  const Seed* LocalSeed(const Fn& fn, const std::string& taint) const {
    for (const Seed& s : fn.seeds) {
      if (s.taint == taint) return &s;
    }
    return nullptr;
  }

  // Shortest call chain from fns_[start] to a local seed of `taint`,
  // BFS with edges in call-site order (deterministic across runs).
  std::string ChainFor(size_t start, const std::string& taint) const {
    std::deque<size_t> queue{start};
    std::map<size_t, size_t> parent;  // child fn index -> parent.
    std::set<size_t> visited{start};
    while (!queue.empty()) {
      const size_t at = queue.front();
      queue.pop_front();
      if (const Seed* seed = LocalSeed(fns_[at], taint)) {
        std::vector<size_t> path{at};
        while (path.back() != start) path.push_back(parent[path.back()]);
        std::string chain;
        for (auto it = path.rbegin(); it != path.rend(); ++it) {
          chain += Hop(fns_[*it]) + " → ";
        }
        return chain + SeedHop(fns_[at], *seed);
      }
      for (const Edge& e : fns_[at].edges) {
        const Fn& callee = fns_[e.callee];
        if (callee.is_barrier || callee.taints.count(taint) == 0 ||
            !visited.insert(e.callee).second) {
          continue;
        }
        parent[e.callee] = at;
        queue.push_back(e.callee);
      }
    }
    return Hop(fns_[start]);  // Unreachable seed: degrade gracefully.
  }

  static size_t SkipWs(const std::string& s, size_t pos) {
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos]))) {
      ++pos;
    }
    return pos;
  }

  const std::vector<Source>& sources_;
  std::vector<Fn> fns_;
  std::map<std::string, std::vector<size_t>> by_name_;
  std::map<std::string, std::vector<size_t>> by_last_;
};

// Rule 1: consensus-reaches-nondet.
void Analysis::EmitRootFindings(std::vector<Finding>* out) const {
  for (size_t i = 0; i < fns_.size(); ++i) {
    const Fn& fn = fns_[i];
    if (!fn.is_root) continue;
    std::string taint;
    for (const std::string& t : fn.taints) {
      if (t.rfind("nondet:", 0) == 0) {
        taint = t;
        break;  // Sets are ordered: first nondet:* is the smallest.
      }
    }
    if (taint.empty()) continue;
    EmitFinding(sources_[fn.src_index], fn.def.name_pos,
                "consensus-reaches-nondet", ChainFor(i, taint), out);
  }
}

// Rule 2: parallel-body-effects. Scans each function's ParallelFor
// argument extents: a direct effect seed inside the extent (a snapshot
// op, a static mutation, or a lexically nested ParallelFor), or a
// resolved callee carrying any effect:* taint, is an effect smuggled
// into a parallel region.
void Analysis::EmitParallelBodyFindings(std::vector<Finding>* out) const {
  const std::string token = "ParallelFor";
  for (size_t i = 0; i < fns_.size(); ++i) {
    const Fn& fn = fns_[i];
    const Source& src = sources_[fn.src_index];
    const std::string& code = src.code();
    std::set<size_t> emitted;  // Nested extents: once per offset.
    size_t pos = fn.def.body_open + 1;
    while ((pos = code.find(token, pos)) != std::string::npos &&
           pos < fn.def.body_close) {
      if (!TokenAt(code, pos, token)) {
        pos += token.size();
        continue;
      }
      size_t open = pos + token.size();
      while (open < code.size() &&
             std::isspace(static_cast<unsigned char>(code[open]))) {
        ++open;
      }
      if (open >= code.size() || code[open] != '(') {
        pos += token.size();
        continue;
      }
      const size_t close = MatchParen(code, open);
      if (close == std::string::npos) {
        pos += token.size();
        continue;
      }
      for (const Seed& s : fn.seeds) {
        if (s.taint != "effect:snapshot" &&
            s.taint != "effect:static-mutation" &&
            s.taint != "effect:parallel") {
          continue;
        }
        if (s.offset > open && s.offset < close &&
            emitted.insert(s.offset).second) {
          EmitFinding(src, s.offset, "parallel-body-effects",
                      SeedHop(fn, s), out);
        }
      }
      for (const Edge& e : fn.edges) {
        if (e.offset <= open || e.offset >= close) continue;
        const Fn& callee = fns_[e.callee];
        if (callee.is_barrier) continue;
        std::string taint;
        for (const std::string& t : callee.taints) {
          if (t.rfind("effect:", 0) == 0) {
            taint = t;
            break;
          }
        }
        if (taint.empty() || !emitted.insert(e.offset).second) continue;
        EmitFinding(src, e.offset, "parallel-body-effects",
                    ChainFor(e.callee, taint), out);
      }
      pos = close;
    }
  }
}

// Rule 3: unannotated-root.
void Analysis::EmitUnannotatedRootFindings(std::vector<Finding>* out) const {
  for (const char* required : kRequiredRoots) {
    auto it = by_name_.find(required);
    if (it == by_name_.end()) continue;  // Not in the scanned set.
    for (size_t i : it->second) {
      const Fn& fn = fns_[i];
      if (fn.is_root) continue;
      EmitFinding(sources_[fn.src_index], fn.def.name_pos,
                  "unannotated-root", out);
    }
  }
}

// ----------------------------- Summaries --------------------------------

using SummaryMap = std::map<std::string, std::set<std::string>>;

bool WriteSummaries(const std::string& path, const SummaryMap& summaries) {
  std::ofstream out(path);
  out << "{\n  \"tool\": \"flowlint\",\n  \"version\": 1,\n"
      << "  \"functions\": [";
  size_t i = 0;
  for (const auto& [name, taints] : summaries) {
    out << (i++ == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << JsonEscape(name) << "\", \"taints\": [";
    size_t j = 0;
    for (const std::string& t : taints) {
      out << (j++ == 0 ? "" : ", ") << "\"" << JsonEscape(t) << "\"";
    }
    out << "]}";
  }
  out << (summaries.empty() ? "]\n" : "\n  ]\n") << "}\n";
  out.flush();
  return out.good();
}

// Minimal reader for the exact shape WriteSummaries produces (plus
// whitespace tolerance): `"name": "<fn>"` followed by
// `"taints": ["a", "b"]`, repeated.
bool ParseSummaries(const std::string& text, SummaryMap* out) {
  size_t pos = 0;
  while ((pos = text.find("\"name\"", pos)) != std::string::npos) {
    size_t q = text.find('"', text.find(':', pos) + 1);
    if (q == std::string::npos) return false;
    size_t qe = text.find('"', q + 1);
    if (qe == std::string::npos) return false;
    const std::string name = text.substr(q + 1, qe - q - 1);
    const size_t taints_key = text.find("\"taints\"", qe);
    if (taints_key == std::string::npos) return false;
    const size_t open = text.find('[', taints_key);
    const size_t close = text.find(']', taints_key);
    if (open == std::string::npos || close == std::string::npos) {
      return false;
    }
    std::set<std::string> taints;
    size_t t = open;
    while ((t = text.find('"', t + 1)) != std::string::npos && t < close) {
      const size_t te = text.find('"', t + 1);
      if (te == std::string::npos || te > close) return false;
      taints.insert(text.substr(t + 1, te - t - 1));
      t = te;
    }
    (*out)[name] = std::move(taints);
    pos = close;
  }
  return true;
}

std::string JoinTaints(const std::set<std::string>& taints) {
  std::string out;
  for (const std::string& t : taints) {
    out += (out.empty() ? "" : ", ") + t;
  }
  return out;
}

// Rule 4: taint-summary-drift. Findings attribute to the summary file
// itself; there is no source line to waive on, and drift is never
// acceptable — the fix is always to regenerate and review the diff.
void CheckSummaryDrift(const std::string& path, const SummaryMap& computed,
                       std::vector<Finding>* out) {
  std::ifstream in(path, std::ios::binary);
  SummaryMap recorded;
  bool parsed = false;
  if (in) {
    std::stringstream buffer;
    buffer << in.rdbuf();
    parsed = ParseSummaries(buffer.str(), &recorded);
  }
  auto drift = [&](const std::string& message) {
    Finding f;
    f.file = path;
    f.line = 1;
    f.rule = "taint-summary-drift";
    f.snippet = message + "; regenerate with --write-summaries";
    f.suppressed = false;
    out->push_back(std::move(f));
  };
  if (!parsed) {
    drift("summary file missing or unparsable");
    return;
  }
  for (const auto& [name, taints] : computed) {
    auto it = recorded.find(name);
    if (it == recorded.end()) {
      drift("summary missing function \"" + name + "\" (computed: " +
            JoinTaints(taints) + ")");
    } else if (it->second != taints) {
      drift("summary for \"" + name + "\" lists [" +
            JoinTaints(it->second) + "] but analysis computes [" +
            JoinTaints(taints) + "]");
    }
  }
  for (const auto& [name, taints] : recorded) {
    if (computed.count(name) == 0) {
      drift("summary lists \"" + name +
            "\" which is now absent or taint-free");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Strip flowlint's own flags before handing the rest to the shared
  // driver.
  std::string summaries_path;
  bool write_summaries = false;
  std::vector<char*> pass;
  pass.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--summaries" && i + 1 < argc) {
      summaries_path = argv[++i];
    } else if (arg == "--write-summaries") {
      write_summaries = true;
    } else {
      pass.push_back(argv[i]);
    }
  }
  if (write_summaries && summaries_path.empty()) {
    std::cerr << "flowlint: --write-summaries requires --summaries <file>\n";
    return 1;
  }

  liblint::Tool tool;
  tool.name = "flowlint";
  tool.tagline =
      "interprocedural taint analysis of the §7 determinism and §9/§10 "
      "parallel and snapshot contracts";
  tool.rules = kRules;
  tool.rule_count = sizeof(kRules) / sizeof(kRules[0]);
  bool summaries_write_failed = false;
  tool.scan_program = [&](const std::vector<Source>& sources,
                          std::vector<Finding>* out) {
    Analysis analysis(sources);
    analysis.Run();
    analysis.EmitRootFindings(out);
    analysis.EmitParallelBodyFindings(out);
    analysis.EmitUnannotatedRootFindings(out);
    if (write_summaries) {
      if (!WriteSummaries(summaries_path, analysis.Summaries())) {
        summaries_write_failed = true;
      }
    } else if (!summaries_path.empty()) {
      CheckSummaryDrift(summaries_path, analysis.Summaries(), out);
    }
  };
  const int rc = liblint::RunLinter(tool, static_cast<int>(pass.size()),
                                    pass.data());
  if (summaries_write_failed) {
    std::cerr << "flowlint: cannot write summaries to \"" << summaries_path
              << "\"\n";
    return 1;
  }
  return rc;
}
