#ifndef SHARDCHAIN_CONTRACT_ANALYZER_H_
#define SHARDCHAIN_CONTRACT_ANALYZER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "contract/vm.h"

namespace shardchain {

/// \brief Result of static contract analysis.
struct AnalysisReport {
  /// Structural validity: every instruction decodes, immediates are in
  /// bounds, jump targets land on instruction boundaries, party/arg
  /// indices are within range.
  bool valid = false;
  std::vector<std::string> errors;

  /// Maximum stack depth any execution can reach (from abstract
  /// interpretation over the control-flow graph).
  size_t max_stack = 0;
  /// True if some path may pop from an empty stack.
  bool may_underflow = false;
  /// Number of call arguments the code may read (1 + max ARG index).
  size_t required_args = 0;
  /// True if the control-flow graph contains a cycle (then gas is the
  /// only termination bound).
  bool has_loops = false;
  /// Upper bound on gas for acyclic programs; nullopt when has_loops.
  std::optional<uint64_t> gas_upper_bound;
};

/// \brief Static analyzer for contract-VM programs.
///
/// Run before deployment (see ContractRegistry::DeployChecked) so that
/// structurally broken or underflowing contracts never reach the
/// chain — every miner can re-run the same analysis and reject blocks
/// deploying invalid code, in the spirit of the paper's "honest miners
/// verify and reject" stance (Sec. IV-C).
AnalysisReport AnalyzeProgram(const ContractProgram& program);

/// Convenience: OK iff the program analyzes as valid with no possible
/// stack underflow and all referenced parties/args resolvable.
Status ValidateProgram(const ContractProgram& program);

}  // namespace shardchain

#endif  // SHARDCHAIN_CONTRACT_ANALYZER_H_
