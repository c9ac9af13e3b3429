#ifndef SHARDCHAIN_TYPES_TRANSACTION_H_
#define SHARDCHAIN_TYPES_TRANSACTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hex.h"
#include "crypto/sha256.h"
#include "types/address.h"

namespace shardchain {

/// Monetary amounts, in the smallest unit ("wei"-like).
using Amount = uint64_t;

/// What a transaction does. The paper's sender classification
/// (Sec. II-C) keys off these: contract calls by single-contract
/// senders are shardable; direct transfers force the sender's
/// transactions into the MaxShard.
enum class TxKind : uint8_t {
  kDirectTransfer = 0,  ///< User -> user value transfer (Fig. 1c, tx 5).
  kContractCall = 1,    ///< User -> contract invocation (Fig. 1a).
  kContractDeploy = 2,  ///< User deploys new contract code.
};

const char* TxKindName(TxKind kind);

/// \brief A transaction in the account model.
///
/// Matches the fields the evaluation exercises: a fee (the miners'
/// congestion-game resource value), a contract target (the shard key),
/// and an `input_accounts` list modelling the paper's "k-input
/// transactions" whose validation needs account records from k users
/// (Sec. VI-B2, Fig. 4b).
struct Transaction {
  Address sender;
  Address recipient;          ///< Contract address for kContractCall.
  TxKind kind = TxKind::kDirectTransfer;
  Amount value = 0;
  Amount fee = 0;             ///< Transaction fee paid to the miner.
  uint64_t gas_limit = 21000;
  uint64_t nonce = 0;         ///< Sender's account nonce.
  Bytes payload;              ///< Contract code (deploy) or call args.

  /// Accounts whose records are needed to validate this transaction
  /// (besides the sender). Drives cross-shard communication accounting
  /// in the ChainSpace baseline.
  std::vector<Address> input_accounts;

  /// Canonical serialization (deterministic; used for hashing).
  Bytes Encode() const;

  /// SHA-256 of Encode(); the transaction id.
  Hash256 Id() const;

  /// Domain-separated digest a sender's signature covers on admission
  /// (distinct from Id() so a signature can never be replayed as an
  /// identifier or vice versa). Batch-verified by the mempool through
  /// crypto VerifyBatch (DESIGN.md §14).
  Hash256 SigningDigest() const;

  /// Total number of accounts touched (sender + inputs); the paper's
  /// "number of inputs" for a k-input transaction.
  size_t InputCount() const { return 1 + input_accounts.size(); }

  friend bool operator==(const Transaction&, const Transaction&) = default;
};

}  // namespace shardchain

#endif  // SHARDCHAIN_TYPES_TRANSACTION_H_
