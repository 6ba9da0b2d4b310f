#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.h"

/// \file types.h
/// \brief Core value types of the Bitcoin UTXO substrate (§II-A of the
/// paper): amounts, addresses, outpoints, transactions and blocks.

namespace ba::chain {

/// Monetary amount in satoshis (1 BTC = 100,000,000 sat).
using Amount = int64_t;

/// One bitcoin, in satoshis.
inline constexpr Amount kCoin = 100'000'000;

/// Dense identifier of a bitcoin address. Addresses are created through
/// Ledger::NewAddress() and are contiguous, which lets every index in
/// the system be a flat vector.
using AddressId = uint32_t;

inline constexpr AddressId kInvalidAddress = static_cast<AddressId>(-1);

/// Dense identifier of a transaction, assigned in apply order.
using TxId = uint64_t;

/// Unix timestamp in seconds.
using Timestamp = int64_t;

/// Renders a deterministic base58-looking string for an address id, so
/// logs and examples read like real bitcoin addresses.
std::string FormatAddress(AddressId id);

/// \brief Reference to a specific output of a prior transaction.
struct OutPoint {
  TxId txid = 0;
  uint32_t index = 0;

  bool operator==(const OutPoint&) const = default;

  /// Packs the outpoint into a single map key. Output indices fit in 20
  /// bits (max ~1M outputs per transaction, far above any real tx).
  uint64_t Key() const { return (txid << 20) | index; }
};

/// \brief A transaction output: `value` satoshis locked to `address`.
struct TxOut {
  AddressId address = kInvalidAddress;
  Amount value = 0;

  bool operator==(const TxOut&) const = default;
};

/// \brief A transaction input: the outpoint it spends plus the resolved
/// owner/value of that outpoint (filled in by the ledger at apply time).
struct TxIn {
  OutPoint prevout;
  AddressId address = kInvalidAddress;
  Amount value = 0;
};

/// \brief A confirmed transaction.
///
/// Invariants maintained by the Ledger: inputs reference previously
/// unspent outputs; sum(inputs) >= sum(outputs); coinbase transactions
/// have no inputs. The difference sum(in) - sum(out) is the fee.
struct Transaction {
  TxId txid = 0;
  Timestamp timestamp = 0;
  uint64_t block_height = 0;
  bool coinbase = false;
  std::vector<TxIn> inputs;
  std::vector<TxOut> outputs;

  Amount InputValue() const {
    Amount v = 0;
    for (const auto& in : inputs) v += in.value;
    return v;
  }

  Amount OutputValue() const {
    Amount v = 0;
    for (const auto& out : outputs) v += out.value;
    return v;
  }

  /// Fee paid to miners (burned in this simulation): in minus out.
  Amount Fee() const { return coinbase ? 0 : InputValue() - OutputValue(); }
};

/// \brief A run [first, last) of consecutive transaction ids,
/// iterable like the list it stands for.
class TxIdRange {
 public:
  class Iterator {
   public:
    explicit Iterator(TxId id) : id_(id) {}
    TxId operator*() const { return id_; }
    Iterator& operator++() {
      ++id_;
      return *this;
    }
    bool operator==(const Iterator& other) const { return id_ == other.id_; }
    bool operator!=(const Iterator& other) const { return id_ != other.id_; }

   private:
    TxId id_;
  };

  Iterator begin() const { return Iterator(first_); }
  Iterator end() const { return Iterator(last_); }
  uint64_t size() const { return last_ - first_; }
  bool empty() const { return first_ == last_; }

  /// Appends `id`, which must follow the range's last id (any id starts
  /// an empty range).
  void push_back(TxId id) {
    if (empty()) {
      first_ = id;
    } else {
      BA_CHECK_EQ(id, last_);
    }
    last_ = id + 1;
  }

 private:
  TxId first_ = 0;
  TxId last_ = 0;
};

/// \brief A sealed block: a height, a timestamp and the transactions
/// confirmed in it. The ledger assigns ids in apply order and every
/// applied transaction joins the pending block, so a block's ids are
/// contiguous and it stores their range, not a heap list.
struct Block {
  uint64_t height = 0;
  Timestamp timestamp = 0;
  TxIdRange transactions;
};

/// \brief An unspent output owned by some address, as returned by
/// Ledger::UnspentOf.
struct Utxo {
  OutPoint outpoint;
  Amount value = 0;
  uint64_t confirmed_height = 0;
};

/// \brief A transaction request submitted to the ledger for validation.
///
/// `inputs` name the outpoints being spent; the ledger resolves their
/// owners and values and rejects double-spends.
struct TxDraft {
  Timestamp timestamp = 0;
  std::vector<OutPoint> inputs;
  std::vector<TxOut> outputs;
};

}  // namespace ba::chain
