#pragma once

#include <vector>

#include "chain/ledger.h"
#include "chain/types.h"
#include "util/status.h"

/// \file wallet.h
/// \brief Client-side key/UTXO management, including the *change
/// mechanism* the paper highlights (§II-A): when a wallet spends, it
/// zeroes out the selected UTXOs and routes any remainder to a change
/// address — by default a freshly generated one, which is exactly what
/// makes address behavior analysis hard.

namespace ba::chain {

/// \brief Where a wallet sends transaction change.
enum class ChangePolicy {
  /// Generate a brand-new address for every change output (the privacy-
  /// preserving default of real bitcoin wallets).
  kFreshAddress,
  /// Return change to the first spending address (common for service
  /// hot wallets that deliberately reuse addresses).
  kReuseSource,
};

/// \brief How a wallet picks UTXOs to fund a payment.
enum class CoinSelection {
  /// Spend largest UTXOs first (fewest inputs).
  kLargestFirst,
  /// Spend oldest UTXOs first (FIFO).
  kOldestFirst,
};

/// \brief A collection of addresses managed as one economic entity.
///
/// The wallet owns no coins itself — it only records which ledger
/// addresses belong to it and composes valid TxDrafts, mirroring the
/// paper's description of bitcoin wallets as pure key managers.
class Wallet {
 public:
  explicit Wallet(Ledger* ledger) : ledger_(ledger) {}

  /// Creates and tracks a fresh receiving address.
  AddressId CreateAddress();

  /// Adopts an already-created ledger address into this wallet.
  void AdoptAddress(AddressId address);

  const std::vector<AddressId>& addresses() const { return addresses_; }

  /// Total spendable balance across all wallet addresses.
  Amount Balance() const;

  /// \brief Composes, validates and applies a payment.
  ///
  /// Selects UTXOs per `selection` until `sum(payments) + fee` is
  /// covered, emits the payment outputs, and routes any remainder above
  /// `fee` to a change output per `policy`. Returns the confirmed TxId.
  Result<TxId> Send(Timestamp timestamp, const std::vector<TxOut>& payments,
                    Amount fee, ChangePolicy policy = ChangePolicy::kFreshAddress,
                    CoinSelection selection = CoinSelection::kLargestFirst);

  /// \brief Sweeps the entire balance of this wallet into `destination`
  /// (minus `fee`). Used by exchange cold-storage consolidation.
  Result<TxId> SweepTo(Timestamp timestamp, AddressId destination, Amount fee);

  /// Address of the most recent change output, or kInvalidAddress.
  AddressId last_change_address() const { return last_change_address_; }

 private:
  struct Selected {
    std::vector<OutPoint> inputs;
    Amount total = 0;
    AddressId first_source = kInvalidAddress;
  };

  /// Gathers mature UTXOs across wallet addresses until `target` is
  /// covered; fails with FailedPrecondition on insufficient funds.
  ///
  /// Order: kLargestFirst takes value descending, kOldestFirst txid
  /// ascending; ties go to wallet order (address order of
  /// `addresses()`, then each address's outputs in creation order).
  /// Cost: O(A + U + s log U) for A wallet addresses, U mature outputs
  /// and s outputs selected — one pass over the ledger's per-address
  /// lists, a heap built in place in a reused thread-local buffer, and
  /// one pop per selected output. No per-address copy, no hash lookup.
  Result<Selected> SelectCoins(Amount target, CoinSelection selection) const;

  Ledger* ledger_;
  std::vector<AddressId> addresses_;
  AddressId last_change_address_ = kInvalidAddress;
};

}  // namespace ba::chain
