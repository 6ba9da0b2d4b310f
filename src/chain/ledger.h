#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "chain/types.h"
#include "util/chunked_vector.h"
#include "util/status.h"

/// \file ledger.h
/// \brief Append-only UTXO ledger: the blockchain substrate beneath the
/// behavioral data generator.
///
/// The ledger validates and confirms transactions (double-spend checks,
/// value conservation, coinbase rules), maintains the UTXO set, and
/// keeps the address -> transaction index that BAClassifier's graph
/// construction consumes.
///
/// ## Concurrency model (single writer, many readers)
///
/// The ledger is an append-only single-writer structure: exactly one
/// thread may mutate it (NewAddress / ApplyCoinbase / ApplyTransaction /
/// SealBlock) at a time. Concurrently with that writer, any number of
/// reader threads may:
///
///  * call the cheap monotonic accessors `height()`,
///    `num_addresses()`, `num_transactions()`, `TxCountOf()`,
///    `tx()`, `block()`, `TransactionsOf()`;
///  * capture a `LedgerSnapshot` via `Snapshot()` and read through it.
///
/// This works because the hot storage (`transactions_`, `blocks_`, the
/// per-address tx lists) lives in `util::ChunkedVector`s whose elements
/// never move once published, and every publication is a release store
/// paired with acquire loads on the read side. The UTXO set and balance
/// accessors (`LiveOutputsOf`, `UnspentOf`, `BalanceOf`,
/// `CheckConservation`) read a mutator-private index, one flat list of
/// live outputs per address, and are **not** safe to call concurrently
/// with mutation — use the snapshot versions, which replay the
/// address's pinned history instead.
///
/// Moving a Ledger is not thread-safe and invalidates all snapshots and
/// references obtained from the source.

namespace ba::chain {

class Ledger;

/// \brief Tunables for the simulated chain.
struct LedgerOptions {
  /// Block subsidy credited by each coinbase transaction.
  Amount block_subsidy = 625'000'000;  // 6.25 BTC
  /// Blocks a coinbase output must age before it can be spent.
  uint64_t coinbase_maturity = 0;
  /// Target seconds between blocks (used by callers that auto-advance
  /// time; the ledger itself accepts any non-decreasing timestamps).
  int64_t block_interval_seconds = 600;
};

/// \brief One entry of an address's live-output list: an unspent
/// outpoint, packed as `OutPoint::Key()`, and its value.
struct LiveOutput {
  uint64_t key = 0;
  Amount value = 0;

  TxId txid() const { return key >> 20; }
  OutPoint outpoint() const {
    return OutPoint{key >> 20, static_cast<uint32_t>(key & 0xFFFFF)};
  }
};

/// \brief A pinned epoch of a Ledger: O(1) to capture, immune to
/// concurrent growth.
///
/// A snapshot pins `(height, num_addresses, num_transactions)` at
/// capture time and serves every read clamped to that epoch: a
/// transaction applied after the capture is invisible, as is an address
/// created after it. Because the underlying storage is append-only and
/// reallocation-stable, the snapshot holds no copies — it is three
/// integers and a pointer — yet every view it returns is consistent
/// with the exact chain state at capture time.
///
/// The pinned counters are mutually consistent by construction: the
/// writer publishes an address before any transaction touches it, a
/// transaction before any block contains it, and capture reads the
/// counters in the opposite order (height, then transactions, then
/// addresses). So a pinned block only references pinned transactions
/// and a pinned transaction only references pinned addresses. Capture
/// also re-reads the height after the transaction count and retries
/// until it is unchanged, so every pinned transaction belongs to a
/// block at or below the pinned height (the pending block at most),
/// and coinbase maturity in `BalanceOf` is judged against a height the
/// chain really had alongside those transactions. (SnapshotAt pins a
/// past transaction count under the current height, so its
/// transactions lie at or below its height as well.)
///
/// Lifetime: a snapshot borrows the Ledger; it must not outlive it, and
/// moving the Ledger invalidates it. Snapshots are freely copyable and
/// safe to share across threads.
class LedgerSnapshot {
 public:
  /// Number of sealed blocks at capture time.
  uint64_t height() const { return height_; }

  /// Number of addresses at capture time.
  size_t num_addresses() const { return num_addresses_; }

  /// Number of applied (confirmed or pending) transactions at capture.
  uint64_t num_transactions() const { return num_transactions_; }

  const LedgerOptions& options() const;

  /// The transaction with the given id; `id` must be <
  /// `num_transactions()`. Aborts on bad id. The reference is stable
  /// for the life of the Ledger.
  const Transaction& tx(TxId id) const;

  /// The sealed block at `height`, which must be < `height()`.
  const Block& block(uint64_t height) const;

  /// Number of transactions touching `address` within this epoch.
  /// Addresses created after capture have zero transactions.
  size_t TxCountOf(AddressId address) const;

  /// The first `min(TxCountOf(address), max_count)` transactions
  /// touching `address` (as input or output), in chronological (apply)
  /// order — the raw material of §III-A.
  std::vector<TxId> TransactionsOf(
      AddressId address, size_t max_count = SIZE_MAX) const;

  /// Replaces `*out` with entries [`begin`, `end`) of that list, so a
  /// caller reading one window of a long history copies only the
  /// window. Requires `begin <= end <= TxCountOf(address)`.
  void CopyTransactionsOf(AddressId address, size_t begin, size_t end,
                          std::vector<TxId>* out) const;

  /// Unspent outputs owned by `address` as of this epoch, in creation
  /// order. Reconstructed by replaying the address's pinned history
  /// (every spend of an address's coins appears in that address's own
  /// transaction list), so it is safe under concurrent ledger growth.
  std::vector<Utxo> UnspentOf(AddressId address) const;

  /// Spendable balance of `address` as of this epoch (sum of its
  /// mature UTXOs; coinbase maturity judged against the pinned height).
  Amount BalanceOf(AddressId address) const;

 private:
  friend class Ledger;

  LedgerSnapshot(const Ledger* ledger, uint64_t height,
                 uint64_t num_transactions, size_t num_addresses)
      : ledger_(ledger),
        height_(height),
        num_transactions_(num_transactions),
        num_addresses_(num_addresses) {}

  const Ledger* ledger_;
  uint64_t height_;
  uint64_t num_transactions_;
  size_t num_addresses_;
};

/// \brief The blockchain: blocks, transactions, UTXO set, and indexes.
///
/// Transactions are applied into a pending block; SealBlock() confirms
/// the pending block and advances the height. All mutation goes through
/// ApplyCoinbase / ApplyTransaction so the class can maintain its
/// conservation invariant: sum(UTXO values) == minted - fees.
///
/// See the file comment for the single-writer/multi-reader contract.
class Ledger {
 public:
  explicit Ledger(LedgerOptions options = {});

  // Movable (single-threaded only: concurrent readers or writers during
  // a move are a data race, and snapshots of the source are
  // invalidated). Not copyable.
  Ledger(Ledger&& other) noexcept;
  Ledger& operator=(Ledger&& other) noexcept;
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Creates a fresh address and returns its dense id.
  AddressId NewAddress();

  /// Number of addresses ever created.
  size_t num_addresses() const { return address_txs_.size(); }

  /// Number of confirmed or pending transactions.
  size_t num_transactions() const {
    return published_txs_.load(std::memory_order_acquire);
  }

  /// Height of the next block to be sealed (number of sealed blocks).
  uint64_t height() const { return blocks_.size(); }

  const LedgerOptions& options() const { return options_; }

  /// \brief Captures the current epoch as a LedgerSnapshot. O(1): no
  /// copies, no locks. Safe to call from any thread concurrently with
  /// the single writer.
  LedgerSnapshot Snapshot() const;

  /// \brief Pins an epoch at a *past* transaction count (`<=
  /// num_transactions()`), for replaying historical reads. Height and
  /// address count are pinned at their current values, not rewound, so
  /// only the transaction-indexed views (`tx`, `TxCountOf`,
  /// `TransactionsOf`, `UnspentOf`) are truly historical; coinbase
  /// maturity in `BalanceOf` is judged against the current height.
  LedgerSnapshot SnapshotAt(uint64_t num_transactions) const;

  /// \brief Adds the coinbase transaction of the pending block, paying
  /// `block_subsidy` split proportionally to `payout_weights`
  /// (largest-remainder rounding, so the outputs always sum exactly to
  /// the subsidy; ties go to the lower payout index). Weights must be
  /// finite and non-negative with a positive sum; zero-share payouts
  /// produce no output.
  ///
  /// Fails if the pending block already has a coinbase or payouts are
  /// empty/invalid.
  Result<TxId> ApplyCoinbase(Timestamp timestamp,
                             const std::vector<AddressId>& payout_addresses,
                             const std::vector<double>& payout_weights);

  /// Convenience: single-payout coinbase.
  Result<TxId> ApplyCoinbase(Timestamp timestamp, AddressId payout);

  /// \brief Validates and applies a draft into the pending block.
  ///
  /// Checks: all inputs exist and are unspent (including within the
  /// pending block), coinbase maturity, outputs are positive and go to
  /// existing addresses, sum(in) >= sum(out).
  Result<TxId> ApplyTransaction(const TxDraft& draft);

  /// \brief Seals the pending block (possibly empty) at `timestamp`,
  /// which must be >= the previous block's timestamp.
  Status SealBlock(Timestamp timestamp);

  /// The applied transaction with the given id. Aborts on bad id. The
  /// returned reference is stable for the life of the ledger — growth
  /// never moves a published transaction.
  const Transaction& tx(TxId id) const;

  /// The sealed block at `height`, which must be < `height()`. The
  /// reference is stable for the life of the ledger.
  const Block& block(uint64_t height) const;

  /// Number of transactions touching `address` so far.
  size_t TxCountOf(AddressId address) const;

  /// All transactions touching `address` (as input or output), in
  /// chronological (apply) order — the raw material of §III-A.
  ///
  /// Returns a copy: unlike the historical reference-returning version,
  /// the result stays valid across subsequent ApplyTransaction /
  /// NewAddress calls (holding the old reference across growth was
  /// use-after-free). For clamped or capped views use
  /// `Snapshot().TransactionsOf(...)`.
  std::vector<TxId> TransactionsOf(AddressId address) const;

  /// The live outputs of `address` in creation order, as a view of the
  /// mutator-private index: no copy and no lookup. Mature and immature
  /// outputs alike (see IsSpendable). The view is invalidated by the
  /// next ApplyCoinbase / ApplyTransaction / NewAddress. Mutator-thread
  /// only; concurrent readers should use `Snapshot().UnspentOf(...)`.
  std::span<const LiveOutput> LiveOutputsOf(AddressId address) const {
    BA_CHECK_LT(address, live_outputs_.size());
    return live_outputs_[address];
  }

  /// True when `out` may be spent in the pending block: it is not a
  /// coinbase output younger than `coinbase_maturity` blocks. Reads the
  /// source transaction only when the maturity rule is on.
  bool IsSpendable(const LiveOutput& out) const {
    if (options_.coinbase_maturity == 0) return true;
    const Transaction& source = transactions_[out.txid()];
    return !source.coinbase ||
           blocks_.size() >= source.block_height + options_.coinbase_maturity;
  }

  /// Current unspent outputs owned by `address`, in creation order: a
  /// copy of LiveOutputsOf() with each output's confirmation height.
  /// Mutator-thread only, like LiveOutputsOf().
  std::vector<Utxo> UnspentOf(AddressId address) const;

  /// Spendable balance of `address` (sum of its mature UTXOs): one pass
  /// over LiveOutputsOf(). Mutator-thread only, like LiveOutputsOf().
  Amount BalanceOf(AddressId address) const;

  /// Total satoshis ever minted via coinbase subsidies.
  Amount total_minted() const { return total_minted_; }

  /// Total fees burned (sum over non-coinbase txs of in - out).
  Amount total_fees() const { return total_fees_; }

  /// \brief Verifies the global conservation invariant:
  /// sum of UTXO values == minted - fees. O(addresses + UTXO set).
  /// Mutator-thread only.
  Status CheckConservation() const;

 private:
  friend class LedgerSnapshot;

  /// The live entry `op` names, or nullptr when `op` names no output
  /// (unknown txid, index out of range) or one already spent. One
  /// search of the owner's list.
  const LiveOutput* FindLive(const OutPoint& op) const;

  /// Records `txid` in the per-address index for each distinct address
  /// the transaction touches. Must run before the transaction is
  /// published (see ApplyTransaction for the ordering protocol).
  void IndexTransaction(const Transaction& tx);

  LedgerOptions options_;
  // Reader-shared storage: append-only ChunkedVectors whose elements
  // never move. Publication protocol (writer side):
  //   1. push the Transaction into transactions_ (element visible but
  //      not yet counted),
  //   2. append its txid to the per-address index lists,
  //   3. release-store published_txs_.
  // Snapshot capture reads height, then published_txs_ (re-reading
  // height until it holds still), then num_addresses: the reverse of
  // the publication order blocks -> txs -> addresses, which makes the
  // pinned triple mutually consistent.
  util::ChunkedVector<Block> blocks_;
  util::ChunkedVector<Transaction> transactions_;  // indexed by TxId
  util::ChunkedVector<util::ChunkedVector<TxId>> address_txs_;
  std::atomic<uint64_t> published_txs_{0};
  // Mutator-private state (never touched by readers/snapshots).
  Block pending_;
  bool pending_has_coinbase_ = false;
  Timestamp last_seal_time_ = 0;
  // The UTXO set: per address, its live outputs in creation order. An
  // output's owner is its source transaction's output address, so an
  // outpoint is found by one search of one list, with no global map.
  std::vector<std::vector<LiveOutput>> live_outputs_;
  // Reused per-transaction scratch: draft input keys (duplicate check)
  // and the addresses a transaction touches (index dedupe).
  std::vector<uint64_t> input_keys_;
  std::vector<AddressId> touched_;
  Amount total_minted_ = 0;
  Amount total_fees_ = 0;
};

}  // namespace ba::chain
