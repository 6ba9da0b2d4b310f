#include "chain/ledger.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/logging.h"

namespace ba::chain {

namespace {

/// Number of leading entries of `list` that fall inside an epoch with
/// `num_transactions` applied. Per-address lists are strictly ascending
/// in TxId (ids are assigned monotonically and indexed immediately), so
/// this is a binary search for the first id >= num_transactions.
size_t ClampedCount(const util::ChunkedVector<TxId>& list,
                    uint64_t num_transactions) {
  size_t lo = 0;
  size_t hi = list.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (list[mid] < num_transactions) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

// ---------------------------------------------------------------------------
// LedgerSnapshot

const LedgerOptions& LedgerSnapshot::options() const {
  return ledger_->options_;
}

const Transaction& LedgerSnapshot::tx(TxId id) const {
  BA_CHECK_LT(id, num_transactions_);
  return ledger_->transactions_[id];
}

const Block& LedgerSnapshot::block(uint64_t height) const {
  BA_CHECK_LT(height, height_);
  return ledger_->blocks_[height];
}

size_t LedgerSnapshot::TxCountOf(AddressId address) const {
  if (address >= num_addresses_) return 0;
  return ClampedCount(ledger_->address_txs_[address], num_transactions_);
}

std::vector<TxId> LedgerSnapshot::TransactionsOf(AddressId address,
                                                 size_t max_count) const {
  std::vector<TxId> out;
  if (address >= num_addresses_) return out;
  const auto& list = ledger_->address_txs_[address];
  const size_t n = std::min(ClampedCount(list, num_transactions_), max_count);
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(list[i]);
  return out;
}

void LedgerSnapshot::CopyTransactionsOf(AddressId address, size_t begin,
                                        size_t end,
                                        std::vector<TxId>* out) const {
  BA_CHECK_LE(begin, end);
  BA_CHECK_LE(end, TxCountOf(address));
  out->clear();
  if (begin == end) return;
  const auto& list = ledger_->address_txs_[address];
  out->reserve(end - begin);
  for (size_t i = begin; i < end; ++i) out->push_back(list[i]);
}

std::vector<Utxo> LedgerSnapshot::UnspentOf(AddressId address) const {
  // Replays the address's pinned history instead of reading the live
  // UTXO map: every transaction that spends one of `address`'s outputs
  // also touches `address` (as an input owner), so it appears in the
  // address's own list and the replay sees every create and spend.
  std::vector<Utxo> live;
  if (address >= num_addresses_) return live;
  const auto& list = ledger_->address_txs_[address];
  const size_t n = ClampedCount(list, num_transactions_);
  for (size_t i = 0; i < n; ++i) {
    const Transaction& t = tx(list[i]);
    for (const auto& in : t.inputs) {
      if (in.address != address) continue;
      const uint64_t key = in.prevout.Key();
      for (auto it = live.begin(); it != live.end(); ++it) {
        if (it->outpoint.Key() == key) {
          live.erase(it);
          break;
        }
      }
    }
    for (uint32_t j = 0; j < t.outputs.size(); ++j) {
      if (t.outputs[j].address != address) continue;
      Utxo u;
      u.outpoint = OutPoint{t.txid, j};
      u.value = t.outputs[j].value;
      u.confirmed_height = t.block_height;
      live.push_back(u);
    }
  }
  return live;
}

Amount LedgerSnapshot::BalanceOf(AddressId address) const {
  Amount total = 0;
  for (const auto& u : UnspentOf(address)) {
    const Transaction& source = tx(u.outpoint.txid);
    if (source.coinbase &&
        height_ < u.confirmed_height + ledger_->options_.coinbase_maturity) {
      continue;  // immature coinbase
    }
    total += u.value;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Ledger

Ledger::Ledger(LedgerOptions options) : options_(options) {
  BA_CHECK_GT(options_.block_subsidy, 0);
}

Ledger::Ledger(Ledger&& other) noexcept
    : options_(other.options_),
      blocks_(std::move(other.blocks_)),
      transactions_(std::move(other.transactions_)),
      address_txs_(std::move(other.address_txs_)),
      published_txs_(other.published_txs_.load(std::memory_order_relaxed)),
      pending_(std::move(other.pending_)),
      pending_has_coinbase_(other.pending_has_coinbase_),
      last_seal_time_(other.last_seal_time_),
      live_outputs_(std::move(other.live_outputs_)),
      total_minted_(other.total_minted_),
      total_fees_(other.total_fees_) {
  other.published_txs_.store(0, std::memory_order_relaxed);
}

Ledger& Ledger::operator=(Ledger&& other) noexcept {
  if (this != &other) {
    options_ = other.options_;
    blocks_ = std::move(other.blocks_);
    transactions_ = std::move(other.transactions_);
    address_txs_ = std::move(other.address_txs_);
    published_txs_.store(
        other.published_txs_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    other.published_txs_.store(0, std::memory_order_relaxed);
    pending_ = std::move(other.pending_);
    pending_has_coinbase_ = other.pending_has_coinbase_;
    last_seal_time_ = other.last_seal_time_;
    live_outputs_ = std::move(other.live_outputs_);
    total_minted_ = other.total_minted_;
    total_fees_ = other.total_fees_;
  }
  return *this;
}

LedgerSnapshot Ledger::Snapshot() const {
  // Capture order is the reverse of the publication order (blocks are
  // published after the transactions they contain, transactions after
  // the addresses they reference), so the pinned triple is mutually
  // consistent even when the writer is mid-apply. A transaction is
  // stamped with the height it is applied at, so one stamped h + 1 is
  // published only after the seal that raised the height to h + 1: a
  // count that includes it is followed by a height re-read of at least
  // h + 1. Retry until the height holds still across the count, so no
  // pinned transaction lies above the pinned height.
  uint64_t h = 0;
  uint64_t t = 0;
  do {
    h = blocks_.size();
    t = published_txs_.load(std::memory_order_acquire);
  } while (blocks_.size() != h);
  const size_t a = address_txs_.size();
  return LedgerSnapshot(this, h, t, a);
}

LedgerSnapshot Ledger::SnapshotAt(uint64_t num_transactions) const {
  BA_CHECK_LE(num_transactions,
              published_txs_.load(std::memory_order_acquire));
  return LedgerSnapshot(this, blocks_.size(), num_transactions,
                        address_txs_.size());
}

AddressId Ledger::NewAddress() {
  const AddressId id = static_cast<AddressId>(address_txs_.size());
  address_txs_.Append();  // publishes an empty tx list for the address
  live_outputs_.emplace_back();
  return id;
}

Result<TxId> Ledger::ApplyCoinbase(
    Timestamp timestamp, const std::vector<AddressId>& payout_addresses,
    const std::vector<double>& payout_weights) {
  if (pending_has_coinbase_) {
    return Status::AlreadyExists("pending block already has a coinbase");
  }
  if (payout_addresses.empty() ||
      payout_addresses.size() != payout_weights.size()) {
    return Status::InvalidArgument("coinbase payouts malformed");
  }
  double weight_sum = 0.0;
  for (double w : payout_weights) {
    if (!std::isfinite(w) || w < 0.0) {
      return Status::InvalidArgument(
          "payout weight must be finite and non-negative");
    }
    weight_sum += w;
  }
  if (!(weight_sum > 0.0) || !std::isfinite(weight_sum)) {
    return Status::InvalidArgument("payout weights sum to zero");
  }
  for (AddressId a : payout_addresses) {
    if (a >= address_txs_.size()) {
      return Status::NotFound("coinbase payout to unknown address");
    }
  }

  // Largest-remainder split: floor each payout's real-valued quota,
  // then hand out the integer leftover one satoshi at a time in order
  // of descending fractional part (ties to the lower index). The
  // outputs therefore always sum to exactly block_subsidy, for any
  // number or skew of weights.
  const size_t n = payout_addresses.size();
  const Amount subsidy = options_.block_subsidy;
  std::vector<Amount> share(n);
  std::vector<double> frac(n);
  Amount assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    const double quota =
        static_cast<double>(subsidy) * payout_weights[i] / weight_sum;
    Amount s = static_cast<Amount>(std::floor(quota));
    s = std::clamp<Amount>(s, 0, subsidy);
    share[i] = s;
    frac[i] = quota - static_cast<double>(s);
    assigned += s;
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&frac](size_t a, size_t b) { return frac[a] > frac[b]; });
  Amount leftover = subsidy - assigned;
  // In exact arithmetic 0 <= leftover < n; the loops below also absorb
  // the +/- few units that double rounding of the quotas can introduce.
  while (leftover > 0) {
    for (size_t k = 0; k < n && leftover > 0; ++k) {
      ++share[order[k]];
      --leftover;
    }
  }
  while (leftover < 0) {
    for (size_t k = n; k-- > 0 && leftover < 0;) {
      if (share[order[k]] > 0) {
        --share[order[k]];
        ++leftover;
      }
    }
  }

  Transaction tx;
  tx.txid = transactions_.size();
  tx.timestamp = timestamp;
  tx.block_height = blocks_.size();
  tx.coinbase = true;
  for (size_t i = 0; i < n; ++i) {
    if (share[i] > 0) tx.outputs.push_back({payout_addresses[i], share[i]});
  }

  for (uint32_t i = 0; i < tx.outputs.size(); ++i) {
    live_outputs_[tx.outputs[i].address].push_back(
        {OutPoint{tx.txid, i}.Key(), tx.outputs[i].value});
  }
  total_minted_ += subsidy;
  pending_.transactions.push_back(tx.txid);
  pending_has_coinbase_ = true;
  const TxId txid = tx.txid;
  // Publication protocol: storage, then index, then the counter.
  transactions_.push_back(std::move(tx));
  IndexTransaction(transactions_[txid]);
  published_txs_.store(txid + 1, std::memory_order_release);
  return txid;
}

Result<TxId> Ledger::ApplyCoinbase(Timestamp timestamp, AddressId payout) {
  return ApplyCoinbase(timestamp, std::vector<AddressId>{payout},
                       std::vector<double>{1.0});
}

Result<TxId> Ledger::ApplyTransaction(const TxDraft& draft) {
  if (draft.inputs.empty()) {
    return Status::InvalidArgument("transaction has no inputs");
  }
  if (draft.outputs.empty()) {
    return Status::InvalidArgument("transaction has no outputs");
  }
  // Reject duplicate inputs within the draft itself: sort a reused
  // copy of the keys and look for equal neighbours.
  input_keys_.clear();
  for (const auto& op : draft.inputs) input_keys_.push_back(op.Key());
  std::sort(input_keys_.begin(), input_keys_.end());
  if (std::adjacent_find(input_keys_.begin(), input_keys_.end()) !=
      input_keys_.end()) {
    return Status::InvalidArgument("duplicate input outpoint in draft");
  }

  Transaction tx;
  tx.inputs.reserve(draft.inputs.size());
  Amount in_value = 0;
  for (const auto& op : draft.inputs) {
    const LiveOutput* live = FindLive(op);
    if (live == nullptr) {
      return Status::NotFound("input outpoint not found or already spent");
    }
    if (!IsSpendable(*live)) {
      return Status::FailedPrecondition("coinbase output not yet mature");
    }
    tx.inputs.push_back(
        {op, transactions_[op.txid].outputs[op.index].address, live->value});
    in_value += live->value;
  }

  Amount out_value = 0;
  for (const auto& out : draft.outputs) {
    if (out.value <= 0) {
      return Status::InvalidArgument("non-positive output value");
    }
    if (out.address >= address_txs_.size()) {
      return Status::NotFound("output to unknown address");
    }
    out_value += out.value;
  }
  if (out_value > in_value) {
    return Status::InvalidArgument("outputs exceed inputs");
  }

  // Validation passed — commit.
  tx.txid = transactions_.size();
  tx.timestamp = draft.timestamp;
  tx.block_height = blocks_.size();
  tx.coinbase = false;
  tx.outputs = draft.outputs;

  for (const auto& in : tx.inputs) {
    auto& list = live_outputs_[in.address];
    const uint64_t key = in.prevout.Key();
    list.erase(std::find_if(list.begin(), list.end(),
                            [key](const LiveOutput& o) { return o.key == key; }));
  }
  for (uint32_t i = 0; i < tx.outputs.size(); ++i) {
    live_outputs_[tx.outputs[i].address].push_back(
        {OutPoint{tx.txid, i}.Key(), tx.outputs[i].value});
  }
  total_fees_ += in_value - out_value;
  pending_.transactions.push_back(tx.txid);
  const TxId txid = tx.txid;
  // Publication protocol: storage, then index, then the counter.
  transactions_.push_back(std::move(tx));
  IndexTransaction(transactions_[txid]);
  published_txs_.store(txid + 1, std::memory_order_release);
  return txid;
}

Status Ledger::SealBlock(Timestamp timestamp) {
  if (timestamp < last_seal_time_) {
    return Status::InvalidArgument("block timestamps must be non-decreasing");
  }
  pending_.height = blocks_.size();
  pending_.timestamp = timestamp;
  blocks_.push_back(std::move(pending_));
  pending_ = Block{};
  pending_has_coinbase_ = false;
  last_seal_time_ = timestamp;
  return Status::OK();
}

const Transaction& Ledger::tx(TxId id) const {
  BA_CHECK_LT(id, num_transactions());
  return transactions_[id];
}

const Block& Ledger::block(uint64_t height) const {
  BA_CHECK_LT(height, blocks_.size());
  return blocks_[height];
}

size_t Ledger::TxCountOf(AddressId address) const {
  BA_CHECK_LT(address, address_txs_.size());
  return address_txs_[address].size();
}

std::vector<TxId> Ledger::TransactionsOf(AddressId address) const {
  BA_CHECK_LT(address, address_txs_.size());
  const auto& list = address_txs_[address];
  const size_t n = list.size();
  std::vector<TxId> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(list[i]);
  return out;
}

std::vector<Utxo> Ledger::UnspentOf(AddressId address) const {
  const std::span<const LiveOutput> live = LiveOutputsOf(address);
  std::vector<Utxo> out;
  out.reserve(live.size());
  for (const LiveOutput& o : live) {
    Utxo u;
    u.outpoint = o.outpoint();
    u.value = o.value;
    u.confirmed_height = transactions_[o.txid()].block_height;
    out.push_back(u);
  }
  return out;
}

Amount Ledger::BalanceOf(AddressId address) const {
  Amount total = 0;
  for (const LiveOutput& o : LiveOutputsOf(address)) {
    if (IsSpendable(o)) total += o.value;  // else an immature coinbase
  }
  return total;
}

const LiveOutput* Ledger::FindLive(const OutPoint& op) const {
  if (op.txid >= transactions_.size()) return nullptr;
  const Transaction& source = transactions_[op.txid];
  if (op.index >= source.outputs.size()) return nullptr;
  const uint64_t key = op.Key();
  for (const LiveOutput& o : live_outputs_[source.outputs[op.index].address]) {
    if (o.key == key) return &o;
  }
  return nullptr;  // spent
}

Status Ledger::CheckConservation() const {
  Amount utxo_total = 0;
  for (const auto& list : live_outputs_) {
    for (const LiveOutput& o : list) utxo_total += o.value;
  }
  const Amount expected = total_minted_ - total_fees_;
  if (utxo_total != expected) {
    return Status::Internal(
        "conservation violated: UTXO total " + std::to_string(utxo_total) +
        " != minted - fees " + std::to_string(expected));
  }
  return Status::OK();
}

void Ledger::IndexTransaction(const Transaction& tx) {
  touched_.clear();
  for (const auto& in : tx.inputs) touched_.push_back(in.address);
  for (const auto& out : tx.outputs) touched_.push_back(out.address);
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  for (AddressId a : touched_) address_txs_.MutableAt(a).push_back(tx.txid);
}

}  // namespace ba::chain
