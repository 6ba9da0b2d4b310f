#include "chain/wallet.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace ba::chain {

AddressId Wallet::CreateAddress() {
  const AddressId id = ledger_->NewAddress();
  addresses_.push_back(id);
  return id;
}

void Wallet::AdoptAddress(AddressId address) { addresses_.push_back(address); }

Amount Wallet::Balance() const {
  Amount total = 0;
  for (AddressId a : addresses_) total += ledger_->BalanceOf(a);
  return total;
}

Result<Wallet::Selected> Wallet::SelectCoins(Amount target,
                                             CoinSelection selection) const {
  // Each mature output becomes a candidate ranked by the selection
  // order, with its position in wallet order (`seq`) breaking ties —
  // the order a stable sort of the wallet-ordered list would give. A
  // heap then yields candidates only until the target is covered.
  struct Candidate {
    uint64_t rank;
    uint64_t seq;
    LiveOutput out;
    AddressId owner;
  };
  const auto later = [](const Candidate& x, const Candidate& y) {
    return x.rank != y.rank ? x.rank > y.rank : x.seq > y.seq;
  };
  thread_local std::vector<Candidate> heap;
  heap.clear();
  for (AddressId a : addresses_) {
    for (const LiveOutput& o : ledger_->LiveOutputsOf(a)) {
      if (!ledger_->IsSpendable(o)) continue;
      // Largest first ranks by descending value (values are positive),
      // oldest first by ascending txid.
      const uint64_t rank =
          selection == CoinSelection::kLargestFirst
              ? static_cast<uint64_t>(std::numeric_limits<Amount>::max() -
                                      o.value)
              : o.txid();
      heap.push_back({rank, heap.size(), o, a});
    }
  }
  std::make_heap(heap.begin(), heap.end(), later);

  Selected sel;
  for (auto end = heap.end(); sel.total < target && end != heap.begin();
       --end) {
    std::pop_heap(heap.begin(), end, later);
    const Candidate& c = end[-1];
    if (sel.first_source == kInvalidAddress) sel.first_source = c.owner;
    sel.inputs.push_back(c.out.outpoint());
    sel.total += c.out.value;
  }
  if (sel.total < target) {
    return Status::FailedPrecondition(
        "insufficient funds: have " + std::to_string(sel.total) + ", need " +
        std::to_string(target));
  }
  return sel;
}

Result<TxId> Wallet::Send(Timestamp timestamp,
                          const std::vector<TxOut>& payments, Amount fee,
                          ChangePolicy policy, CoinSelection selection) {
  if (payments.empty()) {
    return Status::InvalidArgument("payment list is empty");
  }
  if (fee < 0) return Status::InvalidArgument("negative fee");
  Amount pay_total = 0;
  for (const auto& p : payments) {
    if (p.value <= 0) return Status::InvalidArgument("non-positive payment");
    pay_total += p.value;
  }

  BA_ASSIGN_OR_RETURN(Selected sel, SelectCoins(pay_total + fee, selection));

  TxDraft draft;
  draft.timestamp = timestamp;
  draft.inputs = std::move(sel.inputs);
  draft.outputs = payments;

  const Amount change = sel.total - pay_total - fee;
  if (change > 0) {
    AddressId change_addr;
    if (policy == ChangePolicy::kFreshAddress) {
      change_addr = CreateAddress();
    } else {
      change_addr = sel.first_source;
    }
    draft.outputs.push_back({change_addr, change});
    last_change_address_ = change_addr;
  }
  return ledger_->ApplyTransaction(draft);
}

Result<TxId> Wallet::SweepTo(Timestamp timestamp, AddressId destination,
                             Amount fee) {
  const Amount balance = Balance();
  if (balance <= fee) {
    return Status::FailedPrecondition("balance does not cover sweep fee");
  }
  BA_ASSIGN_OR_RETURN(Selected sel,
                      SelectCoins(balance, CoinSelection::kLargestFirst));
  TxDraft draft;
  draft.timestamp = timestamp;
  draft.inputs = std::move(sel.inputs);
  draft.outputs.push_back({destination, sel.total - fee});
  return ledger_->ApplyTransaction(draft);
}

}  // namespace ba::chain
