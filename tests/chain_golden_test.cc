// Golden and differential tests for the ledger's UTXO index and the
// wallet's coin selection (src/chain): simulated chains must stay byte
// for byte what they were, selection must match the textbook
// "materialize every output, stable-sort, take a prefix" procedure, and
// every rejected spend must keep its Status code and message.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/io.h"
#include "chain/ledger.h"
#include "chain/types.h"
#include "chain/wallet.h"
#include "datagen/scenario.h"
#include "datagen/simulator.h"
#include "util/fs.h"
#include "util/rng.h"

namespace ba::chain {
namespace {

constexpr Amount kSubsidy = 625'000'000;

// ---------------------------------------------------------------------------
// Golden chains

/// CRC32 and size of the ledger's CSV export.
struct ExportImage {
  size_t size = 0;
  uint32_t crc = 0;
};

ExportImage ExportOf(const Ledger& ledger, const std::string& name) {
  const std::string path = "/tmp/ba_chain_golden_" + name + "_" +
                           std::to_string(::getpid()) + ".csv";
  EXPECT_TRUE(ExportLedgerCsv(ledger, path).ok());
  auto bytes = util::ReadFileToString(path);
  std::remove(path.c_str());
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  const std::string s = bytes.ValueOr("");
  return {s.size(), util::Crc32(s)};
}

void ExpectChain(const datagen::ScenarioConfig& config,
                 const ExportImage& golden, const std::string& name) {
  datagen::Simulator sim(config);
  ASSERT_TRUE(sim.Run().ok());
  const ExportImage got = ExportOf(sim.ledger(), name);
  EXPECT_EQ(got.size, golden.size) << name;
  EXPECT_EQ(got.crc, golden.crc)
      << name << ": crc32 0x" << std::hex << got.crc;
}

TEST(ChainGoldenTest, BenchEconomyChainIsByteIdentical) {
  // bench_profile's economy (bench_common.h ScenarioFromFlags) at 300
  // blocks.
  datagen::ScenarioConfig config;
  config.seed = 42;
  config.num_blocks = 300;
  config.behavior_noise = 0.12;
  config.num_mining_pools = 2;
  config.miners_per_pool = 30;
  config.num_exchanges = 3;
  config.num_gambling_houses = 2;
  config.gamblers_per_house = 70;
  config.num_services = 5;
  config.num_retail_users = 180;
  config.mixes_per_block = 0.35;
  config.mix_fresh_entry_prob = 0.4;
  ExpectChain(config, {376869, 0xab855916}, "bench");
}

TEST(ChainGoldenTest, DefaultScenarioChainIsByteIdentical) {
  ExpectChain(datagen::ScenarioConfig{}, {1333759, 0xe6048482}, "default");
}

// ---------------------------------------------------------------------------
// Reference coin selection

/// The UTXO set as a hash map keyed by OutPoint::Key() plus per-address
/// key lists in creation order, replayed from the ledger's transactions:
/// the index the flat per-address lists replaced.
class ReferenceUtxoSet {
 public:
  /// Replays every transaction of `ledger` not yet seen.
  void CatchUp(const Ledger& ledger) {
    for (; next_tx_ < ledger.num_transactions(); ++next_tx_) {
      const Transaction& t = ledger.tx(next_tx_);
      for (const TxIn& in : t.inputs) {
        utxos_.erase(in.prevout.Key());
        auto& keys = KeysOf(in.address);
        keys.erase(std::remove(keys.begin(), keys.end(), in.prevout.Key()),
                   keys.end());
      }
      for (uint32_t i = 0; i < t.outputs.size(); ++i) {
        const uint64_t key = OutPoint{t.txid, i}.Key();
        utxos_[key] = {t.outputs[i], t.block_height};
        KeysOf(t.outputs[i].address).push_back(key);
      }
    }
  }

  std::vector<Utxo> UnspentOf(AddressId address) {
    std::vector<Utxo> out;
    for (uint64_t key : KeysOf(address)) {
      const Entry& e = utxos_.at(key);
      out.push_back({OutPoint{key >> 20, static_cast<uint32_t>(key & 0xFFFFF)},
                     e.out.value, e.confirmed_height});
    }
    return out;
  }

  struct Selection {
    std::vector<OutPoint> inputs;
    Amount total = 0;
    AddressId first_source = kInvalidAddress;
    bool ok = false;
    std::string error;
  };

  /// The selection procedure the wallet used before the flat index:
  /// gather mature outputs in wallet order, stable-sort, take a prefix.
  Selection Select(const Ledger& ledger, const std::vector<AddressId>& wallet,
                   Amount target, CoinSelection selection) {
    struct Candidate {
      Utxo utxo;
      AddressId owner;
    };
    std::vector<Candidate> candidates;
    for (AddressId a : wallet) {
      for (const Utxo& u : UnspentOf(a)) {
        if (ledger.tx(u.outpoint.txid).coinbase &&
            ledger.height() <
                u.confirmed_height + ledger.options().coinbase_maturity) {
          continue;
        }
        candidates.push_back({u, a});
      }
    }
    if (selection == CoinSelection::kLargestFirst) {
      std::stable_sort(candidates.begin(), candidates.end(),
                       [](const Candidate& x, const Candidate& y) {
                         return x.utxo.value > y.utxo.value;
                       });
    } else {
      std::stable_sort(candidates.begin(), candidates.end(),
                       [](const Candidate& x, const Candidate& y) {
                         return x.utxo.outpoint.txid < y.utxo.outpoint.txid;
                       });
    }
    Selection sel;
    for (const Candidate& c : candidates) {
      if (sel.total >= target) break;
      if (sel.first_source == kInvalidAddress) sel.first_source = c.owner;
      sel.inputs.push_back(c.utxo.outpoint);
      sel.total += c.utxo.value;
    }
    sel.ok = sel.total >= target;
    if (!sel.ok) {
      sel.error = "insufficient funds: have " + std::to_string(sel.total) +
                  ", need " + std::to_string(target);
    }
    return sel;
  }

  Amount Balance(const Ledger& ledger, const std::vector<AddressId>& wallet) {
    Amount total = 0;
    for (const auto& c :
         Select(ledger, wallet, std::numeric_limits<Amount>::max(),
                CoinSelection::kLargestFirst)
             .inputs) {
      total += ledger.tx(c.txid).outputs[c.index].value;
    }
    return total;
  }

 private:
  struct Entry {
    TxOut out;
    uint64_t confirmed_height = 0;
  };

  std::vector<uint64_t>& KeysOf(AddressId a) {
    if (a >= keys_.size()) keys_.resize(a + 1);
    return keys_[a];
  }

  TxId next_tx_ = 0;
  std::unordered_map<uint64_t, Entry> utxos_;
  std::vector<std::vector<uint64_t>> keys_;
};

std::vector<OutPoint> InputsOf(const Transaction& t) {
  std::vector<OutPoint> out;
  for (const TxIn& in : t.inputs) out.push_back(in.prevout);
  return out;
}

/// Random wallets over a random chain, checked step by step against the
/// reference: coinbases split evenly across several wallet addresses
/// (equal-value ties, several outputs of one txid), payments of a few
/// repeated values, both selection modes and change policies, sweeps
/// and over-budget sends.
void RunDifferential(uint64_t seed, uint64_t maturity) {
  LedgerOptions opts;
  opts.block_subsidy = kSubsidy;
  opts.coinbase_maturity = maturity;
  Ledger ledger(opts);
  Rng rng(seed);
  constexpr int kWallets = 6;
  std::vector<Wallet> wallets;
  for (int w = 0; w < kWallets; ++w) {
    wallets.emplace_back(&ledger);
    const int n = 1 + static_cast<int>(rng.UniformInt(4));
    for (int i = 0; i < n; ++i) wallets.back().CreateAddress();
  }
  // Adopted addresses put wallet order out of step with address ids.
  for (int w = 0; w < kWallets; ++w) {
    const AddressId a = ledger.NewAddress();
    wallets[static_cast<size_t>((w + 3) % kWallets)].AdoptAddress(a);
  }
  ReferenceUtxoSet ref;
  const Amount kValues[] = {10'000'000, 25'000'000, 25'000'000, 40'000'000,
                            156'250'000};
  int sends = 0, sweeps = 0, shortfalls = 0;
  Timestamp now = 1000;
  for (int block = 0; block < 60; ++block) {
    // Coinbase: an even split over 1-4 addresses of one wallet, listed
    // in reverse wallet order so output index and wallet order differ.
    Wallet& miner =
        wallets[static_cast<size_t>(rng.UniformInt(uint64_t{kWallets}))];
    std::vector<AddressId> payouts(miner.addresses().rbegin(),
                                   miner.addresses().rend());
    payouts.resize(std::min<size_t>(payouts.size(),
                                    1 + rng.UniformInt(uint64_t{4})));
    ASSERT_TRUE(ledger
                    .ApplyCoinbase(now, payouts,
                                   std::vector<double>(payouts.size(), 1.0))
                    .ok());
    const int actions = static_cast<int>(rng.UniformInt(6));
    for (int act = 0; act < actions; ++act) {
      ref.CatchUp(ledger);
      const size_t from_index = rng.UniformInt(uint64_t{kWallets});
      Wallet& from = wallets[from_index];
      Wallet& to = wallets[(from_index + 1 + rng.UniformInt(
                                                  uint64_t{kWallets - 1})) %
                           kWallets];
      const Amount fee = 1000 * static_cast<Amount>(rng.UniformInt(3));
      ASSERT_EQ(from.Balance(), ref.Balance(ledger, from.addresses()));
      if (rng.Bernoulli(0.1)) {
        const AddressId dest = to.addresses().front();
        const Amount balance = from.Balance();
        auto result = from.SweepTo(++now, dest, fee);
        if (balance <= fee) {
          ASSERT_FALSE(result.ok());
          EXPECT_EQ(result.status().message(),
                    "balance does not cover sweep fee");
          continue;
        }
        const auto want = ref.Select(ledger, from.addresses(), balance,
                                     CoinSelection::kLargestFirst);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(InputsOf(ledger.tx(result.value())), want.inputs);
        ++sweeps;
        continue;
      }
      std::vector<TxOut> payments;
      const int outs = 1 + static_cast<int>(rng.UniformInt(3));
      for (int o = 0; o < outs; ++o) {
        const auto& dests = to.addresses();
        payments.push_back({dests[rng.UniformInt(dests.size())],
                            kValues[rng.UniformInt(std::size(kValues))]});
      }
      // Now and then ask for more than any wallet holds.
      if (rng.Bernoulli(0.05)) payments[0].value = 1000 * kSubsidy;
      Amount pay_total = 0;
      for (const TxOut& p : payments) pay_total += p.value;
      const CoinSelection mode = rng.Bernoulli(0.5)
                                     ? CoinSelection::kLargestFirst
                                     : CoinSelection::kOldestFirst;
      const ChangePolicy policy = rng.Bernoulli(0.5)
                                      ? ChangePolicy::kFreshAddress
                                      : ChangePolicy::kReuseSource;
      const auto want =
          ref.Select(ledger, from.addresses(), pay_total + fee, mode);
      auto result = from.Send(++now, payments, fee, policy, mode);
      if (!want.ok) {
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
        EXPECT_EQ(result.status().message(), want.error);
        ++shortfalls;
        continue;
      }
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const Transaction& t = ledger.tx(result.value());
      EXPECT_EQ(InputsOf(t), want.inputs);
      if (want.total > pay_total + fee) {
        ASSERT_EQ(t.outputs.size(), payments.size() + 1);
        if (policy == ChangePolicy::kReuseSource) {
          EXPECT_EQ(t.outputs.back().address, want.first_source);
        } else {
          EXPECT_EQ(t.outputs.back().address, from.last_change_address());
        }
      }
      ++sends;
    }
    ASSERT_TRUE(ledger.SealBlock(++now).ok());
    ASSERT_TRUE(ledger.CheckConservation().ok());
  }
  // The ledger's own views agree with the reference for every address.
  ref.CatchUp(ledger);
  for (AddressId a = 0; a < ledger.num_addresses(); ++a) {
    const std::vector<Utxo> got = ledger.UnspentOf(a);
    const std::vector<Utxo> want = ref.UnspentOf(a);
    ASSERT_EQ(got.size(), want.size()) << "address " << a;
    Amount balance = 0;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].outpoint, want[i].outpoint);
      EXPECT_EQ(got[i].value, want[i].value);
      EXPECT_EQ(got[i].confirmed_height, want[i].confirmed_height);
      if (!ledger.tx(want[i].outpoint.txid).coinbase ||
          ledger.height() >= want[i].confirmed_height + maturity) {
        balance += want[i].value;
      }
    }
    EXPECT_EQ(ledger.BalanceOf(a), balance) << "address " << a;
  }
  // Every branch ran.
  EXPECT_GT(sends, 20);
  EXPECT_GT(sweeps, 0);
  EXPECT_GT(shortfalls, 0);
}

TEST(WalletDifferentialTest, SelectionMatchesStableSortReference) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunDifferential(seed, 0);
  }
}

TEST(WalletDifferentialTest, SelectionMatchesReferenceUnderMaturity) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunDifferential(seed, 3);
  }
}

// ---------------------------------------------------------------------------
// Rejected spends

class LedgerRejectionTest : public ::testing::Test {
 protected:
  LedgerRejectionTest() : ledger_(Options()) {
    a_ = ledger_.NewAddress();
    b_ = ledger_.NewAddress();
    // Block 0 pays a_ twice (two outputs), block 1 spends one of them.
    coinbase_ = ledger_
                    .ApplyCoinbase(100, std::vector<AddressId>{a_, a_},
                                   std::vector<double>{1.0, 1.0})
                    .value();
    EXPECT_TRUE(ledger_.SealBlock(100).ok());
    EXPECT_TRUE(ledger_.SealBlock(200).ok());
    EXPECT_TRUE(ledger_.ApplyTransaction(Spend({coinbase_, 0})).ok());
  }

  static LedgerOptions Options() {
    LedgerOptions opts;
    opts.block_subsidy = kSubsidy;
    opts.coinbase_maturity = 2;
    return opts;
  }

  TxDraft Spend(OutPoint op) const {
    TxDraft d;
    d.timestamp = 300;
    d.inputs = {op};
    d.outputs = {{b_, 1000}};
    return d;
  }

  void ExpectRejected(const TxDraft& draft, StatusCode code,
                      const std::string& message) {
    const size_t before = ledger_.num_transactions();
    auto r = ledger_.ApplyTransaction(draft);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), code);
    EXPECT_EQ(r.status().message(), message);
    EXPECT_EQ(ledger_.num_transactions(), before);
    EXPECT_TRUE(ledger_.CheckConservation().ok());
  }

  Ledger ledger_;
  AddressId a_ = kInvalidAddress;
  AddressId b_ = kInvalidAddress;
  TxId coinbase_ = 0;
};

TEST_F(LedgerRejectionTest, SpentOutpoint) {
  ExpectRejected(Spend({coinbase_, 0}), StatusCode::kNotFound,
                 "input outpoint not found or already spent");
}

TEST_F(LedgerRejectionTest, UnknownTxid) {
  ExpectRejected(Spend({ledger_.num_transactions() + 5, 0}),
                 StatusCode::kNotFound,
                 "input outpoint not found or already spent");
}

TEST_F(LedgerRejectionTest, OutputIndexOutOfRange) {
  ExpectRejected(Spend({coinbase_, 2}), StatusCode::kNotFound,
                 "input outpoint not found or already spent");
}

TEST_F(LedgerRejectionTest, OutputIndexBeyondKeyBitsDoesNotAlias) {
  // OutPoint::Key() keeps 20 index bits, so {coinbase_, 2^20} packs to
  // the key of {coinbase_ + 1, 0}, an unspent output of b_. The input
  // names no output of coinbase_ and must not spend b_'s.
  ExpectRejected(Spend({coinbase_, uint32_t{1} << 20}), StatusCode::kNotFound,
                 "input outpoint not found or already spent");
}

TEST_F(LedgerRejectionTest, ImmatureCoinbase) {
  const TxId young = ledger_.ApplyCoinbase(300, b_).value();
  ASSERT_TRUE(ledger_.SealBlock(300).ok());
  ExpectRejected(Spend({young, 0}), StatusCode::kFailedPrecondition,
                 "coinbase output not yet mature");
  // Two blocks after its own, the same output spends.
  ASSERT_TRUE(ledger_.SealBlock(400).ok());
  EXPECT_TRUE(ledger_.ApplyTransaction(Spend({young, 0})).ok());
}

TEST_F(LedgerRejectionTest, DuplicateInputInDraft) {
  TxDraft d = Spend({coinbase_, 1});
  d.inputs.push_back({coinbase_, 1});
  ExpectRejected(d, StatusCode::kInvalidArgument,
                 "duplicate input outpoint in draft");
}

}  // namespace
}  // namespace ba::chain
