// Tests for the ledger's epoch/snapshot layer (chain/ledger.h): O(1)
// snapshot capture, views clamped to the pinned epoch, value-stable
// TransactionsOf across growth, historical replay via SnapshotAt, a
// chain-level writer/reader stress, and the serving-layer acceptance
// test — blocks sealed concurrently with Classify, every result
// consistent with some pinned epoch. Run under BA_SANITIZE=thread to
// validate the concurrency claims.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "chain/ledger.h"
#include "chain/types.h"
#include "chain/wallet.h"
#include "core/classifier.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "serve/inference_engine.h"
#include "util/rng.h"

#include "predict_at_epoch.h"

namespace ba {
namespace {

using chain::AddressId;
using chain::Amount;
using chain::Ledger;
using chain::LedgerOptions;
using chain::LedgerSnapshot;
using chain::TxId;
using chain::Utxo;

constexpr Amount kSubsidy = 625'000'000;

Ledger MakeLedger(uint64_t maturity = 0) {
  LedgerOptions opts;
  opts.block_subsidy = kSubsidy;
  opts.coinbase_maturity = maturity;
  return Ledger(opts);
}

/// Mints `blocks` coinbases to `payout`, sealing one block each.
void MineTo(Ledger* ledger, AddressId payout, int blocks,
            chain::Timestamp* now) {
  for (int i = 0; i < blocks; ++i) {
    ++*now;
    ASSERT_TRUE(ledger->ApplyCoinbase(*now, payout).ok());
    ASSERT_TRUE(ledger->SealBlock(*now).ok());
  }
}

TEST(LedgerSnapshotTest, PinsEpochAcrossGrowth) {
  Ledger ledger = MakeLedger();
  const AddressId a = ledger.NewAddress();
  chain::Timestamp now = 0;
  MineTo(&ledger, a, 3, &now);

  const LedgerSnapshot snap = ledger.Snapshot();
  EXPECT_EQ(snap.height(), 3u);
  EXPECT_EQ(snap.num_transactions(), 3u);
  EXPECT_EQ(snap.num_addresses(), 1u);
  EXPECT_EQ(snap.TxCountOf(a), 3u);
  const Amount balance_then = snap.BalanceOf(a);

  // Grow the chain: the snapshot must keep answering at its epoch.
  const AddressId b = ledger.NewAddress();
  MineTo(&ledger, a, 2, &now);
  MineTo(&ledger, b, 1, &now);

  EXPECT_EQ(ledger.height(), 6u);
  EXPECT_EQ(ledger.num_transactions(), 6u);
  EXPECT_EQ(snap.height(), 3u);
  EXPECT_EQ(snap.num_transactions(), 3u);
  EXPECT_EQ(snap.TxCountOf(a), 3u);
  EXPECT_EQ(snap.TransactionsOf(a).size(), 3u);
  EXPECT_EQ(snap.BalanceOf(a), balance_then);
  // Address b postdates the snapshot: reads come back empty, not UB.
  EXPECT_EQ(snap.TxCountOf(b), 0u);
  EXPECT_TRUE(snap.TransactionsOf(b).empty());
  EXPECT_TRUE(snap.UnspentOf(b).empty());
  EXPECT_EQ(snap.BalanceOf(b), 0);
}

// Regression for the TransactionsOf dangling-reference hazard: the
// by-value result and any `tx()` references must stay valid while the
// ledger grows far enough to allocate new storage chunks (the old
// vector-backed storage reallocated and invalidated both).
TEST(LedgerSnapshotTest, TransactionsOfStaysValidAcrossChunkGrowth) {
  Ledger ledger = MakeLedger();
  const AddressId a = ledger.NewAddress();
  chain::Timestamp now = 0;
  MineTo(&ledger, a, 100, &now);

  const std::vector<TxId> view = ledger.TransactionsOf(a);
  ASSERT_EQ(view.size(), 100u);
  const chain::Transaction& first = ledger.tx(view.front());
  const chain::Transaction& last = ledger.tx(view.back());
  const LedgerSnapshot snap = ledger.Snapshot();

  // 8-element first chunk + geometric growth: 300 more transactions
  // cross several chunk boundaries.
  MineTo(&ledger, a, 300, &now);
  ASSERT_EQ(ledger.num_transactions(), 400u);

  for (size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view[i], static_cast<TxId>(i));
  }
  // References taken before the growth still point at live storage.
  EXPECT_EQ(first.txid, view.front());
  EXPECT_EQ(last.txid, view.back());
  EXPECT_TRUE(first.coinbase);
  // And the snapshot still serves its epoch.
  EXPECT_EQ(snap.TransactionsOf(a).size(), 100u);
  EXPECT_EQ(snap.tx(view.back()).txid, view.back());
}

TEST(LedgerSnapshotTest, TransactionsOfHonorsMaxCount) {
  Ledger ledger = MakeLedger();
  const AddressId a = ledger.NewAddress();
  chain::Timestamp now = 0;
  MineTo(&ledger, a, 10, &now);
  const LedgerSnapshot snap = ledger.Snapshot();
  EXPECT_EQ(snap.TransactionsOf(a, 4).size(), 4u);
  const std::vector<TxId> capped = snap.TransactionsOf(a, 4);
  EXPECT_EQ(capped, std::vector<TxId>({0, 1, 2, 3}));
  EXPECT_EQ(snap.TransactionsOf(a, 0).size(), 0u);
  EXPECT_EQ(snap.TransactionsOf(a).size(), 10u);
}

TEST(LedgerSnapshotTest, MatchesLiveViewsWhenQuiesced) {
  Ledger ledger = MakeLedger();
  chain::Wallet wallet(&ledger);
  const AddressId a = wallet.CreateAddress();
  chain::Timestamp now = 0;
  MineTo(&ledger, a, 4, &now);
  chain::Wallet payee(&ledger);
  const AddressId dest = payee.CreateAddress();
  ++now;
  ASSERT_TRUE(wallet
                  .Send(now, {{dest, kSubsidy + kSubsidy / 2}}, 1000,
                        chain::ChangePolicy::kFreshAddress)
                  .ok());
  ASSERT_TRUE(ledger.SealBlock(now).ok());

  const LedgerSnapshot snap = ledger.Snapshot();
  for (AddressId addr = 0;
       addr < static_cast<AddressId>(ledger.num_addresses()); ++addr) {
    EXPECT_EQ(snap.TransactionsOf(addr), ledger.TransactionsOf(addr));
    EXPECT_EQ(snap.BalanceOf(addr), ledger.BalanceOf(addr));
    const std::vector<Utxo> live = ledger.UnspentOf(addr);
    const std::vector<Utxo> pinned = snap.UnspentOf(addr);
    ASSERT_EQ(pinned.size(), live.size()) << "address " << addr;
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(pinned[i].outpoint.Key(), live[i].outpoint.Key());
      EXPECT_EQ(pinned[i].value, live[i].value);
      EXPECT_EQ(pinned[i].confirmed_height, live[i].confirmed_height);
    }
  }
}

TEST(LedgerSnapshotTest, SnapshotAtReplaysSpendHistory) {
  Ledger ledger = MakeLedger();
  chain::Wallet wallet(&ledger);
  const AddressId a = wallet.CreateAddress();
  chain::Timestamp now = 0;
  MineTo(&ledger, a, 2, &now);

  // Epoch 2: two unspent coinbases.
  const LedgerSnapshot before_spend = ledger.SnapshotAt(2);
  EXPECT_EQ(before_spend.UnspentOf(a).size(), 2u);

  chain::Wallet payee(&ledger);
  const AddressId dest = payee.CreateAddress();
  ++now;
  ASSERT_TRUE(wallet
                  .Send(now, {{dest, kSubsidy / 2}}, 0,
                        chain::ChangePolicy::kReuseSource)
                  .ok());
  ASSERT_TRUE(ledger.SealBlock(now).ok());

  // The pre-spend epoch still shows both coinbase outputs unspent and
  // no history for the payee; the post-spend epoch shows the transfer.
  EXPECT_EQ(before_spend.UnspentOf(a).size(), 2u);
  EXPECT_TRUE(before_spend.TransactionsOf(dest).empty());
  const LedgerSnapshot after_spend = ledger.SnapshotAt(3);
  EXPECT_EQ(after_spend.TransactionsOf(dest).size(), 1u);
  Amount a_total = 0;
  for (const Utxo& u : after_spend.UnspentOf(a)) a_total += u.value;
  EXPECT_EQ(a_total, 2 * kSubsidy - kSubsidy / 2);
  EXPECT_EQ(after_spend.UnspentOf(dest).size(), 1u);
  EXPECT_EQ(after_spend.UnspentOf(dest)[0].value, kSubsidy / 2);
}

// Chain-level stress: one writer grows the chain (coinbases, spends,
// seals) with no locking while reader threads continuously capture
// snapshots and check internal consistency of every view. TSan watches
// the publication protocol; the assertions watch the epoch semantics.
TEST(LedgerSnapshotTest, ConcurrentWriterAndSnapshotReaders) {
  Ledger ledger = MakeLedger();
  chain::Wallet wallet(&ledger);
  constexpr int kAddresses = 8;
  std::vector<AddressId> addrs;
  for (int i = 0; i < kAddresses; ++i) addrs.push_back(wallet.CreateAddress());
  chain::Timestamp now = 0;
  MineTo(&ledger, addrs[0], 1, &now);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(7);
    for (int b = 0; b < 120; ++b) {
      ++now;
      const AddressId payout =
          addrs[static_cast<size_t>(rng.UniformInt(0, kAddresses - 1))];
      ASSERT_TRUE(ledger.ApplyCoinbase(now, payout).ok());
      if (b % 5 == 4) {
        // Spend something: exercises UnspentOf replay under growth.
        const AddressId dest =
            addrs[static_cast<size_t>(rng.UniformInt(0, kAddresses - 1))];
        ASSERT_TRUE(wallet
                        .Send(now, {{dest, kSubsidy / 4}}, 100,
                              chain::ChangePolicy::kReuseSource)
                        .ok());
      }
      ASSERT_TRUE(ledger.SealBlock(now).ok());
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  std::atomic<uint64_t> snapshots_checked{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(100 + r));
      do {
        const LedgerSnapshot snap = ledger.Snapshot();
        // The pinned triple is mutually consistent: every transaction
        // of every sealed block is published, and every transaction's
        // addresses exist at the pinned epoch.
        ASSERT_LE(snap.num_transactions(), ledger.num_transactions());
        for (uint64_t h = snap.height(); h-- > 0;) {
          const chain::Block& block = snap.block(h);
          ASSERT_EQ(block.height, h);
          for (TxId id : block.transactions) {
            ASSERT_LT(id, snap.num_transactions());
          }
          if (h + 3 < snap.height()) break;  // spot-check recent blocks
        }
        const AddressId probe =
            addrs[static_cast<size_t>(rng.UniformInt(0, kAddresses - 1))];
        const std::vector<TxId> txs = snap.TransactionsOf(probe);
        ASSERT_EQ(txs.size(), snap.TxCountOf(probe));
        for (size_t i = 0; i < txs.size(); ++i) {
          ASSERT_LT(txs[i], snap.num_transactions());
          if (i > 0) {
            ASSERT_LT(txs[i - 1], txs[i]);  // strictly ascending
          }
          const chain::Transaction& tx = snap.tx(txs[i]);
          ASSERT_EQ(tx.txid, txs[i]);
          ASSERT_LT(tx.block_height, snap.height() + 1);
        }
        // Balance is the mature subset of the unspent set.
        Amount unspent_total = 0;
        for (const Utxo& u : snap.UnspentOf(probe)) unspent_total += u.value;
        ASSERT_LE(snap.BalanceOf(probe), unspent_total);
        snapshots_checked.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire));
    });
  }

  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_GT(snapshots_checked.load(), 0u);
  EXPECT_TRUE(ledger.CheckConservation().ok());
}

// The height race Snapshot() retries against: a reader that loads the
// height, is overtaken by a seal and a new coinbase, and then loads the
// transaction count would pin a transaction stamped above its pinned
// height. One writer seals one-coinbase blocks as fast as it can (up
// to 200k, about 2 s at most) while two readers check that the newest
// pinned transaction never lies above `height()`. A pending coinbase,
// applied but not yet sealed, is stamped `height()` itself, so the
// bound is `block_height < height() + 1`. The readers also walk the
// pinned tip block's transaction-id range: every id in it is pinned and
// stamped with the tip's height.
TEST(LedgerSnapshotTest, NewestPinnedTransactionNeverAboveHeight) {
  Ledger ledger = MakeLedger();
  const AddressId payout = ledger.NewAddress();
  chain::Timestamp now = 0;
  MineTo(&ledger, payout, 1, &now);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    for (int b = 0; b < 200'000; ++b) {
      if (b % 1024 == 0 && std::chrono::steady_clock::now() > deadline) break;
      ++now;
      ASSERT_TRUE(ledger.ApplyCoinbase(now, payout).ok());
      ASSERT_TRUE(ledger.SealBlock(now).ok());
    }
    done.store(true, std::memory_order_release);
  });

  std::atomic<uint64_t> snapshots{0};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      do {
        const LedgerSnapshot snap = ledger.Snapshot();
        const chain::Transaction& newest =
            snap.tx(snap.num_transactions() - 1);
        if (newest.block_height >= snap.height() + 1) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        const chain::Block& tip = snap.block(snap.height() - 1);
        for (const TxId id : tip.transactions) {
          if (id >= snap.num_transactions() ||
              snap.tx(id).block_height != tip.height) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        snapshots.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire));
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_EQ(violations.load(), 0u)
      << "of " << snapshots.load() << " snapshots, over "
      << ledger.height() << " blocks";
}

/// Serving-layer fixture: a small trained classifier over a simulated
/// economy (sized down from serve_test's — this suite runs under TSan).
class SnapshotServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ScenarioConfig config;
    config.seed = 23;
    config.num_blocks = 60;
    config.num_retail_users = 20;
    config.miners_per_pool = 8;
    config.gamblers_per_house = 4;
    simulator_ = new datagen::Simulator(config);
    ASSERT_TRUE(simulator_->Run().ok());

    auto labeled = simulator_->CollectLabeledAddresses(3);
    Rng rng(1);
    const auto split = datagen::StratifiedSplit(labeled, 0.8, &rng);
    ASSERT_GE(split.test.size(), 6u);
    watched_ = new std::vector<datagen::LabeledAddress>(split.test);

    core::BaClassifier::Options opts;
    opts.dataset.construction.slice_size = 20;
    opts.graph_model.epochs = 2;
    opts.graph_model.embed_dim = 16;
    opts.graph_model.hidden_dim = 32;
    opts.aggregator.epochs = 4;
    auto created = core::BaClassifier::Create(opts);
    ASSERT_TRUE(created.ok()) << created.status().message();
    classifier_ = created.value().release();
    ASSERT_TRUE(classifier_->Train(simulator_->ledger(), split.train).ok());
  }

  static void TearDownTestSuite() {
    delete classifier_;
    delete simulator_;
    delete watched_;
    classifier_ = nullptr;
    simulator_ = nullptr;
    watched_ = nullptr;
  }

  /// Serial re-run of the engine's inference path against the epoch
  /// where `address` has exactly `tx_count` (capped) transactions —
  /// the ground truth a snapshot-consistent result must match.
  static int PredictAtEpoch(const chain::Ledger& ledger,
                            AddressId address, uint64_t tx_count) {
    return testutil::PredictAtEpoch(*classifier_, ledger, address, tx_count);
  }

  static datagen::Simulator* simulator_;
  static std::vector<datagen::LabeledAddress>* watched_;
  static core::BaClassifier* classifier_;
};

datagen::Simulator* SnapshotServeTest::simulator_ = nullptr;
std::vector<datagen::LabeledAddress>* SnapshotServeTest::watched_ = nullptr;
core::BaClassifier* SnapshotServeTest::classifier_ = nullptr;

// The tentpole's acceptance test: blocks are sealed from one thread
// while client threads Classify overlapping addresses — no quiescing,
// no external ordering. Every result must be consistent with some
// pinned epoch: its prediction equals the serial re-run at the epoch
// identified by ClassifyResult::tx_count.
TEST_F(SnapshotServeTest, ConcurrentSealWhileClassifyIsEpochConsistent) {
  chain::Ledger* ledger = simulator_->mutable_ledger();
  serve::InferenceEngineOptions options;
  options.num_threads = 2;
  auto engine =
      serve::InferenceEngine::Create(classifier_, ledger, options);
  ASSERT_TRUE(engine.ok()) << engine.status().message();

  struct Observation {
    AddressId address;
    uint64_t tx_count;
    int predicted;
  };
  constexpr int kClients = 3;
  constexpr int kSweeps = 2;
  constexpr int kStreamBlocks = 3;
  std::vector<std::vector<Observation>> observed(kClients);

  std::thread sealer([&] {
    chain::Timestamp now = ledger->block(ledger->height() - 1).timestamp;
    Rng pick(99);
    for (int b = 0; b < kStreamBlocks; ++b) {
      now += ledger->options().block_interval_seconds;
      std::vector<AddressId> payouts;
      std::vector<double> weights;
      for (int i = 0; i < 3; ++i) {
        payouts.push_back(
            (*watched_)[static_cast<size_t>(pick.UniformInt(
                            0, static_cast<int>(watched_->size()) - 1))]
                .address);
        weights.push_back(1.0 / 3.0);
      }
      ASSERT_TRUE(ledger->ApplyCoinbase(now, payouts, weights).ok());
      ASSERT_TRUE(ledger->SealBlock(now).ok());
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int sweep = 0; sweep < kSweeps; ++sweep) {
        for (size_t i = static_cast<size_t>(c); i < watched_->size();
             i += kClients) {
          const AddressId address = (*watched_)[i].address;
          const auto result = engine.value()->Classify(address);
          ASSERT_TRUE(result.ok()) << result.status().message();
          observed[static_cast<size_t>(c)].push_back(
              {address, result.value().tx_count, result.value().predicted});
        }
      }
    });
  }
  sealer.join();
  for (auto& t : clients) t.join();

  // Verify serially: each observation's prediction must match a
  // re-run at the epoch its batch pinned. Memoized — concurrent
  // sweeps observe the same (address, epoch) pairs repeatedly.
  std::map<std::pair<AddressId, uint64_t>, int> expected;
  size_t total = 0;
  for (const auto& per_client : observed) {
    for (const Observation& ob : per_client) {
      ++total;
      const auto key = std::make_pair(ob.address, ob.tx_count);
      auto it = expected.find(key);
      if (it == expected.end()) {
        it = expected
                 .emplace(key,
                          PredictAtEpoch(*ledger, ob.address, ob.tx_count))
                 .first;
      }
      ASSERT_EQ(ob.predicted, it->second)
          << "address " << ob.address << " at epoch tx_count "
          << ob.tx_count;
    }
  }
  // The clients stripe the watch list disjointly, so together they
  // observe every watched address once per sweep.
  EXPECT_EQ(total, static_cast<size_t>(kSweeps) * watched_->size());
}

}  // namespace
}  // namespace ba
