// Tests for the address-clustering heuristics (src/chain/clustering)
// and the CSV ledger / label round-trip (src/chain/io, datagen I/O).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "chain/clustering.h"
#include "chain/io.h"
#include "chain/ledger.h"
#include "chain/wallet.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "util/fs.h"

namespace ba::chain {
namespace {

constexpr Amount kCoin = 100'000'000;

/// Temp-file helper that cleans up after itself.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_("/tmp/ba_test_" + name + "_" +
              std::to_string(::getpid())) {}
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string Slurp(const std::string& path) {
  auto r = util::ReadFileToString(path);
  EXPECT_TRUE(r.ok());
  return r.ValueOr("");
}

void Spew(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

/// A tiny two-block ledger (one coinbase, one spend) for I/O tests.
Ledger TinyLedger() {
  Ledger ledger(LedgerOptions{.block_subsidy = 10 * kCoin});
  const AddressId a = ledger.NewAddress();
  const AddressId b = ledger.NewAddress();
  auto cb = ledger.ApplyCoinbase(1, a);
  BA_CHECK(cb.ok());
  BA_CHECK(ledger.SealBlock(1).ok());
  TxDraft draft;
  draft.timestamp = 2;
  draft.inputs = {OutPoint{cb.value(), 0}};
  draft.outputs = {{b, 10 * kCoin}};
  BA_CHECK(ledger.ApplyTransaction(draft).ok());
  BA_CHECK(ledger.SealBlock(2).ok());
  return ledger;
}

TEST(AddressClustererTest, UnionFindBasics) {
  AddressClusterer c(5);
  EXPECT_EQ(c.NumClusters(), 5u);
  EXPECT_FALSE(c.SameCluster(0, 1));
  c.Union(0, 1);
  c.Union(3, 4);
  EXPECT_TRUE(c.SameCluster(0, 1));
  EXPECT_TRUE(c.SameCluster(3, 4));
  EXPECT_FALSE(c.SameCluster(1, 3));
  EXPECT_EQ(c.NumClusters(), 3u);
  c.Union(1, 4);
  EXPECT_TRUE(c.SameCluster(0, 3));
  EXPECT_EQ(c.NumClusters(), 2u);
}

TEST(AddressClustererTest, ClustersSortedBySize) {
  AddressClusterer c(6);
  c.Union(0, 1);
  c.Union(1, 2);
  c.Union(3, 4);
  const auto clusters = c.Clusters(2);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].size(), 3u);
  EXPECT_EQ(clusters[1].size(), 2u);
}

TEST(AddressClustererTest, CommonInputHeuristicMergesCoSpenders) {
  Ledger ledger(LedgerOptions{.block_subsidy = 10 * kCoin});
  const AddressId a = ledger.NewAddress();
  const AddressId b = ledger.NewAddress();
  const AddressId dest = ledger.NewAddress();
  auto cb1 = ledger.ApplyCoinbase(1, a);
  ASSERT_TRUE(cb1.ok());
  ASSERT_TRUE(ledger.SealBlock(1).ok());
  auto cb2 = ledger.ApplyCoinbase(2, b);
  ASSERT_TRUE(cb2.ok());
  ASSERT_TRUE(ledger.SealBlock(2).ok());
  // a and b co-sign one transaction.
  TxDraft draft;
  draft.timestamp = 3;
  draft.inputs = {OutPoint{cb1.value(), 0}, OutPoint{cb2.value(), 0}};
  draft.outputs = {{dest, 20 * kCoin}};
  ASSERT_TRUE(ledger.ApplyTransaction(draft).ok());
  ASSERT_TRUE(ledger.SealBlock(3).ok());

  const auto clusterer = AddressClusterer::FromLedger(ledger);
  EXPECT_TRUE(clusterer.SameCluster(a, b));
  EXPECT_FALSE(clusterer.SameCluster(a, dest));
}

TEST(AddressClustererTest, ChangeHeuristicLinksFreshChange) {
  Ledger ledger(LedgerOptions{.block_subsidy = 10 * kCoin});
  const AddressId payer = ledger.NewAddress();
  const AddressId payee = ledger.NewAddress();
  auto cb = ledger.ApplyCoinbase(1, payer);
  ASSERT_TRUE(cb.ok());
  // Make payee "seen" before the spend.
  ASSERT_TRUE(ledger.SealBlock(1).ok());
  auto cb2 = ledger.ApplyCoinbase(2, payee);
  ASSERT_TRUE(cb2.ok());
  ASSERT_TRUE(ledger.SealBlock(2).ok());
  // Spend with a brand-new change output.
  const AddressId change = ledger.NewAddress();
  TxDraft draft;
  draft.timestamp = 3;
  draft.inputs = {OutPoint{cb.value(), 0}};
  draft.outputs = {{payee, 4 * kCoin}, {change, 6 * kCoin}};
  ASSERT_TRUE(ledger.ApplyTransaction(draft).ok());
  ASSERT_TRUE(ledger.SealBlock(3).ok());

  AddressClusterer::Options with_change;
  with_change.change_heuristic = true;
  const auto on = AddressClusterer::FromLedger(ledger, with_change);
  EXPECT_TRUE(on.SameCluster(payer, change));
  EXPECT_FALSE(on.SameCluster(payer, payee));

  const auto off = AddressClusterer::FromLedger(ledger);
  EXPECT_FALSE(off.SameCluster(payer, change));
}

TEST(AddressClustererTest, ChangeHeuristicSkipsAmbiguousOutputs) {
  // Both outputs fresh => ambiguous, no merge.
  Ledger ledger(LedgerOptions{.block_subsidy = 10 * kCoin});
  const AddressId payer = ledger.NewAddress();
  auto cb = ledger.ApplyCoinbase(1, payer);
  ASSERT_TRUE(cb.ok());
  ASSERT_TRUE(ledger.SealBlock(1).ok());
  const AddressId out1 = ledger.NewAddress();
  const AddressId out2 = ledger.NewAddress();
  TxDraft draft;
  draft.timestamp = 2;
  draft.inputs = {OutPoint{cb.value(), 0}};
  draft.outputs = {{out1, 4 * kCoin}, {out2, 6 * kCoin}};
  ASSERT_TRUE(ledger.ApplyTransaction(draft).ok());
  ASSERT_TRUE(ledger.SealBlock(2).ok());

  AddressClusterer::Options with_change;
  with_change.change_heuristic = true;
  const auto clusterer = AddressClusterer::FromLedger(ledger, with_change);
  EXPECT_FALSE(clusterer.SameCluster(payer, out1));
  EXPECT_FALSE(clusterer.SameCluster(payer, out2));
}

TEST(AddressClustererTest, WalletSpendsClusterOwnAddresses) {
  // A wallet paying from several of its UTXOs links its addresses via
  // the common-input heuristic — the real-world basis of the method.
  Ledger ledger(LedgerOptions{.block_subsidy = 10 * kCoin});
  Wallet wallet(&ledger);
  const AddressId a1 = wallet.CreateAddress();
  const AddressId a2 = wallet.CreateAddress();
  ASSERT_TRUE(ledger.ApplyCoinbase(1, a1).ok());
  ASSERT_TRUE(ledger.SealBlock(1).ok());
  ASSERT_TRUE(ledger.ApplyCoinbase(2, a2).ok());
  ASSERT_TRUE(ledger.SealBlock(2).ok());
  Wallet payee(&ledger);
  const AddressId dest = payee.CreateAddress();
  ASSERT_TRUE(
      wallet.Send(3, {{dest, 15 * kCoin}}, 1000, ChangePolicy::kReuseSource)
          .ok());
  ASSERT_TRUE(ledger.SealBlock(3).ok());
  const auto clusterer = AddressClusterer::FromLedger(ledger);
  EXPECT_TRUE(clusterer.SameCluster(a1, a2));
}

TEST(LedgerIoTest, RoundTripPreservesEverything) {
  datagen::ScenarioConfig config;
  config.seed = 31;
  config.num_blocks = 60;
  config.num_retail_users = 30;
  config.miners_per_pool = 10;
  config.gamblers_per_house = 5;
  datagen::Simulator simulator(config);
  ASSERT_TRUE(simulator.Run().ok());
  const Ledger& original = simulator.ledger();

  TempFile file("ledger_roundtrip");
  ASSERT_TRUE(ExportLedgerCsv(original, file.path()).ok());
  auto imported = ImportLedgerCsv(file.path());
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  const Ledger& copy = imported.value();

  EXPECT_EQ(copy.num_transactions(), original.num_transactions());
  EXPECT_EQ(copy.num_addresses(), original.num_addresses());
  EXPECT_EQ(copy.height(), original.height());
  EXPECT_EQ(copy.total_minted(), original.total_minted());
  EXPECT_EQ(copy.total_fees(), original.total_fees());
  EXPECT_TRUE(copy.CheckConservation().ok());
  // Spot-check transactions and per-address balances.
  for (TxId id = 0; id < 20 && id < copy.num_transactions(); ++id) {
    const Transaction& a = original.tx(id);
    const Transaction& b = copy.tx(id);
    EXPECT_EQ(a.timestamp, b.timestamp);
    EXPECT_EQ(a.coinbase, b.coinbase);
    EXPECT_EQ(a.outputs.size(), b.outputs.size());
    EXPECT_EQ(a.InputValue(), b.InputValue());
    EXPECT_EQ(a.OutputValue(), b.OutputValue());
  }
  for (AddressId a = 0; a < 50 && a < original.num_addresses(); ++a) {
    EXPECT_EQ(copy.BalanceOf(a), original.BalanceOf(a)) << "address " << a;
  }
}

TEST(LedgerIoTest, ImportRejectsGarbage) {
  TempFile file("ledger_garbage");
  {
    std::ofstream out(file.path());
    out << "not a ledger\n";
  }
  EXPECT_FALSE(ImportLedgerCsv(file.path()).ok());
  EXPECT_EQ(ImportLedgerCsv("/nonexistent/path.csv").status().code(),
            StatusCode::kNotFound);
}

TEST(LedgerIoTest, ImportRejectsTamperedValues) {
  Ledger ledger(LedgerOptions{.block_subsidy = 10 * kCoin});
  const AddressId a = ledger.NewAddress();
  const AddressId b = ledger.NewAddress();
  auto cb = ledger.ApplyCoinbase(1, a);
  ASSERT_TRUE(cb.ok());
  ASSERT_TRUE(ledger.SealBlock(1).ok());
  TxDraft draft;
  draft.timestamp = 2;
  draft.inputs = {OutPoint{cb.value(), 0}};
  draft.outputs = {{b, 10 * kCoin}};
  ASSERT_TRUE(ledger.ApplyTransaction(draft).ok());
  ASSERT_TRUE(ledger.SealBlock(2).ok());

  TempFile file("ledger_tampered");
  ASSERT_TRUE(ExportLedgerCsv(ledger, file.path()).ok());
  // Inflate the spend's output beyond its input: validation must fail.
  std::string text;
  {
    std::ifstream in(file.path());
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("T,", 0) == 0) {
        const auto pos = line.rfind("1000000000");
        ASSERT_NE(pos, std::string::npos);
        line.replace(pos, 10, "9000000000");
      }
      text += line + "\n";
    }
  }
  {
    std::ofstream out(file.path());
    out << text;
  }
  EXPECT_FALSE(ImportLedgerCsv(file.path()).ok());
}

TEST(LedgerIoTest, ExportWritesV2HeaderAndCrcTrailer) {
  TempFile file("ledger_format");
  ASSERT_TRUE(ExportLedgerCsv(TinyLedger(), file.path()).ok());
  const std::string text = Slurp(file.path());
  EXPECT_EQ(text.rfind("# ba-ledger v2,", 0), 0u);
  // Last line is the CRC trailer.
  const auto last_nl = text.rfind('\n', text.size() - 2);
  EXPECT_EQ(text.compare(last_nl + 1, 8, "# crc32,"), 0);
}

TEST(LedgerIoTest, EverySingleByteFlipIsDetected) {
  TempFile file("ledger_flip");
  ASSERT_TRUE(ExportLedgerCsv(TinyLedger(), file.path()).ok());
  const std::string good = Slurp(file.path());
  ASSERT_GT(good.size(), 40u);
  TempFile bad_file("ledger_flip_bad");
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    Spew(bad_file.path(), bad);
    EXPECT_FALSE(ImportLedgerCsv(bad_file.path()).ok())
        << "flip at byte " << i << " imported silently";
  }
}

TEST(LedgerIoTest, MissingTrailerReportsTruncation) {
  TempFile file("ledger_trunc");
  ASSERT_TRUE(ExportLedgerCsv(TinyLedger(), file.path()).ok());
  std::string text = Slurp(file.path());
  // Drop the trailer line: a v2 file without it is a truncated file.
  const auto last_nl = text.rfind('\n', text.size() - 2);
  text.resize(last_nl + 1);
  Spew(file.path(), text);
  const auto imported = ImportLedgerCsv(file.path());
  ASSERT_FALSE(imported.ok());
  EXPECT_NE(imported.status().message().find("missing crc32 trailer"),
            std::string::npos)
      << imported.status().ToString();
}

TEST(LedgerIoTest, BadHeaderNamesLineOne) {
  TempFile file("ledger_bad_header");
  Spew(file.path(), "totally,not,a,ledger\nB,1,100\n");
  const auto imported = ImportLedgerCsv(file.path());
  ASSERT_FALSE(imported.ok());
  EXPECT_NE(imported.status().message().find("line 1:"), std::string::npos)
      << imported.status().ToString();
}

TEST(LedgerIoTest, GarbageLineNamesItsLineNumber) {
  // A garbage third line fails before the missing trailer is noticed.
  TempFile file("ledger_garbage_line");
  Spew(file.path(),
       "# ba-ledger v2,1000000000,2\n"
       "B,1,100\n"
       "Z,this is not a record\n");
  const auto imported = ImportLedgerCsv(file.path());
  ASSERT_FALSE(imported.ok());
  EXPECT_NE(imported.status().message().find("line 3:"), std::string::npos)
      << imported.status().ToString();
  EXPECT_NE(imported.status().message().find("unknown record kind"),
            std::string::npos);
}

TEST(LedgerIoTest, ConservationViolationNamesItsLineNumber) {
  // The spend on line 5 emits twice its input value.
  TempFile file("ledger_conservation");
  Spew(file.path(),
       "# ba-ledger v2,1000000000,2\n"
       "B,1,100\n"
       "C,100,0:1000000000\n"
       "B,2,200\n"
       "T,200,0:0,1:2000000000\n");
  const auto imported = ImportLedgerCsv(file.path());
  ASSERT_FALSE(imported.ok());
  EXPECT_NE(imported.status().message().find("line 5:"), std::string::npos)
      << imported.status().ToString();
}

TEST(LedgerIoTest, RetiredV1HeaderIsRejected) {
  // v1 (no CRC trailer) is no longer written or read.
  TempFile file("ledger_v1");
  Spew(file.path(),
       "# ba-ledger v1,1000000000,2\n"
       "B,1,100\n"
       "C,100,0:1000000000\n");
  const auto imported = ImportLedgerCsv(file.path());
  ASSERT_EQ(imported.status().code(), StatusCode::kInvalidArgument);
  const std::string message = imported.status().message();
  EXPECT_NE(message.find("line 1:"), std::string::npos) << message;
  EXPECT_NE(message.find("# ba-ledger v2,"), std::string::npos) << message;
  EXPECT_NE(message.find("# ba-ledger v1,"), std::string::npos) << message;
  EXPECT_NE(message.find(file.path()), std::string::npos) << message;
}

TEST(LedgerIoTest, ExportIsAtomicUnderFaultInjection) {
  const Ledger ledger = TinyLedger();
  TempFile file("ledger_atomic");
  ASSERT_TRUE(ExportLedgerCsv(ledger, file.path()).ok());
  const std::string before = Slurp(file.path());
  for (const std::string& point : util::AtomicFileWriter::FaultPoints()) {
    util::FaultInjector::Instance().Arm(point);
    EXPECT_FALSE(ExportLedgerCsv(ledger, file.path()).ok());
    util::FaultInjector::Instance().DisarmAll();
    EXPECT_EQ(Slurp(file.path()), before) << "torn by fault at " << point;
    ASSERT_TRUE(ImportLedgerCsv(file.path()).ok());
  }
}

TEST(LabelsIoTest, RoundTrip) {
  std::vector<datagen::LabeledAddress> labels{
      {1, datagen::BehaviorLabel::kExchange},
      {7, datagen::BehaviorLabel::kMining},
      {9, datagen::BehaviorLabel::kService}};
  TempFile file("labels_roundtrip");
  ASSERT_TRUE(datagen::ExportLabelsCsv(labels, file.path()).ok());
  auto imported = datagen::ImportLabelsCsv(file.path());
  ASSERT_TRUE(imported.ok());
  ASSERT_EQ(imported->size(), labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ((*imported)[i].address, labels[i].address);
    EXPECT_EQ((*imported)[i].label, labels[i].label);
  }
}

TEST(LabelsIoTest, RejectsUnknownLabel) {
  TempFile file("labels_bad");
  {
    std::ofstream out(file.path());
    out << "address,label\n42,Casino\n";
  }
  auto imported = datagen::ImportLabelsCsv(file.path());
  EXPECT_FALSE(imported.ok());
}

TEST(LabelsIoTest, EverySingleByteFlipIsDetected) {
  std::vector<datagen::LabeledAddress> labels{
      {1, datagen::BehaviorLabel::kExchange},
      {7, datagen::BehaviorLabel::kMining}};
  TempFile file("labels_flip");
  ASSERT_TRUE(datagen::ExportLabelsCsv(labels, file.path()).ok());
  const std::string good = Slurp(file.path());
  TempFile bad_file("labels_flip_bad");
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    Spew(bad_file.path(), bad);
    EXPECT_FALSE(datagen::ImportLabelsCsv(bad_file.path()).ok())
        << "flip at byte " << i << " imported silently";
  }
}

TEST(LabelsIoTest, MissingTrailerReportsTruncation) {
  std::vector<datagen::LabeledAddress> labels{
      {1, datagen::BehaviorLabel::kExchange},
      {7, datagen::BehaviorLabel::kMining}};
  TempFile file("labels_trunc");
  ASSERT_TRUE(datagen::ExportLabelsCsv(labels, file.path()).ok());
  std::string text = Slurp(file.path());
  // Drop the trailer line: the file now ends at a row boundary.
  const auto last_nl = text.rfind('\n', text.size() - 2);
  text.resize(last_nl + 1);
  Spew(file.path(), text);
  const auto imported = datagen::ImportLabelsCsv(file.path());
  ASSERT_FALSE(imported.ok());
  EXPECT_NE(imported.status().message().find("missing crc32 trailer"),
            std::string::npos)
      << imported.status().ToString();
}

TEST(LabelsIoTest, ContentAfterTrailerRejected) {
  std::vector<datagen::LabeledAddress> labels{
      {1, datagen::BehaviorLabel::kExchange}};
  TempFile file("labels_after_trailer");
  ASSERT_TRUE(datagen::ExportLabelsCsv(labels, file.path()).ok());
  std::string text = Slurp(file.path());
  text += "9,Mining\n";
  Spew(file.path(), text);
  const auto imported = datagen::ImportLabelsCsv(file.path());
  ASSERT_FALSE(imported.ok());
  EXPECT_NE(imported.status().message().find("content after crc32 trailer"),
            std::string::npos)
      << imported.status().ToString();
}

TEST(LabelsIoTest, CrcMismatchNamesTrailerLine) {
  std::vector<datagen::LabeledAddress> labels{
      {1, datagen::BehaviorLabel::kExchange},
      {2, datagen::BehaviorLabel::kGambling}};
  TempFile file("labels_crc_line");
  ASSERT_TRUE(datagen::ExportLabelsCsv(labels, file.path()).ok());
  std::string text = Slurp(file.path());
  // Tamper a body value without touching the trailer.
  const auto pos = text.find("2,Gambling");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = '3';
  Spew(file.path(), text);
  const auto imported = datagen::ImportLabelsCsv(file.path());
  ASSERT_FALSE(imported.ok());
  EXPECT_NE(imported.status().message().find("crc32 mismatch"),
            std::string::npos)
      << imported.status().ToString();
  EXPECT_NE(imported.status().message().find("line 4:"), std::string::npos);
}

}  // namespace
}  // namespace ba::chain
