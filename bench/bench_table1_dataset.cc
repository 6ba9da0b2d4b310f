// Reproduces Table I: dataset label statistics.
//
// The paper's crawl yields 2,138,657 addresses (Exchange 912,322 /
// Mining 133,119 / Gambling 377,559 / Service 715,657). This harness
// runs the behavioral economy and reports the synthetic dataset's label
// counts and proportions next to the paper's.

#include <iostream>

#include "bench/bench_common.h"

namespace {

// Paper Table I reference counts.
constexpr int64_t kPaperCounts[] = {912'322, 133'119, 377'559, 715'657};
constexpr int64_t kPaperTotal = 2'138'657;

}  // namespace

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  const auto config = ba::bench::ScenarioFromFlags(flags, ba::bench::ThreadsFlag(flags));
  ba::datagen::Simulator simulator(config);
  BA_CHECK_OK(simulator.Run());

  const auto labeled = simulator.CollectLabeledAddresses(/*min_txs=*/2);
  const auto counts = ba::datagen::CountByLabel(labeled);
  const int64_t total = static_cast<int64_t>(labeled.size());

  ba::TablePrinter table({"Address Label", "Number (ours)", "Share (ours)",
                          "Number (paper)", "Share (paper)"});
  const auto names = ba::datagen::BehaviorNames();
  for (int c = 0; c < ba::datagen::kNumBehaviors; ++c) {
    table.AddRow(
        {names[static_cast<size_t>(c)],
         ba::TablePrinter::Count(counts[static_cast<size_t>(c)]),
         ba::TablePrinter::Num(
             static_cast<double>(counts[static_cast<size_t>(c)]) /
                 static_cast<double>(total),
             3),
         ba::TablePrinter::Count(kPaperCounts[c]),
         ba::TablePrinter::Num(static_cast<double>(kPaperCounts[c]) /
                                   static_cast<double>(kPaperTotal),
                               3)});
  }
  table.AddSeparator();
  table.AddRow({"Total", ba::TablePrinter::Count(total), "1.000",
                ba::TablePrinter::Count(kPaperTotal), "1.000"});
  table.Print(std::cout,
              "Table I — dataset label statistics (synthetic economy vs "
              "paper crawl; absolute scale differs by design, every class "
              "is populated and Exchange dominates)");

  std::cout << "\nledger: " << simulator.ledger().num_transactions()
            << " transactions across " << simulator.ledger().height()
            << " blocks, " << simulator.ledger().num_addresses()
            << " total addresses, " << labeled.size()
            << " labeled (>=2 transactions)\n";
  return 0;
}
