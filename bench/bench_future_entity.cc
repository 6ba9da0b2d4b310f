// Future-work experiment #1 (paper §V): entity identification.
//
// "The dataset only contains the type of address while lacking the
//  entity information (we are curious to know which exchange the
//  address belongs to — Coinbase, Binance, or another)."
//
// For every behavior class with >= 2 entities, this harness trains the
// same two-stage pipeline to identify WHICH entity owns the address — a
// within-class task the paper leaves open. Expected: well above chance
// where entities leave operational fingerprints (gambling houses with
// distinct payout batching, pools with distinct payout cadence), close
// to chance where the machinery is deliberately identical (exchange
// deposit addresses) — quantifying how much entity signal survives the
// behavior-level representation.

#include <algorithm>
#include <iostream>
#include <map>
#include <unordered_map>

#include "bench/bench_common.h"
#include "core/aggregator.h"
#include "core/classifier.h"
#include "core/graph_model.h"

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  const int threads = ba::bench::ThreadsFlag(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const auto config = ba::bench::ScenarioFromFlags(flags, threads);
  ba::datagen::Simulator simulator(config);
  BA_CHECK_OK(simulator.Run());
  const auto entity_labels = simulator.CollectEntityLabels(/*min_txs=*/2);

  ba::TablePrinter table({"Class", "Entities", "Addresses", "Chance",
                          "Entity accuracy", "Weighted F1"});

  for (int behavior = 0; behavior < ba::datagen::kNumBehaviors; ++behavior) {
    // Collect this class's addresses and re-map entity ids densely.
    std::unordered_map<ba::chain::AddressId, int> entity_of;
    std::map<int, int> dense;  // original entity id -> dense id
    std::vector<ba::datagen::LabeledAddress> addresses;
    for (const auto& e : entity_labels) {
      if (static_cast<int>(e.behavior) != behavior) continue;
      auto [it, inserted] =
          dense.emplace(e.entity_id, static_cast<int>(dense.size()));
      entity_of[e.address] = it->second;
      addresses.push_back(
          {e.address, static_cast<ba::datagen::BehaviorLabel>(behavior)});
    }
    const int num_entities = static_cast<int>(dense.size());
    if (num_entities < 2 || addresses.size() < 40) continue;

    // Entity-stratified split: temporarily encode the entity in the
    // split by shuffling plain, then splitting per entity.
    ba::Rng rng(seed + static_cast<uint64_t>(behavior));
    rng.Shuffle(&addresses);
    std::vector<ba::datagen::LabeledAddress> train_a, test_a;
    std::map<int, int> counts;
    for (const auto& a : addresses) {
      const int e = entity_of.at(a.address);
      if (counts[e]++ % 5 == 4) {
        test_a.push_back(a);
      } else {
        train_a.push_back(a);
      }
    }

    const auto dopts = ba::bench::DatasetOptionsFromFlags(flags, threads);
    const ba::chain::LedgerSnapshot snapshot = simulator.ledger().Snapshot();
    auto train = ba::core::BuildAddressSamples(snapshot, train_a, dopts);
    auto test = ba::core::BuildAddressSamples(snapshot, test_a, dopts);
    for (auto* set : {&train, &test}) {
      for (auto& s : *set) s.label = entity_of.at(s.address);
    }
    if (train.empty() || test.empty()) continue;

    ba::core::GraphModelOptions gopts;
    gopts.num_classes = num_entities;
    gopts.epochs = static_cast<int>(flags.GetInt("gfn_epochs", 30));
    gopts.k_hops = static_cast<int>(flags.GetInt("khops", 2));
    gopts.seed = seed;
    ba::core::GraphModel gfn(gopts);
    gfn.Train(train);

    auto train_seq = ba::core::BuildEmbeddingSequences(gfn, train);
    auto test_seq = ba::core::BuildEmbeddingSequences(gfn, test);
    const auto scaler = ba::core::EmbeddingScaler::Fit(train_seq);
    scaler.Apply(&train_seq);
    scaler.Apply(&test_seq);

    ba::core::AggregatorOptions aopts;
    aopts.embed_dim = gfn.embed_dim();
    aopts.num_classes = num_entities;
    aopts.epochs = static_cast<int>(flags.GetInt("clf_epochs", 120));
    aopts.seed = seed + 1;
    ba::core::AggregatorModel agg(aopts);
    agg.Train(train_seq);
    const auto cm = agg.Evaluate(test_seq);

    table.AddRow(
        {ba::datagen::BehaviorName(
             static_cast<ba::datagen::BehaviorLabel>(behavior)),
         std::to_string(num_entities), std::to_string(addresses.size()),
         ba::TablePrinter::Num(1.0 / num_entities, 3),
         ba::TablePrinter::Num(cm.Accuracy()),
         ba::TablePrinter::Num(cm.WeightedAverage().f1)});
    std::cout << "[done] " << ba::datagen::BehaviorName(
                                  static_cast<ba::datagen::BehaviorLabel>(
                                      behavior))
              << ": accuracy " << ba::TablePrinter::Num(cm.Accuracy())
              << " vs chance " << ba::TablePrinter::Num(1.0 / num_entities, 3)
              << "\n";
  }
  table.Print(std::cout,
              "Future-work: WHICH entity owns the address (within-class "
              "identification; paper §V asks for exactly this)");
  return 0;
}
