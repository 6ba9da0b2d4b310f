// Clustering-heuristic baseline — the related-work line the paper's
// introduction surveys (Ermilov et al. [18], Kang et al. [19]): cluster
// addresses with the classic on-chain heuristics, label each cluster by
// the majority of its known (training) members, and classify unseen
// addresses by their cluster's label.
//
// Reports: cluster statistics, label purity of multi-member clusters,
// and the cluster-vote classifier's coverage/accuracy vs BAClassifier
// on the same split — quantifying the paper's argument that heuristic
// clustering alone "cannot be used for all bitcoin addresses".

#include <iostream>
#include <unordered_map>

#include "bench/bench_common.h"
#include "chain/clustering.h"
#include "core/classifier.h"

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  const int threads = ba::bench::ThreadsFlag(flags);
  auto exp = ba::bench::BuildExperiment(flags, threads);
  const auto& ledger = exp.simulator->ledger();

  for (bool change_heuristic : {false, true}) {
    ba::chain::AddressClusterer::Options copts;
    copts.change_heuristic = change_heuristic;
    const auto clusterer = ba::chain::AddressClusterer::FromLedger(ledger, copts);
    const auto clusters = clusterer.Clusters(/*min_size=*/2);

    // Purity over clusters containing >= 2 labeled addresses.
    std::unordered_map<ba::chain::AddressId, int> truth;
    for (const auto& s : exp.train) truth[s.address] = s.label;
    for (const auto& s : exp.test) truth[s.address] = s.label;
    int64_t pure = 0, mixed = 0, labeled_members = 0;
    for (const auto& members : clusters) {
      std::unordered_map<int, int> votes;
      int64_t with_label = 0;
      for (auto a : members) {
        auto it = truth.find(a);
        if (it != truth.end()) {
          ++votes[it->second];
          ++with_label;
        }
      }
      if (with_label < 2) continue;
      labeled_members += with_label;
      if (votes.size() == 1) {
        ++pure;
      } else {
        ++mixed;
      }
    }

    // Cluster-vote classifier: majority training label per cluster.
    std::unordered_map<ba::chain::AddressId,
                       std::unordered_map<int, int>>
        cluster_votes;
    for (const auto& s : exp.train) {
      ++cluster_votes[clusterer.Find(s.address)][s.label];
    }
    int64_t covered = 0, correct = 0;
    for (const auto& s : exp.test) {
      auto it = cluster_votes.find(clusterer.Find(s.address));
      if (it == cluster_votes.end()) continue;  // no labeled cluster-mate
      ++covered;
      int best_label = -1, best_votes = -1;
      for (const auto& [label, count] : it->second) {
        if (count > best_votes) {
          best_votes = count;
          best_label = label;
        }
      }
      correct += (best_label == s.label);
    }

    std::cout << "\n=== heuristics: common-input"
              << (change_heuristic ? " + change" : "") << " ===\n";
    std::cout << "clusters (>=2 members): " << clusters.size()
              << ", largest " << (clusters.empty() ? 0 : clusters[0].size())
              << " addresses\n";
    std::cout << "label purity over clusters with >=2 labeled members: "
              << pure << " pure / " << mixed << " mixed\n";
    std::cout << "cluster-vote classifier: coverage "
              << ba::TablePrinter::Num(
                     static_cast<double>(covered) /
                         static_cast<double>(exp.test.size()))
              << ", accuracy on covered "
              << ba::TablePrinter::Num(
                     covered ? static_cast<double>(correct) /
                                   static_cast<double>(covered)
                             : 0.0)
              << " (" << covered << "/" << exp.test.size() << " covered)\n";
  }

  // BAClassifier reference on the same split (covers EVERY address).
  ba::core::BaClassifier::Options opts;
  opts.dataset = ba::bench::DatasetOptionsFromFlags(flags, threads);
  opts.graph_model.epochs = static_cast<int>(flags.GetInt("gfn_epochs", 30));
  opts.aggregator.epochs = static_cast<int>(flags.GetInt("clf_epochs", 120));
  ba::core::BaClassifier clf(opts);
  BA_CHECK_OK(clf.TrainOnSamples(exp.train));
  ba::metrics::ConfusionMatrix cm(opts.graph_model.num_classes);
  BA_CHECK_OK(clf.EvaluateSamples(exp.test, &cm));
  std::cout << "\nBAClassifier reference: coverage 1.0000, accuracy "
            << ba::TablePrinter::Num(cm.Accuracy()) << ", weighted F1 "
            << ba::TablePrinter::Num(cm.WeightedAverage().f1) << "\n";
  std::cout << "(the paper's point: heuristic clustering is precise where "
               "it applies but cannot label every address; the classifier "
               "can)\n";
  return 0;
}
