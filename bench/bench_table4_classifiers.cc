// Reproduces Table IV: BAClassifier vs existing bitcoin address
// classifiers, pooled over `--trials` independent economies.
//
// Comparators:
//  - BitScope [84]: multi-resolution clustering over hand features.
//  - Lee et al. [20] + Random Forest: 80 hand-crafted tx-history
//    summary features, random forest.
//  - Lee et al. [20] + ANN: same features, plain MLP.
//
// Comparator fidelity: BitScope and the ANN are run the way the
// original pipelines ran — on raw (unstandardized) features, which is
// what their published scores reflect. Random Forest is scale-invariant
// and therefore represents the comparators' best case.
//
// Paper's shape: BAClassifier tops every class (weighted F1 0.9497);
// Lee+RF is the strongest comparator; BitScope and the ANN trail.

#include <iostream>

#include "bench/bench_common.h"
#include "core/classifier.h"
#include "ml/bitscope.h"
#include "ml/lee_features.h"
#include "ml/mlp_classifier.h"
#include "ml/random_forest.h"

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  const int threads = ba::bench::ThreadsFlag(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int trials = static_cast<int>(flags.GetInt("trials", 3));

  ba::metrics::ConfusionMatrix cm_ba(ba::datagen::kNumBehaviors);
  ba::metrics::ConfusionMatrix cm_bitscope(ba::datagen::kNumBehaviors);
  ba::metrics::ConfusionMatrix cm_rf(ba::datagen::kNumBehaviors);
  ba::metrics::ConfusionMatrix cm_ann(ba::datagen::kNumBehaviors);

  for (int trial = 0; trial < trials; ++trial) {
    std::cout << "--- trial " << trial + 1 << "/" << trials << " ---\n";
    auto exp = ba::bench::BuildExperiment(flags, threads, /*verbose=*/trial == 0,
                                          /*seed_offset=*/100u * trial);

    // ---- BAClassifier (full pipeline). ------------------------------
    ba::core::BaClassifier::Options opts;
    opts.dataset = ba::bench::DatasetOptionsFromFlags(flags, threads);
    opts.graph_model.epochs =
        static_cast<int>(flags.GetInt("gfn_epochs", 30));
    opts.graph_model.seed = seed + static_cast<uint64_t>(trial);
    opts.aggregator.epochs =
        static_cast<int>(flags.GetInt("clf_epochs", 120));
    opts.aggregator.seed = seed + static_cast<uint64_t>(trial) + 1;
    ba::core::BaClassifier clf(opts);
    ba::Stopwatch watch;
    watch.Start();
    BA_CHECK_OK(clf.TrainOnSamples(exp.train));
    watch.Stop();
    ba::metrics::ConfusionMatrix cm(opts.graph_model.num_classes);
    BA_CHECK_OK(clf.EvaluateSamples(exp.test, &cm));
    cm_ba.Merge(cm);
    std::cout << "[train] BAClassifier: "
              << ba::TablePrinter::Num(watch.ElapsedSeconds(), 1)
              << "s, weighted F1 "
              << ba::TablePrinter::Num(cm.WeightedAverage().f1) << "\n";

    // ---- Comparators on Lee et al. 80-feature summaries. -------------
    const auto& ledger = exp.simulator->ledger();
    ba::ml::MlDataset lee_train, lee_test;
    lee_train.num_classes = ba::datagen::kNumBehaviors;
    lee_test.num_classes = ba::datagen::kNumBehaviors;
    for (const auto& s : exp.train) {
      lee_train.x.push_back(ba::ml::LeeFeatures(ledger, s.address));
      lee_train.y.push_back(s.label);
    }
    for (const auto& s : exp.test) {
      lee_test.x.push_back(ba::ml::LeeFeatures(ledger, s.address));
      lee_test.y.push_back(s.label);
    }

    {
      ba::ml::BitScope bitscope;
      bitscope.Fit(lee_train);
      cm_bitscope.Merge(bitscope.Evaluate(lee_test));
    }
    {
      ba::ml::RandomForest::Options o;
      o.num_trees = 50;
      o.seed = seed + static_cast<uint64_t>(trial);
      ba::ml::RandomForest rf(o);
      rf.Fit(lee_train);
      cm_rf.Merge(rf.Evaluate(lee_test));
    }
    {
      ba::ml::MlpClassifier::Options o;
      o.hidden = {16};
      o.epochs = 15;
      o.learning_rate = 5e-3f;
      o.seed = seed + static_cast<uint64_t>(trial);
      o.name = "Lee et al. [20] ANN";
      ba::ml::MlpClassifier ann(o);
      ann.Fit(lee_train);
      cm_ann.Merge(ann.Evaluate(lee_test));
    }
  }

  ba::TablePrinter table(
      {"Classifiers", "Type", "Precision", "Recall", "F1-score"});
  ba::bench::AddPerClassRows(&table, "BAClassifier", cm_ba);
  ba::bench::AddPerClassRows(&table, "BitScope [84]", cm_bitscope);
  ba::bench::AddPerClassRows(&table, "Lee et al. [20] Random Forest", cm_rf);
  ba::bench::AddPerClassRows(&table, "Lee et al. [20] ANN", cm_ann);
  table.Print(std::cout,
              "Table IV — BAClassifier vs prior classifiers, pooled over " +
                  std::to_string(trials) +
                  " economies (paper: BAClassifier 0.9497 >> Lee+RF ~0.80 "
                  "> BitScope ~0.77 > Lee+ANN ~0.54)");
  return 0;
}
