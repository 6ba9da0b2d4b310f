// Reproduces Table II: graph-representation model comparison.
//
// GNNs (GFN — ours, GCN, DiffPool) are trained on individual address
// graph slices; classical ML models (LR, MLP, SVM, Bernoulli/Gaussian
// NB, KNN, Decision Tree, GBDT, XGBoost) receive the paper's flattened
// [agg-in | target | agg-out] features (§IV-C.1) for the same slices.
// Results are pooled over `--trials` independent economies (different
// seeds) to suppress run-to-run variance; reported: macro precision /
// recall and weighted F1 on the pooled test confusions.
//
// Paper's shape to reproduce: GFN tops the GNNs; boosted trees are the
// strongest classical family; naive Bayes and the linear models trail.

#include <iostream>
#include <memory>

#include "bench/bench_common.h"
#include "core/flat_features.h"
#include "core/graph_model.h"
#include "ml/boosting.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/linear_models.h"
#include "ml/mlp_classifier.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"

namespace {

struct Row {
  std::string group;
  std::string name;
  ba::metrics::ConfusionMatrix pooled{ba::datagen::kNumBehaviors};
};

}  // namespace

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  const int threads = ba::bench::ThreadsFlag(flags);
  const int epochs = static_cast<int>(flags.GetInt("epochs", 30));
  const int trials = static_cast<int>(flags.GetInt("trials", 3));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  std::vector<Row> rows;
  auto row_for = [&rows](const std::string& group,
                         const std::string& name) -> Row& {
    for (auto& r : rows) {
      if (r.name == name) return r;
    }
    rows.push_back(
        Row{group, name,
            ba::metrics::ConfusionMatrix(ba::datagen::kNumBehaviors)});
    return rows.back();
  };

  for (int trial = 0; trial < trials; ++trial) {
    std::cout << "--- trial " << trial + 1 << "/" << trials << " ---\n";
    auto exp = ba::bench::BuildExperiment(flags, threads, /*verbose=*/trial == 0,
                                          /*seed_offset=*/100u * trial);

    // ---- Graph neural models, evaluated per slice. GAT is an
    // extension beyond the paper's three. ------------------------------
    for (auto kind : {ba::core::GraphEncoderKind::kGfn,
                      ba::core::GraphEncoderKind::kDiffPool,
                      ba::core::GraphEncoderKind::kGcn,
                      ba::core::GraphEncoderKind::kGat}) {
      ba::core::GraphModelOptions opts;
      opts.encoder = kind;
      opts.epochs = epochs;
      opts.k_hops = static_cast<int>(flags.GetInt("khops", 2));
      opts.seed = seed + static_cast<uint64_t>(trial);
      ba::core::GraphModel model(opts);
      ba::Stopwatch watch;
      watch.Start();
      model.Train(exp.train);
      watch.Stop();
      const auto cm = model.EvaluateGraphLevel(exp.test);
      std::string name = ba::core::GraphEncoderName(kind);
      if (kind == ba::core::GraphEncoderKind::kGfn) name += " (ours)";
      if (kind == ba::core::GraphEncoderKind::kGat) name += " (extension)";
      row_for("GNNs", name).pooled.Merge(cm);
      std::cout << "[train] " << name << ": "
                << ba::TablePrinter::Num(watch.ElapsedSeconds(), 1)
                << "s, weighted F1 "
                << ba::TablePrinter::Num(cm.WeightedAverage().f1) << "\n";
    }

    // ---- Classical ML on per-slice flattened graph features. ---------
    ba::ml::MlDataset train_flat, test_flat;
    train_flat.num_classes = ba::datagen::kNumBehaviors;
    test_flat.num_classes = ba::datagen::kNumBehaviors;
    for (const auto& s : exp.train) {
      for (const auto& g : s.graphs) {
        train_flat.x.push_back(ba::core::FlatFeaturesForGraph(g));
        train_flat.y.push_back(s.label);
      }
    }
    for (const auto& s : exp.test) {
      for (const auto& g : s.graphs) {
        test_flat.x.push_back(ba::core::FlatFeaturesForGraph(g));
        test_flat.y.push_back(s.label);
      }
    }
    ba::ml::StandardScaler scaler;
    scaler.Fit(train_flat.x);
    scaler.Transform(&train_flat.x);
    scaler.Transform(&test_flat.x);

    std::vector<std::unique_ptr<ba::ml::MlModel>> models;
    models.push_back(std::make_unique<ba::ml::LogisticRegression>());
    {
      ba::ml::MlpClassifier::Options o;
      o.epochs = 60;
      o.seed = seed + static_cast<uint64_t>(trial);
      models.push_back(std::make_unique<ba::ml::MlpClassifier>(o));
    }
    models.push_back(std::make_unique<ba::ml::LinearSvm>());
    models.push_back(std::make_unique<ba::ml::BernoulliNb>());
    models.push_back(std::make_unique<ba::ml::GaussianNb>());
    models.push_back(std::make_unique<ba::ml::Knn>(5));
    models.push_back(std::make_unique<ba::ml::DecisionTree>());
    {
      ba::ml::BoostingOptions o;
      o.num_rounds = 30;
      models.push_back(std::make_unique<ba::ml::Gbdt>(o));
      models.push_back(std::make_unique<ba::ml::XgBoost>(o));
    }
    for (auto& model : models) {
      model->Fit(train_flat);
      row_for("MLs", model->Name()).pooled.Merge(model->Evaluate(test_flat));
    }
  }

  ba::TablePrinter table(
      {"Methods", "Model", "Precision", "Recall", "F1-score"});
  std::string last_group;
  for (const auto& r : rows) {
    if (r.group != last_group && !last_group.empty()) table.AddSeparator();
    const auto macro = r.pooled.MacroAverage();
    table.AddRow({r.group == last_group ? "" : r.group, r.name,
                  ba::TablePrinter::Num(macro.precision),
                  ba::TablePrinter::Num(macro.recall),
                  ba::TablePrinter::Num(r.pooled.WeightedAverage().f1)});
    last_group = r.group;
  }
  table.Print(std::cout,
              "Table II — graph representation models, pooled over " +
                  std::to_string(trials) +
                  " economies (paper: GFN 0.9769 > GCN 0.9514 > DiffPool "
                  "0.9299; GBDT 0.9585 best classical; NB/linear far "
                  "behind)");
  return 0;
}
