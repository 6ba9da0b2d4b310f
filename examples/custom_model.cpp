// Custom model: composing a new graph classifier from the library's
// neural primitives — what a downstream researcher would do to extend
// the paper.
//
// The custom encoder here is a GCN layer whose node embeddings are
// pooled by additive attention instead of SUM (a combination none of
// the paper's tables use), trained directly with the autograd engine,
// and compared against the stock GFN on the same split.
//
// Run:  ./build/examples/custom_model [--blocks 300] [--seed 11]

#include <iostream>

#include "core/graph_dataset.h"
#include "core/graph_model.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "metrics/classification.h"
#include "nn/attention.h"
#include "nn/gcn.h"
#include "tensor/optimizer.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

/// A GCN + attention-pool graph classifier built from public primitives.
class AttentionGcn : public ba::nn::Module {
 public:
  AttentionGcn(int64_t input_dim, int64_t hidden, int num_classes,
               ba::Rng* rng)
      : conv1_(input_dim, hidden, rng),
        conv2_(hidden, hidden, rng),
        pool_(hidden, hidden, rng),
        head_({hidden, hidden, num_classes}, rng) {}

  ba::tensor::Var Forward(const ba::core::GraphTensors& gt) const {
    auto x = ba::tensor::Constant(gt.base_features);
    auto h = conv2_.Forward(gt.norm_adj, conv1_.Forward(gt.norm_adj, x));
    return head_.Forward(pool_.Forward(h));  // attention readout
  }

  std::vector<ba::tensor::Var> Parameters() const override {
    return ba::nn::CollectParameters({&conv1_, &conv2_, &pool_, &head_});
  }

 private:
  ba::nn::GcnLayer conv1_;
  ba::nn::GcnLayer conv2_;
  ba::nn::AttentionPool pool_;
  ba::nn::Mlp head_;
};

}  // namespace

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  ba::datagen::ScenarioConfig config;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 11));
  config.num_blocks = static_cast<int>(flags.GetInt("blocks", 300));
  ba::datagen::Simulator simulator(config);
  BA_CHECK_OK(simulator.Run());

  auto labeled = simulator.CollectLabeledAddresses(3);
  ba::Rng rng(config.seed);
  labeled = ba::datagen::StratifiedSample(labeled, 400, &rng);
  const auto split = ba::datagen::StratifiedSplit(labeled, 0.8, &rng);
  const ba::chain::LedgerSnapshot snapshot = simulator.ledger().Snapshot();
  const auto train = ba::core::BuildAddressSamples(snapshot, split.train, {});
  const auto test = ba::core::BuildAddressSamples(snapshot, split.test, {});

  // --- Custom model, trained with the raw autograd API. ---------------
  ba::Rng model_rng(7);
  AttentionGcn model(ba::core::kNodeFeatureDim, 32,
                     ba::datagen::kNumBehaviors, &model_rng);
  ba::tensor::Adam optimizer(model.Parameters(), 1e-3f);
  std::cout << "custom AttentionGcn: " << model.NumParameters()
            << " parameters\n";

  const int epochs = static_cast<int>(flags.GetInt("epochs", 15));
  for (int epoch = 0; epoch < epochs; ++epoch) {
    double loss_sum = 0.0;
    int64_t count = 0;
    for (const auto& sample : train) {
      for (const auto& gt : sample.tensors) {
        optimizer.ZeroGrad();
        auto loss = ba::tensor::SoftmaxCrossEntropy(
            model.Forward(gt), std::vector<int>{sample.label});
        loss_sum += loss->value.item();
        ++count;
        ba::tensor::Backward(loss);
        optimizer.Step();
      }
    }
    if ((epoch + 1) % 5 == 0) {
      std::cout << "  epoch " << epoch + 1 << " mean loss "
                << ba::TablePrinter::Num(loss_sum / count, 3) << "\n";
    }
  }

  auto evaluate = [&](auto&& logits_fn) {
    ba::metrics::ConfusionMatrix cm(ba::datagen::kNumBehaviors);
    for (const auto& sample : test) {
      for (const auto& gt : sample.tensors) {
        const auto logits = logits_fn(gt);
        int best = 0;
        for (int c = 1; c < ba::datagen::kNumBehaviors; ++c) {
          if (logits->value.at(0, c) > logits->value.at(0, best)) best = c;
        }
        cm.Add(sample.label, best);
      }
    }
    return cm;
  };
  const auto custom_cm = evaluate(
      [&](const ba::core::GraphTensors& gt) { return model.Forward(gt); });

  // --- Stock GFN for reference. ---------------------------------------
  ba::core::GraphModelOptions gopts;
  gopts.epochs = epochs;
  ba::core::GraphModel gfn(gopts);
  gfn.Train(train);
  const auto gfn_cm = gfn.EvaluateGraphLevel(test);

  ba::TablePrinter table({"Model", "Accuracy", "Weighted F1"});
  table.AddRow({"AttentionGcn (custom)",
                ba::TablePrinter::Num(custom_cm.Accuracy()),
                ba::TablePrinter::Num(custom_cm.WeightedAverage().f1)});
  table.AddRow({"GFN (stock)", ba::TablePrinter::Num(gfn_cm.Accuracy()),
                ba::TablePrinter::Num(gfn_cm.WeightedAverage().f1)});
  table.Print(std::cout, "Custom vs stock graph classifier (graph level)");
  return 0;
}
