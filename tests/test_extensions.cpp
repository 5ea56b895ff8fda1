// Tests for the paper's §VIII future-work extensions implemented here:
// ingredient diversity metrics and ingredient drop-out (hard pruning of
// low-weight ingredients during learned souping).
#include <gtest/gtest.h>

#include "core/diversity.hpp"
#include "core/learned.hpp"
#include "core/pls.hpp"
#include "core/soup.hpp"
#include "graph/generator.hpp"
#include "tensor/init.hpp"
#include "train/ingredient_farm.hpp"

namespace gsoup {
namespace {

class ExtensionFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_nodes = 500;
    spec.num_classes = 4;
    spec.avg_degree = 10;
    spec.homophily = 0.75;
    spec.feature_dim = 16;
    spec.feature_noise = 6.0;  // hard enough that ingredients disagree
    spec.seed = 95;
    data_ = new Dataset(generate_dataset(spec));

    ModelConfig cfg;
    cfg.arch = Arch::kGcn;
    cfg.in_dim = data_->feature_dim();
    cfg.hidden_dim = 8;
    cfg.out_dim = data_->num_classes;
    cfg.dropout = 0.4f;
    model_ = new GnnModel(cfg);
    ctx_ = new GraphContext(data_->graph, Arch::kGcn);

    FarmConfig farm;
    farm.num_ingredients = 4;
    farm.num_workers = 2;
    farm.train.epochs = 20;
    farm.train.schedule.base_lr = 0.02;
    farm.train.seed = 8;
    result_ = new FarmResult(train_ingredients(*model_, *ctx_, *data_, farm));
  }

  static void TearDownTestSuite() {
    delete result_;
    delete ctx_;
    delete model_;
    delete data_;
    result_ = nullptr;
    ctx_ = nullptr;
    model_ = nullptr;
    data_ = nullptr;
  }

  static Dataset* data_;
  static GnnModel* model_;
  static GraphContext* ctx_;
  static FarmResult* result_;
};

Dataset* ExtensionFixture::data_ = nullptr;
GnnModel* ExtensionFixture::model_ = nullptr;
GraphContext* ExtensionFixture::ctx_ = nullptr;
FarmResult* ExtensionFixture::result_ = nullptr;

TEST_F(ExtensionFixture, DiversityOfIndependentIngredientsIsPositive) {
  const DiversityReport report = ingredient_diversity(
      *model_, *ctx_, *data_, result_->ingredients);
  EXPECT_GT(report.parameter_distance, 0.0);
  EXPECT_GT(report.prediction_disagreement, 0.0);
  EXPECT_GE(report.accuracy_stddev, 0.0);
  EXPECT_LT(report.prediction_disagreement, 1.0);
}

TEST_F(ExtensionFixture, IdenticalIngredientsHaveZeroDiversity) {
  std::vector<Ingredient> clones(3);
  for (auto& c : clones) {
    c = result_->ingredients[0];
    c.params = result_->ingredients[0].params.clone();
  }
  const DiversityReport report =
      ingredient_diversity(*model_, *ctx_, *data_, clones);
  EXPECT_NEAR(report.parameter_distance, 0.0, 1e-9);
  EXPECT_NEAR(report.prediction_disagreement, 0.0, 1e-9);
  EXPECT_NEAR(report.accuracy_stddev, 0.0, 1e-6);
}

TEST_F(ExtensionFixture, DiversityNeedsTwoIngredients) {
  const std::span<const Ingredient> one(result_->ingredients.data(), 1);
  EXPECT_THROW(ingredient_diversity(*model_, *ctx_, *data_, one),
               CheckError);
}

TEST_F(ExtensionFixture, AlphaSuppressionZeroesLowWeights) {
  Rng rng(1);
  AlphaSet alphas(result_->ingredients.front().params, 4,
                  AlphaGranularity::kGlobal, rng);
  // Force a known weight pattern: one dominant, one tiny.
  alphas.logits()[0]->value.at(0) = 5.0f;
  alphas.logits()[0]->value.at(1) = 0.0f;
  alphas.logits()[0]->value.at(2) = 0.0f;
  alphas.logits()[0]->value.at(3) = -6.0f;  // weight ~ e^-11 of top
  const auto n = alphas.suppress_below(0.5);
  EXPECT_GE(n, 1);
  const auto w = alphas.group_weights(0);
  EXPECT_LT(w[3], 1e-9f);  // effectively zero — softmax alone cannot do this
  EXPECT_GT(w[0], 0.9f);   // dominant ingredient untouched
}

TEST_F(ExtensionFixture, SuppressionNeverKillsTopIngredient) {
  Rng rng(2);
  AlphaSet alphas(result_->ingredients.front().params, 4,
                  AlphaGranularity::kLayer, rng);
  // Even an absurd threshold keeps the strongest ingredient(s): after
  // suppression every weight is either effectively zero or a real share,
  // and the survivors carry (almost) all the mass.
  alphas.suppress_below(0.99);
  for (std::int64_t g = 0; g < alphas.num_groups(); ++g) {
    const auto w = alphas.group_weights(g);
    float survivor_mass = 0.0f;
    int survivors = 0;
    for (const auto v : w) {
      if (v > 1e-6f) {
        ++survivors;
        survivor_mass += v;
        EXPECT_GT(v, 0.05f);  // real share, not a half-suppressed limbo
      }
    }
    EXPECT_GE(survivors, 1);
    EXPECT_GT(survivor_mass, 0.999f);
  }
}

TEST_F(ExtensionFixture, PrunedLearnedSoupingDropsSabotagedIngredient) {
  // Sabotage one ingredient, enable ingredient drop-out: the noise
  // ingredient must end at (numerically) zero weight — beyond what plain
  // softmax LS achieves.
  std::vector<Ingredient> rigged(result_->ingredients.begin(),
                                 result_->ingredients.end());
  for (auto& ing : rigged) ing.params = ing.params.clone();
  Rng noise_rng(7);
  for (const auto& e : rigged[1].params.entries()) {
    init::normal(rigged[1].params.get_mutable(e.name), noise_rng, 0.0f,
                 1.5f);
  }

  LearnedSoupConfig cfg;
  cfg.epochs = 60;
  cfg.lr = 0.3;
  cfg.granularity = AlphaGranularity::kGlobal;
  cfg.prune_threshold = 0.5;
  LearnedSouper souper(cfg);
  const SoupContext sctx{*model_, *ctx_, *data_, rigged};
  (void)souper.mix(sctx);
  EXPECT_GT(souper.pruned_entries(), 0);
  const auto& w = souper.final_weights().front();
  EXPECT_LT(w[1], 1e-6f) << "sabotaged ingredient should be hard-pruned";

  // PLS runs the same loop, so it honours the same threshold.
  PlsConfig pls_cfg;
  pls_cfg.base = cfg;
  pls_cfg.num_parts = 4;
  pls_cfg.budget = 2;
  PartitionLearnedSouper pls(*data_, pls_cfg);
  (void)pls.mix(sctx);
  EXPECT_GT(pls.pruned_entries(), 0);
  const auto& pw = pls.final_weights().front();
  EXPECT_LT(pw[1], 1e-6f) << "PLS should hard-prune the sabotaged ingredient";
}

TEST_F(ExtensionFixture, PruningDisabledByDefault) {
  LearnedSoupConfig cfg;
  cfg.epochs = 12;
  LearnedSouper souper(cfg);
  const SoupContext sctx{*model_, *ctx_, *data_, result_->ingredients};
  (void)souper.mix(sctx);
  EXPECT_EQ(souper.pruned_entries(), 0);
  for (const auto& w : souper.final_weights()) {
    for (const auto v : w) EXPECT_GT(v, 0.0f);
  }
}

}  // namespace
}  // namespace gsoup
