// Learned Souping (Alg. 3) and Partition Learned Souping (Alg. 4) tests:
// optimisation behaviour, ingredient re-weighting, partition-ratio
// semantics and determinism.
#include <gtest/gtest.h>

#include "core/learned.hpp"
#include "core/pls.hpp"
#include "core/soup.hpp"
#include "graph/generator.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "train/ingredient_farm.hpp"
#include "train/metrics.hpp"

namespace gsoup {
namespace {

class LearnedSoupFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_nodes = 600;
    spec.num_classes = 4;
    spec.avg_degree = 10;
    spec.homophily = 0.78;
    spec.feature_dim = 16;
    spec.feature_noise = 0.9;
    spec.seed = 81;
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
    farm.train.seed = 6;
    farm.init_seed = 19;
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

  SoupContext soup_context(std::span<const Ingredient> ings = {}) const {
    return {*model_, *ctx_, *data_,
            ings.empty() ? std::span<const Ingredient>(result_->ingredients)
                         : ings};
  }

  static Dataset* data_;
  static GnnModel* model_;
  static GraphContext* ctx_;
  static FarmResult* result_;
};

Dataset* LearnedSoupFixture::data_ = nullptr;
GnnModel* LearnedSoupFixture::model_ = nullptr;
GraphContext* LearnedSoupFixture::ctx_ = nullptr;
FarmResult* LearnedSoupFixture::result_ = nullptr;

TEST_F(LearnedSoupFixture, ValidationLossDecreases) {
  LearnedSoupConfig cfg;
  cfg.epochs = 40;
  cfg.lr = 0.2;
  LearnedSouper souper(cfg);
  (void)souper.mix(soup_context());
  const auto& history = souper.loss_history();
  ASSERT_EQ(history.size(), 40u);
  // Compare the mean of the first and last quarters: gradient descent on
  // the alphas must reduce the validation loss overall.
  double head = 0, tail = 0;
  for (int i = 0; i < 10; ++i) {
    head += history[i];
    tail += history[history.size() - 1 - i];
  }
  EXPECT_LT(tail, head);
}

TEST_F(LearnedSoupFixture, KeepBestSoupTracksMeanIngredientOnVal) {
  // Table II shows LS can land below the ingredient mean on small/easy
  // datasets (e.g. GCN ogbn-arxiv), so the robust property is a narrow
  // band, with keep_best giving the monotone variant.
  LearnedSoupConfig cfg;
  cfg.epochs = 40;
  cfg.lr = 0.2;
  cfg.keep_best = true;
  cfg.eval_every = 5;
  LearnedSouper souper(cfg);
  const SoupReport report = run_souper(souper, soup_context());
  EXPECT_GT(report.val_acc + 1e-9, result_->mean_val_acc - 0.02);
}

TEST_F(LearnedSoupFixture, DownweightsSabotagedIngredient) {
  // Replace one ingredient with noise: LS must push its interpolation
  // weight DOWN from where the Xavier-initialised logits started. (The
  // paper's §V-A observes exactly this mechanism — and its limitation:
  // softmax cannot reach an exact zero.)
  std::vector<Ingredient> rigged(result_->ingredients.begin(),
                                 result_->ingredients.end());
  for (auto& ing : rigged) {
    ing.params = ing.params.clone();
  }
  Rng noise_rng(123);
  const std::size_t bad = 2;
  for (const auto& e : rigged[bad].params.entries()) {
    Tensor& t = rigged[bad].params.get_mutable(e.name);
    init::normal(t, noise_rng, 0.0f, 1.0f);
  }

  LearnedSoupConfig cfg;
  cfg.epochs = 80;
  cfg.lr = 0.3;
  cfg.granularity = AlphaGranularity::kGlobal;  // single weight vector
  LearnedSouper souper(cfg);

  // Reconstruct the initial weights (same seed → same alpha init path).
  Rng init_rng(cfg.seed);
  const AlphaSet initial(rigged.front().params,
                         static_cast<std::int64_t>(rigged.size()),
                         cfg.granularity, init_rng);
  const float w_bad_initial = initial.group_weights(0)[bad];

  (void)souper.mix(soup_context(rigged));
  const auto& w = souper.final_weights().front();
  EXPECT_LT(w[bad], w_bad_initial)
      << "noise ingredient's weight should decrease from its init";
  // The bad ingredient ends with the smallest weight of the set.
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (i != bad) EXPECT_LT(w[bad], w[i] + 1e-6f);
  }
  // Softmax keeps it non-zero (the §V-A limitation).
  EXPECT_GT(w[bad], 0.0f);
}

TEST_F(LearnedSoupFixture, DeterministicForFixedSeed) {
  LearnedSoupConfig cfg;
  cfg.epochs = 10;
  cfg.seed = 77;
  LearnedSouper a(cfg);
  LearnedSouper b(cfg);
  const ParamStore sa = a.mix(soup_context());
  const ParamStore sb = b.mix(soup_context());
  for (const auto& e : sa.entries()) {
    EXPECT_FLOAT_EQ(ops::max_abs_diff(e.tensor, sb.get(e.name)), 0.0f);
  }
}

TEST_F(LearnedSoupFixture, WeightsStayNormalizedAfterTraining) {
  LearnedSoupConfig cfg;
  cfg.epochs = 25;
  LearnedSouper souper(cfg);
  (void)souper.mix(soup_context());
  for (const auto& w : souper.final_weights()) {
    float total = 0.0f;
    for (const auto v : w) {
      EXPECT_GT(v, 0.0f);
      total += v;
    }
    EXPECT_NEAR(total, 1.0f, 1e-4f);
  }
}

TEST_F(LearnedSoupFixture, AdamWVariantRuns) {
  LearnedSoupConfig cfg;
  cfg.epochs = 15;
  cfg.optimizer = OptimizerKind::kAdamW;
  cfg.lr = 0.05;
  LearnedSouper souper(cfg);
  const SoupReport report = run_souper(souper, soup_context());
  EXPECT_GT(report.test_acc, 0.25);
}

TEST_F(LearnedSoupFixture, KeepBestNeverWorseAtValThanFinalEpoch) {
  LearnedSoupConfig with_best;
  with_best.epochs = 30;
  with_best.keep_best = true;
  with_best.eval_every = 5;
  LearnedSouper souper_best(with_best);
  const SoupReport r_best = run_souper(souper_best, soup_context());

  LearnedSoupConfig without = with_best;
  without.keep_best = false;
  LearnedSouper souper_plain(without);
  const SoupReport r_plain = run_souper(souper_plain, soup_context());
  EXPECT_GE(r_best.val_acc + 1e-9, r_plain.val_acc);
}

// ---- PLS -------------------------------------------------------------------

TEST_F(LearnedSoupFixture, PlsSubgraphFractionTracksBudgetRatio) {
  PlsConfig cfg;
  cfg.base.epochs = 20;
  cfg.num_parts = 8;
  cfg.budget = 2;  // R/K = 0.25
  PartitionLearnedSouper souper(*data_, cfg);
  (void)souper.mix(soup_context());
  EXPECT_NEAR(souper.mean_subgraph_fraction(), 0.25, 0.12);
}

TEST_F(LearnedSoupFixture, PlsAccuracyComparableToLs) {
  LearnedSoupConfig ls_cfg;
  ls_cfg.epochs = 40;
  ls_cfg.lr = 0.2;
  LearnedSouper ls(ls_cfg);
  const SoupReport ls_report = run_souper(ls, soup_context());

  PlsConfig pls_cfg;
  pls_cfg.base = ls_cfg;
  pls_cfg.num_parts = 8;
  pls_cfg.budget = 4;
  PartitionLearnedSouper pls(*data_, pls_cfg);
  const SoupReport pls_report = run_souper(pls, soup_context());
  // "without compromising accuracy": allow a small tolerance band.
  EXPECT_GT(pls_report.test_acc, ls_report.test_acc - 0.08);
}

TEST_F(LearnedSoupFixture, PlsUsesLessMixMemoryThanLs) {
  LearnedSoupConfig ls_cfg;
  ls_cfg.epochs = 15;
  LearnedSouper ls(ls_cfg);
  const SoupReport ls_report = run_souper(ls, soup_context());

  PlsConfig pls_cfg;
  pls_cfg.base = ls_cfg;
  pls_cfg.num_parts = 8;
  pls_cfg.budget = 2;
  PartitionLearnedSouper pls(*data_, pls_cfg);
  const SoupReport pls_report = run_souper(pls, soup_context());
  EXPECT_LT(pls_report.mix_peak_bytes, ls_report.mix_peak_bytes);
}

TEST_F(LearnedSoupFixture, PlsFullBudgetDegeneratesToLsCost) {
  // R = K selects the whole graph every epoch.
  PlsConfig cfg;
  cfg.base.epochs = 5;
  cfg.num_parts = 4;
  cfg.budget = 4;
  PartitionLearnedSouper souper(*data_, cfg);
  (void)souper.mix(soup_context());
  EXPECT_NEAR(souper.mean_subgraph_fraction(), 1.0, 1e-9);

  // With the whole graph selected, Alg. 4 is Alg. 3: the same loss
  // trajectory and the same soup, bit for bit, on every architecture and
  // with keep-best both off and on.
  for (const Arch arch : {Arch::kGcn, Arch::kSage, Arch::kGat}) {
    ModelConfig mc = model_->config();
    mc.arch = arch;
    mc.heads = 2;
    const GnnModel model(mc);
    const GraphContext ctx(data_->graph, arch);
    FarmConfig farm;
    farm.num_ingredients = 3;
    farm.num_workers = 1;
    farm.train.epochs = 8;
    farm.train.schedule.base_lr = 0.02;
    const FarmResult ings = train_ingredients(model, ctx, *data_, farm);
    const SoupContext sctx{model, ctx, *data_, ings.ingredients};

    for (const bool keep_best : {false, true}) {
      SCOPED_TRACE(std::string(arch_name(arch)) +
                   (keep_best ? " keep_best" : " plain"));
      PlsConfig full;
      full.base.epochs = 12;
      full.base.keep_best = keep_best;
      full.base.eval_every = 3;
      full.num_parts = 4;
      full.budget = 4;
      LearnedSouper ls(full.base);
      PartitionLearnedSouper pls(*data_, full);
      const ParamStore ls_soup = ls.mix(sctx);
      const ParamStore pls_soup = pls.mix(sctx);
      EXPECT_EQ(pls.loss_history(), ls.loss_history());
      for (const auto& e : ls_soup.entries()) {
        EXPECT_EQ(ops::max_abs_diff(e.tensor, pls_soup.get(e.name)), 0.0f)
            << e.name;
      }
    }
  }
}

TEST_F(LearnedSoupFixture, PlsRejectsInvalidBudget) {
  PlsConfig cfg;
  cfg.num_parts = 4;
  cfg.budget = 5;
  EXPECT_THROW(PartitionLearnedSouper(*data_, cfg), CheckError);
  cfg.budget = 0;
  EXPECT_THROW(PartitionLearnedSouper(*data_, cfg), CheckError);
}

TEST_F(LearnedSoupFixture, PlsDeterministicForFixedSeed) {
  PlsConfig cfg;
  cfg.base.epochs = 8;
  cfg.base.seed = 31;
  cfg.num_parts = 8;
  cfg.budget = 2;
  PartitionLearnedSouper a(*data_, cfg);
  PartitionLearnedSouper b(*data_, cfg);
  const ParamStore sa = a.mix(soup_context());
  const ParamStore sb = b.mix(soup_context());
  for (const auto& e : sa.entries()) {
    EXPECT_FLOAT_EQ(ops::max_abs_diff(e.tensor, sb.get(e.name)), 0.0f);
  }
}

TEST_F(LearnedSoupFixture, PlsPartitioningIsValBalanced) {
  PlsConfig cfg;
  cfg.num_parts = 8;
  cfg.budget = 2;
  PartitionLearnedSouper souper(*data_, cfg);
  const auto counts =
      souper.partitioning().part_mask_counts(data_->val_mask);
  for (const auto c : counts) {
    EXPECT_GT(c, 0) << "every partition should carry validation nodes";
  }
}

}  // namespace
}  // namespace gsoup
