// Souping edge cases and the GAT souping path: learned souping through the
// attention architecture (the paper's most memory-sensitive configuration),
// degenerate ingredient sets (one ingredient, identical ingredients), and
// souping of minibatch-trained ingredients.
#include <gtest/gtest.h>

#include "core/gis.hpp"
#include "core/greedy.hpp"
#include "core/learned.hpp"
#include "core/pls.hpp"
#include "core/soup.hpp"
#include "core/uniform.hpp"
#include "graph/generator.hpp"
#include "tensor/ops.hpp"
#include "train/ingredient_farm.hpp"

namespace gsoup {
namespace {

Dataset soup_dataset(std::uint64_t seed = 105) {
  SyntheticSpec spec;
  spec.num_nodes = 400;
  spec.num_classes = 4;
  spec.avg_degree = 10;
  spec.homophily = 0.78;
  spec.feature_dim = 16;
  spec.feature_noise = 1.2;
  spec.seed = seed;
  return generate_dataset(spec);
}

FarmResult train_set(const GnnModel& model, const GraphContext& ctx,
                     const Dataset& data, std::int64_t count,
                     bool minibatch = false) {
  FarmConfig farm;
  farm.num_ingredients = count;
  farm.num_workers = 2;
  farm.train.epochs = 15;
  farm.train.schedule.base_lr = 0.02;
  farm.train.seed = 21;
  farm.minibatch = minibatch;
  if (minibatch) {
    farm.minibatch_config.batch_size = 64;
    farm.minibatch_config.fanouts = {5, 5};
  }
  return train_ingredients(model, ctx, data, farm);
}

TEST(GatSouping, LearnedSoupingThroughAttention) {
  const Dataset data = soup_dataset();
  ModelConfig cfg;
  cfg.arch = Arch::kGat;
  cfg.in_dim = data.feature_dim();
  cfg.hidden_dim = 6;
  cfg.heads = 2;
  cfg.out_dim = data.num_classes;
  cfg.dropout = 0.3f;
  const GnnModel model(cfg);
  const GraphContext ctx(data.graph, Arch::kGat);
  const FarmResult farm = train_set(model, ctx, data, 4);

  LearnedSoupConfig ls_cfg;
  ls_cfg.epochs = 30;
  ls_cfg.lr = 0.2;
  LearnedSouper souper(ls_cfg);
  const SoupContext sctx{model, ctx, data, farm.ingredients};
  const SoupReport report = run_souper(souper, sctx);
  // A working GAT soup, not far below mean ingredient accuracy.
  EXPECT_GT(report.test_acc, farm.mean_test_acc - 0.06);
  // LS loss decreased overall.
  const auto& h = souper.loss_history();
  EXPECT_LT(h.back(), h.front() + 1e-6);
}

TEST(GatSouping, PlsThroughAttentionUsesLessMemoryThanLs) {
  const Dataset data = soup_dataset(106);
  ModelConfig cfg;
  cfg.arch = Arch::kGat;
  cfg.in_dim = data.feature_dim();
  cfg.hidden_dim = 6;
  cfg.heads = 2;
  cfg.out_dim = data.num_classes;
  const GnnModel model(cfg);
  const GraphContext ctx(data.graph, Arch::kGat);
  const FarmResult farm = train_set(model, ctx, data, 3);
  const SoupContext sctx{model, ctx, data, farm.ingredients};

  LearnedSoupConfig ls_cfg;
  ls_cfg.epochs = 12;
  LearnedSouper ls(ls_cfg);
  const SoupReport ls_report = run_souper(ls, sctx);

  PlsConfig pls_cfg;
  pls_cfg.base = ls_cfg;
  pls_cfg.num_parts = 8;
  pls_cfg.budget = 2;
  PartitionLearnedSouper pls(data, pls_cfg);
  const SoupReport pls_report = run_souper(pls, sctx);
  // GAT's per-edge attention tape makes this the paper's headline memory
  // gap: the subgraph tape must be well below the full-graph tape.
  EXPECT_LT(pls_report.mix_peak_bytes, ls_report.mix_peak_bytes);
}

TEST(SoupEdgeCases, SingleIngredientSoups) {
  const Dataset data = soup_dataset(107);
  ModelConfig cfg;
  cfg.arch = Arch::kGcn;
  cfg.in_dim = data.feature_dim();
  cfg.hidden_dim = 8;
  cfg.out_dim = data.num_classes;
  const GnnModel model(cfg);
  const GraphContext ctx(data.graph, Arch::kGcn);
  const FarmResult farm = train_set(model, ctx, data, 1);
  const SoupContext sctx{model, ctx, data, farm.ingredients};

  // Every strategy degenerates to (approximately) the single ingredient.
  UniformSouper us;
  GreedySouper greedy;
  LearnedSoupConfig ls_cfg;
  ls_cfg.epochs = 5;
  LearnedSouper ls(ls_cfg);
  for (Souper* souper : std::initializer_list<Souper*>{&us, &greedy, &ls}) {
    const ParamStore soup = souper->mix(sctx);
    for (const auto& e : soup.entries()) {
      EXPECT_LT(ops::max_abs_diff(
                    e.tensor, farm.ingredients[0].params.get(e.name)),
                1e-5f)
          << souper->name() << " " << e.name;
    }
  }
}

TEST(SoupEdgeCases, EpochSelectorMustRunTheStepOnce) {
  const Dataset data = soup_dataset(108);
  ModelConfig cfg;
  cfg.arch = Arch::kGcn;
  cfg.in_dim = data.feature_dim();
  cfg.hidden_dim = 8;
  cfg.out_dim = data.num_classes;
  const GnnModel model(cfg);
  const GraphContext ctx(data.graph, Arch::kGcn);
  const FarmResult farm = train_set(model, ctx, data, 2);
  const SoupContext sctx{model, ctx, data, farm.ingredients};

  LearnedSoupConfig ls_cfg;
  ls_cfg.epochs = 3;
  LearnedSouper ls(ls_cfg);
  EXPECT_THROW(ls.mix(sctx, [](Rng&, const SoupStep&) {}), CheckError);
  EXPECT_THROW(ls.mix(sctx,
                      [&](Rng&, const SoupStep& step) {
                        step(ctx, data);
                        step(ctx, data);
                      }),
               CheckError);
  (void)ls.mix(sctx, [&](Rng&, const SoupStep& step) { step(ctx, data); });
  EXPECT_EQ(ls.loss_history().size(), 3u);
}

TEST(SoupEdgeCases, IdenticalIngredientsAreAFixedPoint) {
  const Dataset data = soup_dataset(108);
  ModelConfig cfg;
  cfg.arch = Arch::kGcn;
  cfg.in_dim = data.feature_dim();
  cfg.hidden_dim = 8;
  cfg.out_dim = data.num_classes;
  const GnnModel model(cfg);
  const GraphContext ctx(data.graph, Arch::kGcn);
  const FarmResult farm = train_set(model, ctx, data, 1);

  // Clone the single trained ingredient three times.
  std::vector<Ingredient> clones(3);
  for (std::size_t i = 0; i < clones.size(); ++i) {
    clones[i] = farm.ingredients[0];
    clones[i].params = farm.ingredients[0].params.clone();
    clones[i].id = static_cast<std::int64_t>(i);
  }
  const SoupContext sctx{model, ctx, data, clones};

  // Any convex combination of identical weights is those weights; US, GIS
  // and LS must all return (numerically) the original model.
  UniformSouper us;
  GisSouper gis({.granularity = 5});
  LearnedSoupConfig ls_cfg;
  ls_cfg.epochs = 8;
  LearnedSouper ls(ls_cfg);
  for (Souper* souper :
       std::initializer_list<Souper*>{&us, &gis, &ls}) {
    const ParamStore soup = souper->mix(sctx);
    for (const auto& e : soup.entries()) {
      EXPECT_LT(ops::max_abs_diff(e.tensor, clones[0].params.get(e.name)),
                1e-4f)
          << souper->name() << " " << e.name;
    }
  }
}

TEST(SoupEdgeCases, MinibatchTrainedIngredientsSoupCleanly) {
  const Dataset data = soup_dataset(109);
  ModelConfig cfg;
  cfg.arch = Arch::kSage;
  cfg.in_dim = data.feature_dim();
  cfg.hidden_dim = 8;
  cfg.out_dim = data.num_classes;
  cfg.dropout = 0.3f;
  const GnnModel model(cfg);
  const GraphContext ctx(data.graph, Arch::kSage);
  const FarmResult farm =
      train_set(model, ctx, data, 4, /*minibatch=*/true);
  EXPECT_GT(farm.mean_test_acc, 0.5);

  LearnedSoupConfig ls_cfg;
  ls_cfg.epochs = 25;
  LearnedSouper souper(ls_cfg);
  const SoupContext sctx{model, ctx, data, farm.ingredients};
  const SoupReport report = run_souper(souper, sctx);
  EXPECT_GT(report.test_acc, farm.mean_test_acc - 0.06);
}

}  // namespace
}  // namespace gsoup
