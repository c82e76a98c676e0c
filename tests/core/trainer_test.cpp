#include "core/trainer.h"

#include <memory>

#include <gtest/gtest.h>

#include "topology/generators.h"

namespace rn::core {
namespace {

std::vector<dataset::Sample> tiny_dataset(int count, std::uint64_t seed) {
  dataset::GeneratorConfig cfg;
  cfg.target_pkts_per_flow = 60.0;
  cfg.warmup_s = 0.5;
  cfg.min_delivered = 5;
  dataset::DatasetGenerator gen(cfg, seed);
  auto topology = std::make_shared<const topo::Topology>(topo::ring(6));
  return gen.generate_many(topology, count);
}

RouteNetConfig small_model() {
  RouteNetConfig cfg;
  cfg.link_state_dim = 8;
  cfg.path_state_dim = 8;
  cfg.iterations = 3;
  cfg.readout_hidden = 12;
  return cfg;
}

TEST(Trainer, LossDecreases) {
  const std::vector<dataset::Sample> train = tiny_dataset(10, 1);
  RouteNet model(small_model());
  TrainConfig cfg;
  cfg.epochs = 12;
  cfg.batch_size = 4;
  cfg.learning_rate = 5e-3f;
  Trainer trainer(model, cfg);
  const TrainReport report = trainer.fit(train);
  ASSERT_GE(report.epochs.size(), 2u);
  EXPECT_LT(report.final_train_loss, report.epochs.front().train_loss);
}

TEST(Trainer, OverfitsSmallDataset) {
  const std::vector<dataset::Sample> train = tiny_dataset(12, 2);
  RouteNet model(small_model());
  TrainConfig cfg;
  cfg.epochs = 40;
  cfg.batch_size = 4;
  cfg.learning_rate = 5e-3f;
  Trainer trainer(model, cfg);
  trainer.fit(train);
  const double mre = Trainer::evaluate_delay_mre(model, train);
  EXPECT_LT(mre, 0.25);
}

TEST(Trainer, FitsNormalizerOnTrainingSet) {
  const std::vector<dataset::Sample> train = tiny_dataset(6, 3);
  RouteNet model(small_model());
  TrainConfig cfg;
  cfg.epochs = 1;
  Trainer trainer(model, cfg);
  trainer.fit(train);
  // Identity normalizer would keep log_delay_mean at 0; fitting must move it
  // toward the dataset's log-delay scale (sub-second delays → negative mean).
  EXPECT_LT(model.normalizer().log_delay_mean, -0.3);
  EXPECT_GT(model.normalizer().log_delay_std, 0.0);
}

TEST(Trainer, ReportsEvalMreWhenEvalGiven) {
  const std::vector<dataset::Sample> train = tiny_dataset(8, 4);
  const std::vector<dataset::Sample> eval = tiny_dataset(3, 5);
  RouteNet model(small_model());
  TrainConfig cfg;
  cfg.epochs = 3;
  Trainer trainer(model, cfg);
  const TrainReport report = trainer.fit(train, &eval);
  EXPECT_GE(report.best_epoch, 0);
  EXPECT_GT(report.best_eval_mre, 0.0);
  for (const EpochLog& log : report.epochs) {
    EXPECT_GE(log.eval_delay_mre, 0.0);
  }
}

TEST(Trainer, CheckpointWritesBestModel) {
  const std::vector<dataset::Sample> train = tiny_dataset(6, 8);
  const std::vector<dataset::Sample> eval = tiny_dataset(2, 9);
  RouteNet model(small_model());
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.checkpoint_path = ::testing::TempDir() + "trainer_ckpt.model";
  Trainer trainer(model, cfg);
  trainer.fit(train, &eval);
  const RouteNet restored = RouteNet::load(cfg.checkpoint_path);
  EXPECT_EQ(restored.config().iterations, model.config().iterations);
}

TEST(Trainer, TrainingImprovesOverUntrainedModel) {
  const std::vector<dataset::Sample> train = tiny_dataset(12, 10);
  const std::vector<dataset::Sample> eval = tiny_dataset(4, 11);
  RouteNet untrained(small_model());
  untrained.set_normalizer(dataset::fit_normalizer(train));
  const double mre_untrained = Trainer::evaluate_delay_mre(untrained, eval);

  RouteNet model(small_model());
  TrainConfig cfg;
  cfg.epochs = 30;
  cfg.batch_size = 4;
  cfg.learning_rate = 5e-3f;
  Trainer trainer(model, cfg);
  trainer.fit(train);
  const double mre_trained = Trainer::evaluate_delay_mre(model, eval);
  EXPECT_LT(mre_trained, mre_untrained);
}

TEST(Trainer, JitterHeadLearnsToo) {
  const std::vector<dataset::Sample> train = tiny_dataset(12, 12);
  RouteNet untrained(small_model());
  untrained.set_normalizer(dataset::fit_normalizer(train));
  const double before = Trainer::evaluate_jitter_mre(untrained, train);

  RouteNet model(small_model());
  TrainConfig cfg;
  cfg.epochs = 30;
  cfg.batch_size = 4;
  cfg.learning_rate = 5e-3f;
  cfg.jitter_loss_weight = 1.0f;
  Trainer trainer(model, cfg);
  trainer.fit(train);
  const double after = Trainer::evaluate_jitter_mre(model, train);
  EXPECT_LT(after, before);
  EXPECT_LT(after, 0.5);
}

TEST(Trainer, LinearTargetAblationTrains) {
  const std::vector<dataset::Sample> train = tiny_dataset(8, 13);
  RouteNet model(small_model());
  TrainConfig cfg;
  cfg.epochs = 10;
  cfg.log_space_targets = false;
  Trainer trainer(model, cfg);
  const TrainReport report = trainer.fit(train);
  EXPECT_FALSE(model.normalizer().log_space);
  EXPECT_LT(report.final_train_loss, report.epochs.front().train_loss);
}

TEST(Trainer, DropoutModelTrainsAndInfersDeterministically) {
  const std::vector<dataset::Sample> train = tiny_dataset(8, 14);
  RouteNetConfig mcfg = small_model();
  mcfg.dropout = 0.3f;
  RouteNet model(mcfg);
  TrainConfig cfg;
  cfg.epochs = 8;
  Trainer trainer(model, cfg);
  const TrainReport report = trainer.fit(train);
  EXPECT_LT(report.final_train_loss, report.epochs.front().train_loss);
  // Inference never drops: repeated predictions are identical.
  const RouteNet::Prediction a = model.predict(train[0]);
  const RouteNet::Prediction b = model.predict(train[0]);
  for (std::size_t i = 0; i < a.delay_s.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.delay_s[i], b.delay_s[i]);
  }
}

TEST(Trainer, RejectsBadConfig) {
  RouteNet model(small_model());
  TrainConfig cfg;
  cfg.epochs = 0;
  EXPECT_THROW(Trainer(model, cfg), std::runtime_error);
  TrainConfig cfg2;
  cfg2.learning_rate = 0.0f;
  EXPECT_THROW(Trainer(model, cfg2), std::runtime_error);
}

TEST(Trainer, CheckpointRestoresBestEvalModelExactly) {
  // Train with checkpointing, reload the checkpoint, and confirm its eval
  // MRE equals the reported best (the checkpoint really is the best epoch,
  // not the last one).
  const std::vector<dataset::Sample> train = tiny_dataset(10, 15);
  const std::vector<dataset::Sample> eval = tiny_dataset(3, 16);
  RouteNet model(small_model());
  TrainConfig cfg;
  cfg.epochs = 12;
  cfg.learning_rate = 8e-3f;  // fast enough that eval MRE is non-monotone
  cfg.checkpoint_path = ::testing::TempDir() + "best_eval.model";
  Trainer trainer(model, cfg);
  const TrainReport report = trainer.fit(train, &eval);
  const RouteNet best = RouteNet::load(cfg.checkpoint_path);
  const double restored_mre = Trainer::evaluate_delay_mre(best, eval);
  EXPECT_NEAR(restored_mre, report.best_eval_mre,
              1e-9 + 1e-6 * report.best_eval_mre);
}

TEST(Trainer, RejectsEmptyTrainingSet) {
  RouteNet model(small_model());
  TrainConfig cfg;
  Trainer trainer(model, cfg);
  EXPECT_THROW(trainer.fit({}), std::runtime_error);
}

}  // namespace
}  // namespace rn::core
