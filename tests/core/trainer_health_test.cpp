// Training-health watchdog tests: a NaN injected into a gradient must
// abort fit() with the offending tensor named, emit a `trainer.health`
// JSONL event, and leave an emergency RNCKPT2 checkpoint that a fresh
// trainer can resume from.
#include "core/trainer.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "obs/event.h"
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

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "trainer_health_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(TrainerHealth, NanInjectionAbortsNamingTheOffendingTensor) {
  const std::vector<dataset::Sample> train = tiny_dataset(8, 21);
  RouteNet model(small_model());
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 4;
  cfg.inject_nan_at_batch = 2;
  Trainer trainer(model, cfg);
  try {
    trainer.fit(train);
    FAIL() << "watchdog did not fire";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("training-health watchdog"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offending tensor"), std::string::npos) << msg;
    // The injected NaN sits in a gradient, so the named tensor is `.grad`.
    EXPECT_NE(msg.find(".grad"), std::string::npos) << msg;
  }
}

TEST(TrainerHealth, WatchdogEmitsHealthEventAndResumableCheckpoint) {
  const std::string jsonl = temp_path("events.jsonl");
  const std::string state = temp_path("state.ckpt");
  for (const auto& entry :
       std::filesystem::directory_iterator(::testing::TempDir())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("trainer_health_state.ckpt", 0) == 0) {
      std::filesystem::remove(entry.path());
    }
  }

  const std::vector<dataset::Sample> train = tiny_dataset(8, 23);
  RouteNet model(small_model());
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 4;
  cfg.inject_nan_at_batch = 2;
  cfg.state_path = state;
  obs::EventSink::global().open(jsonl);
  Trainer trainer(model, cfg);
  EXPECT_THROW(trainer.fit(train), std::runtime_error);
  obs::EventSink::global().close();

  // The health event survives the throw (the sink flushes per emit).
  const std::string log = slurp(jsonl);
  EXPECT_NE(log.find("\"kind\":\"trainer.health\""), std::string::npos);
  EXPECT_NE(log.find("\"status\":\"nan_detected\""), std::string::npos);
  EXPECT_NE(log.find("\"tensor\":"), std::string::npos);
  EXPECT_NE(log.find("grad_norm."), std::string::npos);
  EXPECT_NE(log.find("param_norm."), std::string::npos);

  // Emergency checkpoint landed in the normal rotation...
  EXPECT_TRUE(std::filesystem::exists(state + ".000001"));

  // ...and is a valid resume point: a fresh trainer without the injection
  // retries the poisoned batch and completes the full run.
  RouteNet resumed_model(small_model());
  TrainConfig rcfg = cfg;
  rcfg.inject_nan_at_batch = 0;
  rcfg.resume_from = state;
  Trainer resumed(resumed_model, rcfg);
  const TrainReport report = resumed.fit(train);
  EXPECT_FALSE(report.interrupted);
  EXPECT_GE(report.resumed_epoch, 0);
  EXPECT_FALSE(report.epochs.empty());
}

TEST(TrainerHealth, DriftDetectorFlagsAnInjectedGradientBlowup) {
  const std::string jsonl = temp_path("drift_events.jsonl");
  const std::vector<dataset::Sample> train = tiny_dataset(8, 24);
  RouteNet model(small_model());
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 4;
  cfg.learning_rate = 1e-4f;  // keep norms stable so the baseline holds
  // Epoch 0 establishes the per-module baselines; from epoch 1 on every
  // gradient is scaled 400x after clipping, a clean divergence signal.
  cfg.inject_grad_scale_at_epoch = 1;
  cfg.inject_grad_scale = 400.0f;
  obs::EventSink::global().open(jsonl);
  Trainer trainer(model, cfg);
  trainer.fit(train);  // drift warns, it does not abort
  obs::EventSink::global().close();

  const std::string log = slurp(jsonl);
  EXPECT_NE(log.find("\"kind\":\"trainer.health.drift\""), std::string::npos)
      << log;
  EXPECT_NE(log.find("\"ratio\":"), std::string::npos);
  EXPECT_NE(log.find("\"baseline_ratio\":"), std::string::npos);
  EXPECT_NE(log.find("\"module\":"), std::string::npos);
  EXPECT_NE(log.find("\"factor\":50"), std::string::npos);  // the constant
}

TEST(TrainerHealth, NoDriftEventOnAHealthyRun) {
  const std::string jsonl = temp_path("nodrift_events.jsonl");
  const std::vector<dataset::Sample> train = tiny_dataset(8, 25);
  RouteNet model(small_model());
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 4;
  cfg.learning_rate = 1e-4f;
  obs::EventSink::global().open(jsonl);
  Trainer trainer(model, cfg);
  trainer.fit(train);
  obs::EventSink::global().close();

  const std::string log = slurp(jsonl);
  EXPECT_EQ(log.find("trainer.health.drift"), std::string::npos);
  // The per-epoch health events still flowed.
  EXPECT_NE(log.find("\"kind\":\"trainer.health\""), std::string::npos);
}

TEST(TrainerHealth, DriftConfigIsValidated) {
  RouteNet model(small_model());
  TrainConfig cfg;
  cfg.inject_grad_scale = 0.0f;
  EXPECT_THROW(Trainer(model, cfg), std::runtime_error);
}

}  // namespace
}  // namespace rn::core
