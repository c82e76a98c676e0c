// Mini-batch training loop for RouteNet: Adam with exponential LR decay,
// per-epoch shuffling, gradient clipping, best-model tracking on an
// evaluation set, and periodic checkpointing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/routenet.h"
#include "dataset/dataset.h"
#include "dataset/stream.h"

namespace rn::core {

struct TrainConfig {
  int epochs = 25;
  int batch_size = 8;  // samples (scenarios) per step, merged into one graph
  float learning_rate = 1e-3f;
  float lr_decay = 0.96f;  // multiplied per epoch
  float clip_norm = 5.0f;
  // Loss = mse(delay) + jitter_loss_weight * mse(jitter), both normalized.
  float jitter_loss_weight = 0.5f;
  std::uint64_t shuffle_seed = 7;
  // Ablation: z-score targets in log space (default, matches the paper's
  // relative-error metric) or in raw seconds.
  bool log_space_targets = true;
  // Worker threads for the matmul kernels (0 = leave the global pool as
  // configured by --threads / RN_THREADS / hardware_concurrency).
  int threads = 0;
  bool verbose = false;
  // When non-empty, the best-eval model is saved here each time it improves.
  std::string checkpoint_path;

  // --- Fault tolerance (see docs/file-formats.md, "RNCKPT2") -------------
  // Base path for full training-state checkpoints (parameters + Adam
  // moments + RNG streams + cursor). Files rotate as <state_path>.NNNNNN;
  // empty disables. A final checkpoint is always written on normal
  // completion so a finished run can be extended later.
  std::string state_path;
  // Save a state checkpoint every N optimizer steps (0: only the final
  // one). Requires state_path.
  int checkpoint_every_n_batches = 0;
  // Rotation depth: how many <state_path>.NNNNNN files to keep.
  int keep_checkpoints = 3;
  // Resume source: an explicit checkpoint file, or a rotation base whose
  // newest CRC-valid file is auto-detected (falling back to older ones).
  // The run continues at the recorded epoch/batch and yields a final model
  // bitwise identical to one trained without interruption.
  std::string resume_from;
  // Install SIGINT/SIGTERM handlers for the duration of fit(): on signal,
  // finish the current batch, write a state checkpoint, and return with
  // report.interrupted set.
  bool handle_signals = false;
  // Testing/ops hook: hard-stop after this many optimizer steps WITHOUT
  // writing a checkpoint — models a crash for kill-and-resume tests
  // (0: unlimited).
  long max_batches = 0;

  // --- Training-health watchdog (always on) ------------------------------
  // A non-finite loss or gradient norm emits a `trainer.health` event
  // naming the offending tensor, saves an emergency state checkpoint
  // (parameters are still finite — the check runs before the optimizer
  // step), and throws. The checkpoint lands in the normal rotation, so
  // `--resume <state_path>` picks it up. Each epoch, every module's
  // grad/param norm ratio drifting past 50× its first observed ratio emits
  // a `trainer.health.drift` warning, long before anything goes
  // non-finite.
  // Testing hook: poison one gradient entry with NaN just before gradient
  // clipping on this 1-based optimizer step (0: never), to drive the
  // watchdog path deterministically.
  long inject_nan_at_batch = 0;
  // Testing hook: from this 0-based epoch on, multiply every gradient by
  // `inject_grad_scale` right after clipping (1.0: never), to drive the
  // drift detector deterministically.
  int inject_grad_scale_at_epoch = -1;
  float inject_grad_scale = 1.0f;
};

struct EpochLog {
  int epoch = 0;
  double train_loss = 0.0;     // mean per-batch loss
  double eval_delay_mre = 0.0; // mean relative error on eval set (-1 if none)
};

struct TrainReport {
  std::vector<EpochLog> epochs;
  double best_eval_mre = -1.0;
  int best_epoch = -1;
  double final_train_loss = 0.0;
  // True when fit() stopped early on a signal or the max_batches hook; the
  // model is mid-training and the caller should not publish it as final.
  bool interrupted = false;
  // Epoch/batch the run resumed from (-1 when it started fresh).
  int resumed_epoch = -1;
};

class Trainer {
 public:
  Trainer(RouteNet& model, const TrainConfig& config);

  // Fits the model. The normalizer is (re)fitted on `train` before the
  // first epoch so checkpoints are self-contained. `eval` may be null.
  TrainReport fit(const std::vector<dataset::Sample>& train,
                  const std::vector<dataset::Sample>* eval = nullptr);

  // Same loop over any SampleSource — the streaming entry point. An
  // in-RAM vector and a StreamingDataset over the same samples yield
  // bitwise-identical models (the vector overload above is a thin wrapper
  // over this one), and checkpoints/resume work identically: the cursor
  // records shuffled sample indices, not storage layout.
  TrainReport fit(dataset::SampleSource& train,
                  const std::vector<dataset::Sample>* eval = nullptr);

  // Mean relative delay error of the current model over a sample set
  // (valid paths only).
  static double evaluate_delay_mre(const RouteNet& model,
                                   const std::vector<dataset::Sample>& samples);

  // Same for the jitter head (paths whose measured jitter is positive).
  static double evaluate_jitter_mre(
      const RouteNet& model, const std::vector<dataset::Sample>& samples);

 private:
  RouteNet& model_;
  TrainConfig cfg_;
};

}  // namespace rn::core
