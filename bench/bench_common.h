// Shared experiment pipeline for the benches (bench/repro prints the
// paper's figures and tables from it).
//
// The paper's setup (§2.1): train RouteNet on samples from the 14-node
// NSFNET and a 50-node synthetic topology, evaluate on unseen samples from
// those two plus the 24-node Geant2. The public datasets hold 480k/120k/300k
// samples; one laptop core cannot regenerate that, so the scale below is a
// env-tunable miniature (RN_BENCH_SCALE=smoke|quick|standard|large) that
// preserves the experiment's structure. Training artifacts are cached under
// RN_BENCH_CACHE (default ./bench_cache) so repeated runs share one trained
// model.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "dataset/dataset.h"
#include "topology/generators.h"

namespace rn::bench {

// Size of a side study that trains its own models on generated data.
struct StudySize {
  int train = 0;   // NSFNET training scenarios
  int eval = 0;    // scenarios per evaluation set
  int epochs = 0;
};

struct ExperimentScale {
  std::string name = "standard";
  int train_nsfnet = 150;
  int train_syn50 = 24;
  int eval_nsfnet = 20;
  int eval_syn50 = 6;
  int eval_geant2 = 16;
  int epochs = 30;
  double pkts_per_flow = 120.0;
  // Hyperparameter sweep and design ablations (train NSFNET, eval GBN).
  StudySize sweep{28, 6, 15};
  double sweep_pkts_per_flow = 100.0;
  // Baseline contrast, per traffic model (train NSFNET, eval NSFNET+Geant2).
  StudySize baseline{32, 8, 30};
  int timing_reps = 5;  // stopwatch runs per cost cell; the median is shown
};

// Reads RN_BENCH_SCALE (smoke | quick | standard | large); standard by
// default. "smoke" is a seconds-scale tier for CI smokes that only needs
// to populate every BENCH_*.json key. Benches size their work from the
// fields, never from the name.
ExperimentScale scale_from_env();

// Cache directory (created if missing).
std::string cache_dir();

dataset::GeneratorConfig paper_generator_config(const ExperimentScale& scale);
core::RouteNetConfig paper_model_config();

struct PaperSetup {
  core::RouteNet model;
  std::vector<dataset::Sample> eval_nsfnet;
  std::vector<dataset::Sample> eval_syn50;
  std::vector<dataset::Sample> eval_geant2;
};

// The paper setup's seed-101 training corpus: train_nsfnet NSFNET samples,
// then train_syn50 synthetic-50 ones. Read from the cache files that
// load_or_train_paper_setup fills; generated and cached when missing.
std::vector<dataset::Sample> load_or_generate_train_set(
    const ExperimentScale& scale);

// Trains (or loads from cache) the paper's experiment and returns the model
// plus the three evaluation sets. Prints progress to stdout. Training wall
// time and final loss are recorded in the obs registry; on a cache hit the
// telemetry that produced the cached model is replayed from
// `<model>.telemetry.json` instead of reporting zero training time.
PaperSetup load_or_train_paper_setup(const ExperimentScale& scale);

// Opens the global JSONL telemetry sink from a `--metrics-out PATH` argv
// pair (or the RN_METRICS_OUT env var), sizes the worker pool from a
// `--threads N` pair (default: RN_THREADS, then hardware_concurrency), and
// starts the bench wall clock. Call first in every report bench's main().
void init_bench_telemetry(int argc, char** argv);

// Writes `BENCH_<name>.json` into the cache dir — run metadata plus the
// metrics-registry snapshot as a stable `telemetry` section every perf PR
// reports against — then emits the final metrics.snapshot event and closes
// the sink. Returns the JSON path.
std::string finish_bench_telemetry(const std::string& bench_name,
                                   const ExperimentScale& scale);

// The three topologies of the experiment.
std::shared_ptr<const topo::Topology> nsfnet_topology();
std::shared_ptr<const topo::Topology> syn50_topology();
std::shared_ptr<const topo::Topology> geant2_topology();

}  // namespace rn::bench
