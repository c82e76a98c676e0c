#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "dataset/shard.h"
#include "dataset/stream.h"
#include "obs/event.h"
#include "obs/json.h"
#include "obs/snapshot.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "par/thread_pool.h"

namespace rn::bench {

namespace {

// Wall clock for the whole bench run, started by init_bench_telemetry.
obs::Stopwatch& bench_watch() {
  static obs::Stopwatch watch;
  return watch;
}

// Publishes the training cost of the (possibly cached) model into the
// registry, so BENCH_*.json always carries the training telemetry that
// produced the model — fresh or replayed.
void record_train_telemetry(double wall_s, double epochs, double final_loss,
                            double samples, bool from_cache) {
  obs::Registry& reg = obs::Registry::global();
  reg.gauge("bench.train.wall_s").set(wall_s);
  reg.gauge("bench.train.epochs").set(epochs);
  reg.gauge("bench.train.final_loss").set(final_loss);
  reg.gauge("bench.train.samples").set(samples);
  reg.gauge("bench.train.from_cache").set(from_cache ? 1.0 : 0.0);
  obs::EventSink& sink = obs::EventSink::global();
  if (sink.enabled()) {
    obs::Event ev(from_cache ? "bench.cache.replay" : "bench.train");
    ev.f("wall_s", wall_s)
        .f("epochs", epochs)
        .f("final_train_loss", final_loss)
        .f("samples", samples);
    sink.emit(ev);
  }
}

void save_train_telemetry(const std::string& path, double wall_s,
                          double epochs, double final_loss, double samples) {
  std::ofstream out(path);
  if (!out.good()) return;  // telemetry cache is best-effort
  out << "{\"train_wall_s\":" << obs::json_number(wall_s)
      << ",\"epochs\":" << obs::json_number(epochs)
      << ",\"final_train_loss\":" << obs::json_number(final_loss)
      << ",\"samples\":" << obs::json_number(samples) << "}\n";
}

// Replays `<model>.telemetry.json` written when the cached model was
// trained. Returns false when the sidecar is missing or unparseable (old
// caches), in which case the registry reports from_cache with zero cost.
bool replay_train_telemetry(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  obs::JsonValue root;
  std::string err;
  if (!obs::parse_json(buf.str(), &root, &err) || !root.is_object()) {
    return false;
  }
  auto num = [&root](const char* key) {
    const obs::JsonValue* v = root.find(key);
    return v != nullptr && v->is_number() ? v->number : 0.0;
  };
  record_train_telemetry(num("train_wall_s"), num("epochs"),
                         num("final_train_loss"), num("samples"),
                         /*from_cache=*/true);
  return true;
}

}  // namespace

ExperimentScale scale_from_env() {
  ExperimentScale s;
  const char* env = std::getenv("RN_BENCH_SCALE");
  const std::string mode = env != nullptr ? env : "standard";
  // Columns: paper setup (train NSFNET / syn50, eval NSFNET / syn50 /
  // Geant2, epochs, pkts/flow), sweep {train, eval, epochs} and its
  // pkts/flow, baseline {train, eval, epochs}, timing reps.
  if (mode == "smoke") {
    // Seconds tier for CI smokes (obs_diff_smoke): just enough work to
    // populate every BENCH_*.json key, no statistical value.
    s = ExperimentScale{"smoke", 6, 2, 2, 1, 2, 2, 30.0, {2, 1, 1}, 30.0,
                        {2, 1, 1}, 1};
  } else if (mode == "quick") {
    s = ExperimentScale{"quick", 24, 4, 6, 2, 5, 10, 80.0, {10, 3, 8}, 60.0,
                        {12, 4, 15}, 3};
  } else if (mode == "large") {
    s = ExperimentScale{"large", 400, 60, 40, 12, 40, 40, 150.0,
                        {28, 6, 15}, 100.0, {32, 8, 30}, 5};
  } else {
    s.name = "standard";
  }
  return s;
}

std::string cache_dir() {
  const char* env = std::getenv("RN_BENCH_CACHE");
  const std::string dir = env != nullptr ? env : "bench_cache";
  std::filesystem::create_directories(dir);
  return dir;
}

dataset::GeneratorConfig paper_generator_config(const ExperimentScale& scale) {
  dataset::GeneratorConfig cfg;
  cfg.k_paths = 3;                 // routing-scheme variety per sample
  cfg.min_util = 0.3;              // traffic-intensity sweep
  cfg.max_util = 0.8;
  cfg.target_pkts_per_flow = scale.pkts_per_flow;
  cfg.warmup_s = 1.0;
  cfg.min_delivered = 15;
  return cfg;
}

core::RouteNetConfig paper_model_config() {
  // The reference RouteNet's tuned setting for larger topologies (§2.1):
  // 32-dim link/path states and 8 message-passing iterations.
  core::RouteNetConfig cfg;
  cfg.link_state_dim = 32;
  cfg.path_state_dim = 32;
  cfg.iterations = 8;
  cfg.readout_hidden = 64;
  cfg.seed = 7;
  return cfg;
}

std::shared_ptr<const topo::Topology> nsfnet_topology() {
  return std::make_shared<const topo::Topology>(topo::nsfnet());
}

std::shared_ptr<const topo::Topology> syn50_topology() {
  // The paper's "50-node synthetically-generated topology": seeded BA graph.
  Rng rng(50);
  return std::make_shared<const topo::Topology>(topo::synthetic_ba(50, 2, rng));
}

std::shared_ptr<const topo::Topology> geant2_topology() {
  return std::make_shared<const topo::Topology>(topo::geant2());
}

namespace {

constexpr std::uint64_t kTrainSeed = 101;
constexpr std::uint64_t kEvalSeed = 202;

// The `count` samples at global indices [first_index, first_index + count)
// of the corpus (cfg, seed) on `topology`. Read back from the RNDS1 cache
// at `path` when its header records exactly that request; otherwise
// generated and written there, replacing any stale cache.
std::vector<dataset::Sample> load_or_generate(
    const std::string& path, const dataset::GeneratorConfig& cfg,
    std::uint64_t seed, std::shared_ptr<const topo::Topology> topology,
    std::uint64_t first_index, std::uint64_t count, const char* label) {
  dataset::ShardHeader want;
  want.seed = seed;
  want.config_fingerprint = dataset::config_fingerprint(cfg, *topology);
  want.first_index = first_index;
  if (dataset::is_shard_file(path)) {
    const dataset::ShardHeader have = dataset::ShardReader(path).header();
    if (have.seed == want.seed &&
        have.config_fingerprint == want.config_fingerprint &&
        have.first_index == want.first_index && have.count == count) {
      std::printf("  [cache] %-18s <- %s\n", label, path.c_str());
      return dataset::load_dataset(path);
    }
    std::printf("  [stale] %-18s    %s\n", label, path.c_str());
  }
  std::printf("  generating %-3llu %s samples...\n",
              static_cast<unsigned long long>(count), label);
  std::fflush(stdout);
  std::vector<dataset::Sample> samples =
      dataset::DatasetGenerator(cfg, seed)
          .generate_range(std::move(topology), first_index, count);
  dataset::ShardWriter writer(path, want);
  for (const dataset::Sample& s : samples) writer.add(s);
  writer.finish();
  return samples;
}

}  // namespace

std::vector<dataset::Sample> load_or_generate_train_set(
    const ExperimentScale& scale) {
  const std::string prefix = cache_dir() + "/train_";
  const std::string tag = "_" + scale.name;
  const dataset::GeneratorConfig gcfg = paper_generator_config(scale);
  const auto train_nsfnet = static_cast<std::uint64_t>(scale.train_nsfnet);
  std::vector<dataset::Sample> train = load_or_generate(
      prefix + "nsfnet" + tag + ".rnds", gcfg, kTrainSeed, nsfnet_topology(),
      0, train_nsfnet, "train-NSFNET");
  std::vector<dataset::Sample> syn = load_or_generate(
      prefix + "syn50" + tag + ".rnds", gcfg, kTrainSeed, syn50_topology(),
      train_nsfnet, static_cast<std::uint64_t>(scale.train_syn50),
      "train-50node");
  for (dataset::Sample& s : syn) train.push_back(std::move(s));
  return train;
}

PaperSetup load_or_train_paper_setup(const ExperimentScale& scale) {
  const std::string dir = cache_dir();
  const std::string tag = "_" + scale.name;
  const std::string model_path = dir + "/routenet" + tag + ".model";
  const dataset::GeneratorConfig gcfg = paper_generator_config(scale);

  // Each seed's corpus is laid out topology after topology, so every cache
  // file owns a fixed index range and a cache hit never shifts the next.
  const auto eval_nsfnet = static_cast<std::uint64_t>(scale.eval_nsfnet);
  const auto eval_syn50 = static_cast<std::uint64_t>(scale.eval_syn50);
  std::printf("== RouteNet paper setup (scale: %s) ==\n", scale.name.c_str());
  PaperSetup setup{
      core::RouteNet(paper_model_config()),
      load_or_generate(dir + "/eval_nsfnet" + tag + ".rnds", gcfg, kEvalSeed,
                       nsfnet_topology(), 0, eval_nsfnet, "eval-NSFNET"),
      load_or_generate(dir + "/eval_syn50" + tag + ".rnds", gcfg, kEvalSeed,
                       syn50_topology(), eval_nsfnet, eval_syn50,
                       "eval-50node"),
      load_or_generate(dir + "/eval_geant2" + tag + ".rnds", gcfg, kEvalSeed,
                       geant2_topology(), eval_nsfnet + eval_syn50,
                       static_cast<std::uint64_t>(scale.eval_geant2),
                       "eval-Geant2"),
  };

  if (std::filesystem::exists(model_path)) {
    std::printf("  [cache] trained model <- %s\n", model_path.c_str());
    setup.model = core::RouteNet::load(model_path);
    if (!replay_train_telemetry(model_path + ".telemetry.json")) {
      // Sidecar missing (pre-telemetry cache): report the hit honestly
      // rather than a fake zero-cost training run.
      record_train_telemetry(0.0, 0.0, 0.0, 0.0, /*from_cache=*/true);
    }
    return setup;
  }

  const std::vector<dataset::Sample> train = load_or_generate_train_set(scale);
  core::TrainConfig tcfg;
  tcfg.epochs = scale.epochs;
  tcfg.batch_size = 4;
  tcfg.learning_rate = 4e-3f;
  tcfg.lr_decay = 0.92f;
  tcfg.jitter_loss_weight = 0.3f;
  tcfg.verbose = true;
  std::printf("  training RouteNet on %zu samples (14-node + 50-node)...\n",
              train.size());
  std::fflush(stdout);
  core::Trainer trainer(setup.model, tcfg);
  obs::Stopwatch train_watch;
  const core::TrainReport report = trainer.fit(train);
  const double train_wall_s = train_watch.elapsed_s();
  record_train_telemetry(train_wall_s,
                         static_cast<double>(report.epochs.size()),
                         report.final_train_loss,
                         static_cast<double>(train.size()),
                         /*from_cache=*/false);
  setup.model.save(model_path);
  save_train_telemetry(model_path + ".telemetry.json", train_wall_s,
                       static_cast<double>(report.epochs.size()),
                       report.final_train_loss,
                       static_cast<double>(train.size()));
  std::printf("  model saved -> %s (%.1fs training)\n", model_path.c_str(),
              train_wall_s);
  return setup;
}

void init_bench_telemetry(int argc, char** argv) {
  std::string path;
  std::string trace_path;
  std::string trace_sample;
  double trace_min_us = -1.0;
  double stats_every_s = -1.0;
  int threads = 0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--metrics-out") path = argv[i + 1];
    if (std::string(argv[i]) == "--trace-out") trace_path = argv[i + 1];
    if (std::string(argv[i]) == "--trace-min-us") {
      trace_min_us = std::atof(argv[i + 1]);
    }
    if (std::string(argv[i]) == "--trace-sample") trace_sample = argv[i + 1];
    if (std::string(argv[i]) == "--stats-every-s") {
      stats_every_s = std::atof(argv[i + 1]);
    }
    if (std::string(argv[i]) == "--threads") threads = std::atoi(argv[i + 1]);
  }
  obs::EventSink::global().open_or_env(path);
  obs::Tracer::global().configure_sampling_or_env(trace_min_us, trace_sample);
  obs::Tracer::global().open_or_env(trace_path);
  obs::StatsReporter::global().start_or_env(stats_every_s);
  par::set_global_threads(threads);
  bench_watch().restart();
}

std::string finish_bench_telemetry(const std::string& bench_name,
                                   const ExperimentScale& scale) {
  obs::Registry::global().gauge("bench.wall_s").set(
      bench_watch().elapsed_s());
  // Drain the stats reporter first: its final obs.snapshot must precede
  // the sink close, and its totals belong in the registry snapshot below.
  obs::StatsReporter::global().stop();
  // Spans are drained once here; the summary lands in BENCH_*.json whether
  // or not a --trace-out file captures the full timeline. The telemetry
  // section now carries histogram p99s and sliding-window quantiles, so
  // `routenet obs diff` sees stable keys across runs.
  obs::Tracer& tracer = obs::Tracer::global();
  const std::vector<obs::TraceRecord> spans = tracer.collect();
  const std::string path = cache_dir() + "/BENCH_" + bench_name + ".json";
  {
    std::ofstream out(path);
    if (out.good()) {
      out << "{\"bench\":\"" << obs::json_escape(bench_name)
          << "\",\"scale\":\"" << obs::json_escape(scale.name)
          << "\",\"trace\":"
          << obs::trace_summary_json(spans, tracer.dropped(),
                                     tracer.sampled_out())
          << ",\"telemetry\":"
          << obs::Registry::global().snapshot().to_json() << "}\n";
    }
  }
  std::printf("\ntelemetry -> %s\n", path.c_str());
  obs::emit_registry_snapshot();
  obs::EventSink::global().close();
  if (!tracer.out_path().empty()) {
    obs::Tracer::write_chrome_trace(tracer.out_path(), spans,
                                    /*merge_existing=*/false,
                                    tracer.dropped(), tracer.sampled_out());
    tracer.disable();
  }
  return path;
}

}  // namespace rn::bench
