// The paper's evidence in one run: the §2.1 dataset and hyperparameter
// tables, Figs. 2–4, the §1 baseline contrast and cost argument, and the
// design ablations of DESIGN.md.
//
// Builds the paper setup once (train RouteNet on NSFNET-14 + synthetic-50,
// evaluate on unseen samples of those two and of Geant2-24), prints every
// figure and table, and writes fig2_regression.csv, fig3_error_cdf.csv,
// fig4_top_paths.csv and BENCH_repro.json into the cache directory. Every
// section is sized from the RN_BENCH_SCALE tier's fields:
//
//   RN_BENCH_SCALE=standard ./build/bench/repro
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <set>
#include <string>

#include "baseline/fcnn.h"
#include "baseline/path_mlp.h"
#include "bench_common.h"
#include "core/trainer.h"
#include "eval/export.h"
#include "eval/metrics.h"
#include "obs/timer.h"
#include "queueing/queueing.h"
#include "sim/simulator.h"
#include "topology/generators.h"
#include "util/stats.h"

namespace {

using namespace rn;

using Predictions = std::vector<core::RouteNet::Prediction>;

Predictions predict_all(const core::RouteNet& model,
                        const std::vector<dataset::Sample>& set) {
  Predictions out;
  out.reserve(set.size());
  for (const dataset::Sample& s : set) out.push_back(model.predict(s));
  return out;
}

// Per-sample delay functor over predictions made once for `set`.
auto delays_of(const std::vector<dataset::Sample>& set,
               const Predictions& preds) {
  return [&set, &preds](const dataset::Sample& s) {
    return preds[static_cast<std::size_t>(&s - set.data())].delay_s;
  };
}

// ---- §2.1 dataset composition ---------------------------------------------

struct DatasetReport {
  const char* role;
  const char* topo_name;
  int nodes = 0;
  int links = 0;
  std::size_t samples = 0;
  std::size_t distinct_routings = 0;
  double min_util = 1.0, max_util = 0.0;
  double mean_delay_ms = 0.0;
  double mean_valid_frac = 0.0;
};

DatasetReport report_for(const char* role,
                         const std::vector<dataset::Sample>& set) {
  DatasetReport r{};
  r.role = role;
  RN_CHECK(!set.empty(), "empty dataset in report");
  r.topo_name = set.front().topology->name() == "nsfnet" ? "NSFNET"
                : set.front().topology->name() == "geant2" ? "Geant2"
                                                           : "synthetic";
  r.nodes = set.front().topology->num_nodes();
  r.links = set.front().topology->num_links();
  r.samples = set.size();
  std::set<std::size_t> routing_hashes;
  Welford delays;
  double valid_frac = 0.0;
  for (const dataset::Sample& s : set) {
    std::size_t h = 1469598103934665603ull;
    for (int idx = 0; idx < s.num_pairs(); ++idx) {
      for (int link : s.routing.path_by_index(idx)) {
        h = (h ^ static_cast<std::size_t>(link + 1)) * 1099511628211ull;
      }
    }
    routing_hashes.insert(h);
    r.min_util = std::min(r.min_util, s.max_link_utilization);
    r.max_util = std::max(r.max_util, s.max_link_utilization);
    int valid = 0;
    for (int idx = 0; idx < s.num_pairs(); ++idx) {
      if (!s.valid[static_cast<std::size_t>(idx)]) continue;
      ++valid;
      delays.add(s.delay_s[static_cast<std::size_t>(idx)]);
    }
    valid_frac += static_cast<double>(valid) / s.num_pairs();
  }
  r.distinct_routings = routing_hashes.size();
  r.mean_delay_ms = delays.mean() * 1e3;
  r.mean_valid_frac = valid_frac / static_cast<double>(set.size());
  return r;
}

// The paper: 480k training samples over NSFNET-14 and a synthetic 50-node
// topology, 120k unseen evaluation samples of those two, and 300k of
// Geant2-24. Reports the setup's own seed-101 / seed-202 corpora.
void table_datasets(const bench::ExperimentScale& scale,
                    const bench::PaperSetup& setup) {
  const dataset::GeneratorConfig gcfg = bench::paper_generator_config(scale);
  std::vector<dataset::Sample> train = bench::load_or_generate_train_set(scale);
  const auto split =
      train.begin() + static_cast<std::ptrdiff_t>(scale.train_nsfnet);
  const std::vector<dataset::Sample> train_syn50(
      std::make_move_iterator(split), std::make_move_iterator(train.end()));
  train.erase(split, train.end());

  std::printf("\n=== Dataset composition (paper 480k/120k/300k, scaled to "
              "'%s') ===\n", scale.name.c_str());
  std::printf("generator: k=%d shortest paths per pair, max-link utilization "
              "in [%.2f, %.2f], ~%.0f pkts/flow, matrix kinds "
              "{uniform, gravity, hotspot}\n\n",
              gcfg.k_paths, gcfg.min_util, gcfg.max_util,
              gcfg.target_pkts_per_flow);
  const DatasetReport rows[] = {
      report_for("train", train),
      report_for("train", train_syn50),
      report_for("eval ", setup.eval_nsfnet),
      report_for("eval ", setup.eval_syn50),
      report_for("eval*", setup.eval_geant2),
  };
  std::printf("%-6s %-10s %6s %6s %8s %9s %13s %12s %8s\n", "role", "topology",
              "nodes", "links", "samples", "routings", "util range",
              "mean delay", "valid%");
  for (const DatasetReport& r : rows) {
    std::printf("%-6s %-10s %6d %6d %8zu %9zu  [%.2f, %.2f] %9.2f ms %7.1f%%\n",
                r.role, r.topo_name, r.nodes, r.links, r.samples,
                r.distinct_routings, r.min_util, r.max_util, r.mean_delay_ms,
                100.0 * r.mean_valid_frac);
  }
  std::printf("\n(eval* = Geant2, the topology NEVER seen in training; the "
              "paper's generalization test)\n");
}

// ---- Fig. 2: regression on one unseen Geant2 scenario ----------------------

void fig2_regression(const bench::PaperSetup& setup,
                     const Predictions& geant2) {
  std::printf("\n=== Fig. 2: regression on one unseen Geant2 scenario ===\n");
  const dataset::Sample& scenario = setup.eval_geant2.front();
  const core::RouteNet::Prediction& pred = geant2.front();

  std::vector<double> truth_v, pred_v;
  for (int idx = 0; idx < scenario.num_pairs(); ++idx) {
    if (!scenario.valid[static_cast<std::size_t>(idx)]) continue;
    truth_v.push_back(scenario.delay_s[static_cast<std::size_t>(idx)]);
    pred_v.push_back(pred.delay_s[static_cast<std::size_t>(idx)]);
  }
  const eval::RegressionStats stats = eval::regression_stats(truth_v, pred_v);

  std::printf("scenario: Geant2 (24 nodes), %zu valid paths, "
              "max offered utilization %.2f\n",
              truth_v.size(), scenario.max_link_utilization);
  std::printf("\n%6s %10s %10s %8s\n", "path#", "true(ms)", "pred(ms)",
              "rel.err");
  for (std::size_t i = 0; i < truth_v.size(); i += truth_v.size() / 20 + 1) {
    std::printf("%6zu %10.3f %10.3f %+8.3f\n", i, truth_v[i] * 1e3,
                pred_v[i] * 1e3, (pred_v[i] - truth_v[i]) / truth_v[i]);
  }
  std::printf("\nPearson r = %.4f   R^2 = %.4f   MRE = %.4f   "
              "median RE = %.4f\n",
              stats.pearson_r, stats.r2, stats.mre, stats.median_re);
  const std::string csv = bench::cache_dir() + "/fig2_regression.csv";
  eval::write_regression_csv(csv, truth_v, pred_v);
  std::printf("\nfull series written to %s\n", csv.c_str());
  std::printf("\n%s\n", eval::ascii_scatter(truth_v, pred_v).c_str());
  // Where does the error live? All Geant2 eval paths, bucketed by the max
  // offered utilization along the path.
  std::printf("error vs. load (all Geant2 eval samples):\n");
  std::printf("%16s %8s %8s\n", "max path util", "paths", "MRE");
  for (const eval::UtilizationBucket& b : eval::error_by_utilization(
           setup.eval_geant2, delays_of(setup.eval_geant2, geant2))) {
    if (b.paths == 0) continue;
    std::printf("  [%.2f, %.2f) %9zu %8.3f\n", b.lo, b.hi, b.paths, b.mre);
  }
}

// ---- Fig. 3: CDF of relative error over the three evaluation sets ----------

struct EvalSet {
  const char* name;
  const std::vector<dataset::Sample>* samples;
  const Predictions* preds;
};

// Relative errors of the jitter head (valid paths with positive measured
// jitter).
std::vector<double> jitter_errors(const EvalSet& set) {
  std::vector<double> truth, pred;
  for (std::size_t i = 0; i < set.samples->size(); ++i) {
    const dataset::Sample& s = (*set.samples)[i];
    for (int idx = 0; idx < s.num_pairs(); ++idx) {
      if (!s.valid[static_cast<std::size_t>(idx)]) continue;
      const double j = s.jitter_s[static_cast<std::size_t>(idx)];
      if (j <= 0.0) continue;
      truth.push_back(j);
      pred.push_back((*set.preds)[i].jitter_s[static_cast<std::size_t>(idx)]);
    }
  }
  return eval::relative_errors(truth, pred);
}

void fig3_error_cdf(const std::vector<EvalSet>& sets) {
  std::printf("\n=== Fig. 3: CDF of relative error over the three "
              "evaluation sets ===\n");
  std::printf("\n%-28s %7s %8s %8s %8s %8s %8s %7s\n", "evaluation set",
              "paths", "p10", "p25", "p50", "p75", "p90", "MRE");
  std::vector<eval::NamedCdf> cdfs;
  for (const EvalSet& set : sets) {
    const eval::PairedSeries series = eval::collect_delay_pairs(
        *set.samples, delays_of(*set.samples, *set.preds));
    const std::vector<double> errs =
        eval::relative_errors(series.truth, series.pred);
    std::printf("%-28s %7zu %+8.3f %+8.3f %+8.3f %+8.3f %+8.3f %7.3f\n",
                set.name, errs.size(), quantile(errs, 0.10),
                quantile(errs, 0.25), quantile(errs, 0.50),
                quantile(errs, 0.75), quantile(errs, 0.90),
                eval::regression_stats(series.truth, series.pred).mre);
    cdfs.push_back({set.name, eval::empirical_cdf(errs, 101)});
  }
  const std::string csv = bench::cache_dir() + "/fig3_error_cdf.csv";
  eval::write_cdf_csv(csv, cdfs);
  std::printf("\nfull CDFs written to %s\n", csv.c_str());
  std::printf("\n%s\n", eval::ascii_cdf(cdfs).c_str());

  // The model estimates jitter in the same forward pass (the paper's model
  // is a "delay and jitter" estimator); report its error quantiles too.
  std::printf("--- jitter head (same model, same pass) ---\n");
  std::printf("%-28s %8s %8s %8s\n", "evaluation set", "p25", "p50", "p75");
  for (const EvalSet& set : sets) {
    const std::vector<double> errs = jitter_errors(set);
    std::printf("%-28s %+8.3f %+8.3f %+8.3f\n", set.name, quantile(errs, 0.25),
                quantile(errs, 0.50), quantile(errs, 0.75));
  }
}

// ---- Fig. 4: Top-10 paths with more delay ----------------------------------

// The paper demos RouteNet for network visibility: rank the paths of a live
// scenario by predicted delay. "Did the model flag the right paths?" is the
// overlap with the simulator's own Top-10.
void fig4_top_paths(const bench::PaperSetup& setup,
                    const Predictions& geant2) {
  std::printf("\n=== Fig. 4: Top-10 paths with more delay (Geant2 "
              "scenario) ===\n");
  const dataset::Sample& scenario = setup.eval_geant2.back();
  const std::vector<eval::RankedPath> top =
      eval::top_n_paths(scenario, geant2.back().delay_s, 10);

  std::printf("\n%4s %9s %5s %14s %14s\n", "rank", "path", "hops",
              "pred delay(ms)", "sim delay(ms)");
  for (std::size_t i = 0; i < top.size(); ++i) {
    std::printf("%4zu %4d->%-4d %5d %14.3f %14.3f\n", i + 1, top[i].src,
                top[i].dst, top[i].hops, top[i].predicted_delay_s * 1e3,
                top[i].true_delay_s * 1e3);
  }

  std::vector<double> truth;
  for (int idx = 0; idx < scenario.num_pairs(); ++idx) {
    truth.push_back(scenario.valid[static_cast<std::size_t>(idx)]
                        ? scenario.delay_s[static_cast<std::size_t>(idx)]
                        : 0.0);
  }
  std::set<std::pair<int, int>> true_set;
  for (const eval::RankedPath& p : eval::top_n_paths(scenario, truth, 10)) {
    true_set.insert({p.src, p.dst});
  }
  int overlap = 0;
  for (const eval::RankedPath& p : top) {
    overlap += static_cast<int>(true_set.count({p.src, p.dst}));
  }
  std::printf("\nTop-10 overlap with simulator ground truth: %d/10\n",
              overlap);
  const std::string csv = bench::cache_dir() + "/fig4_top_paths.csv";
  eval::write_top_paths_csv(csv, top);
  std::printf("table written to %s\n", csv.c_str());
}

// ---- Side studies: train NSFNET-14, evaluate on the unseen GBN-17 ----------

struct SideStudyData {
  std::vector<dataset::Sample> train;  // NSFNET
  std::vector<dataset::Sample> eval;   // GBN
};

SideStudyData side_study_data(const bench::ExperimentScale& scale,
                              std::uint64_t seed) {
  dataset::GeneratorConfig gcfg = bench::paper_generator_config(scale);
  gcfg.target_pkts_per_flow = scale.sweep_pkts_per_flow;
  dataset::DatasetGenerator gen(gcfg, seed);
  std::printf("generating %d NSFNET train + %d GBN eval scenarios...\n",
              scale.sweep.train, scale.sweep.eval);
  SideStudyData data;
  data.train = gen.generate_many(bench::nsfnet_topology(), scale.sweep.train);
  data.eval = gen.generate_many(
      std::make_shared<const topo::Topology>(topo::gbn()), scale.sweep.eval);
  return data;
}

// §2.1: "we optimize a set of hyperparameters to adapt the model to
// scenarios with larger topologies". Sweeps state dimension, message-passing
// iterations T and learning rate.
void table_hyperparams(const bench::ExperimentScale& scale) {
  std::printf("\n=== Hyperparameter sweep (train NSFNET-14, eval GBN-17 "
              "unseen) ===\n");
  const SideStudyData data = side_study_data(scale, 31);
  struct SweepPoint {
    int state_dim;
    int iterations;
    float lr;
  };
  const SweepPoint sweep[] = {
      {8, 4, 4e-3f},  {16, 1, 4e-3f}, {16, 2, 4e-3f}, {16, 4, 4e-3f},
      {16, 8, 4e-3f}, {32, 8, 4e-3f}, {32, 8, 1e-3f}, {32, 8, 1e-2f},
  };
  std::printf("%10s %6s %9s %12s %12s %10s\n", "state dim", "T", "lr",
              "train loss", "eval MRE", "params");
  for (const SweepPoint& pt : sweep) {
    core::RouteNetConfig mcfg;
    mcfg.link_state_dim = pt.state_dim;
    mcfg.path_state_dim = pt.state_dim;
    mcfg.iterations = pt.iterations;
    mcfg.readout_hidden = 2 * pt.state_dim;
    core::RouteNet model(mcfg);
    core::TrainConfig tcfg;
    tcfg.epochs = scale.sweep.epochs;
    tcfg.batch_size = 4;
    tcfg.learning_rate = pt.lr;
    core::Trainer trainer(model, tcfg);
    const core::TrainReport report = trainer.fit(data.train);
    std::printf("%10d %6d %9.0e %12.5f %12.4f %10zu\n", pt.state_dim,
                pt.iterations, static_cast<double>(pt.lr),
                report.final_train_loss,
                core::Trainer::evaluate_delay_mre(model, data.eval),
                model.num_parameters());
    std::fflush(stdout);
  }
}

// DESIGN.md's key design choices: sum (reference RouteNet) vs mean link
// aggregation, and log z-score vs raw-seconds z-score targets.
void ablation_design(const bench::ExperimentScale& scale) {
  std::printf("\n=== Design ablations (train NSFNET-14, eval GBN-17 "
              "unseen) ===\n");
  const SideStudyData data = side_study_data(scale, 41);
  struct Variant {
    const char* name;
    core::Aggregation aggregation;
    bool log_targets;
  };
  const Variant variants[] = {
      {"sum aggregation + log targets (reference)", core::Aggregation::kSum,
       true},
      {"mean aggregation + log targets", core::Aggregation::kMean, true},
      {"sum aggregation + linear targets", core::Aggregation::kSum, false},
      {"mean aggregation + linear targets", core::Aggregation::kMean, false},
  };
  std::printf("%-44s %12s %12s %12s\n", "variant", "train loss", "seen MRE",
              "unseen MRE");
  for (const Variant& v : variants) {
    core::RouteNetConfig mcfg;
    mcfg.link_state_dim = 16;
    mcfg.path_state_dim = 16;
    mcfg.iterations = 4;
    mcfg.readout_hidden = 32;
    mcfg.aggregation = v.aggregation;
    core::RouteNet model(mcfg);
    core::TrainConfig tcfg;
    tcfg.epochs = scale.sweep.epochs;
    tcfg.batch_size = 4;
    tcfg.learning_rate = 4e-3f;
    tcfg.log_space_targets = v.log_targets;
    core::Trainer trainer(model, tcfg);
    const core::TrainReport report = trainer.fit(data.train);
    std::printf("%-44s %12.5f %12.4f %12.4f\n", v.name,
                report.final_train_loss,
                core::Trainer::evaluate_delay_mre(model, data.train),
                core::Trainer::evaluate_delay_mre(model, data.eval));
    std::fflush(stdout);
  }
}

// ---- §1 baseline contrast ---------------------------------------------------

double queueing_mre(const std::vector<dataset::Sample>& samples,
                    const traffic::TrafficModel& assumed_model) {
  const queueing::QueueingPredictor predictor{assumed_model};
  double total = 0.0;
  std::size_t count = 0;
  for (const dataset::Sample& s : samples) {
    const queueing::AnalyticPrediction pred =
        predictor.predict(*s.topology, s.routing, s.tm);
    for (int idx = 0; idx < s.num_pairs(); ++idx) {
      if (!s.valid[static_cast<std::size_t>(idx)]) continue;
      const double truth = s.delay_s[static_cast<std::size_t>(idx)];
      total += std::abs(pred.delay_s[static_cast<std::size_t>(idx)] - truth) /
               truth;
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

// "Analytic models (e.g., Queuing Theory) fail ... with complex
// configurations (e.g., real traffic distributions)", and "early ML-based
// attempts [fully-connected NNs] did not fulfill expectations". Heavy-tailed
// sizes and bursty ON/OFF arrivals break the Poisson-assumption ("naive")
// M/G/1; an M/G/1 told the true size moments ("informed") still assumes
// Poisson arrivals and independent links. The FCNN cannot accept another
// topology size at all.
void baseline_comparison(const bench::ExperimentScale& scale) {
  struct TrafficCase {
    const char* label;
    traffic::TrafficModel model;
  };
  std::vector<TrafficCase> cases;
  cases.push_back({"Poisson + exponential sizes", traffic::TrafficModel{}});
  {
    traffic::TrafficModel m;
    m.arrivals = traffic::ArrivalProcess::kOnOff;
    m.on_fraction = 0.3;
    m.mean_on_s = 0.5;
    m.sizes = traffic::PacketSizeModel::kBimodal;
    cases.push_back({"bursty ON/OFF + bimodal sizes", m});
  }
  {
    traffic::TrafficModel m;
    m.sizes = traffic::PacketSizeModel::kTruncatedPareto;
    m.pareto_alpha = 1.2;
    m.pareto_max_factor = 200.0;
    cases.push_back({"heavy-tailed Pareto sizes", m});
  }

  const bench::StudySize& size = scale.baseline;
  std::printf("\n=== Baseline comparison: delay MRE (lower is better) ===\n\n");
  std::printf("%-46s %9s %11s %11s %9s %8s\n", "scenario", "RouteNet",
              "M/G/1 naive", "M/G/1 true", "PathMLP", "FCNN");
  std::uint64_t seed = 60;
  for (const TrafficCase& tc : cases) {
    dataset::GeneratorConfig gcfg;
    gcfg.target_pkts_per_flow = scale.pkts_per_flow;
    gcfg.warmup_s = 1.0;
    gcfg.min_delivered = 10;
    gcfg.max_util = 0.7;
    gcfg.model = tc.model;
    dataset::DatasetGenerator gen(gcfg, seed++);
    const std::vector<dataset::Sample> train =
        gen.generate_many(bench::nsfnet_topology(), size.train);
    const std::vector<dataset::Sample> eval_seen =
        gen.generate_many(bench::nsfnet_topology(), size.eval);
    const std::vector<dataset::Sample> eval_unseen =
        gen.generate_many(bench::geant2_topology(), size.eval);

    core::RouteNet model(bench::paper_model_config());
    core::TrainConfig tcfg;
    tcfg.epochs = size.epochs;
    tcfg.batch_size = 4;
    tcfg.learning_rate = 4e-3f;
    core::Trainer trainer(model, tcfg);
    trainer.fit(train);

    baseline::FcnnConfig fcfg;
    fcfg.epochs = size.epochs * 2;
    baseline::FcnnBaseline fcnn(train.front().num_pairs(), fcfg);
    fcnn.fit(train);

    baseline::PathMlpConfig pcfg;
    pcfg.epochs = size.epochs * 2;
    baseline::PathMlpBaseline path_mlp(pcfg);
    path_mlp.fit(train);

    const traffic::TrafficModel naive{};
    for (const bool seen : {true, false}) {
      const std::vector<dataset::Sample>& set = seen ? eval_seen : eval_unseen;
      char fcnn_mre[16] = "n/a*";
      if (seen) {
        std::snprintf(fcnn_mre, sizeof(fcnn_mre), "%.3f",
                      fcnn.evaluate_delay_mre(set));
      }
      std::printf("%-46s %9.3f %11.3f %11.3f %9.3f %8s\n",
                  (std::string(seen ? "NSFNET (seen)" : "Geant2 (unseen)") +
                   ", " + tc.label)
                      .c_str(),
                  core::Trainer::evaluate_delay_mre(model, set),
                  queueing_mre(set, naive), queueing_mre(set, tc.model),
                  path_mlp.evaluate_delay_mre(set), fcnn_mre);
      std::fflush(stdout);
    }
  }
  std::printf("\n*the FCNN's fixed-width input cannot encode a different "
              "topology size at all — the architectural limitation the "
              "paper contrasts RouteNet against.\n");
}

// ---- §1 cost: GNN inference vs. packet simulation vs. analytic -------------

// Median wall time in ms over `reps` calls of fn.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const obs::Stopwatch watch;
    fn();
    ms.push_back(watch.elapsed_s() * 1e3);
  }
  return quantile(ms, 0.5);
}

dataset::Sample cost_scenario(std::shared_ptr<const topo::Topology> topology,
                              std::uint64_t seed) {
  Rng rng(seed);
  routing::RoutingScheme scheme =
      routing::random_k_shortest_routing(*topology, 3, rng);
  traffic::TrafficMatrix tm =
      traffic::uniform_traffic(topology->num_nodes(), 50.0, 150.0, rng);
  traffic::scale_to_max_utilization(tm, *topology, scheme, 0.6);
  return dataset::make_inference_sample(std::move(topology), std::move(scheme),
                                        std::move(tm));
}

// "Packet-level simulators produce accurate KPI predictions at the expense
// of high computational cost". The simulator runs at the datasets' fidelity
// and at 10x it; GNN inference cost does not depend on that knob.
void cost_inference_vs_sim(const bench::ExperimentScale& scale,
                           const core::RouteNet& model) {
  const int reps = scale.timing_reps;
  const double pkts_per_flow[] = {scale.pkts_per_flow,
                                  10.0 * scale.pkts_per_flow};
  const struct {
    const char* name;
    dataset::Sample sample;
  } scenarios[] = {
      {"NSFNET-14", cost_scenario(bench::nsfnet_topology(), 1)},
      {"Geant2-24", cost_scenario(bench::geant2_topology(), 2)},
      {"synthetic-50", cost_scenario(bench::syn50_topology(), 3)},
  };
  std::printf("\n=== Cost per scenario: RouteNet vs. packet simulator vs. "
              "M/G/1 (median of %d, ms) ===\n", reps);
  std::printf("%-14s %10s %12s %12s %10s %14s\n", "scenario", "RouteNet",
              ("sim@" + std::to_string(static_cast<int>(pkts_per_flow[0])))
                  .c_str(),
              ("sim@" + std::to_string(static_cast<int>(pkts_per_flow[1])))
                  .c_str(),
              "analytic", "sim events/s");
  const queueing::QueueingPredictor analytic{traffic::TrafficModel{}};
  for (const auto& [name, s] : scenarios) {
    const double infer_ms = median_ms(reps, [&] { model.predict(s); });
    double sim_ms[2];
    double events_per_s = 0.0;  // of the last run at 10x fidelity
    for (int f = 0; f < 2; ++f) {
      sim::SimConfig cfg;
      cfg.warmup_s = 1.0;
      cfg.horizon_s = sim::horizon_for_target_packets(
          s.tm, cfg.model, cfg.warmup_s, pkts_per_flow[f]);
      const sim::PacketSimulator simulator(cfg);
      sim_ms[f] = median_ms(reps, [&] {
        events_per_s =
            simulator.run(*s.topology, s.routing, s.tm).events_per_wall_s;
      });
    }
    const double analytic_ms = median_ms(
        reps, [&] { analytic.predict(*s.topology, s.routing, s.tm); });
    std::printf("%-14s %10.3f %12.2f %12.2f %10.4f %14.3g\n", name, infer_ms,
                sim_ms[0], sim_ms[1], analytic_ms, events_per_s);
  }

  // Inference cost by message-passing iterations T.
  const dataset::Sample& geant2 = scenarios[1].sample;
  std::printf("\nRouteNet inference by message-passing iterations "
              "(Geant2-24, median of %d, ms):\n", reps);
  std::printf("%4s %10s\n", "T", "predict");
  for (const int t : {1, 2, 4, 8}) {
    core::RouteNetConfig cfg = bench::paper_model_config();
    cfg.iterations = t;
    core::RouteNet variant(cfg);
    variant.set_normalizer(model.normalizer());
    std::printf("%4d %10.3f\n", t,
                median_ms(reps, [&] { variant.predict(geant2); }));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_bench_telemetry(argc, argv);
  const bench::ExperimentScale scale = bench::scale_from_env();
  const bench::PaperSetup setup = bench::load_or_train_paper_setup(scale);

  table_datasets(scale, setup);
  const Predictions nsfnet = predict_all(setup.model, setup.eval_nsfnet);
  const Predictions syn50 = predict_all(setup.model, setup.eval_syn50);
  const Predictions geant2 = predict_all(setup.model, setup.eval_geant2);
  fig2_regression(setup, geant2);
  fig3_error_cdf({{"NSFNET-14 (seen size)", &setup.eval_nsfnet, &nsfnet},
                  {"synthetic-50 (seen size)", &setup.eval_syn50, &syn50},
                  {"Geant2-24 (UNSEEN topology)", &setup.eval_geant2,
                   &geant2}});
  fig4_top_paths(setup, geant2);
  table_hyperparams(scale);
  ablation_design(scale);
  baseline_comparison(scale);
  cost_inference_vs_sim(scale, setup.model);
  bench::finish_bench_telemetry("repro", scale);
  return 0;
}
