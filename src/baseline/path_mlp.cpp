#include "baseline/path_mlp.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "ag/optim.h"
#include "traffic/traffic.h"

namespace rn::baseline {

namespace {
// Utilizations are clipped here before entering 1/(1−ρ)-style features;
// offered load can exceed capacity in generated scenarios.
constexpr double kRhoCap = 0.95;
}  // namespace

PathMlpBaseline::PathMlpBaseline(const PathMlpConfig& config)
    : cfg_(config),
      init_rng_(config.seed),
      mlp_({kNumFeatures, config.hidden1, config.hidden2, 1}, init_rng_,
           "path_mlp") {}

void PathMlpBaseline::fill_features(const dataset::Sample& sample,
                                    const std::vector<double>& link_loads,
                                    int pair_idx, float* row) const {
  const topo::Topology& topo = *sample.topology;
  const routing::Path& path = sample.routing.path_by_index(pair_idx);
  const double traffic = sample.tm.rate_by_index(pair_idx);

  double sum_inv_cap = 0.0;      // Σ 1/cap — transmission time per bit
  double min_cap = 1e300;
  double sum_rho = 0.0;
  double max_rho = 0.0;
  double sum_mm1_wait = 0.0;     // Σ ρ/(cap·(1−ρ)) — M/M/1-ish waiting hint
  for (topo::LinkId id : path) {
    const double cap = topo.link(id).capacity_bps;
    const double rho = std::min(
        kRhoCap, link_loads[static_cast<std::size_t>(id)] / cap);
    sum_inv_cap += 1.0 / cap;
    min_cap = std::min(min_cap, cap);
    sum_rho += rho;
    max_rho = std::max(max_rho, rho);
    sum_mm1_wait += rho / (cap * (1.0 - rho));
  }
  const auto hops = static_cast<double>(path.size());
  // Scales chosen so every feature is O(1) for the library's usual
  // capacity range (10–40 kbps) and topology sizes.
  row[0] = static_cast<float>(hops / 4.0);
  row[1] = static_cast<float>(traffic * norm_.traffic_scale);
  row[2] = static_cast<float>(sum_inv_cap * 1.0e4);
  row[3] = static_cast<float>(min_cap * norm_.capacity_scale);
  row[4] = static_cast<float>(sum_rho / std::max(1.0, hops));
  row[5] = static_cast<float>(max_rho);
  row[6] = static_cast<float>(sum_mm1_wait * 1.0e3);
  row[7] = static_cast<float>(std::log1p(sum_mm1_wait * 1.0e4));
}

void PathMlpBaseline::fit(const std::vector<dataset::Sample>& train) {
  RN_CHECK(!train.empty(), "empty training set");
  norm_ = dataset::fit_normalizer(train);

  // Flatten all valid paths of all samples into one row matrix.
  std::vector<float> features;
  std::vector<float> targets;
  for (const dataset::Sample& s : train) {
    const std::vector<double> loads =
        traffic::link_loads_bps(*s.topology, s.routing, s.tm);
    for (int idx = 0; idx < s.num_pairs(); ++idx) {
      if (!s.valid[static_cast<std::size_t>(idx)]) continue;
      float row[kNumFeatures];
      fill_features(s, loads, idx, row);
      features.insert(features.end(), row, row + kNumFeatures);
      targets.push_back(static_cast<float>(
          norm_.normalize_delay(s.delay_s[static_cast<std::size_t>(idx)])));
    }
  }
  const int total_rows = static_cast<int>(targets.size());
  RN_CHECK(total_rows > 0, "no valid paths in training set");

  ag::Adam optimizer(mlp_.params(), cfg_.learning_rate);
  Rng shuffle_rng(cfg_.seed ^ 0xd1b54a32d192ed03ull);
  std::vector<int> order(static_cast<std::size_t>(total_rows));
  for (int i = 0; i < total_rows; ++i) {
    order[static_cast<std::size_t>(i)] = i;
  }

  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          shuffle_rng.uniform_int(0, static_cast<int>(i) - 1));
      std::swap(order[i - 1], order[j]);
    }
    double loss_sum = 0.0;
    int batches = 0;
    for (int start = 0; start < total_rows; start += cfg_.batch_rows) {
      const int rows = std::min(cfg_.batch_rows, total_rows - start);
      ag::Tensor x(rows, kNumFeatures);
      ag::Tensor y(rows, 1);
      for (int r = 0; r < rows; ++r) {
        const int src_row = order[static_cast<std::size_t>(start + r)];
        for (int c = 0; c < kNumFeatures; ++c) {
          x.at(r, c) =
              features[static_cast<std::size_t>(src_row) * kNumFeatures +
                       static_cast<std::size_t>(c)];
        }
        y.at(r, 0) = targets[static_cast<std::size_t>(src_row)];
      }
      ag::Tape tape;
      const ag::ValueId loss =
          tape.mse(mlp_.apply(tape, tape.constant(x)), y);
      optimizer.zero_grad();
      tape.backward(loss);
      ag::clip_grad_norm(optimizer.params(), cfg_.clip_norm);
      optimizer.step();
      loss_sum += tape.value(loss).at(0, 0);
      ++batches;
    }
    if (cfg_.verbose) {
      std::printf("path_mlp epoch %3d  loss %.5f\n", epoch,
                  batches > 0 ? loss_sum / batches : 0.0);
      std::fflush(stdout);
    }
    optimizer.set_lr(optimizer.lr() * cfg_.lr_decay);
  }
}

std::vector<double> PathMlpBaseline::predict_delay(
    const dataset::Sample& sample) const {
  const std::vector<double> loads =
      traffic::link_loads_bps(*sample.topology, sample.routing, sample.tm);
  const int pairs = sample.num_pairs();
  ag::Tensor x(pairs, kNumFeatures);
  for (int idx = 0; idx < pairs; ++idx) {
    fill_features(sample, loads, idx, x.row(idx));
  }
  ag::Tape tape(ag::TapeMode::kForwardOnly);
  const ag::ValueId pred = mlp_.apply(tape, tape.constant(x));
  const ag::Tensor& y = tape.value(pred);
  std::vector<double> out(static_cast<std::size_t>(pairs));
  for (int idx = 0; idx < pairs; ++idx) {
    out[static_cast<std::size_t>(idx)] = norm_.denormalize_delay(y.at(idx, 0));
  }
  return out;
}

double PathMlpBaseline::evaluate_delay_mre(
    const std::vector<dataset::Sample>& samples) const {
  double total = 0.0;
  std::size_t count = 0;
  for (const dataset::Sample& s : samples) {
    const std::vector<double> pred = predict_delay(s);
    for (int idx = 0; idx < s.num_pairs(); ++idx) {
      if (!s.valid[static_cast<std::size_t>(idx)]) continue;
      const double truth = s.delay_s[static_cast<std::size_t>(idx)];
      total += std::abs(pred[static_cast<std::size_t>(idx)] - truth) / truth;
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

std::size_t PathMlpBaseline::num_parameters() const {
  std::size_t total = 0;
  for (ag::Parameter* p : mlp_.params()) {
    total += static_cast<std::size_t>(p->value.size());
  }
  return total;
}

}  // namespace rn::baseline
