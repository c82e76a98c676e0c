#include "baseline/fcnn.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "ag/optim.h"

namespace rn::baseline {

FcnnBaseline::FcnnBaseline(int num_pairs, const FcnnConfig& config)
    : num_pairs_(num_pairs),
      cfg_(config),
      init_rng_(config.seed),
      mlp_({2 * num_pairs, config.hidden1, config.hidden2, num_pairs},
           init_rng_, "fcnn") {
  RN_CHECK(num_pairs >= 1, "num_pairs must be positive");
}

ag::Tensor FcnnBaseline::encode(const dataset::Sample& sample) const {
  RN_CHECK(sample.num_pairs() == num_pairs_,
           "sample does not match the baseline's fixed input width");
  ag::Tensor x(1, 2 * num_pairs_);
  for (int idx = 0; idx < num_pairs_; ++idx) {
    x.at(0, idx) = static_cast<float>(sample.tm.rate_by_index(idx) *
                                      norm_.traffic_scale);
    // Path length in hops, mildly scaled — the only routing signal a
    // fixed-width encoding can carry.
    x.at(0, num_pairs_ + idx) = static_cast<float>(
        static_cast<double>(sample.routing.path_by_index(idx).size()) / 4.0);
  }
  return x;
}

void FcnnBaseline::fit(const std::vector<dataset::Sample>& train) {
  RN_CHECK(!train.empty(), "empty training set");
  norm_ = dataset::fit_normalizer(train);

  ag::Adam optimizer(mlp_.params(), cfg_.learning_rate);
  Rng shuffle_rng(cfg_.seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<int> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }

  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          shuffle_rng.uniform_int(0, static_cast<int>(i) - 1));
      std::swap(order[i - 1], order[j]);
    }
    double loss_sum = 0.0;
    int batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += static_cast<std::size_t>(cfg_.batch_size)) {
      const std::size_t end = std::min(
          order.size(), start + static_cast<std::size_t>(cfg_.batch_size));
      const int rows = static_cast<int>(end - start);
      ag::Tensor x(rows, 2 * num_pairs_);
      ag::Tensor target(rows, num_pairs_);
      ag::Tensor mask(rows, num_pairs_);
      for (int r = 0; r < rows; ++r) {
        const dataset::Sample& s =
            train[static_cast<std::size_t>(order[start + static_cast<std::size_t>(r)])];
        const ag::Tensor enc = encode(s);
        for (int c = 0; c < enc.cols(); ++c) x.at(r, c) = enc.at(0, c);
        for (int idx = 0; idx < num_pairs_; ++idx) {
          if (s.valid[static_cast<std::size_t>(idx)]) {
            target.at(r, idx) = static_cast<float>(norm_.normalize_delay(
                s.delay_s[static_cast<std::size_t>(idx)]));
            mask.at(r, idx) = 1.0f;
          }
        }
      }
      ag::Tape tape;
      const ag::ValueId pred = mlp_.apply(tape, tape.constant(x));
      // Masked MSE: invalid entries contribute zero residual.
      const ag::ValueId diff =
          tape.mul(tape.sub(pred, tape.constant(target)), tape.constant(mask));
      const ag::ValueId loss = tape.reduce_mean(tape.mul(diff, diff));
      optimizer.zero_grad();
      tape.backward(loss);
      ag::clip_grad_norm(optimizer.params(), cfg_.clip_norm);
      optimizer.step();
      loss_sum += tape.value(loss).at(0, 0);
      ++batches;
    }
    if (cfg_.verbose) {
      std::printf("fcnn epoch %3d  loss %.5f\n", epoch,
                  batches > 0 ? loss_sum / batches : 0.0);
      std::fflush(stdout);
    }
    optimizer.set_lr(optimizer.lr() * cfg_.lr_decay);
  }
}

std::vector<double> FcnnBaseline::predict_delay(
    const dataset::Sample& sample) const {
  ag::Tape tape(ag::TapeMode::kForwardOnly);
  const ag::ValueId pred = mlp_.apply(tape, tape.constant(encode(sample)));
  const ag::Tensor& y = tape.value(pred);
  std::vector<double> out(static_cast<std::size_t>(num_pairs_));
  for (int idx = 0; idx < num_pairs_; ++idx) {
    out[static_cast<std::size_t>(idx)] = norm_.denormalize_delay(y.at(0, idx));
  }
  return out;
}

double FcnnBaseline::evaluate_delay_mre(
    const std::vector<dataset::Sample>& samples) const {
  double total = 0.0;
  std::size_t count = 0;
  for (const dataset::Sample& s : samples) {
    const std::vector<double> pred = predict_delay(s);
    for (int idx = 0; idx < num_pairs_; ++idx) {
      if (!s.valid[static_cast<std::size_t>(idx)]) continue;
      const double truth = s.delay_s[static_cast<std::size_t>(idx)];
      total += std::abs(pred[static_cast<std::size_t>(idx)] - truth) / truth;
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

std::size_t FcnnBaseline::num_parameters() const {
  std::size_t total = 0;
  for (ag::Parameter* p : mlp_.params()) {
    total += static_cast<std::size_t>(p->value.size());
  }
  return total;
}

}  // namespace rn::baseline
