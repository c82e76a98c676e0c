#include "ag/optim.h"

#include <cmath>

#include "obs/trace.h"

namespace rn::ag {

Adam::Adam(std::vector<Parameter*> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  RN_CHECK(lr > 0.0f, "learning rate must be positive");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    RN_CHECK(p != nullptr, "null Parameter handed to Adam");
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::zero_grad() {
  for (Parameter* p : params_) p->zero_grad();
}

void Adam::set_state(long step_count, std::vector<Tensor> m,
                     std::vector<Tensor> v) {
  RN_CHECK(step_count >= 0, "Adam step count cannot be negative");
  RN_CHECK(m.size() == params_.size() && v.size() == params_.size(),
           "Adam state has " + std::to_string(m.size()) + "/" +
               std::to_string(v.size()) + " moment tensors for " +
               std::to_string(params_.size()) + " parameters");
  for (std::size_t i = 0; i < params_.size(); ++i) {
    RN_CHECK(m[i].same_shape(params_[i]->value) &&
                 v[i].same_shape(params_[i]->value),
             "Adam moment shape mismatch for parameter '" +
                 params_[i]->name + "'");
  }
  t_ = step_count;
  m_ = std::move(m);
  v_ = std::move(v);
}

void Adam::step() {
  obs::TraceSpan span("ag.adam_step");
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    const int n = p.value.size();
    for (int j = 0; j < n; ++j) {
      auto k = static_cast<std::size_t>(j);
      const float g = p.grad[k];
      m[k] = beta1_ * m[k] + (1.0f - beta1_) * g;
      v[k] = beta2_ * v[k] + (1.0f - beta2_) * g * g;
      const float mhat = m[k] / bc1;
      const float vhat = v[k] / bc2;
      p.value[k] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

double clip_grad_norm(const std::vector<Parameter*>& params, double max_norm) {
  RN_CHECK(max_norm > 0.0, "max_norm must be positive");
  double sq = 0.0;
  for (const Parameter* p : params) sq += p->grad.squared_norm();
  const double norm = std::sqrt(sq);
  if (norm > max_norm) {
    const float s = static_cast<float>(max_norm / norm);
    for (Parameter* p : params) p->grad.scale(s);
  }
  return norm;
}

}  // namespace rn::ag
