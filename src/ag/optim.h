// Adam over a Parameter set, plus gradient clipping.
#pragma once

#include <vector>

#include "ag/tape.h"

namespace rn::ag {

// Adam (Kingma & Ba) with bias correction — the optimizer RouteNet trains
// with in the reference implementation.
class Adam {
 public:
  Adam(std::vector<Parameter*> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  // Applies one update from the accumulated gradients.
  void step();

  void zero_grad();

  const std::vector<Parameter*>& params() const { return params_; }

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }
  long step_count() const { return t_; }

  // Serializable state: first/second moments aligned with params(), plus
  // the step count driving bias correction. Restoring them makes the next
  // step() bitwise identical to an optimizer that was never serialized.
  const std::vector<Tensor>& moments_m() const { return m_; }
  const std::vector<Tensor>& moments_v() const { return v_; }
  void set_state(long step_count, std::vector<Tensor> m,
                 std::vector<Tensor> v);

 private:
  std::vector<Parameter*> params_;
  float lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  std::vector<Tensor> m_, v_;
};

// Scales all gradients so their global L2 norm is at most max_norm.
// Returns the pre-clip norm.
double clip_grad_norm(const std::vector<Parameter*>& params, double max_norm);

}  // namespace rn::ag
