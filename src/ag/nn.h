// Neural-network building blocks on top of the autodiff tape: dense layers,
// GRU cells (RouteNet's path/link update functions), and MLPs (the readout).
#pragma once

#include <string>
#include <vector>

#include "ag/tape.h"
#include "util/rng.h"

namespace rn::ag {

enum class Activation { kNone, kRelu, kSigmoid, kTanh };

// Fully-connected layer: y = act(x W + b), W is in×out.
class Dense {
 public:
  Dense(int in_dim, int out_dim, Activation act, Rng& rng,
        const std::string& name);

  // Releases its intermediate product and pre-activation; x stays live.
  ValueId apply(Tape& tape, ValueId x) const;

  int in_dim() const { return w_.value.rows(); }
  int out_dim() const { return w_.value.cols(); }

  std::vector<Parameter*> params();

 private:
  mutable Parameter w_;
  mutable Parameter b_;
  Activation act_;
};

// Gated recurrent unit cell operating on row-batches:
//   z  = σ(x Wz + h Uz + bz)
//   r  = σ(x Wr + h Ur + br)
//   h~ = tanh(x Wh + (r∘h) Uh + bh)
//   h' = (1−z)∘h + z∘h~
// RouteNet uses one GRU as the path-update RNN (x = link state, h = path
// state) and another as the link-update function (x = aggregated messages,
// h = link state).
class GruCell {
 public:
  GruCell(int input_dim, int hidden_dim, Rng& rng, const std::string& name);

  // x: N×input_dim, h: N×hidden_dim → new hidden N×hidden_dim. Records one
  // fused gru_step node, bitwise identical in value to
  // composed_gru_step().
  ValueId step(Tape& tape, ValueId x, ValueId h) const;

  // The input projections x_src·Wz, x_src·Wr, x_src·Wh, recorded once per
  // x_src value as one node and handed to every Tape::gru_step_gathered
  // that reads it: one fused gru_step node per call, with x = x_src[x_idx]
  // and h = h_src[h_idx], whose x-side gate terms are the x_idx rows of the
  // projection. RouteNet's per-hop path update. Release the projection's
  // id() once its last step has run.
  GruProjection project(Tape& tape, ValueId x_src) const;

  // The cell's nine parameters as fused-op references.
  GruWeights weights() const;

  int input_dim() const { return wz_.value.rows(); }
  int hidden_dim() const { return wz_.value.cols(); }

  std::vector<Parameter*> params();

 private:
  mutable Parameter wz_, uz_, bz_;
  mutable Parameter wr_, ur_, br_;
  mutable Parameter wh_, uh_, bh_;
};

// The GRU step above written as ~20 primitive tape ops (matmul, add_bias,
// sigmoid, tanh, mul, one_minus, add). The reference the fused gru_step op
// is tested and benchmarked against, bitwise in the forward pass; no model
// path calls it.
ValueId composed_gru_step(Tape& tape, ValueId x, ValueId h,
                          const GruWeights& w);

// Multi-layer perceptron; hidden layers use ReLU, final layer is linear
// unless an output activation is requested.
class Mlp {
 public:
  // dims = {in, h1, ..., out}.
  Mlp(const std::vector<int>& dims, Rng& rng, const std::string& name,
      Activation output_act = Activation::kNone);

  // Releases every hidden activation once the next layer has read it; x
  // and the returned output stay live.
  ValueId apply(Tape& tape, ValueId x) const;

  int in_dim() const;
  int out_dim() const;

  std::vector<Parameter*> params();

 private:
  std::vector<Dense> layers_;
};

}  // namespace rn::ag
