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

  // x: N×input_dim, h: N×hidden_dim → new hidden N×hidden_dim. Records the
  // single fused gru_step node when fused_gru_enabled(), the composed
  // ~20-node expression otherwise; both produce bitwise-identical values.
  ValueId step(Tape& tape, ValueId x, ValueId h) const;

  // step() with both inputs gathered from row-state tensors:
  // x = x_src[x_idx], h = h_src[h_idx]. The fused path folds the gathers
  // into the gru_step node; the composed path records explicit
  // gather_rows ops. RouteNet's per-hop path update. The indices are
  // borrowed for the call.
  ValueId step_gathered(Tape& tape, ValueId x_src,
                        const std::vector<int>& x_idx, ValueId h_src,
                        const std::vector<int>& h_idx) const;

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

// Fused GRU is on unless RN_FUSED_GRU=0 (read once at first use); the
// setter is the programmatic/test seam for A/B-ing fused vs composed.
bool fused_gru_enabled();
void set_fused_gru(bool enabled);

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
