#include "ag/nn.h"

#include "ag/init.h"

namespace rn::ag {

Dense::Dense(int in_dim, int out_dim, Activation act, Rng& rng,
             const std::string& name)
    : w_(name + ".w", act == Activation::kRelu
                          ? he_uniform(in_dim, out_dim, rng)
                          : xavier_uniform(in_dim, out_dim, rng)),
      b_(name + ".b", Tensor(1, out_dim)),
      act_(act) {
  RN_CHECK(in_dim > 0 && out_dim > 0, "Dense dims must be positive");
}

// add_bias and the activation consume their operand, so both write into
// the matmul's buffer.
ValueId Dense::apply(Tape& tape, ValueId x) const {
  const ValueId y =
      tape.add_bias(tape.matmul(x, tape.param(w_)), tape.param(b_));
  if (act_ == Activation::kNone) return y;
  return act_ == Activation::kRelu      ? tape.relu(y)
         : act_ == Activation::kSigmoid ? tape.sigmoid(y)
                                        : tape.tanh(y);
}

std::vector<Parameter*> Dense::params() { return {&w_, &b_}; }

GruCell::GruCell(int input_dim, int hidden_dim, Rng& rng,
                 const std::string& name)
    : wz_(name + ".wz", xavier_uniform(input_dim, hidden_dim, rng)),
      uz_(name + ".uz", recurrent_uniform(hidden_dim, hidden_dim, rng)),
      bz_(name + ".bz", Tensor(1, hidden_dim)),
      wr_(name + ".wr", xavier_uniform(input_dim, hidden_dim, rng)),
      ur_(name + ".ur", recurrent_uniform(hidden_dim, hidden_dim, rng)),
      br_(name + ".br", Tensor(1, hidden_dim)),
      wh_(name + ".wh", xavier_uniform(input_dim, hidden_dim, rng)),
      uh_(name + ".uh", recurrent_uniform(hidden_dim, hidden_dim, rng)),
      bh_(name + ".bh", Tensor(1, hidden_dim)) {
  RN_CHECK(input_dim > 0 && hidden_dim > 0, "GruCell dims must be positive");
}

ValueId GruCell::step(Tape& tape, ValueId x, ValueId h) const {
  return tape.gru_step(x, h, weights());
}

GruProjection GruCell::project(Tape& tape, ValueId x_src) const {
  return tape.gru_project(x_src, weights());
}

GruWeights GruCell::weights() const {
  GruWeights w;
  w.wz = &wz_;
  w.uz = &uz_;
  w.bz = &bz_;
  w.wr = &wr_;
  w.ur = &ur_;
  w.br = &br_;
  w.wh = &wh_;
  w.uh = &uh_;
  w.bh = &bh_;
  return w;
}

std::vector<Parameter*> GruCell::params() {
  return {&wz_, &uz_, &bz_, &wr_, &ur_, &br_, &wh_, &uh_, &bh_};
}

ValueId composed_gru_step(Tape& tape, ValueId x, ValueId h,
                          const GruWeights& w) {
  const ValueId z = tape.sigmoid(tape.add_bias(
      tape.add(tape.matmul(x, tape.param(*w.wz)),
               tape.matmul(h, tape.param(*w.uz))),
      tape.param(*w.bz)));
  const ValueId r = tape.sigmoid(tape.add_bias(
      tape.add(tape.matmul(x, tape.param(*w.wr)),
               tape.matmul(h, tape.param(*w.ur))),
      tape.param(*w.br)));
  const ValueId rh = tape.mul(r, h);
  const ValueId hc = tape.tanh(tape.add_bias(
      tape.add(tape.matmul(x, tape.param(*w.wh)),
               tape.matmul(rh, tape.param(*w.uh))),
      tape.param(*w.bh)));
  return tape.add(tape.mul(tape.one_minus(z), h), tape.mul(z, hc));
}

Mlp::Mlp(const std::vector<int>& dims, Rng& rng, const std::string& name,
         Activation output_act) {
  RN_CHECK(dims.size() >= 2, "Mlp needs at least input and output dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = i + 2 == dims.size();
    layers_.emplace_back(dims[i], dims[i + 1],
                         last ? output_act : Activation::kRelu, rng,
                         name + ".l" + std::to_string(i));
  }
}

ValueId Mlp::apply(Tape& tape, ValueId x) const {
  ValueId y = x;
  for (const Dense& layer : layers_) {
    const ValueId next = layer.apply(tape, y);
    if (y != x) tape.release(y);
    y = next;
  }
  return y;
}

int Mlp::in_dim() const { return layers_.front().in_dim(); }
int Mlp::out_dim() const { return layers_.back().out_dim(); }

std::vector<Parameter*> Mlp::params() {
  std::vector<Parameter*> out;
  for (Dense& layer : layers_) {
    for (Parameter* p : layer.params()) out.push_back(p);
  }
  return out;
}

}  // namespace rn::ag
