#include "ag/tape.h"

#include <cmath>
#include <cstring>

#include "ag/kernels.h"
#include "obs/trace.h"

namespace rn::ag {

namespace {

// Shared scratch returned by grad() for nodes that never received gradient.
const Tensor& empty_tensor() {
  static const Tensor t;
  return t;
}

}  // namespace

ValueId Tape::push(Node n) {
  nodes_.push_back(std::move(n));
  return static_cast<ValueId>(nodes_.size() - 1);
}

Tape::Node& Tape::node(ValueId id) {
  RN_CHECK(id >= 0 && id < static_cast<ValueId>(nodes_.size()),
           "invalid ValueId");
  return nodes_[static_cast<std::size_t>(id)];
}

const Tape::Node& Tape::node(ValueId id) const {
  RN_CHECK(id >= 0 && id < static_cast<ValueId>(nodes_.size()),
           "invalid ValueId");
  return nodes_[static_cast<std::size_t>(id)];
}

bool Tape::any_needs_grad(ValueId a, ValueId b) const {
  if (a != kInvalidValue && node(a).needs_grad) return true;
  if (b != kInvalidValue && node(b).needs_grad) return true;
  return false;
}

Tensor& Tape::grad_buffer(ValueId id) {
  Node& n = node(id);
  if (n.grad.empty() && n.value.size() > 0) {
    n.grad = Tensor(n.value.rows(), n.value.cols());
  }
  return n.grad;
}

// --- Leaves ------------------------------------------------------------------

ValueId Tape::constant(Tensor t) {
  Node n;
  n.op = Op::kConstant;
  n.value = std::move(t);
  n.needs_grad = false;
  return push(std::move(n));
}

ValueId Tape::param(Parameter& p) {
  Node n;
  n.op = Op::kParam;
  n.value = p.value;  // copy: tape must stay valid if the optimizer steps
  n.needs_grad = true;
  n.parameter = &p;
  return push(std::move(n));
}

// --- Dense algebra -------------------------------------------------------------

ValueId Tape::matmul(ValueId a, ValueId b) {
  Node n;
  n.op = Op::kMatmul;
  n.a = a;
  n.b = b;
  n.value = ag::matmul(node(a).value, node(b).value);
  n.needs_grad = any_needs_grad(a, b);
  return push(std::move(n));
}

ValueId Tape::add(ValueId a, ValueId b) {
  const Tensor& av = node(a).value;
  const Tensor& bv = node(b).value;
  RN_CHECK(av.same_shape(bv), "add shape mismatch");
  Node n;
  n.op = Op::kAdd;
  n.a = a;
  n.b = b;
  n.value = av;
  n.value.add_scaled(bv, 1.0f);
  n.needs_grad = any_needs_grad(a, b);
  return push(std::move(n));
}

ValueId Tape::sub(ValueId a, ValueId b) {
  const Tensor& av = node(a).value;
  const Tensor& bv = node(b).value;
  RN_CHECK(av.same_shape(bv), "sub shape mismatch");
  Node n;
  n.op = Op::kSub;
  n.a = a;
  n.b = b;
  n.value = av;
  n.value.add_scaled(bv, -1.0f);
  n.needs_grad = any_needs_grad(a, b);
  return push(std::move(n));
}

ValueId Tape::mul(ValueId a, ValueId b) {
  const Tensor& av = node(a).value;
  const Tensor& bv = node(b).value;
  RN_CHECK(av.same_shape(bv), "mul shape mismatch");
  Node n;
  n.op = Op::kMul;
  n.a = a;
  n.b = b;
  n.value = av;
  kern::active().mul_inplace(n.value.data(), bv.data(),
                             static_cast<std::size_t>(n.value.size()));
  n.needs_grad = any_needs_grad(a, b);
  return push(std::move(n));
}

ValueId Tape::add_bias(ValueId m, ValueId bias) {
  const Tensor& mv = node(m).value;
  const Tensor& bv = node(bias).value;
  RN_CHECK(bv.rows() == 1 && bv.cols() == mv.cols(),
           "add_bias expects a 1×C bias matching the matrix columns");
  Node n;
  n.op = Op::kAddBias;
  n.a = m;
  n.b = bias;
  n.value = mv;
  kern::active().add_bias_rows(n.value.data(), bv.data(), mv.rows(),
                               mv.cols());
  n.needs_grad = any_needs_grad(m, bias);
  return push(std::move(n));
}

ValueId Tape::scale(ValueId a, float s) {
  Node n;
  n.op = Op::kScale;
  n.a = a;
  n.scalar = s;
  n.value = node(a).value;
  n.value.scale(s);
  n.needs_grad = any_needs_grad(a);
  return push(std::move(n));
}

ValueId Tape::scale_rows(ValueId a, std::vector<float> factors) {
  const Tensor& av = node(a).value;
  RN_CHECK(static_cast<int>(factors.size()) == av.rows(),
           "scale_rows: one factor per row");
  Node n;
  n.op = Op::kScaleRows;
  n.a = a;
  n.value = av;
  kern::active().scale_rows(n.value.data(), factors.data(), av.rows(),
                            av.cols());
  n.row_factors = std::move(factors);
  n.needs_grad = any_needs_grad(a);
  return push(std::move(n));
}

ValueId Tape::dropout(ValueId a, float rate, Rng& rng) {
  RN_CHECK(rate >= 0.0f && rate < 1.0f, "dropout rate must be in [0,1)");
  const Tensor& av = node(a).value;
  Node n;
  n.op = Op::kDropout;
  n.a = a;
  // Mask holds 0 or the inverted-dropout scale, so forward and backward are
  // both a plain elementwise multiply by it.
  n.aux_tensor = Tensor(av.rows(), av.cols());
  const float keep_scale = 1.0f / (1.0f - rate);
  for (int i = 0; i < av.size(); ++i) {
    n.aux_tensor[static_cast<std::size_t>(i)] =
        rng.bernoulli(static_cast<double>(rate)) ? 0.0f : keep_scale;
  }
  n.value = av;
  for (int i = 0; i < av.size(); ++i) {
    n.value[static_cast<std::size_t>(i)] *=
        n.aux_tensor[static_cast<std::size_t>(i)];
  }
  n.needs_grad = any_needs_grad(a);
  return push(std::move(n));
}

ValueId Tape::one_minus(ValueId a) {
  Node n;
  n.op = Op::kOneMinus;
  n.a = a;
  n.value = node(a).value;
  for (int i = 0; i < n.value.size(); ++i) {
    auto idx = static_cast<std::size_t>(i);
    n.value[idx] = 1.0f - n.value[idx];
  }
  n.needs_grad = any_needs_grad(a);
  return push(std::move(n));
}

// --- Nonlinearities --------------------------------------------------------------

ValueId Tape::sigmoid(ValueId a) {
  Node n;
  n.op = Op::kSigmoid;
  n.a = a;
  n.value = node(a).value;
  kern::active().sigmoid_inplace(n.value.data(),
                                 static_cast<std::size_t>(n.value.size()));
  n.needs_grad = any_needs_grad(a);
  return push(std::move(n));
}

ValueId Tape::tanh(ValueId a) {
  Node n;
  n.op = Op::kTanh;
  n.a = a;
  n.value = node(a).value;
  kern::active().tanh_inplace(n.value.data(),
                              static_cast<std::size_t>(n.value.size()));
  n.needs_grad = any_needs_grad(a);
  return push(std::move(n));
}

ValueId Tape::relu(ValueId a) {
  Node n;
  n.op = Op::kRelu;
  n.a = a;
  n.value = node(a).value;
  for (int i = 0; i < n.value.size(); ++i) {
    auto idx = static_cast<std::size_t>(i);
    if (n.value[idx] < 0.0f) n.value[idx] = 0.0f;
  }
  n.needs_grad = any_needs_grad(a);
  return push(std::move(n));
}

// --- Shape ops --------------------------------------------------------------------

ValueId Tape::concat_cols(ValueId a, ValueId b) {
  const Tensor& av = node(a).value;
  const Tensor& bv = node(b).value;
  RN_CHECK(av.rows() == bv.rows(), "concat_cols row mismatch");
  Node n;
  n.op = Op::kConcatCols;
  n.a = a;
  n.b = b;
  n.aux0 = av.cols();
  n.value = Tensor(av.rows(), av.cols() + bv.cols());
  for (int r = 0; r < av.rows(); ++r) {
    float* out = n.value.row(r);
    const float* ra = av.row(r);
    const float* rb = bv.row(r);
    for (int c = 0; c < av.cols(); ++c) out[c] = ra[c];
    for (int c = 0; c < bv.cols(); ++c) out[av.cols() + c] = rb[c];
  }
  n.needs_grad = any_needs_grad(a, b);
  return push(std::move(n));
}

ValueId Tape::concat_rows(const std::vector<ValueId>& xs) {
  RN_CHECK(!xs.empty(), "concat_rows of no blocks");
  const int cols = node(xs.front()).value.cols();
  int rows = 0;
  bool needs = false;
  for (ValueId x : xs) {
    const Node& nx = node(x);
    RN_CHECK(nx.value.cols() == cols, "concat_rows column mismatch");
    rows += nx.value.rows();
    needs = needs || nx.needs_grad;
  }
  Node n;
  n.op = Op::kConcatRows;
  n.srcs = xs;
  n.value = Tensor(rows, cols);
  int r0 = 0;
  for (ValueId x : xs) {
    const Tensor& xv = node(x).value;
    for (int r = 0; r < xv.rows(); ++r) {
      float* out = n.value.row(r0 + r);
      const float* in = xv.row(r);
      for (int c = 0; c < cols; ++c) out[c] = in[c];
    }
    r0 += xv.rows();
  }
  n.needs_grad = needs;
  return push(std::move(n));
}

ValueId Tape::slice_cols(ValueId a, int c0, int c1) {
  const Tensor& av = node(a).value;
  RN_CHECK(0 <= c0 && c0 < c1 && c1 <= av.cols(), "slice_cols bounds");
  Node n;
  n.op = Op::kSliceCols;
  n.a = a;
  n.aux0 = c0;
  n.aux1 = c1;
  n.value = Tensor(av.rows(), c1 - c0);
  for (int r = 0; r < av.rows(); ++r) {
    const float* in = av.row(r);
    float* out = n.value.row(r);
    for (int c = c0; c < c1; ++c) out[c - c0] = in[c];
  }
  n.needs_grad = any_needs_grad(a);
  return push(std::move(n));
}

// --- Graph-indexing ops --------------------------------------------------------------

ValueId Tape::gather_rows(ValueId a, std::vector<int> idx) {
  const Tensor& av = node(a).value;
  for (int i : idx) {
    RN_CHECK(i >= 0 && i < av.rows(), "gather_rows index out of range");
  }
  Node n;
  n.op = Op::kGatherRows;
  n.a = a;
  n.value = Tensor(static_cast<int>(idx.size()), av.cols());
  kern::active().gather_rows(av.data(), idx.data(),
                             static_cast<int>(idx.size()), av.cols(),
                             n.value.data());
  n.idx = std::move(idx);
  n.needs_grad = any_needs_grad(a);
  return push(std::move(n));
}

ValueId Tape::scatter_rows(ValueId base, std::vector<int> idx, ValueId rows) {
  const Tensor& bv = node(base).value;
  const Tensor& rv = node(rows).value;
  RN_CHECK(rv.rows() == static_cast<int>(idx.size()),
           "scatter_rows: idx size must match rows count");
  RN_CHECK(rv.cols() == bv.cols(), "scatter_rows column mismatch");
  std::vector<bool> seen(static_cast<std::size_t>(bv.rows()), false);
  for (int i : idx) {
    RN_CHECK(i >= 0 && i < bv.rows(), "scatter_rows index out of range");
    RN_CHECK(!seen[static_cast<std::size_t>(i)],
             "scatter_rows indices must be unique");
    seen[static_cast<std::size_t>(i)] = true;
  }
  Node n;
  n.op = Op::kScatterRows;
  n.a = base;
  n.b = rows;
  n.value = bv;
  kern::active().scatter_rows(n.value.data(), idx.data(),
                              static_cast<int>(idx.size()), bv.cols(),
                              rv.data());
  n.idx = std::move(idx);
  n.needs_grad = any_needs_grad(base, rows);
  return push(std::move(n));
}

ValueId Tape::segment_sum(ValueId a, std::vector<int> seg, int num_segments) {
  const Tensor& av = node(a).value;
  RN_CHECK(static_cast<int>(seg.size()) == av.rows(),
           "segment_sum: one segment id per row");
  for (int s : seg) {
    RN_CHECK(s >= 0 && s < num_segments, "segment id out of range");
  }
  Node n;
  n.op = Op::kSegmentSum;
  n.a = a;
  n.aux0 = num_segments;
  n.value = Tensor(num_segments, av.cols());
  kern::active().indexed_row_add(n.value.data(), seg.data(),
                                 static_cast<int>(seg.size()), av.cols(),
                                 av.data());
  n.idx = std::move(seg);
  n.needs_grad = any_needs_grad(a);
  return push(std::move(n));
}

// --- Fused ops ---------------------------------------------------------------------------

ValueId Tape::gru_step(ValueId x, ValueId h, const GruWeights& w) {
  return gru_step_impl(x, h, w, {}, {});
}

ValueId Tape::gru_step_gathered(ValueId x_src, std::vector<int> x_idx,
                                ValueId h_src, std::vector<int> h_idx,
                                const GruWeights& w) {
  RN_CHECK(x_idx.size() == h_idx.size(),
           "gru_step_gathered: one x row per h row");
  const Tensor& xs = node(x_src).value;
  const Tensor& hs = node(h_src).value;
  for (int i : x_idx) {
    RN_CHECK(i >= 0 && i < xs.rows(), "gru_step x index out of range");
  }
  for (int i : h_idx) {
    RN_CHECK(i >= 0 && i < hs.rows(), "gru_step h index out of range");
  }
  return gru_step_impl(x_src, h_src, w, std::move(x_idx), std::move(h_idx));
}

// The forward replicates the composed GruCell::step arithmetic exactly:
// each gate is matmul + matmul, elementwise sum, broadcast bias add, then
// the pointwise nonlinearity — the same per-element operation sequence the
// separate tape nodes performed, so the fused value is bitwise identical.
// The two matmuls per gate stay separate (summing the second result into
// the first, not accumulating into one buffer) because that is the rounding
// order the composed kAdd node produced.
ValueId Tape::gru_step_impl(ValueId a, ValueId b, const GruWeights& w,
                            std::vector<int> x_idx, std::vector<int> h_idx) {
  RN_CHECK(w.wz && w.uz && w.bz && w.wr && w.ur && w.br && w.wh && w.uh &&
               w.bh,
           "gru_step: incomplete GruWeights");
  const kern::Ops& K = kern::active();
  Node n;
  n.op = Op::kGruStep;
  n.a = a;
  n.b = b;
  n.gru = std::make_unique<GruAux>();
  GruAux& A = *n.gru;
  A.w = w;
  if (!x_idx.empty()) {
    const Tensor& src = node(a).value;
    A.xg = Tensor(static_cast<int>(x_idx.size()), src.cols());
    K.gather_rows(src.data(), x_idx.data(), static_cast<int>(x_idx.size()),
                  src.cols(), A.xg.data());
    A.x_idx = std::move(x_idx);
  }
  if (!h_idx.empty()) {
    const Tensor& src = node(b).value;
    A.hg = Tensor(static_cast<int>(h_idx.size()), src.cols());
    K.gather_rows(src.data(), h_idx.data(), static_cast<int>(h_idx.size()),
                  src.cols(), A.hg.data());
    A.h_idx = std::move(h_idx);
  }
  const Tensor& x = A.x_idx.empty() ? node(a).value : A.xg;
  const Tensor& h = A.h_idx.empty() ? node(b).value : A.hg;
  RN_CHECK(x.rows() == h.rows(), "gru_step row mismatch");
  RN_CHECK(x.cols() == w.wz->value.rows() && h.cols() == w.uz->value.rows(),
           "gru_step input dims do not match weights");
  const int rows = h.rows(), cols = w.wz->value.cols();
  const auto count = static_cast<std::size_t>(rows) * cols;

  auto gate = [&](const Tensor& in, const Parameter& wp, const Parameter& up,
                  const Parameter& bp) {
    Tensor pre = ag::matmul(x, wp.value);
    pre.add_scaled(ag::matmul(in, up.value), 1.0f);
    K.add_bias_rows(pre.data(), bp.value.data(), rows, cols);
    return pre;
  };

  A.z = gate(h, *w.wz, *w.uz, *w.bz);
  K.sigmoid_inplace(A.z.data(), count);
  A.r = gate(h, *w.wr, *w.ur, *w.br);
  K.sigmoid_inplace(A.r.data(), count);
  Tensor rh = A.r;
  K.mul_inplace(rh.data(), h.data(), count);
  A.hc = gate(rh, *w.wh, *w.uh, *w.bh);
  K.tanh_inplace(A.hc.data(), count);

  n.value = Tensor(rows, cols);
  K.gru_blend(A.z.data(), h.data(), A.hc.data(), n.value.data(), count);
  // Parameters are always trainable, so the node unconditionally carries
  // gradient (inference tapes simply never call backward()).
  n.needs_grad = true;
  return push(std::move(n));
}

// --- Reductions & losses ----------------------------------------------------------------

ValueId Tape::reduce_sum(ValueId a) {
  const Tensor& av = node(a).value;
  Node n;
  n.op = Op::kReduceSum;
  n.a = a;
  double acc = 0.0;
  for (int i = 0; i < av.size(); ++i) acc += av[static_cast<std::size_t>(i)];
  n.value = Tensor::scalar(static_cast<float>(acc));
  n.needs_grad = any_needs_grad(a);
  return push(std::move(n));
}

ValueId Tape::reduce_mean(ValueId a) {
  const Tensor& av = node(a).value;
  RN_CHECK(av.size() > 0, "reduce_mean of empty tensor");
  Node n;
  n.op = Op::kReduceMean;
  n.a = a;
  double acc = 0.0;
  for (int i = 0; i < av.size(); ++i) acc += av[static_cast<std::size_t>(i)];
  n.value = Tensor::scalar(static_cast<float>(acc / av.size()));
  n.needs_grad = any_needs_grad(a);
  return push(std::move(n));
}

ValueId Tape::mse(ValueId pred, const Tensor& target) {
  const Tensor& pv = node(pred).value;
  RN_CHECK(pv.same_shape(target), "mse shape mismatch");
  RN_CHECK(pv.size() > 0, "mse of empty tensor");
  Node n;
  n.op = Op::kMse;
  n.a = pred;
  n.aux_tensor = target;
  double acc = 0.0;
  for (int i = 0; i < pv.size(); ++i) {
    auto idx = static_cast<std::size_t>(i);
    const double d = static_cast<double>(pv[idx]) - target[idx];
    acc += d * d;
  }
  n.value = Tensor::scalar(static_cast<float>(acc / pv.size()));
  n.needs_grad = any_needs_grad(pred);
  return push(std::move(n));
}

ValueId Tape::mae(ValueId pred, const Tensor& target) {
  const Tensor& pv = node(pred).value;
  RN_CHECK(pv.same_shape(target), "mae shape mismatch");
  RN_CHECK(pv.size() > 0, "mae of empty tensor");
  Node n;
  n.op = Op::kMae;
  n.a = pred;
  n.aux_tensor = target;
  double acc = 0.0;
  for (int i = 0; i < pv.size(); ++i) {
    auto idx = static_cast<std::size_t>(i);
    acc += std::abs(static_cast<double>(pv[idx]) - target[idx]);
  }
  n.value = Tensor::scalar(static_cast<float>(acc / pv.size()));
  n.needs_grad = any_needs_grad(pred);
  return push(std::move(n));
}

ValueId Tape::huber(ValueId pred, const Tensor& target, float delta) {
  const Tensor& pv = node(pred).value;
  RN_CHECK(pv.same_shape(target), "huber shape mismatch");
  RN_CHECK(pv.size() > 0, "huber of empty tensor");
  RN_CHECK(delta > 0.0f, "huber delta must be positive");
  Node n;
  n.op = Op::kHuber;
  n.a = pred;
  n.aux_tensor = target;
  n.scalar = delta;
  double acc = 0.0;
  for (int i = 0; i < pv.size(); ++i) {
    auto idx = static_cast<std::size_t>(i);
    const double d = std::abs(static_cast<double>(pv[idx]) - target[idx]);
    acc += d <= delta ? 0.5 * d * d : delta * (d - 0.5 * delta);
  }
  n.value = Tensor::scalar(static_cast<float>(acc / pv.size()));
  n.needs_grad = any_needs_grad(pred);
  return push(std::move(n));
}

// --- Execution --------------------------------------------------------------------------

const Tensor& Tape::value(ValueId id) const { return node(id).value; }

const Tensor& Tape::grad(ValueId id) const {
  const Node& n = node(id);
  return n.grad.empty() ? empty_tensor() : n.grad;
}

void Tape::backward(ValueId root) {
  obs::TraceSpan span("ag.backward");
  Node& r = node(root);
  RN_CHECK(r.value.rows() == 1 && r.value.cols() == 1,
           "backward root must be a 1×1 scalar");
  // Reset per-node gradients from any previous backward on this tape.
  for (Node& n : nodes_) {
    if (!n.grad.empty()) n.grad.fill(0.0f);
  }
  grad_buffer(root).at(0, 0) = 1.0f;
  for (ValueId id = root; id >= 0; --id) {
    const Node& n = node(id);
    if (!n.needs_grad || n.grad.empty()) continue;
    backward_node(id);
  }
}

void Tape::backward_node(ValueId id) {
  Node& n = node(id);
  const Tensor& g = n.grad;
  auto propagate = [&](ValueId src) -> Tensor* {
    if (src == kInvalidValue) return nullptr;
    if (!node(src).needs_grad) return nullptr;
    return &grad_buffer(src);
  };

  switch (n.op) {
    case Op::kConstant:
      break;
    case Op::kParam:
      RN_CHECK(n.parameter != nullptr, "param node without Parameter");
      n.parameter->grad.add_scaled(g, 1.0f);
      break;
    case Op::kMatmul: {
      if (Tensor* ga = propagate(n.a)) {
        ga->add_scaled(matmul_nt(g, node(n.b).value), 1.0f);
      }
      if (Tensor* gb = propagate(n.b)) {
        gb->add_scaled(matmul_tn(node(n.a).value, g), 1.0f);
      }
      break;
    }
    case Op::kAdd: {
      if (Tensor* ga = propagate(n.a)) ga->add_scaled(g, 1.0f);
      if (Tensor* gb = propagate(n.b)) gb->add_scaled(g, 1.0f);
      break;
    }
    case Op::kSub: {
      if (Tensor* ga = propagate(n.a)) ga->add_scaled(g, 1.0f);
      if (Tensor* gb = propagate(n.b)) gb->add_scaled(g, -1.0f);
      break;
    }
    case Op::kMul: {
      const Tensor& av = node(n.a).value;
      const Tensor& bv = node(n.b).value;
      const auto count = static_cast<std::size_t>(g.size());
      if (Tensor* ga = propagate(n.a)) {
        kern::active().madd(ga->data(), g.data(), bv.data(), count);
      }
      if (Tensor* gb = propagate(n.b)) {
        kern::active().madd(gb->data(), g.data(), av.data(), count);
      }
      break;
    }
    case Op::kAddBias: {
      if (Tensor* ga = propagate(n.a)) ga->add_scaled(g, 1.0f);
      if (Tensor* gb = propagate(n.b)) {
        kern::active().colsum_add(gb->data(), g.data(), g.rows(), g.cols());
      }
      break;
    }
    case Op::kScale: {
      if (Tensor* ga = propagate(n.a)) ga->add_scaled(g, n.scalar);
      break;
    }
    case Op::kDropout: {
      if (Tensor* ga = propagate(n.a)) {
        for (int i = 0; i < g.size(); ++i) {
          auto k = static_cast<std::size_t>(i);
          (*ga)[k] += g[k] * n.aux_tensor[k];
        }
      }
      break;
    }
    case Op::kScaleRows: {
      if (Tensor* ga = propagate(n.a)) {
        kern::active().add_scaled_rows(ga->data(), g.data(),
                                       n.row_factors.data(), g.rows(),
                                       g.cols());
      }
      break;
    }
    case Op::kOneMinus: {
      if (Tensor* ga = propagate(n.a)) ga->add_scaled(g, -1.0f);
      break;
    }
    case Op::kSigmoid: {
      if (Tensor* ga = propagate(n.a)) {
        for (int i = 0; i < g.size(); ++i) {
          auto k = static_cast<std::size_t>(i);
          const float y = n.value[k];
          (*ga)[k] += g[k] * y * (1.0f - y);
        }
      }
      break;
    }
    case Op::kTanh: {
      if (Tensor* ga = propagate(n.a)) {
        for (int i = 0; i < g.size(); ++i) {
          auto k = static_cast<std::size_t>(i);
          const float y = n.value[k];
          (*ga)[k] += g[k] * (1.0f - y * y);
        }
      }
      break;
    }
    case Op::kRelu: {
      if (Tensor* ga = propagate(n.a)) {
        for (int i = 0; i < g.size(); ++i) {
          auto k = static_cast<std::size_t>(i);
          if (n.value[k] > 0.0f) (*ga)[k] += g[k];
        }
      }
      break;
    }
    case Op::kConcatCols: {
      const int ac = n.aux0;
      if (Tensor* ga = propagate(n.a)) {
        for (int r = 0; r < g.rows(); ++r) {
          const float* grow = g.row(r);
          float* out = ga->row(r);
          for (int c = 0; c < ac; ++c) out[c] += grow[c];
        }
      }
      if (Tensor* gb = propagate(n.b)) {
        for (int r = 0; r < g.rows(); ++r) {
          const float* grow = g.row(r);
          float* out = gb->row(r);
          for (int c = 0; c < gb->cols(); ++c) out[c] += grow[ac + c];
        }
      }
      break;
    }
    case Op::kConcatRows: {
      int r0 = 0;
      for (ValueId src : n.srcs) {
        const int rows = node(src).value.rows();
        if (node(src).needs_grad) {
          Tensor& gs = grad_buffer(src);
          for (int r = 0; r < rows; ++r) {
            const float* grow = g.row(r0 + r);
            float* out = gs.row(r);
            for (int c = 0; c < g.cols(); ++c) out[c] += grow[c];
          }
        }
        r0 += rows;
      }
      break;
    }
    case Op::kSliceCols: {
      if (Tensor* ga = propagate(n.a)) {
        for (int r = 0; r < g.rows(); ++r) {
          const float* grow = g.row(r);
          float* out = ga->row(r);
          for (int c = 0; c < g.cols(); ++c) out[n.aux0 + c] += grow[c];
        }
      }
      break;
    }
    case Op::kGatherRows: {
      if (Tensor* ga = propagate(n.a)) {
        kern::active().indexed_row_add(ga->data(), n.idx.data(),
                                       static_cast<int>(n.idx.size()),
                                       g.cols(), g.data());
      }
      break;
    }
    case Op::kScatterRows: {
      if (Tensor* ga = propagate(n.a)) {
        // Base contributes everywhere except the overwritten rows.
        std::vector<bool> overwritten(static_cast<std::size_t>(g.rows()),
                                      false);
        for (int i : n.idx) overwritten[static_cast<std::size_t>(i)] = true;
        for (int r = 0; r < g.rows(); ++r) {
          if (overwritten[static_cast<std::size_t>(r)]) continue;
          const float* grow = g.row(r);
          float* out = ga->row(r);
          for (int c = 0; c < g.cols(); ++c) out[c] += grow[c];
        }
      }
      if (n.b != kInvalidValue && node(n.b).needs_grad) {
        Tensor& gb = grad_buffer(n.b);
        kern::active().gathered_row_add(gb.data(), n.idx.data(),
                                        static_cast<int>(n.idx.size()),
                                        g.cols(), g.data());
      }
      break;
    }
    case Op::kSegmentSum: {
      if (Tensor* ga = propagate(n.a)) {
        kern::active().gathered_row_add(ga->data(), n.idx.data(),
                                        static_cast<int>(n.idx.size()),
                                        g.cols(), g.data());
      }
      break;
    }
    case Op::kReduceSum: {
      if (Tensor* ga = propagate(n.a)) {
        const float gv = g.at(0, 0);
        for (int i = 0; i < ga->size(); ++i) {
          (*ga)[static_cast<std::size_t>(i)] += gv;
        }
      }
      break;
    }
    case Op::kReduceMean: {
      if (Tensor* ga = propagate(n.a)) {
        const float gv = g.at(0, 0) / static_cast<float>(ga->size());
        for (int i = 0; i < ga->size(); ++i) {
          (*ga)[static_cast<std::size_t>(i)] += gv;
        }
      }
      break;
    }
    case Op::kMse: {
      if (Tensor* ga = propagate(n.a)) {
        const Tensor& pv = node(n.a).value;
        const float gv =
            g.at(0, 0) * 2.0f / static_cast<float>(pv.size());
        for (int i = 0; i < pv.size(); ++i) {
          auto k = static_cast<std::size_t>(i);
          (*ga)[k] += gv * (pv[k] - n.aux_tensor[k]);
        }
      }
      break;
    }
    case Op::kMae: {
      if (Tensor* ga = propagate(n.a)) {
        const Tensor& pv = node(n.a).value;
        const float gv = g.at(0, 0) / static_cast<float>(pv.size());
        for (int i = 0; i < pv.size(); ++i) {
          auto k = static_cast<std::size_t>(i);
          const float d = pv[k] - n.aux_tensor[k];
          (*ga)[k] += d > 0.0f ? gv : (d < 0.0f ? -gv : 0.0f);
        }
      }
      break;
    }
    case Op::kGruStep: {
      // Full GRU backward from the saved activations. With
      //   h' = (1−z)∘h + z∘hc,  hc = tanh(a_h),  z = σ(a_z),  r = σ(a_r),
      // the chain gives
      //   dz = g∘(hc−h),  dhc = g∘z,  dh += g∘(1−z)
      //   da_h = dhc∘(1−hc²) → Wh/Uh/bh grads, dx += da_h·Whᵀ,
      //     drh = da_h·Uhᵀ → dr = drh∘h, dh += drh∘r
      //   da_r = dr∘r∘(1−r),  da_z = dz∘z∘(1−z) → remaining grads.
      // Parameter gradients accumulate straight into the live Parameters,
      // so backward() must precede the optimizer step.
      GruAux& A = *n.gru;
      const kern::Ops& K = kern::active();
      const Tensor& x = A.x_idx.empty() ? node(n.a).value : A.xg;
      const Tensor& h = A.h_idx.empty() ? node(n.b).value : A.hg;
      const int rows = g.rows(), cols = g.cols();
      const auto count = static_cast<std::size_t>(g.size());

      Tensor dh(rows, cols);    // grad wrt the (gathered) previous hidden
      Tensor da_h(rows, cols);  // grad wrt the candidate pre-activation
      Tensor da_r(rows, cols);
      Tensor da_z(rows, cols);
      for (std::size_t i = 0; i < count; ++i) {
        const float gv = g[i];
        const float z = A.z[i];
        const float hc = A.hc[i];
        dh[i] = gv * (1.0f - z);
        da_h[i] = gv * z * (1.0f - hc * hc);
        da_z[i] = gv * (hc - h[i]) * z * (1.0f - z);
      }

      Tensor rh = A.r;
      K.mul_inplace(rh.data(), h.data(), count);
      A.w.wh->grad.add_scaled(matmul_tn(x, da_h), 1.0f);
      A.w.uh->grad.add_scaled(matmul_tn(rh, da_h), 1.0f);
      K.colsum_add(A.w.bh->grad.data(), da_h.data(), rows, cols);
      Tensor dx = matmul_nt(da_h, A.w.wh->value);
      const Tensor drh = matmul_nt(da_h, A.w.uh->value);
      for (std::size_t i = 0; i < count; ++i) {
        const float r = A.r[i];
        dh[i] += drh[i] * r;
        da_r[i] = drh[i] * h[i] * r * (1.0f - r);
      }

      A.w.wr->grad.add_scaled(matmul_tn(x, da_r), 1.0f);
      A.w.ur->grad.add_scaled(matmul_tn(h, da_r), 1.0f);
      K.colsum_add(A.w.br->grad.data(), da_r.data(), rows, cols);
      dx.add_scaled(matmul_nt(da_r, A.w.wr->value), 1.0f);
      dh.add_scaled(matmul_nt(da_r, A.w.ur->value), 1.0f);

      A.w.wz->grad.add_scaled(matmul_tn(x, da_z), 1.0f);
      A.w.uz->grad.add_scaled(matmul_tn(h, da_z), 1.0f);
      K.colsum_add(A.w.bz->grad.data(), da_z.data(), rows, cols);
      dx.add_scaled(matmul_nt(da_z, A.w.wz->value), 1.0f);
      dh.add_scaled(matmul_nt(da_z, A.w.uz->value), 1.0f);

      if (node(n.a).needs_grad) {
        Tensor& ga = grad_buffer(n.a);
        if (A.x_idx.empty()) {
          ga.add_scaled(dx, 1.0f);
        } else {
          K.indexed_row_add(ga.data(), A.x_idx.data(), rows, dx.cols(),
                            dx.data());
        }
      }
      if (node(n.b).needs_grad) {
        Tensor& gb = grad_buffer(n.b);
        if (A.h_idx.empty()) {
          gb.add_scaled(dh, 1.0f);
        } else {
          K.indexed_row_add(gb.data(), A.h_idx.data(), rows, cols,
                            dh.data());
        }
      }
      break;
    }
    case Op::kHuber: {
      if (Tensor* ga = propagate(n.a)) {
        const Tensor& pv = node(n.a).value;
        const float gv = g.at(0, 0) / static_cast<float>(pv.size());
        const float delta = n.scalar;
        for (int i = 0; i < pv.size(); ++i) {
          auto k = static_cast<std::size_t>(i);
          const float d = pv[k] - n.aux_tensor[k];
          if (d > delta) {
            (*ga)[k] += gv * delta;
          } else if (d < -delta) {
            (*ga)[k] -= gv * delta;
          } else {
            (*ga)[k] += gv * d;
          }
        }
      }
      break;
    }
  }
}

}  // namespace rn::ag
