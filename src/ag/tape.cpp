#include "ag/tape.h"

#include <algorithm>
#include <cstring>

#include "ag/kernels.h"
#include "obs/trace.h"

namespace rn::ag {

ValueId Tape::record(Node n) {
  const auto needs = [this](ValueId id) {
    return id != kInvalidValue && node(id).needs_grad;
  };
  n.needs_grad = n.op == Op::kParam || n.op == Op::kGruStep ||
                 n.op == Op::kGruProject || n.op == Op::kGruStepGathered ||
                 needs(n.a) || needs(n.b);
  if (recording()) {
    const Saved& s = kSaved[static_cast<std::size_t>(n.op)];
    if (s.a) node(n.a).saved = true;
    if (s.b) node(n.b).saved = true;
    n.saved = s.out;
  }
  n.rows = n.value.rows();
  n.cols = n.value.cols();
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

const Tensor& Tape::input(ValueId id) const {
  const Node& n = node(id);
  RN_CHECK(!n.released, "read of a released tape value");
  return n.value;
}

Tensor Tape::reuse(ValueId id, ValueId other) {
  const Tensor& v = input(id);
  Node& n = node(id);
  return n.saved || id == other ? v : std::move(n.value);
}

const Tensor& Tape::saved_value(ValueId id) const {
  const Node& n = node(id);
  RN_CHECK(!n.released || n.saved,
           "backward read of a released tape value its op did not save");
  return n.value;
}

Tensor& Tape::grad_buffer(ValueId id) {
  Node& n = node(id);
  if (n.grad.empty() && n.rows * n.cols > 0) n.grad = Tensor(n.rows, n.cols);
  return n.grad;
}

// --- Leaves ------------------------------------------------------------------

ValueId Tape::constant(Tensor t) {
  return record({.op = Op::kConstant, .value = std::move(t)});
}

ValueId Tape::param(Parameter& p) {
  // Copy: the tape must stay valid if the optimizer steps.
  return record({.op = Op::kParam, .value = p.value, .parameter = &p});
}

// --- Dense algebra -------------------------------------------------------------

ValueId Tape::matmul(ValueId a, ValueId b) {
  return record({.op = Op::kMatmul,
                 .a = a,
                 .b = b,
                 .value = ag::matmul(input(a), input(b))});
}

ValueId Tape::add(ValueId a, ValueId b) {
  const Tensor& av = input(a);
  const Tensor& bv = input(b);
  RN_CHECK(av.same_shape(bv), "add shape mismatch");
  Tensor v = av;
  v.add_scaled(bv, 1.0f);
  return record({.op = Op::kAdd, .a = a, .b = b, .value = std::move(v)});
}

ValueId Tape::sub(ValueId a, ValueId b) {
  const Tensor& av = input(a);
  const Tensor& bv = input(b);
  RN_CHECK(av.same_shape(bv), "sub shape mismatch");
  Tensor v = av;
  v.add_scaled(bv, -1.0f);
  return record({.op = Op::kSub, .a = a, .b = b, .value = std::move(v)});
}

ValueId Tape::mul(ValueId a, ValueId b) {
  const Tensor& av = input(a);
  const Tensor& bv = input(b);
  RN_CHECK(av.same_shape(bv), "mul shape mismatch");
  Tensor v = av;
  kern::active().mul_inplace(v.data(), bv.data(),
                             static_cast<std::size_t>(v.size()));
  return record({.op = Op::kMul, .a = a, .b = b, .value = std::move(v)});
}

ValueId Tape::add_bias(ValueId m, ValueId bias) {
  const Tensor& mv = input(m);
  const Tensor& bv = input(bias);
  RN_CHECK(bv.rows() == 1 && bv.cols() == mv.cols(),
           "add_bias expects a 1×C bias matching the matrix columns");
  Tensor v = reuse(m, bias);
  kern::active().add_bias_rows(v.data(), bv.data(), v.rows(), v.cols());
  release(m);
  return record({.op = Op::kAddBias, .a = m, .b = bias, .value = std::move(v)});
}

ValueId Tape::scale(ValueId a, float s) {
  Tensor v = input(a);
  v.scale(s);
  return record(
      {.op = Op::kScale, .a = a, .value = std::move(v), .scalar = s});
}

ValueId Tape::scale_rows(ValueId a, const std::vector<float>& factors) {
  const Tensor& av = input(a);
  RN_CHECK(static_cast<int>(factors.size()) == av.rows(),
           "scale_rows: one factor per row");
  Tensor v = av;
  kern::active().scale_rows(v.data(), factors.data(), av.rows(), av.cols());
  Tensor kept;
  if (recording()) {
    kept = Tensor(av.rows(), 1);
    std::copy(factors.begin(), factors.end(), kept.data());
  }
  return record({.op = Op::kScaleRows,
                 .a = a,
                 .value = std::move(v),
                 .aux_tensor = std::move(kept)});
}

ValueId Tape::dropout(ValueId a, float rate, Rng& rng) {
  RN_CHECK(rate >= 0.0f && rate < 1.0f, "dropout rate must be in [0,1)");
  const Tensor& av = input(a);
  // Mask holds 0 or the inverted-dropout scale, so forward and backward are
  // both a plain elementwise multiply by it.
  Tensor mask(av.rows(), av.cols());
  const float keep_scale = 1.0f / (1.0f - rate);
  for (int i = 0; i < av.size(); ++i) {
    mask[static_cast<std::size_t>(i)] =
        rng.bernoulli(static_cast<double>(rate)) ? 0.0f : keep_scale;
  }
  Tensor v = av;
  for (int i = 0; i < av.size(); ++i) {
    v[static_cast<std::size_t>(i)] *= mask[static_cast<std::size_t>(i)];
  }
  return record({.op = Op::kDropout,
                 .a = a,
                 .value = std::move(v),
                 .aux_tensor = std::move(mask)});
}

ValueId Tape::one_minus(ValueId a) {
  Tensor v = input(a);
  for (int i = 0; i < v.size(); ++i) {
    auto idx = static_cast<std::size_t>(i);
    v[idx] = 1.0f - v[idx];
  }
  return record({.op = Op::kOneMinus, .a = a, .value = std::move(v)});
}

// --- Nonlinearities --------------------------------------------------------------

ValueId Tape::sigmoid(ValueId a) {
  Tensor v = reuse(a);
  release(a);
  kern::active().sigmoid_inplace(v.data(), static_cast<std::size_t>(v.size()));
  return record({.op = Op::kSigmoid, .a = a, .value = std::move(v)});
}

ValueId Tape::tanh(ValueId a) {
  Tensor v = reuse(a);
  release(a);
  kern::active().tanh_inplace(v.data(), static_cast<std::size_t>(v.size()));
  return record({.op = Op::kTanh, .a = a, .value = std::move(v)});
}

// Selects, not branches, so both loops vectorize. −0.0 and NaN fail
// `< 0`, so they pass through the forward unchanged; the backward leaves a
// masked entry's gradient exactly as it was rather than adding +0 to it.
ValueId Tape::relu(ValueId a) {
  Tensor v = reuse(a);
  release(a);
  float* p = v.data();
  const auto n = static_cast<std::size_t>(v.size());
  for (std::size_t i = 0; i < n; ++i) p[i] = p[i] < 0.0f ? 0.0f : p[i];
  return record({.op = Op::kRelu, .a = a, .value = std::move(v)});
}

// --- Graph-indexing ops --------------------------------------------------------------

ValueId Tape::gather_rows(ValueId a, const std::vector<int>& idx) {
  const Tensor& av = input(a);
  for (int i : idx) {
    RN_CHECK(i >= 0 && i < av.rows(), "gather_rows index out of range");
  }
  Tensor v(static_cast<int>(idx.size()), av.cols());
  kern::active().gather_rows(av.data(), idx.data(),
                             static_cast<int>(idx.size()), av.cols(),
                             v.data());
  return record({.op = Op::kGatherRows,
                 .a = a,
                 .value = std::move(v),
                 .idx = recording() ? idx : std::vector<int>()});
}

ValueId Tape::scatter_rows(ValueId base, const std::vector<int>& idx,
                          ValueId rows) {
  const Tensor& bv = input(base);
  const Tensor& rv = input(rows);
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
  Tensor v = reuse(base, rows);
  kern::active().scatter_rows(v.data(), idx.data(),
                              static_cast<int>(idx.size()), v.cols(),
                              rv.data());
  release(base);
  return record({.op = Op::kScatterRows,
                 .a = base,
                 .b = rows,
                 .value = std::move(v),
                 .idx = recording() ? idx : std::vector<int>()});
}

ValueId Tape::segment_sum(ValueId base, const std::vector<int>& seg,
                          ValueId rows) {
  const Tensor& bv = input(base);
  const Tensor& rv = input(rows);
  RN_CHECK(static_cast<int>(seg.size()) == rv.rows(),
           "segment_sum: one segment id per row");
  RN_CHECK(rv.cols() == bv.cols(), "segment_sum column mismatch");
  for (int s : seg) {
    RN_CHECK(s >= 0 && s < bv.rows(), "segment id out of range");
  }
  Tensor v = reuse(base, rows);
  kern::active().indexed_row_add(v.data(), seg.data(),
                                 static_cast<int>(seg.size()), v.cols(),
                                 rv.data());
  release(base);
  return record({.op = Op::kSegmentSum,
                 .a = base,
                 .b = rows,
                 .value = std::move(v),
                 .idx = recording() ? seg : std::vector<int>()});
}

// --- Fused ops ---------------------------------------------------------------------------

ValueId Tape::gru_step(ValueId x, ValueId h, const GruWeights& w) {
  static const std::vector<int> kNoGather;
  return gru_step_impl(Op::kGruStep, x, h, w, kNoGather, kNoGather);
}

// Each row block of the value is what ag::matmul(x_src, W) would return:
// the same zeroed rows and the same row-chunked kernel calls.
GruProjection Tape::gru_project(ValueId x_src, const GruWeights& w) {
  RN_CHECK(w.wz && w.wr && w.wh, "gru_project: incomplete GruWeights");
  const Tensor& xs = input(x_src);
  const int links = xs.rows(), cols = w.wz->value.cols();
  for (const Parameter* p : {w.wz, w.wr, w.wh}) {
    RN_CHECK(p->value.rows() == xs.cols() && p->value.cols() == cols,
             "gru_project: x_src width does not match the weights");
  }
  Tensor v(3 * links, cols);
  matmul_into(xs, w.wz->value, v.row(0));
  matmul_into(xs, w.wr->value, v.row(links));
  matmul_into(xs, w.wh->value, v.row(2 * links));
  std::unique_ptr<GruAux> aux;
  if (recording()) aux = std::make_unique<GruAux>(w);
  const ValueId id = record({.op = Op::kGruProject,
                             .a = x_src,
                             .value = std::move(v),
                             .gru = std::move(aux)});
  return GruProjection(this, id, w);
}

ValueId Tape::gru_step_gathered(const GruProjection& xw,
                                const std::vector<int>& x_idx, ValueId h_src,
                                const std::vector<int>& h_idx) {
  RN_CHECK(xw.tape_ == this,
           "gru_step_gathered: projection made on another tape");
  RN_CHECK(x_idx.size() == h_idx.size(),
           "gru_step_gathered: one x row per h row");
  RN_CHECK(!x_idx.empty(), "gru_step_gathered: no rows to gather");
  const int links = input(xw.id_).rows() / 3;
  const Tensor& hs = input(h_src);
  for (int i : x_idx) {
    RN_CHECK(i >= 0 && i < links, "gru_step x index out of range");
  }
  for (int i : h_idx) {
    RN_CHECK(i >= 0 && i < hs.rows(), "gru_step h index out of range");
  }
  return gru_step_impl(Op::kGruStepGathered, xw.id_, h_src, xw.w_, x_idx,
                       h_idx);
}

// The forward replicates the composed GruCell::step arithmetic exactly:
// each gate is matmul + matmul, elementwise sum, broadcast bias add, then
// the pointwise nonlinearity — the same per-element operation sequence the
// separate tape nodes performed, so the fused value is bitwise identical.
// The two matmuls per gate stay separate (summing the second result into
// the first, not accumulating into one buffer) because that is the rounding
// order the composed kAdd node produced. The gathered variant's operand a
// is a kGruProject node, and it takes each x-side product as the x_idx rows
// of that node's block for the gate, which are bitwise the rows x[x_idx]·W
// would give.
//
// The rows run in kern::kTileRows-row tiles, each carried from its gathers
// to its output rows before the next starts, so a tile's intermediates stay
// in one chunk-sized scratch tensor instead of a dozen rows×cols
// temporaries. A matmul output row depends on its own A row alone and every
// other kernel here is elementwise, so no element's operation sequence
// depends on the tiling, and parallel_rows may split the tiles across the
// pool. Both modes run this same code; a recording tape writes z, r, hc and
// the gathered h straight into the node's GruAux rows instead of scratch.
ValueId Tape::gru_step_impl(Op op, ValueId a, ValueId b, const GruWeights& w,
                            const std::vector<int>& x_idx,
                            const std::vector<int>& h_idx) {
  RN_CHECK(w.wz && w.uz && w.bz && w.wr && w.ur && w.br && w.wh && w.uh &&
               w.bh,
           "gru_step: incomplete GruWeights");
  const int in_dim = w.wz->value.rows(), cols = w.wz->value.cols();
  auto shaped = [](const Parameter* p, int r, int c) {
    return p->value.rows() == r && p->value.cols() == c;
  };
  for (const Parameter* p : {w.wr, w.wh}) {
    RN_CHECK(shaped(p, in_dim, cols), "gru_step: input weight shape mismatch");
  }
  for (const Parameter* p : {w.uz, w.ur, w.uh}) {
    RN_CHECK(shaped(p, cols, cols), "gru_step: recurrent weight not square");
  }
  for (const Parameter* p : {w.bz, w.br, w.bh}) {
    RN_CHECK(shaped(p, 1, cols), "gru_step: bias shape mismatch");
  }
  const Tensor& hs = input(b);
  RN_CHECK(hs.cols() == cols, "gru_step hidden dim does not match weights");
  const bool gathered = op == Op::kGruStepGathered;
  const int rows = gathered ? static_cast<int>(h_idx.size()) : hs.rows();
  const Tensor* x = nullptr;
  const float* projected[3] = {};  // the z, r and h blocks of a projection
  if (gathered) {
    const Tensor& p = input(a);
    const auto block = static_cast<std::size_t>(p.rows() / 3) * cols;
    for (int k = 0; k < 3; ++k) projected[k] = p.data() + k * block;
  } else {
    x = &input(a);
    RN_CHECK(x->rows() == rows, "gru_step row mismatch");
    RN_CHECK(x->cols() == in_dim, "gru_step input dim does not match weights");
  }

  // The tiles write every row of v and of the kept activations.
  Tensor v = Tensor::uninitialized(rows, cols);
  std::unique_ptr<GruAux> aux;
  if (recording()) {
    auto full = [&] { return Tensor::uninitialized(rows, cols); };
    aux = std::make_unique<GruAux>(w, x_idx, h_idx,
                                   gathered ? full() : Tensor(), full(),
                                   full(), full());
  }
  const kern::Ops& K = kern::active();
  const auto tile_block = static_cast<std::size_t>(kern::kTileRows) * cols;
  // Per tile: the h-side product and r∘h, plus z, r, hc and the gathered h
  // wherever the node does not keep them.
  const int blocks = 2 + (aux ? 0 : 3 + (gathered ? 1 : 0));

  auto tiles = [&](int r0, int r1) {
    Tensor scratch = Tensor::uninitialized(blocks * kern::kTileRows, cols);
    float* next = scratch.data();
    auto take = [&] {
      float* block = next;
      next += tile_block;
      return block;
    };
    float* const hu = take();
    float* const rh = take();
    float* const z_tile = aux ? nullptr : take();
    float* const r_tile = aux ? nullptr : take();
    float* const hc_tile = aux ? nullptr : take();
    float* const hg_tile = aux || !gathered ? nullptr : take();
    for (int t0 = r0; t0 < r1; t0 += kern::kTileRows) {
      const int n = std::min(r1, t0 + kern::kTileRows) - t0;
      const std::size_t count = static_cast<std::size_t>(n) * cols;
      const std::size_t offset = static_cast<std::size_t>(t0) * cols;
      float* z = aux ? aux->z.data() + offset : z_tile;
      float* r = aux ? aux->r.data() + offset : r_tile;
      float* hc = aux ? aux->hc.data() + offset : hc_tile;
      const float* h = hs.data() + offset;
      if (gathered) {
        float* hg = aux ? aux->hg.data() + offset : hg_tile;
        K.gather_rows(hs.data(), h_idx.data() + t0, n, cols, hg);
        h = hg;
      }
      auto gate = [&](float* pre, const float* xw, const Parameter& wp,
                      const float* in, const Parameter& up,
                      const Parameter& bp) {
        if (xw != nullptr) {
          K.gather_rows(xw, x_idx.data() + t0, n, cols, pre);
        } else {
          std::memset(pre, 0, count * sizeof(float));
          K.matmul_block(x->row(t0), wp.value.data(), pre, 0, n, in_dim,
                         cols);
        }
        std::memset(hu, 0, count * sizeof(float));
        K.matmul_block(in, up.value.data(), hu, 0, n, cols, cols);
        K.axpy(pre, hu, 1.0f, count);
        K.add_bias_rows(pre, bp.value.data(), n, cols);
      };
      gate(z, projected[0], *w.wz, h, *w.uz, *w.bz);
      K.sigmoid_inplace(z, count);
      gate(r, projected[1], *w.wr, h, *w.ur, *w.br);
      K.sigmoid_inplace(r, count);
      std::memcpy(rh, r, count * sizeof(float));
      K.mul_inplace(rh, h, count);
      gate(hc, projected[2], *w.wh, rh, *w.uh, *w.bh);
      K.tanh_inplace(hc, count);
      K.gru_blend(z, h, hc, v.data() + offset, count);
    }
  };
  const long long macs = 3LL * rows * cols * (cols + (x ? in_dim : 0));
  parallel_rows(rows, macs, tiles);
  return record({.op = op,
                 .a = a,
                 .b = b,
                 .value = std::move(v),
                 .gru = std::move(aux)});
}

// --- Reductions & losses ----------------------------------------------------------------

ValueId Tape::reduce_mean(ValueId a) {
  const Tensor& av = input(a);
  RN_CHECK(av.size() > 0, "reduce_mean of empty tensor");
  double acc = 0.0;
  for (int i = 0; i < av.size(); ++i) acc += av[static_cast<std::size_t>(i)];
  return record({.op = Op::kReduceMean,
                 .a = a,
                 .value = Tensor::scalar(static_cast<float>(acc / av.size()))});
}

ValueId Tape::mse(ValueId pred, const Tensor& target) {
  const Tensor& pv = input(pred);
  RN_CHECK(pv.same_shape(target), "mse shape mismatch");
  RN_CHECK(pv.size() > 0, "mse of empty tensor");
  double acc = 0.0;
  for (int i = 0; i < pv.size(); ++i) {
    auto idx = static_cast<std::size_t>(i);
    const double d = static_cast<double>(pv[idx]) - target[idx];
    acc += d * d;
  }
  return record({.op = Op::kMse,
                 .a = pred,
                 .value = Tensor::scalar(static_cast<float>(acc / pv.size())),
                 .aux_tensor = target});
}

// --- Execution --------------------------------------------------------------------------

const Tensor& Tape::value(ValueId id) const { return input(id); }

void Tape::release(ValueId id) {
  Node& n = node(id);
  RN_CHECK(!n.released, "tape value released twice");
  n.released = true;
  if (!n.saved) n.value = Tensor();
}

// Every reader of a node has a higher id, so once the reverse sweep has
// passed a node nothing reads it again and it is freed on the spot.
void Tape::backward(ValueId root) {
  RN_CHECK(recording(), "backward() on a forward-only tape");
  RN_CHECK(!consumed_, "backward() twice on one tape");
  obs::TraceSpan span("ag.backward");
  const Node& r = node(root);
  RN_CHECK(r.rows == 1 && r.cols == 1, "backward root must be a 1×1 scalar");
  consumed_ = true;
  grad_buffer(root).at(0, 0) = 1.0f;
  for (auto id = static_cast<ValueId>(nodes_.size()) - 1; id >= 0; --id) {
    Node& n = node(id);
    if (n.needs_grad && !n.grad.empty()) backward_node(id);
    if (id == root) {
      n.grad = Tensor();
    } else {
      n = Node{.released = true};
    }
  }
}

namespace {

// The x side of a GRU backward, over the rows of x: with da_z, da_r and
// da_h the x.rows()×d gate pre-activation gradients, adds xᵀ·da into Wz,
// Wr and Wh's gradients and, when gx is given, dx = da_h·Whᵀ + da_r·Wrᵀ +
// da_z·Wzᵀ into *gx.
void gru_input_backward(const GruWeights& w, const Tensor& x,
                        const float* da_z, const float* da_r,
                        const float* da_h, Tensor* gx) {
  const int d = w.wz->value.cols();
  w.wh->grad.add_scaled(matmul_tn(x, da_h, d), 1.0f);
  w.wr->grad.add_scaled(matmul_tn(x, da_r, d), 1.0f);
  w.wz->grad.add_scaled(matmul_tn(x, da_z, d), 1.0f);
  if (gx == nullptr) return;
  Tensor dx = matmul_nt(da_h, x.rows(), w.wh->value);
  matmul_nt_into(da_r, x.rows(), w.wr->value, dx.data());
  matmul_nt_into(da_z, x.rows(), w.wz->value, dx.data());
  gx->add_scaled(dx, 1.0f);
}

}  // namespace

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
        ga->add_scaled(matmul_nt(g, saved_value(n.b)), 1.0f);
      }
      if (Tensor* gb = propagate(n.b)) {
        gb->add_scaled(matmul_tn(saved_value(n.a), g), 1.0f);
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
      const auto count = static_cast<std::size_t>(g.size());
      if (Tensor* ga = propagate(n.a)) {
        kern::active().madd(ga->data(), g.data(), saved_value(n.b).data(),
                            count);
      }
      if (Tensor* gb = propagate(n.b)) {
        kern::active().madd(gb->data(), g.data(), saved_value(n.a).data(),
                            count);
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
                                       n.aux_tensor.data(), g.rows(),
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
        const Tensor& out = saved_value(id);
        for (int i = 0; i < g.size(); ++i) {
          auto k = static_cast<std::size_t>(i);
          const float y = out[k];
          (*ga)[k] += g[k] * y * (1.0f - y);
        }
      }
      break;
    }
    case Op::kTanh: {
      if (Tensor* ga = propagate(n.a)) {
        const Tensor& out = saved_value(id);
        for (int i = 0; i < g.size(); ++i) {
          auto k = static_cast<std::size_t>(i);
          const float y = out[k];
          (*ga)[k] += g[k] * (1.0f - y * y);
        }
      }
      break;
    }
    case Op::kRelu: {
      if (Tensor* ga = propagate(n.a)) {
        const float* out = saved_value(id).data();
        const float* gp = g.data();
        float* gap = ga->data();
        const auto n = static_cast<std::size_t>(g.size());
        for (std::size_t k = 0; k < n; ++k) {
          gap[k] = out[k] > 0.0f ? gap[k] + gp[k] : gap[k];
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
      if (Tensor* ga = propagate(n.a)) ga->add_scaled(g, 1.0f);
      if (Tensor* gb = propagate(n.b)) {
        kern::active().gathered_row_add(gb->data(), n.idx.data(),
                                        static_cast<int>(n.idx.size()),
                                        g.cols(), g.data());
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
        const Tensor& pv = saved_value(n.a);
        const float gv =
            g.at(0, 0) * 2.0f / static_cast<float>(pv.size());
        for (int i = 0; i < pv.size(); ++i) {
          auto k = static_cast<std::size_t>(i);
          (*ga)[k] += gv * (pv[k] - n.aux_tensor[k]);
        }
      }
      break;
    }
    case Op::kGruStep:
    case Op::kGruStepGathered: {
      // Full GRU backward from the saved activations. With
      //   h' = (1−z)∘h + z∘hc,  hc = tanh(a_h),  z = σ(a_z),  r = σ(a_r),
      // the chain gives
      //   dz = g∘(hc−h),  dhc = g∘z,  dh += g∘(1−z)
      //   da_h = dhc∘(1−hc²) → Uh/bh grads, drh = da_h·Uhᵀ → dr = drh∘h,
      //     dh += drh∘r
      //   da_r = dr∘r∘(1−r),  da_z = dz∘z∘(1−z) → remaining h-side grads
      //   and the x side: Wz/Wr/Wh grads and dx, from da_z, da_r and da_h.
      // A gathered step hands its x side to its kGruProject node instead,
      // which runs it once over the link rows.
      // Parameter gradients accumulate straight into the live Parameters,
      // so backward() must precede the optimizer step.
      GruAux& A = *n.gru;
      const kern::Ops& K = kern::active();
      const bool gathered = n.op == Op::kGruStepGathered;
      const int rows = g.rows(), cols = g.cols();
      const Tensor& h = gathered ? A.hg : saved_value(n.b);
      const auto count = static_cast<std::size_t>(g.size());

      // The loops below write every element of these before any is read.
      auto full = [&] { return Tensor::uninitialized(rows, cols); };
      Tensor dh = full();    // grad wrt the (gathered) previous hidden
      Tensor da_h = full();  // grad wrt the candidate pre-activation
      Tensor da_r = full();
      Tensor da_z = full();
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
      A.w.uh->grad.add_scaled(matmul_tn(rh, da_h), 1.0f);
      K.colsum_add(A.w.bh->grad.data(), da_h.data(), rows, cols);
      const Tensor drh = matmul_nt(da_h, A.w.uh->value);
      for (std::size_t i = 0; i < count; ++i) {
        const float r = A.r[i];
        dh[i] += drh[i] * r;
        da_r[i] = drh[i] * h[i] * r * (1.0f - r);
      }

      A.w.ur->grad.add_scaled(matmul_tn(h, da_r), 1.0f);
      K.colsum_add(A.w.br->grad.data(), da_r.data(), rows, cols);
      matmul_nt_into(da_r.data(), rows, A.w.ur->value, dh.data());

      A.w.uz->grad.add_scaled(matmul_tn(h, da_z), 1.0f);
      K.colsum_add(A.w.bz->grad.data(), da_z.data(), rows, cols);
      matmul_nt_into(da_z.data(), rows, A.w.uz->value, dh.data());

      if (gathered) {
        // The projection's gradient stacks one L×cols block per gate.
        Tensor& gp = grad_buffer(n.a);
        const auto block = static_cast<std::size_t>(gp.rows() / 3) * cols;
        K.indexed_row_add(gp.data(), A.x_idx.data(), rows, cols,
                          da_z.data());
        K.indexed_row_add(gp.data() + block, A.x_idx.data(), rows, cols,
                          da_r.data());
        K.indexed_row_add(gp.data() + 2 * block, A.x_idx.data(), rows, cols,
                          da_h.data());
      } else {
        gru_input_backward(A.w, saved_value(n.a), da_z.data(), da_r.data(),
                           da_h.data(), propagate(n.a));
      }
      if (Tensor* gb = propagate(n.b)) {
        if (gathered) {
          K.indexed_row_add(gb->data(), A.h_idx.data(), rows, cols,
                            dh.data());
        } else {
          gb->add_scaled(dh, 1.0f);
        }
      }
      break;
    }
    case Op::kGruProject: {
      const Tensor& x = saved_value(n.a);
      const auto block = static_cast<std::size_t>(x.rows()) * g.cols();
      gru_input_backward(n.gru->w, x, g.data(), g.data() + block,
                         g.data() + 2 * block, propagate(n.a));
      break;
    }
  }
}

}  // namespace rn::ag
