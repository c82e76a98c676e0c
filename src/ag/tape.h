// Reverse-mode automatic differentiation over Tensor.
//
// A Tape records a DAG of operations as they execute (define-by-run), then
// Tape::backward walks the recorded nodes in reverse to accumulate gradients
// into Parameters. Because nodes are appended in execution order, the vector
// itself is a topological order — no explicit sort is needed.
//
// The op set is exactly what RouteNet-style message passing and MLP/GRU
// layers need: dense algebra, pointwise nonlinearities, and the three
// graph-indexing ops (gather_rows / scatter_rows / segment_sum) that express
// "read the links on a path", "write updated path states back", and
// "add each hop's messages into its links".
//
// A tape is built in one of two modes, fixed at construction. A recording
// tape (the default) keeps what backward() reads: gate activations, index
// vectors, row factors, and the operands each op's backward needs. A
// forward-only tape runs the same kern::Ops entries in the same order, so
// its values are bitwise equal, but keeps none of that state and borrows its
// indices from the caller. Callers that never call backward() (inference)
// use forward-only; backward() on such a tape fails.
//
// release(id) declares a value dead, under one rule in both modes: the
// buffer returns to the arena at once unless a recorded op's backward reads
// it. Which values each op's backward reads is one row of data, the kSaved
// table below; a recording tape marks them saved as the op is recorded, a
// forward-only tape marks nothing. In both modes any later read of a
// released value fails, so training enforces the same release discipline
// inference relies on.
//
// The ops that write their output over their first operand (add_bias,
// sigmoid, tanh, relu, scatter_rows, segment_sum) consume it: they release
// it themselves, as if by release(), and take its buffer for their output
// whenever that release would free it, so a chain of them reuses one
// buffer. An operand a recorded backward reads, or that is also the op's
// second operand, is copied instead.
//
// backward() consumes the tape: it frees each node's value, gradient and
// saved state as soon as the node has run, and afterwards only the root's
// value is readable. A second backward() on the same tape fails.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ag/tensor.h"
#include "util/rng.h"

namespace rn::ag {

using ValueId = std::int32_t;
inline constexpr ValueId kInvalidValue = -1;

// A trainable tensor with its gradient accumulator. Owned by layers/models;
// the tape holds non-owning pointers for the duration of one forward/backward.
struct Parameter {
  Parameter(std::string name_, Tensor value_)
      : name(std::move(name_)),
        value(std::move(value_)),
        grad(value.rows(), value.cols()) {}

  void zero_grad() { grad.fill(0.0f); }

  std::string name;
  Tensor value;
  Tensor grad;
};

// The nine parameters of one GRU cell, referenced (not copied) by the fused
// gru_step op. The tape accumulates straight into each Parameter's .grad in
// backward(), exactly like a kParam node would.
struct GruWeights {
  Parameter* wz = nullptr;
  Parameter* uz = nullptr;
  Parameter* bz = nullptr;
  Parameter* wr = nullptr;
  Parameter* ur = nullptr;
  Parameter* br = nullptr;
  Parameter* wh = nullptr;
  Parameter* uh = nullptr;
  Parameter* bh = nullptr;
};

class Tape;

// The input projections x_src·Wz, x_src·Wr and x_src·Wh of one GRU cell over
// every row of x_src, recorded by Tape::gru_project as one kGruProject node
// whose value stacks the three L×d products as row blocks [z; r; h].
// gru_step_gathered reads its x-side gate terms as rows of these products
// instead of gathering x and multiplying it again, so a path update that
// visits each link state many times per message-passing round multiplies
// each row once. A matmul output row depends on its A row alone
// (ag/tensor.h), so the gathered product rows are bitwise the products of
// the gathered rows. The backward mirrors this: each step adds its gate
// gradients into the x_idx rows of the node's gradient, and the node runs
// the x-side weight gradients and dx_src once, over the L rows of x_src.
//
// The handle names the node, the weights it was made from, and its tape;
// gru_step_gathered reads the weights from it and rejects it on any other
// tape. Release id() once the last step that reads it has run.
class GruProjection {
 public:
  ValueId id() const { return id_; }

 private:
  friend class Tape;
  GruProjection(const Tape* tape, ValueId id, const GruWeights& w)
      : tape_(tape), id_(id), w_(w) {}

  const Tape* tape_;
  ValueId id_;
  GruWeights w_;
};

enum class TapeMode : std::uint8_t { kRecord, kForwardOnly };

class Tape {
 public:
  explicit Tape(TapeMode mode = TapeMode::kRecord) : mode_(mode) {}
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // --- Leaves -------------------------------------------------------------

  // Non-trainable input (features, targets).
  ValueId constant(Tensor t);

  // Trainable leaf. backward() accumulates into p.grad; the caller must keep
  // p alive until backward() completes.
  ValueId param(Parameter& p);

  // --- Dense algebra -------------------------------------------------------
  ValueId matmul(ValueId a, ValueId b);
  ValueId add(ValueId a, ValueId b);        // same shape
  ValueId sub(ValueId a, ValueId b);        // same shape
  ValueId mul(ValueId a, ValueId b);        // elementwise, same shape
  // bias is 1×C, broadcast to rows. Consumes m.
  ValueId add_bias(ValueId m, ValueId bias);
  ValueId scale(ValueId a, float s);
  ValueId one_minus(ValueId a);             // 1 - a, elementwise

  // Per-row scaling: out[r] = a[r] * factors[r]. Used to turn segment sums
  // into segment means (divide each link's aggregate by its message count).
  ValueId scale_rows(ValueId a, const std::vector<float>& factors);

  // Inverted dropout: zeroes each element with probability `rate` and
  // scales survivors by 1/(1−rate) so expectations match inference (where
  // callers simply skip this op). Training-time only by construction.
  ValueId dropout(ValueId a, float rate, Rng& rng);

  // --- Nonlinearities ------------------------------------------------------
  // Each consumes a.
  ValueId sigmoid(ValueId a);
  ValueId tanh(ValueId a);
  ValueId relu(ValueId a);

  // --- Graph-indexing ops ---------------------------------------------------
  // Index vectors are borrowed for the call; only a recording tape copies
  // them (backward() needs them).

  // out[i] = a[idx[i]]; duplicate indices allowed (gradient accumulates).
  ValueId gather_rows(ValueId a, const std::vector<int>& idx);

  // out = base with out[idx[i]] = rows[i]. Indices must be unique: each row
  // of the result has exactly one source, which keeps the backward pass a
  // disjoint split of the incoming gradient. Consumes base, so when it lends
  // its buffer only the idx rows are written.
  ValueId scatter_rows(ValueId base, const std::vector<int>& idx,
                       ValueId rows);

  // out = base with out[seg[i]] += rows[i], ascending i; segment ids may
  // repeat. Consumes base. RouteNet's link-message aggregator: each round
  // starts from a zero aggregate and adds every hop's messages into it as
  // the hop runs, so per link the additions run in hop order.
  ValueId segment_sum(ValueId base, const std::vector<int>& seg,
                      ValueId rows);

  // --- Fused ops -------------------------------------------------------------

  // One-node GRU step: h' = (1−z)∘h + z∘tanh(xWh + (r∘h)Uh + bh) with
  // z/r the usual sigmoid gates. Replaces the ~20-node composed expression
  // in GruCell::step with a single node whose forward replicates the
  // composed per-element arithmetic order exactly (bitwise-identical
  // values) while materializing only the three saved activations the
  // backward needs (none on a forward-only tape). The forward runs in
  // kern::kTileRows-row tiles, split across the pool like a matmul's rows
  // (see parallel_rows in ag/tensor.h), so its results do not depend on
  // the thread count. Gradients accumulate directly into the GruWeights
  // parameters, so backward() must run before any optimizer step mutates
  // them (the standard training order).
  ValueId gru_step(ValueId x, ValueId h, const GruWeights& w);

  // x_src·Wz, x_src·Wr and x_src·Wh for the gru_step_gathered calls that
  // read x_src with weights w, recorded as one node (see GruProjection).
  GruProjection gru_project(ValueId x_src, const GruWeights& w);

  // gru_step with both inputs gathered inside the node, on the x_src and
  // weights of the projection xw (made on this tape):
  // x = x_src[x_idx], h = h_src[h_idx], for at least one row. The x-side
  // gate terms are the x_idx rows of xw. Fuses the two gather_rows nodes of
  // the message-passing path update; the backward adds the gate gradients
  // into the x_idx rows of xw's gradient and dh into the h_idx rows of
  // h_src's (ascending-index accumulation). The indices are borrowed for
  // the call.
  ValueId gru_step_gathered(const GruProjection& xw,
                            const std::vector<int>& x_idx, ValueId h_src,
                            const std::vector<int>& h_idx);

  // --- Reductions & losses ---------------------------------------------------
  ValueId reduce_mean(ValueId a);  // -> 1×1

  // mean((pred - target)^2); target is a constant.
  ValueId mse(ValueId pred, const Tensor& target);

  // --- Execution -------------------------------------------------------------
  // Fails for a released value.
  const Tensor& value(ValueId id) const;

  // Declares id dead: no op and no value() call may read it afterwards.
  // Frees the buffer unless a recorded op's backward reads it (see the
  // header comment). Releasing twice fails.
  void release(ValueId id);

  bool recording() const { return mode_ == TapeMode::kRecord; }

  // Accumulates d(root)/d(param) into each touched Parameter's .grad. root
  // must be 1×1. Frees every node but the root as it goes, so only
  // value(root) is readable afterwards. Fails on a forward-only tape and on
  // a second call.
  void backward(ValueId root);

  std::size_t num_nodes() const { return nodes_.size(); }

 private:
  enum class Op : std::uint8_t {
    kConstant, kParam, kMatmul, kAdd, kSub, kMul, kAddBias, kScale,
    kScaleRows, kOneMinus, kSigmoid, kTanh, kRelu, kGatherRows, kScatterRows,
    kSegmentSum, kReduceMean, kMse, kDropout, kGruStep, kGruProject,
    kGruStepGathered,
    kLast = kGruStepGathered,
  };

  // The tape values an op's backward reads: operand a, operand b, and the
  // op's own output. record() marks them saved on a recording tape, so
  // release() keeps them until backward() has run; every other value is
  // freed on release. State an op owns (indices, factors, masks, targets,
  // GRU activations) lives in its node and needs no row here.
  struct Saved {
    bool a, b, out;
  };
  static constexpr Saved kSaved[] = {
      {false, false, false},  // kConstant
      {false, false, false},  // kParam
      {true, true, false},    // kMatmul
      {false, false, false},  // kAdd
      {false, false, false},  // kSub
      {true, true, false},    // kMul
      {false, false, false},  // kAddBias
      {false, false, false},  // kScale
      {false, false, false},  // kScaleRows
      {false, false, false},  // kOneMinus
      {false, false, true},   // kSigmoid
      {false, false, true},   // kTanh
      {false, false, true},   // kRelu
      {false, false, false},  // kGatherRows
      {false, false, false},  // kScatterRows
      {false, false, false},  // kSegmentSum
      {false, false, false},  // kReduceMean
      {true, false, false},   // kMse: pred
      {false, false, false},  // kDropout
      {true, true, false},    // kGruStep: x and h
      {true, false, false},   // kGruProject: x_src
      {false, false, false},  // kGruStepGathered: h is gathered into
                              // GruAux::hg, and x enters through the
                              // projection's gradient
  };
  static_assert(std::size(kSaved) == static_cast<std::size_t>(Op::kLast) + 1,
                "one kSaved row per Op");

  // Fused-GRU node state: parameter references, the optional gather indices,
  // the gathered hidden input, and the three activations the backward pass
  // needs (everything else is recomputed from them). A gathered step builds
  // no gathered x in either pass: its x-side terms are rows of a
  // kGruProject node, whose own GruAux holds only the weights. h_src is the
  // full path state, so hg stays materialized. Only a recording tape builds
  // one: its step forward allocates hg, z, r and hc at full size up front
  // and each row tile writes its rows of them in place, where a
  // forward-only tape keeps them in per-chunk tile scratch.
  struct GruAux {
    GruWeights w;
    std::vector<int> x_idx, h_idx;  // empty → the input id is used directly
    Tensor hg;                      // gathered hidden (gathered variant only)
    Tensor z, r, hc;                // saved gate / candidate activations
  };

  // Every member has an initializer, so an op builds its node with
  // designated initializers that name only what it sets.
  struct Node {
    Op op = Op::kConstant;
    ValueId a = kInvalidValue;
    ValueId b = kInvalidValue;
    Tensor value{};
    Tensor grad{};  // allocated lazily in backward()
    int rows = 0, cols = 0;  // value's shape; outlives a freed value
    bool needs_grad = false;
    bool released = false;
    bool saved = false;  // a recorded backward reads value: release keeps it
    Parameter* parameter = nullptr;  // kParam only
    std::vector<int> idx{};          // gather/scatter/segment (recording)
    float scalar = 0.0f;             // kScale factor
    // Loss target / dropout mask / kScaleRows factors as an N×1 column
    // (recording).
    Tensor aux_tensor{};
    std::unique_ptr<GruAux> gru{};  // kGru* on a recording tape only
  };

  // Appends n: the one place a node enters the tape. It needs a gradient
  // when an operand does or when it reads Parameters, and on a recording
  // tape the values kSaved names for n.op are marked saved.
  ValueId record(Node n);
  ValueId gru_step_impl(Op op, ValueId a, ValueId b, const GruWeights& w,
                        const std::vector<int>& x_idx,
                        const std::vector<int>& h_idx);
  Node& node(ValueId id);
  const Node& node(ValueId id) const;
  // The buffer an op that consumes operand id writes its output into: id's
  // own when release(id) would free it and id is not also `other`, else a
  // copy. The op calls release(id) once it has read `other`.
  Tensor reuse(ValueId id, ValueId other = kInvalidValue);
  // An op operand's value; fails if it was released.
  const Tensor& input(ValueId id) const;
  // A value read inside backward_node; fails if release() freed it, i.e.
  // the reading op's kSaved row does not name it.
  const Tensor& saved_value(ValueId id) const;
  Tensor& grad_buffer(ValueId id);  // allocates zeros on first touch

  void backward_node(ValueId id);

  // Deque, not vector: value() hands out references that must survive
  // subsequent op recordings (deque never relocates existing elements).
  std::deque<Node> nodes_;
  TapeMode mode_;
  bool consumed_ = false;  // backward() has run
};

}  // namespace rn::ag
