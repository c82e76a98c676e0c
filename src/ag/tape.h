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
// "aggregate per-hop messages into links".
//
// A tape is built in one of two modes, fixed at construction. A recording
// tape (the default) keeps everything backward() reads: gate activations,
// index vectors, row factors. A forward-only tape runs the same kern::Ops
// entries in the same order, so its values are bitwise equal, but keeps
// none of that state and borrows its indices from the caller. Callers that
// never call backward() (inference) use forward-only; backward() on such a
// tape fails.
//
// release(id) declares a value dead. A forward-only tape returns its
// buffer to the arena at once; a recording tape keeps it for backward() and
// only marks it. In both modes any later read of a released value fails, so
// training enforces the same release discipline inference relies on.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
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
  ValueId add_bias(ValueId m, ValueId bias);  // bias is 1×C, broadcast to rows
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
  ValueId sigmoid(ValueId a);
  ValueId tanh(ValueId a);
  ValueId relu(ValueId a);

  // --- Shape ops -----------------------------------------------------------
  ValueId concat_cols(ValueId a, ValueId b);          // [A | B]
  ValueId concat_rows(const std::vector<ValueId>& xs);  // stack row blocks
  ValueId slice_cols(ValueId a, int c0, int c1);      // columns [c0, c1)

  // --- Graph-indexing ops ---------------------------------------------------
  // Index vectors are borrowed for the call; only a recording tape copies
  // them (backward() needs them).

  // out[i] = a[idx[i]]; duplicate indices allowed (gradient accumulates).
  ValueId gather_rows(ValueId a, const std::vector<int>& idx);

  // out = base with out[idx[i]] = rows[i]. Indices must be unique: each row
  // of the result has exactly one source, which keeps the backward pass a
  // disjoint split of the incoming gradient.
  ValueId scatter_rows(ValueId base, const std::vector<int>& idx,
                       ValueId rows);

  // out has num_segments rows; out[seg[i]] += a[i]. RouteNet's link-message
  // aggregator.
  ValueId segment_sum(ValueId a, const std::vector<int>& seg,
                      int num_segments);

  // --- Fused ops -------------------------------------------------------------

  // One-node GRU step: h' = (1−z)∘h + z∘tanh(xWh + (r∘h)Uh + bh) with
  // z/r the usual sigmoid gates. Replaces the ~20-node composed expression
  // in GruCell::step with a single node whose forward replicates the
  // composed per-element arithmetic order exactly (bitwise-identical
  // values) while materializing only the three saved activations the
  // backward needs (none on a forward-only tape). Gradients accumulate
  // directly into the GruWeights parameters, so backward() must run before
  // any optimizer step mutates them (the standard training order).
  ValueId gru_step(ValueId x, ValueId h, const GruWeights& w);

  // gru_step with both inputs gathered inside the node:
  // x = x_src[x_idx], h = h_src[h_idx]. Fuses the two gather_rows nodes of
  // the message-passing path update; the backward scatters dx/dh back into
  // the source states' gradients (ascending-index accumulation).
  ValueId gru_step_gathered(ValueId x_src, const std::vector<int>& x_idx,
                            ValueId h_src, const std::vector<int>& h_idx,
                            const GruWeights& w);

  // --- Reductions & losses ---------------------------------------------------
  ValueId reduce_sum(ValueId a);   // -> 1×1
  ValueId reduce_mean(ValueId a);  // -> 1×1

  // mean((pred - target)^2); target is a constant.
  ValueId mse(ValueId pred, const Tensor& target);

  // mean(|pred - target|).
  ValueId mae(ValueId pred, const Tensor& target);

  // Huber loss with threshold delta, averaged over entries.
  ValueId huber(ValueId pred, const Tensor& target, float delta);

  // --- Execution -------------------------------------------------------------
  // Fails for a released value.
  const Tensor& value(ValueId id) const;

  // Declares id dead: no op and no value() call may read it afterwards.
  // Frees the buffer on a forward-only tape; only marks it on a recording
  // tape, whose backward() still reads it. Releasing twice fails.
  void release(ValueId id);

  bool recording() const { return mode_ == TapeMode::kRecord; }

  // Accumulates d(root)/d(param) into each touched Parameter's .grad and
  // stores per-node gradients (readable via grad()). root must be 1×1.
  // Fails on a forward-only tape.
  void backward(ValueId root);

  // Gradient of the last backward() w.r.t. an intermediate value. Zero tensor
  // if the node did not require grad. Intended for tests.
  const Tensor& grad(ValueId id) const;

  std::size_t num_nodes() const { return nodes_.size(); }

  // Drops all recorded nodes; Parameters are untouched.
  void clear() { nodes_.clear(); }

 private:
  enum class Op : std::uint8_t {
    kConstant, kParam, kMatmul, kAdd, kSub, kMul, kAddBias, kScale,
    kScaleRows, kOneMinus, kSigmoid, kTanh, kRelu, kConcatCols,
    kConcatRows, kSliceCols, kGatherRows, kScatterRows, kSegmentSum,
    kReduceSum, kReduceMean, kMse, kMae, kHuber, kDropout, kGruStep,
  };

  // Fused-GRU node state: parameter references, the optional gather indices,
  // the materialized gathered inputs, and the three activations the
  // backward pass needs (everything else is recomputed from them).
  struct GruAux {
    GruWeights w;
    std::vector<int> x_idx, h_idx;  // empty → the input id is used directly
    Tensor xg, hg;                  // gathered inputs (gathered variant only)
    Tensor z, r, hc;                // saved gate / candidate activations
  };

  struct Node {
    Op op;
    ValueId a = kInvalidValue;
    ValueId b = kInvalidValue;
    std::vector<ValueId> srcs;  // kConcatRows only
    Tensor value;
    Tensor grad;       // allocated lazily in backward()
    bool needs_grad = false;
    bool released = false;
    Parameter* parameter = nullptr;  // kParam only
    std::vector<int> idx;            // gather/scatter/segment (recording)
    std::vector<float> row_factors;  // kScaleRows only (recording)
    int aux0 = 0, aux1 = 0;          // slice bounds / segment count
    float scalar = 0.0f;             // kScale factor / kHuber delta
    Tensor aux_tensor;               // loss target / dropout mask
    std::unique_ptr<GruAux> gru;     // kGruStep on a recording tape only
  };

  ValueId push(Node node);
  ValueId gru_step_impl(ValueId a, ValueId b, const GruWeights& w,
                        const std::vector<int>& x_idx,
                        const std::vector<int>& h_idx);
  Node& node(ValueId id);
  const Node& node(ValueId id) const;
  // An op operand's value; fails if it was released.
  const Tensor& input(ValueId id) const;
  bool any_needs_grad(ValueId a, ValueId b = kInvalidValue) const;
  Tensor& grad_buffer(ValueId id);  // allocates zeros on first touch

  void backward_node(ValueId id);

  // Deque, not vector: value()/grad() hand out references that must survive
  // subsequent op recordings (deque never relocates existing elements).
  std::deque<Node> nodes_;
  TapeMode mode_;
};

}  // namespace rn::ag
