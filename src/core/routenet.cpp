#include "core/routenet.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "ag/serialize.h"
#include "obs/trace.h"
#include "util/bytes.h"

namespace rn::core {

namespace {

// Pads an N×1 feature column into an N×dim initial hidden state
// (feature in column 0, zeros elsewhere), as in the reference RouteNet.
ag::Tensor pad_initial_state(const ag::Tensor& features, int dim) {
  RN_CHECK(features.cols() == 1, "expected a feature column");
  RN_CHECK(dim >= 1, "state dim must be positive");
  ag::Tensor state(features.rows(), dim);
  for (int r = 0; r < features.rows(); ++r) {
    state.at(r, 0) = features.at(r, 0);
  }
  return state;
}

}  // namespace

RouteNet::RouteNet(const RouteNetConfig& config)
    : config_(config),
      init_rng_(config.seed),
      path_cell_(config.link_state_dim, config.path_state_dim, init_rng_,
                 "routenet.path_gru"),
      link_cell_(config.path_state_dim, config.link_state_dim, init_rng_,
                 "routenet.link_gru"),
      delay_readout_({config.path_state_dim, config.readout_hidden, 1},
                     init_rng_, "routenet.delay_readout"),
      jitter_readout_({config.path_state_dim, config.readout_hidden, 1},
                      init_rng_, "routenet.jitter_readout") {
  RN_CHECK(config.link_state_dim >= 1 && config.path_state_dim >= 1,
           "state dims must be positive");
  RN_CHECK(config.iterations >= 1, "need at least one message-passing round");
}

RouteNet::Output RouteNet::forward(ag::Tape& tape, const GraphBatch& batch,
                                   Rng* dropout_rng) const {
  RN_CHECK(batch.num_links > 0 && batch.num_paths > 0, "empty graph batch");
  obs::TraceSpan forward_span("routenet.forward");

  ag::ValueId h_links = tape.constant(
      pad_initial_state(batch.link_features, config_.link_state_dim));
  ag::ValueId h_paths = tape.constant(
      pad_initial_state(batch.path_features, config_.path_state_dim));

  // The mean aggregation's inverse message counts are a property of the
  // batch, not of the iteration, so they are computed once.
  std::vector<float> inv_count;
  if (config_.aggregation == Aggregation::kMean) {
    inv_count.assign(static_cast<std::size_t>(batch.num_links), 0.0f);
    for (const std::vector<int>& links : batch.pos_links) {
      for (int l : links) inv_count[static_cast<std::size_t>(l)] += 1.0f;
    }
    for (float& f : inv_count) {
      if (f > 0.0f) f = 1.0f / f;
    }
  }

  RN_CHECK(batch.max_path_length() > 0, "batch has no path traversals");
  for (int t = 0; t < config_.iterations; ++t) {
    obs::TraceSpan mp_span("routenet.mp");
    mp_span.arg("iter", t);
    // Path update: vectorized RNN over hop positions. All paths that are at
    // least s+1 hops long advance together at position s. Every hop reads
    // the same link states, so their input projections are computed once
    // per round, over the links rather than the hops (and so is their
    // backward), and released once the last hop has read them. Each hop's
    // post-step path states are the messages it sends to its links: they
    // are added into the link aggregate as the hop runs, so one hop's
    // messages are alive at a time, and per link the additions run in hop
    // order.
    const ag::GruProjection link_proj = path_cell_.project(tape, h_links);
    ag::ValueId aggregated = tape.constant(
        ag::Tensor(batch.num_links, config_.path_state_dim));
    for (int s = 0; s < batch.max_path_length(); ++s) {
      const std::vector<int>& paths =
          batch.pos_paths[static_cast<std::size_t>(s)];
      const std::vector<int>& links =
          batch.pos_links[static_cast<std::size_t>(s)];
      if (paths.empty()) continue;
      const ag::ValueId h_next =
          tape.gru_step_gathered(link_proj, links, h_paths, paths);
      // The scatter and the add consume the old path state and the old
      // aggregate and, since no recorded backward reads either, write into
      // their buffers. The scatter is recorded first, so the backward adds
      // each hop's message gradient before its scatter gradient.
      h_paths = tape.scatter_rows(h_paths, paths, h_next);
      aggregated = tape.segment_sum(aggregated, links, h_next);
      tape.release(h_next);
    }
    tape.release(link_proj.id());
    // Link update: a GRU step on the combined messages.
    if (config_.aggregation == Aggregation::kMean) {
      const ag::ValueId mean = tape.scale_rows(aggregated, inv_count);
      tape.release(aggregated);
      aggregated = mean;
    }
    const ag::ValueId next_links = link_cell_.step(tape, aggregated, h_links);
    tape.release(aggregated);
    tape.release(h_links);
    h_links = next_links;
  }

  obs::TraceSpan readout_span("routenet.readout");
  if (dropout_rng != nullptr && config_.dropout > 0.0f) {
    h_paths = tape.dropout(h_paths, config_.dropout, *dropout_rng);
  }
  Output out;
  out.delay = delay_readout_.apply(tape, h_paths);
  out.jitter = jitter_readout_.apply(tape, h_paths);
  return out;
}

RouteNet::Prediction RouteNet::predict(const dataset::Sample& sample) const {
  return std::move(predict_merged({&sample}).front());
}

std::vector<RouteNet::Prediction> RouteNet::predict_batch(
    const std::vector<dataset::Sample>& samples, int batch_size) const {
  RN_CHECK(batch_size >= 1, "batch size must be positive");
  std::vector<Prediction> out;
  out.reserve(samples.size());
  for (std::size_t start = 0; start < samples.size();
       start += static_cast<std::size_t>(batch_size)) {
    const std::size_t end = std::min(
        samples.size(), start + static_cast<std::size_t>(batch_size));
    std::vector<const dataset::Sample*> chunk;
    chunk.reserve(end - start);
    for (std::size_t i = start; i < end; ++i) chunk.push_back(&samples[i]);
    std::vector<Prediction> merged = predict_merged(chunk);
    for (Prediction& pred : merged) out.push_back(std::move(pred));
  }
  return out;
}

std::vector<RouteNet::Prediction> RouteNet::predict_merged(
    const std::vector<const dataset::Sample*>& samples) const {
  RN_CHECK(!samples.empty(), "predict_merged needs at least one sample");
  const GraphBatch batch =
      GraphBatch::from_samples(samples, norm_, /*with_targets=*/false);
  ag::Tape tape(ag::TapeMode::kForwardOnly);
  const Output fwd = forward(tape, batch);
  const ag::Tensor& delay = tape.value(fwd.delay);
  const ag::Tensor& jitter = tape.value(fwd.jitter);
  std::vector<Prediction> out;
  out.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const int offset = batch.path_offset[i];
    const int pairs = samples[i]->num_pairs();
    Prediction pred;
    pred.delay_s.resize(static_cast<std::size_t>(pairs));
    pred.jitter_s.resize(static_cast<std::size_t>(pairs));
    for (int p = 0; p < pairs; ++p) {
      pred.delay_s[static_cast<std::size_t>(p)] =
          norm_.denormalize_delay(delay.at(offset + p, 0));
      pred.jitter_s[static_cast<std::size_t>(p)] =
          norm_.denormalize_jitter(jitter.at(offset + p, 0));
    }
    out.push_back(std::move(pred));
  }
  return out;
}

std::vector<ag::Parameter*> RouteNet::params() {
  std::vector<ag::Parameter*> out;
  for (ag::Parameter* p : path_cell_.params()) out.push_back(p);
  for (ag::Parameter* p : link_cell_.params()) out.push_back(p);
  for (ag::Parameter* p : delay_readout_.params()) out.push_back(p);
  for (ag::Parameter* p : jitter_readout_.params()) out.push_back(p);
  return out;
}

std::size_t RouteNet::num_parameters() const {
  std::size_t total = 0;
  for (ag::Parameter* p : const_cast<RouteNet*>(this)->params()) {
    total += static_cast<std::size_t>(p->value.size());
  }
  return total;
}

namespace {
// The one model format, written and read: see docs/file-formats.md.
constexpr std::string_view kModelMagic("RNMODEL3", 8);

int read_count(util::Reader& in, const char* what, std::int32_t max) {
  const auto v = in.pod<std::int32_t>(what);
  if (v < 1 || v > max) {
    in.fail(std::string(what) + " " + std::to_string(v) + " outside [1, " +
            std::to_string(max) + "]");
  }
  return v;
}

double read_finite(util::Reader& in, const char* what) {
  const auto v = in.pod<double>(what);
  if (!std::isfinite(v)) in.fail(std::string(what) + " is not finite");
  return v;
}

}  // namespace

void RouteNet::save(const std::string& path) const {
  // Serialize to memory, then write atomically (temp file + rename) so a
  // crash mid-save — e.g. during the trainer's best-model checkpoint —
  // never leaves a torn file behind.
  using util::put_pod;
  std::string out(kModelMagic);
  put_pod(out, config_.link_state_dim);
  put_pod(out, config_.path_state_dim);
  put_pod(out, config_.iterations);
  put_pod(out, config_.readout_hidden);
  put_pod(out, config_.aggregation);
  put_pod(out, config_.dropout);
  put_pod(out, config_.seed);
  put_pod(out, norm_.capacity_scale);
  put_pod(out, norm_.traffic_scale);
  put_pod(out, static_cast<std::uint8_t>(norm_.log_space ? 1 : 0));
  put_pod(out, norm_.log_delay_mean);
  put_pod(out, norm_.log_delay_std);
  put_pod(out, norm_.log_jitter_mean);
  put_pod(out, norm_.log_jitter_std);
  ag::put_parameters(out, const_cast<RouteNet*>(this)->params());
  util::atomic_write_file(path, out);
}

RouteNet RouteNet::load(const std::string& path) {
  // The whole file goes through one bounds-checked reader; every header
  // field is range-checked before the model is constructed.
  const std::string bytes = util::read_file(path, "model file");
  util::Reader in(bytes, path);
  if (in.bytes(kModelMagic.size(), "model magic") != kModelMagic) {
    in.fail("bad model magic");
  }
  RouteNetConfig config;
  config.link_state_dim = read_count(in, "link state dim", kMaxModelStateDim);
  config.path_state_dim = read_count(in, "path state dim", kMaxModelStateDim);
  config.iterations = read_count(in, "iterations", kMaxModelIterations);
  config.readout_hidden =
      read_count(in, "readout hidden width", kMaxModelReadoutHidden);
  const auto agg = in.pod<std::int32_t>("aggregation");
  if (agg != static_cast<std::int32_t>(Aggregation::kSum) &&
      agg != static_cast<std::int32_t>(Aggregation::kMean)) {
    in.fail("unknown aggregation " + std::to_string(agg));
  }
  config.aggregation = static_cast<Aggregation>(agg);
  config.dropout = in.pod<float>("dropout");
  // Written negated so NaN fails too.
  if (!(config.dropout >= 0.0f && config.dropout < 1.0f)) {
    in.fail("dropout " + std::to_string(config.dropout) + " outside [0, 1)");
  }
  config.seed = in.pod<std::uint64_t>("weight-init seed");
  dataset::Normalizer norm;
  norm.capacity_scale = read_finite(in, "capacity scale");
  norm.traffic_scale = read_finite(in, "traffic scale");
  if (norm.capacity_scale <= 0.0 || norm.traffic_scale <= 0.0) {
    in.fail("capacity and traffic scales must be positive");
  }
  const auto log_space = in.pod<std::uint8_t>("log-space flag");
  if (log_space > 1) in.fail("log-space flag out of {0, 1}");
  norm.log_space = log_space != 0;
  norm.log_delay_mean = read_finite(in, "delay mean");
  norm.log_delay_std = read_finite(in, "delay std");
  norm.log_jitter_mean = read_finite(in, "jitter mean");
  norm.log_jitter_std = read_finite(in, "jitter std");
  RouteNet model(config);
  model.set_normalizer(norm);
  ag::load_parameters(in, model.params());
  in.expect_done("model parameters");
  return model;
}

}  // namespace rn::core
