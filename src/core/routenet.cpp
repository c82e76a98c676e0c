#include "core/routenet.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "ag/serialize.h"
#include "obs/timer.h"
#include "obs/trace.h"

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
  // Message-passing phase timings. References are looked up once per
  // process (function-local statics); per-forward cost is a handful of
  // steady_clock reads — negligible against the tensor work they bracket.
  static obs::Histogram& h_forward =
      obs::Registry::global().histogram("routenet.forward_s");
  static obs::Histogram& h_path_phase =
      obs::Registry::global().histogram("routenet.mp.path_update_s");
  static obs::Histogram& h_link_phase =
      obs::Registry::global().histogram("routenet.mp.link_update_s");
  static obs::Histogram& h_readout =
      obs::Registry::global().histogram("routenet.readout_s");
  obs::ScopedTimer forward_timer(h_forward);
  obs::TraceSpan forward_span("routenet.forward");
  double path_phase_s = 0.0;
  double link_phase_s = 0.0;

  ag::ValueId h_links = tape.constant(
      pad_initial_state(batch.link_features, config_.link_state_dim));
  ag::ValueId h_paths = tape.constant(
      pad_initial_state(batch.path_features, config_.path_state_dim));

  // The hop → link assignment is a property of the batch, not of the
  // iteration: hoist the flattened link list and the mean-aggregation
  // inverse counts out of the message-passing loop instead of recomputing
  // them config_.iterations times.
  std::vector<int> message_links;
  for (int s = 0; s < batch.max_path_length(); ++s) {
    const std::vector<int>& links = batch.pos_links[static_cast<std::size_t>(s)];
    if (batch.pos_paths[static_cast<std::size_t>(s)].empty()) continue;
    message_links.insert(message_links.end(), links.begin(), links.end());
  }
  std::vector<float> inv_count;
  if (config_.aggregation == Aggregation::kMean) {
    inv_count.assign(static_cast<std::size_t>(batch.num_links), 0.0f);
    for (int l : message_links) inv_count[static_cast<std::size_t>(l)] += 1.0f;
    for (float& f : inv_count) {
      if (f > 0.0f) f = 1.0f / f;
    }
  }

  for (int t = 0; t < config_.iterations; ++t) {
    obs::TraceSpan mp_span("routenet.mp");
    mp_span.arg("iter", t);
    obs::Stopwatch phase;
    // Path update: vectorized RNN over hop positions. All paths that are at
    // least s+1 hops long advance together at position s.
    std::vector<ag::ValueId> messages;
    for (int s = 0; s < batch.max_path_length(); ++s) {
      const std::vector<int>& paths = batch.pos_paths[static_cast<std::size_t>(s)];
      const std::vector<int>& links = batch.pos_links[static_cast<std::size_t>(s)];
      if (paths.empty()) continue;
      const ag::ValueId h_next =
          path_cell_.step_gathered(tape, h_links, links, h_paths, paths);
      const ag::ValueId scattered = tape.scatter_rows(h_paths, paths, h_next);
      tape.release(h_paths);
      h_paths = scattered;
      // The post-hop path state is the message this hop sends to its link.
      messages.push_back(h_next);
    }
    path_phase_s += phase.elapsed_s();
    phase.restart();
    // Link update: combine the messages that crossed each link, GRU step.
    RN_CHECK(!messages.empty(), "batch has no path traversals");
    const ag::ValueId stacked = tape.concat_rows(messages);
    for (ag::ValueId m : messages) tape.release(m);
    ag::ValueId aggregated =
        tape.segment_sum(stacked, message_links, batch.num_links);
    tape.release(stacked);
    if (config_.aggregation == Aggregation::kMean) {
      const ag::ValueId mean = tape.scale_rows(aggregated, inv_count);
      tape.release(aggregated);
      aggregated = mean;
    }
    const ag::ValueId next_links = link_cell_.step(tape, aggregated, h_links);
    tape.release(aggregated);
    tape.release(h_links);
    h_links = next_links;
    link_phase_s += phase.elapsed_s();
  }
  h_path_phase.record(path_phase_s);
  h_link_phase.record(link_phase_s);

  obs::ScopedTimer readout_timer(h_readout);
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
// v1 lacked the aggregation / log_space ablation fields (defaults: sum
// aggregation, log-space targets); v2 added them; v3 adds the readout
// dropout rate. All load.
constexpr char kModelMagicV1[] = "RNMODEL1";
constexpr char kModelMagicV2[] = "RNMODEL2";
constexpr char kModelMagicV3[] = "RNMODEL3";
constexpr std::size_t kModelMagicLen = 8;
}  // namespace

void RouteNet::save(const std::string& path) const {
  // Serialize to memory, then write atomically (temp file + rename) so a
  // crash mid-save — e.g. during the trainer's best-model checkpoint —
  // never leaves a torn file behind.
  std::ostringstream out(std::ios::binary);
  out.write(kModelMagicV3, kModelMagicLen);
  auto write_pod = [&out](const auto& v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  write_pod(config_.link_state_dim);
  write_pod(config_.path_state_dim);
  write_pod(config_.iterations);
  write_pod(config_.readout_hidden);
  write_pod(config_.aggregation);
  write_pod(config_.dropout);
  write_pod(config_.seed);
  write_pod(norm_.capacity_scale);
  write_pod(norm_.traffic_scale);
  const std::uint8_t log_space = norm_.log_space ? 1 : 0;
  write_pod(log_space);
  write_pod(norm_.log_delay_mean);
  write_pod(norm_.log_delay_std);
  write_pod(norm_.log_jitter_mean);
  write_pod(norm_.log_jitter_std);
  ag::save_parameters(out, const_cast<RouteNet*>(this)->params());
  RN_CHECK(out.good(), "serialization failure for model file: " + path);
  ag::atomic_write_file(path, out.str());
}

RouteNet RouteNet::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  RN_CHECK(in.good(), "cannot open model file for reading: " + path);
  char magic_raw[kModelMagicLen];
  in.read(magic_raw, kModelMagicLen);
  const std::string magic(magic_raw, kModelMagicLen);
  RN_CHECK(in.good() && (magic == kModelMagicV1 || magic == kModelMagicV2 ||
                         magic == kModelMagicV3),
           "bad model magic in " + path);
  const bool v2 = magic != kModelMagicV1;
  const bool v3 = magic == kModelMagicV3;
  auto read_pod = [&in](auto& v) {
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    RN_CHECK(in.good(), "truncated model file");
  };
  RouteNetConfig config;
  read_pod(config.link_state_dim);
  read_pod(config.path_state_dim);
  read_pod(config.iterations);
  read_pod(config.readout_hidden);
  if (v2) read_pod(config.aggregation);
  if (v3) read_pod(config.dropout);
  read_pod(config.seed);
  dataset::Normalizer norm;
  read_pod(norm.capacity_scale);
  read_pod(norm.traffic_scale);
  if (v2) {
    std::uint8_t log_space = 1;
    read_pod(log_space);
    norm.log_space = log_space != 0;
  }
  read_pod(norm.log_delay_mean);
  read_pod(norm.log_delay_std);
  read_pod(norm.log_jitter_mean);
  read_pod(norm.log_jitter_std);
  RouteNet model(config);
  model.set_normalizer(norm);
  ag::load_parameters(in, model.params());
  return model;
}

}  // namespace rn::core
