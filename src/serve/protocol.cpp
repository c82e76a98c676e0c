#include "serve/protocol.h"

#include <cmath>

#include "topology/topology.h"
#include "util/bytes.h"

namespace rn::serve::wire {

namespace {

using util::put_pod;

// Every RNP/1 decoder reads through the shared bounds-checked codec; its
// errors surface as ProtocolError so the server answers with an error frame.
util::Reader reader(std::string_view data) {
  return util::Reader(data, {}, &util::error_as<ProtocolError>);
}

void put_str(std::string& buf, std::string_view s, std::size_t max_len,
             const char* what) {
  if (s.size() > max_len) {
    throw ProtocolError(std::string(what) + " length " +
                        std::to_string(s.size()) + " exceeds cap " +
                        std::to_string(max_len));
  }
  util::put_str<std::uint16_t>(buf, s);
}

std::uint32_t frame_crc(FrameType type, std::string_view payload) {
  // CRC covers the type byte too, so a flipped type cannot masquerade as a
  // different (structurally valid) message. Chained, so the payload is
  // never copied.
  const auto type_byte = static_cast<std::uint8_t>(type);
  return util::crc32(payload.data(), payload.size(),
                     util::crc32(&type_byte, 1));
}

bool known_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kPredictRequest) &&
         t <= static_cast<std::uint8_t>(FrameType::kStatsResponse);
}

double finite_or_throw(double v, const char* what) {
  if (!std::isfinite(v)) {
    throw ProtocolError(std::string(what) + " is not finite");
  }
  return v;
}

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  if (payload.size() > kMaxPayload) {
    throw ProtocolError("payload of " + std::to_string(payload.size()) +
                        " bytes exceeds the " + std::to_string(kMaxPayload) +
                        "-byte cap");
  }
  std::string out;
  out.reserve(kHeaderLen + payload.size() + kTrailerLen);
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(type));
  put_pod(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  put_pod(out, frame_crc(type, payload));
  return out;
}

FrameHeader parse_frame_header(const char* bytes) {
  util::Reader in = reader(std::string_view(bytes, kHeaderLen));
  if (in.bytes(sizeof(kMagic), "magic") !=
      std::string_view(kMagic, sizeof(kMagic))) {
    throw ProtocolError("bad magic (expected \"RNP1\")");
  }
  const auto raw_type = in.pod<std::uint8_t>("frame type");
  if (!known_type(raw_type)) {
    throw ProtocolError("unknown frame type " + std::to_string(raw_type));
  }
  FrameHeader h;
  h.type = static_cast<FrameType>(raw_type);
  h.payload_len = in.pod<std::uint32_t>("payload length");
  if (h.payload_len > kMaxPayload) {
    throw ProtocolError("declared payload of " +
                        std::to_string(h.payload_len) + " bytes exceeds the " +
                        std::to_string(kMaxPayload) + "-byte cap");
  }
  return h;
}

void verify_frame_crc(FrameType type, std::string_view payload,
                      std::uint32_t trailer_crc) {
  if (frame_crc(type, payload) != trailer_crc) {
    throw ProtocolError("frame CRC mismatch");
  }
}

Frame parse_frame(std::string_view bytes) {
  if (bytes.size() < kHeaderLen + kTrailerLen) {
    throw ProtocolError("frame of " + std::to_string(bytes.size()) +
                        " bytes is shorter than header + trailer");
  }
  const FrameHeader h = parse_frame_header(bytes.data());
  if (bytes.size() != kHeaderLen + h.payload_len + kTrailerLen) {
    throw ProtocolError("frame length " + std::to_string(bytes.size()) +
                        " does not match declared payload of " +
                        std::to_string(h.payload_len) + " bytes");
  }
  util::Reader in = reader(bytes.substr(kHeaderLen));
  Frame f;
  f.type = h.type;
  f.payload = std::string(in.bytes(h.payload_len, "payload"));
  verify_frame_crc(f.type, f.payload, in.pod<std::uint32_t>("frame crc"));
  return f;
}

// --- Predict request -------------------------------------------------------
//
// payload := model:str16 topo_name:str16 n_nodes:i32 n_links:i32
//            links[n_links]{src:i32 dst:i32 capacity_bps:f64 prop_delay_s:f64}
//            paths[n_pairs]{len:u16 link_ids[len]:i32}
//            rates[n_pairs]:f64
//            request_id:u64 client_send_unix_s:f64         (trace context)
// with n_pairs = n_nodes*(n_nodes-1), in topo::pair_index order.

std::string encode_predict_request(const std::string& model,
                                   const dataset::Sample& sample,
                                   const TraceContext& trace) {
  if (trace.request_id == 0) {
    throw ProtocolError("trace context request id must be non-zero");
  }
  finite_or_throw(trace.client_send_unix_s, "client send timestamp");
  const topo::Topology& t = *sample.topology;
  std::string out;
  put_str(out, model, kMaxNameLen, "model name");
  put_str(out, t.name(), kMaxNameLen, "topology name");
  put_pod(out, static_cast<std::int32_t>(t.num_nodes()));
  put_pod(out, static_cast<std::int32_t>(t.num_links()));
  for (const topo::Link& l : t.links()) {
    put_pod(out, static_cast<std::int32_t>(l.src));
    put_pod(out, static_cast<std::int32_t>(l.dst));
    put_pod(out, l.capacity_bps);
    put_pod(out, l.prop_delay_s);
  }
  for (int idx = 0; idx < t.num_pairs(); ++idx) {
    const routing::Path& p = sample.routing.path_by_index(idx);
    if (p.size() > static_cast<std::size_t>(t.num_nodes())) {
      throw ProtocolError("path " + std::to_string(idx) + " has " +
                          std::to_string(p.size()) +
                          " hops on a topology of " +
                          std::to_string(t.num_nodes()) + " nodes");
    }
    put_pod(out, static_cast<std::uint16_t>(p.size()));
    for (topo::LinkId id : p) put_pod(out, static_cast<std::int32_t>(id));
  }
  for (int idx = 0; idx < t.num_pairs(); ++idx) {
    put_pod(out, sample.tm.rate_by_index(idx));
  }
  put_pod(out, trace.request_id);
  put_pod(out, trace.client_send_unix_s);
  return out;
}

PredictRequest decode_predict_request(std::string_view payload) {
  util::Reader c = reader(payload);
  std::string model = c.str<std::uint16_t>(kMaxNameLen, "model name");
  if (model.empty()) throw ProtocolError("model name is empty");
  const std::string topo_name =
      c.str<std::uint16_t>(kMaxNameLen, "topology name");
  const auto n_nodes = c.pod<std::int32_t>("node count");
  if (n_nodes < 2 || n_nodes > kMaxNodes) {
    throw ProtocolError("node count " + std::to_string(n_nodes) +
                        " outside [2, " + std::to_string(kMaxNodes) + "]");
  }
  const auto n_links = c.pod<std::int32_t>("link count");
  if (n_links < 1 || n_links > kMaxLinks) {
    throw ProtocolError("link count " + std::to_string(n_links) +
                        " outside [1, " + std::to_string(kMaxLinks) + "]");
  }
  // Each link is 24 bytes on the wire; reject a count the payload cannot
  // possibly cover before looping (no unbounded allocation either way).
  c.require(static_cast<std::size_t>(n_links) * 24, "link table");
  auto topology = std::make_shared<topo::Topology>(topo_name, n_nodes);
  for (std::int32_t i = 0; i < n_links; ++i) {
    const auto src = c.pod<std::int32_t>("link src");
    const auto dst = c.pod<std::int32_t>("link dst");
    const double cap = finite_or_throw(c.pod<double>("link capacity"),
                                       "link capacity");
    const double prop = finite_or_throw(c.pod<double>("link prop delay"),
                                        "link prop delay");
    if (src < 0 || src >= n_nodes || dst < 0 || dst >= n_nodes) {
      throw ProtocolError("link " + std::to_string(i) + " endpoints (" +
                          std::to_string(src) + ", " + std::to_string(dst) +
                          ") outside [0, " + std::to_string(n_nodes) + ")");
    }
    if (cap <= 0.0) {
      throw ProtocolError("link " + std::to_string(i) +
                          " capacity must be positive");
    }
    if (prop < 0.0) {
      throw ProtocolError("link " + std::to_string(i) +
                          " propagation delay must be >= 0");
    }
    topology->add_link(src, dst, cap, prop);
  }
  const int n_pairs = topology->num_pairs();
  routing::RoutingScheme scheme(n_nodes);
  // Every path must be a loop-free walk from its pair's source to its
  // destination (routing::validate_routing's rules), so a malformed route
  // is an error frame for its sender, not a fault in a shared micro-batch.
  // visited_by[n] == idx marks node n as already on pair idx's path.
  std::vector<int> visited_by(static_cast<std::size_t>(n_nodes), -1);
  for (int idx = 0; idx < n_pairs; ++idx) {
    const auto [src, dst] = topo::pair_from_index(idx, n_nodes);
    const auto bad_path = [src = src, dst = dst](const std::string& why) {
      return ProtocolError("path for pair (" + std::to_string(src) + ", " +
                           std::to_string(dst) + ") " + why);
    };
    const auto len = c.pod<std::uint16_t>("path length");
    if (len == 0) throw bad_path("is empty");
    // A loop-free path visits each node at most once.
    if (len > static_cast<std::uint16_t>(n_nodes)) {
      throw bad_path("length " + std::to_string(len) +
                     " exceeds node count " + std::to_string(n_nodes));
    }
    c.require(static_cast<std::size_t>(len) * 4, "path link ids");
    routing::Path p(len);
    topo::NodeId at = src;
    visited_by[static_cast<std::size_t>(at)] = idx;
    for (auto& id : p) {
      id = c.pod<std::int32_t>("path link id");
      if (id < 0 || id >= n_links) {
        throw bad_path("link id " + std::to_string(id) + " outside [0, " +
                       std::to_string(n_links) + ")");
      }
      const topo::Link& link = topology->link(id);
      if (link.src != at) {
        throw bad_path("is discontinuous: link " + std::to_string(id) +
                       " leaves node " + std::to_string(link.src) +
                       ", not node " + std::to_string(at));
      }
      at = link.dst;
      if (visited_by[static_cast<std::size_t>(at)] == idx) {
        throw bad_path("loops back to node " + std::to_string(at));
      }
      visited_by[static_cast<std::size_t>(at)] = idx;
    }
    if (at != dst) {
      throw bad_path("ends at node " + std::to_string(at) +
                     ", not at its destination");
    }
    scheme.set_path(src, dst, std::move(p));
  }
  traffic::TrafficMatrix tm(n_nodes);
  for (int idx = 0; idx < n_pairs; ++idx) {
    const double rate = finite_or_throw(c.pod<double>("traffic rate"),
                                        "traffic rate");
    if (rate < 0.0) {
      throw ProtocolError("traffic rate " + std::to_string(idx) +
                          " must be >= 0");
    }
    const auto [src, dst] = topo::pair_from_index(idx, n_nodes);
    tm.set_rate_bps(src, dst, rate);
  }
  TraceContext trace;
  trace.request_id = c.pod<std::uint64_t>("trace request id");
  if (trace.request_id == 0) {
    throw ProtocolError("trace context request id must be non-zero");
  }
  trace.client_send_unix_s = finite_or_throw(
      c.pod<double>("client send timestamp"), "client send timestamp");
  // Trailing bytes are malformed, not ignorable: skipping them would mask
  // corruption the CRC already survived (an honest re-encode must be able
  // to reproduce the payload).
  c.expect_done("predict request");
  return PredictRequest{
      std::move(model),
      dataset::make_inference_sample(
          std::shared_ptr<const topo::Topology>(std::move(topology)),
          std::move(scheme), std::move(tm)),
      trace};
}

// --- Predict response ------------------------------------------------------
//
// payload := n_pairs:u32 pairs[n_pairs]{delay_s:f64 jitter_s:f64}
//            request_id:u64 queue_wait_s:f64 server_s:f64     (attribution)
// The attribution block mirrors the request's trace context.

std::string encode_predict_response(const core::RouteNet::Prediction& pred,
                                    std::uint64_t request_id,
                                    double queue_wait_s, double server_s) {
  if (pred.delay_s.size() != pred.jitter_s.size()) {
    throw ProtocolError("prediction delay/jitter sizes disagree");
  }
  if (request_id == 0) {
    throw ProtocolError("response request id must be non-zero");
  }
  finite_or_throw(queue_wait_s, "queue wait seconds");
  finite_or_throw(server_s, "server seconds");
  std::string out;
  put_pod(out, static_cast<std::uint32_t>(pred.delay_s.size()));
  for (std::size_t i = 0; i < pred.delay_s.size(); ++i) {
    put_pod(out, pred.delay_s[i]);
    put_pod(out, pred.jitter_s[i]);
  }
  put_pod(out, request_id);
  put_pod(out, queue_wait_s);
  put_pod(out, server_s);
  return out;
}

PredictResponse decode_predict_response_full(std::string_view payload) {
  constexpr std::uint32_t kMaxPairs =
      static_cast<std::uint32_t>(kMaxNodes) * (kMaxNodes - 1);
  util::Reader c = reader(payload);
  const auto n_pairs = c.pod<std::uint32_t>("pair count");
  if (n_pairs > kMaxPairs) {
    throw ProtocolError("pair count " + std::to_string(n_pairs) +
                        " exceeds cap " + std::to_string(kMaxPairs));
  }
  c.require(static_cast<std::size_t>(n_pairs) * 16, "prediction rows");
  PredictResponse resp;
  core::RouteNet::Prediction& pred = resp.prediction;
  pred.delay_s.resize(n_pairs);
  pred.jitter_s.resize(n_pairs);
  for (std::uint32_t i = 0; i < n_pairs; ++i) {
    pred.delay_s[i] = c.pod<double>("delay");
    pred.jitter_s[i] = c.pod<double>("jitter");
  }
  resp.request_id = c.pod<std::uint64_t>("response request id");
  if (resp.request_id == 0) {
    throw ProtocolError("response request id must be non-zero");
  }
  resp.queue_wait_s = finite_or_throw(c.pod<double>("queue wait seconds"),
                                      "queue wait seconds");
  resp.server_s =
      finite_or_throw(c.pod<double>("server seconds"), "server seconds");
  c.expect_done("predict response");
  return resp;
}

// --- Error -----------------------------------------------------------------

std::string encode_error(ErrorCode code, std::string_view message) {
  std::string out;
  put_pod(out, static_cast<std::uint16_t>(code));
  put_str(out, message.substr(0, kMaxErrorMsgLen), kMaxErrorMsgLen,
          "error message");
  return out;
}

ErrorFrame decode_error(std::string_view payload) {
  util::Reader c = reader(payload);
  ErrorFrame e;
  const auto raw = c.pod<std::uint16_t>("error code");
  if (raw < static_cast<std::uint16_t>(ErrorCode::kMalformed) ||
      raw > static_cast<std::uint16_t>(ErrorCode::kTimeout)) {
    throw ProtocolError("unknown error code " + std::to_string(raw));
  }
  e.code = static_cast<ErrorCode>(raw);
  e.message = c.str<std::uint16_t>(kMaxErrorMsgLen, "error message");
  c.expect_done("error");
  return e;
}

// --- Reload ----------------------------------------------------------------

std::string encode_reload_request(const std::string& model) {
  std::string out;
  put_str(out, model, kMaxNameLen, "model name");
  return out;
}

std::string decode_reload_request(std::string_view payload) {
  util::Reader c = reader(payload);
  const std::string model = c.str<std::uint16_t>(kMaxNameLen, "model name");
  if (model.empty()) throw ProtocolError("model name is empty");
  c.expect_done("reload request");
  return model;
}

std::string encode_reload_response(const std::string& model,
                                   std::uint64_t version) {
  std::string out;
  put_str(out, model, kMaxNameLen, "model name");
  put_pod(out, version);
  return out;
}

ReloadResponse decode_reload_response(std::string_view payload) {
  util::Reader c = reader(payload);
  ReloadResponse r;
  r.model = c.str<std::uint16_t>(kMaxNameLen, "model name");
  r.version = c.pod<std::uint64_t>("version");
  c.expect_done("reload response");
  return r;
}

// --- Stats -----------------------------------------------------------------
//
// request payload is empty.
// response payload :=
//   server_time_s:f64 trace_dropped:u64 trace_sampled_out:u64
//   n_counters:u32 counters[n]{name:str16 value:u64}
//   n_gauges:u32 gauges[n]{name:str16 value:f64}
//   n_histograms:u32 histograms[n]{name:str16 count:u64
//                                  mean:f64 p50:f64 p95:f64 p99:f64 max:f64}
//   n_windows:u32 windows[n]{name:str16 window_s:f64 count:u64
//                            p50:f64 p95:f64 p99:f64
//                            n_exemplars:u16 exemplars[n]{bucket:u16
//                                                         value:f64 rid:u64}}
//   n_models:u32 models[n]{name:str16 version:u64 parameters:u64}
// Metric values pass through unvalidated (they are display data, not
// allocation sizes); every count and name length is capped before use.

namespace {

template <typename Vec>
std::uint32_t stats_count(const Vec& v, const char* what) {
  if (v.size() > kMaxStatsEntries) {
    throw ProtocolError(std::string(what) + " " +
                        std::to_string(v.size()) + " exceeds cap " +
                        std::to_string(kMaxStatsEntries));
  }
  return static_cast<std::uint32_t>(v.size());
}

std::uint32_t read_stats_count(util::Reader& c, const char* what) {
  const auto n = c.pod<std::uint32_t>(what);
  if (n > kMaxStatsEntries) {
    throw ProtocolError(std::string(what) + " " + std::to_string(n) +
                        " exceeds cap " + std::to_string(kMaxStatsEntries));
  }
  return n;
}

}  // namespace

std::string encode_stats_response(const StatsSnapshot& snap) {
  std::string out;
  put_pod(out, snap.server_time_s);
  put_pod(out, snap.trace_dropped);
  put_pod(out, snap.trace_sampled_out);
  put_pod(out, stats_count(snap.counters, "counter count"));
  for (const StatsSnapshot::CounterEntry& e : snap.counters) {
    put_str(out, e.name, kMaxNameLen, "counter name");
    put_pod(out, e.value);
  }
  put_pod(out, stats_count(snap.gauges, "gauge count"));
  for (const StatsSnapshot::GaugeEntry& e : snap.gauges) {
    put_str(out, e.name, kMaxNameLen, "gauge name");
    put_pod(out, e.value);
  }
  put_pod(out, stats_count(snap.histograms, "histogram count"));
  for (const StatsSnapshot::HistogramEntry& e : snap.histograms) {
    put_str(out, e.name, kMaxNameLen, "histogram name");
    put_pod(out, e.count);
    put_pod(out, e.mean);
    put_pod(out, e.p50);
    put_pod(out, e.p95);
    put_pod(out, e.p99);
    put_pod(out, e.max);
  }
  put_pod(out, stats_count(snap.windows, "window count"));
  for (const StatsSnapshot::WindowEntry& e : snap.windows) {
    put_str(out, e.name, kMaxNameLen, "window name");
    put_pod(out, e.window_s);
    put_pod(out, e.count);
    put_pod(out, e.p50);
    put_pod(out, e.p95);
    put_pod(out, e.p99);
    if (e.exemplars.size() > kMaxExemplars) {
      throw ProtocolError("exemplar count " +
                          std::to_string(e.exemplars.size()) +
                          " exceeds cap " + std::to_string(kMaxExemplars));
    }
    put_pod(out, static_cast<std::uint16_t>(e.exemplars.size()));
    for (const StatsSnapshot::ExemplarEntry& ex : e.exemplars) {
      put_pod(out, ex.bucket);
      put_pod(out, ex.value);
      put_pod(out, ex.request_id);
    }
  }
  put_pod(out, stats_count(snap.models, "model count"));
  for (const StatsSnapshot::ModelEntry& e : snap.models) {
    put_str(out, e.name, kMaxNameLen, "model name");
    put_pod(out, e.version);
    put_pod(out, e.parameters);
  }
  return out;
}

StatsSnapshot decode_stats_response(std::string_view payload) {
  util::Reader c = reader(payload);
  StatsSnapshot snap;
  snap.server_time_s = c.pod<double>("server time");
  snap.trace_dropped = c.pod<std::uint64_t>("trace dropped");
  snap.trace_sampled_out = c.pod<std::uint64_t>("trace sampled out");
  const std::uint32_t n_counters = read_stats_count(c, "counter count");
  snap.counters.reserve(n_counters);
  for (std::uint32_t i = 0; i < n_counters; ++i) {
    StatsSnapshot::CounterEntry e;
    e.name = c.str<std::uint16_t>(kMaxNameLen, "counter name");
    e.value = c.pod<std::uint64_t>("counter value");
    snap.counters.push_back(std::move(e));
  }
  const std::uint32_t n_gauges = read_stats_count(c, "gauge count");
  snap.gauges.reserve(n_gauges);
  for (std::uint32_t i = 0; i < n_gauges; ++i) {
    StatsSnapshot::GaugeEntry e;
    e.name = c.str<std::uint16_t>(kMaxNameLen, "gauge name");
    e.value = c.pod<double>("gauge value");
    snap.gauges.push_back(std::move(e));
  }
  const std::uint32_t n_hists = read_stats_count(c, "histogram count");
  snap.histograms.reserve(n_hists);
  for (std::uint32_t i = 0; i < n_hists; ++i) {
    StatsSnapshot::HistogramEntry e;
    e.name = c.str<std::uint16_t>(kMaxNameLen, "histogram name");
    e.count = c.pod<std::uint64_t>("histogram count");
    e.mean = c.pod<double>("histogram mean");
    e.p50 = c.pod<double>("histogram p50");
    e.p95 = c.pod<double>("histogram p95");
    e.p99 = c.pod<double>("histogram p99");
    e.max = c.pod<double>("histogram max");
    snap.histograms.push_back(std::move(e));
  }
  const std::uint32_t n_windows = read_stats_count(c, "window count");
  snap.windows.reserve(n_windows);
  for (std::uint32_t i = 0; i < n_windows; ++i) {
    StatsSnapshot::WindowEntry e;
    e.name = c.str<std::uint16_t>(kMaxNameLen, "window name");
    e.window_s = c.pod<double>("window span");
    e.count = c.pod<std::uint64_t>("window count");
    e.p50 = c.pod<double>("window p50");
    e.p95 = c.pod<double>("window p95");
    e.p99 = c.pod<double>("window p99");
    const auto n_ex = c.pod<std::uint16_t>("exemplar count");
    if (n_ex > kMaxExemplars) {
      throw ProtocolError("exemplar count " + std::to_string(n_ex) +
                          " exceeds cap " + std::to_string(kMaxExemplars));
    }
    c.require(static_cast<std::size_t>(n_ex) * 18, "exemplar table");
    e.exemplars.reserve(n_ex);
    for (std::uint16_t j = 0; j < n_ex; ++j) {
      StatsSnapshot::ExemplarEntry ex;
      ex.bucket = c.pod<std::uint16_t>("exemplar bucket");
      ex.value = c.pod<double>("exemplar value");
      ex.request_id = c.pod<std::uint64_t>("exemplar request id");
      if (ex.request_id == 0) {
        throw ProtocolError("exemplar request id must be non-zero");
      }
      e.exemplars.push_back(ex);
    }
    snap.windows.push_back(std::move(e));
  }
  const std::uint32_t n_models = read_stats_count(c, "model count");
  snap.models.reserve(n_models);
  for (std::uint32_t i = 0; i < n_models; ++i) {
    StatsSnapshot::ModelEntry e;
    e.name = c.str<std::uint16_t>(kMaxNameLen, "model name");
    e.version = c.pod<std::uint64_t>("model version");
    e.parameters = c.pod<std::uint64_t>("model parameters");
    snap.models.push_back(std::move(e));
  }
  c.expect_done("stats response");
  return snap;
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformed: return "malformed";
    case ErrorCode::kUnknownModel: return "unknown-model";
    case ErrorCode::kRejected: return "rejected";
    case ErrorCode::kStopping: return "stopping";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kTimeout: return "timeout";
  }
  return "unknown";
}

}  // namespace rn::serve::wire
