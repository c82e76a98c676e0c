// RNP/1 wire-protocol fuzz suite (labels: serve, net).
//
// The serving frontend reads frames off sockets from arbitrary peers, so
// the parser gets the RNCKPT2 hostile-input treatment: round-trips must be
// bitwise exact, EVERY truncation of a valid frame or of a predict
// request/response payload must throw a clean ProtocolError (never an
// abort or over-read; an id-less predict is one such truncation), EVERY
// single-byte corruption must throw (the CRC trailer covers type ‖
// payload; the envelope fields are each independently validated), and
// forged payloads with absurd counts — name lengths, node/link counts,
// path lengths, pair counts — must be rejected before anything is
// allocated. Routes that are empty, discontinuous, looping or miss their
// destination are rejected too, with the offending pair named, and every
// reject branch that no sweep reaches has a case matching its message.
// Runs under -DRN_SANITIZE=address so an over-read would crash loudly.
#include "serve/protocol.h"

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "routing/routing.h"
#include "topology/generators.h"
#include "traffic/traffic.h"

namespace rn::serve::wire {
namespace {

dataset::Sample make_sample(int nodes, std::uint64_t seed) {
  auto topology =
      std::make_shared<const topo::Topology>(topo::ring(nodes));
  Rng rng(seed);
  routing::RoutingScheme scheme =
      routing::random_k_shortest_routing(*topology, 2, rng);
  traffic::TrafficMatrix tm =
      traffic::uniform_traffic(topology->num_nodes(), 50.0, 150.0, rng);
  return dataset::make_inference_sample(topology, std::move(scheme),
                                        std::move(tm));
}

template <typename T>
void put_pod(std::string& buf, const T& v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_str(std::string& buf, std::string_view s) {
  put_pod(buf, static_cast<std::uint16_t>(s.size()));
  buf.append(s);
}

TraceContext test_trace() {
  TraceContext ctx;
  ctx.request_id = 7;
  ctx.client_send_unix_s = 1.0;
  return ctx;
}

std::string predict_payload(const std::string& model,
                            const dataset::Sample& sample) {
  return encode_predict_request(model, sample, test_trace());
}

std::string response_payload(const core::RouteNet::Prediction& pred) {
  return encode_predict_response(pred, 7, 0.001, 0.002);
}

// f must throw a ProtocolError whose message contains `needle`, so a
// different reject cannot stand in for the one under test.
template <typename F>
void expect_protocol_error(const F& f, const std::string& needle) {
  try {
    f();
    ADD_FAILURE() << "accepted; expected \"" << needle << "\"";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

// The bytes an id-less client would send: a predict request without its
// 16-byte trace context, or a response without its 24-byte attribution.
std::string without_trace(const std::string& request_payload) {
  return request_payload.substr(0, request_payload.size() - 16);
}
std::string without_attribution(const std::string& response_payload) {
  return response_payload.substr(0, response_payload.size() - 24);
}

// --- Round trips -----------------------------------------------------------

TEST(ProtocolRoundTrip, PredictRequestIsBitwiseStable) {
  const dataset::Sample sample = make_sample(5, 7);
  const std::string payload = predict_payload("prod", sample);
  const PredictRequest decoded = decode_predict_request(payload);
  EXPECT_EQ(decoded.model, "prod");
  EXPECT_EQ(decoded.sample.topology->num_nodes(),
            sample.topology->num_nodes());
  EXPECT_EQ(decoded.sample.topology->num_links(),
            sample.topology->num_links());
  EXPECT_EQ(decoded.sample.topology->name(), sample.topology->name());
  // Re-encoding the decoded request must reproduce the exact bytes: the
  // encoding is canonical, so any drift (field order, rounding, lost
  // paths) shows up as inequality here.
  EXPECT_EQ(encode_predict_request("prod", decoded.sample, decoded.trace),
            payload);
}

TEST(ProtocolRoundTrip, PredictResponsePreservesEveryBit) {
  core::RouteNet::Prediction pred;
  pred.delay_s = {0.0, 1e-9, 0.25, std::numeric_limits<double>::min(),
                  12345.678};
  pred.jitter_s = {0.5, 0.0, 3e-7, 1.0, 2.0};
  const std::string payload = response_payload(pred);
  const PredictResponse decoded = decode_predict_response_full(payload);
  ASSERT_EQ(decoded.prediction.delay_s.size(), pred.delay_s.size());
  for (std::size_t i = 0; i < pred.delay_s.size(); ++i) {
    EXPECT_EQ(decoded.prediction.delay_s[i], pred.delay_s[i]);
    EXPECT_EQ(decoded.prediction.jitter_s[i], pred.jitter_s[i]);
  }
  EXPECT_EQ(encode_predict_response(decoded.prediction, decoded.request_id,
                                    decoded.queue_wait_s, decoded.server_s),
            payload);
}

TEST(ProtocolRoundTrip, TracedPredictRequestRoundTrips) {
  const dataset::Sample sample = make_sample(5, 7);
  TraceContext ctx;
  ctx.request_id = 0x1122334455667788ULL;
  ctx.client_send_unix_s = 1.7543e9;
  const std::string payload = encode_predict_request("prod", sample, ctx);
  const PredictRequest decoded = decode_predict_request(payload);
  EXPECT_EQ(decoded.trace.request_id, ctx.request_id);
  EXPECT_EQ(decoded.trace.client_send_unix_s, ctx.client_send_unix_s);
  EXPECT_EQ(encode_predict_request("prod", decoded.sample, decoded.trace),
            payload);
}

TEST(ProtocolReject, IdLessPredictRequestThrows) {
  const std::string id_less =
      without_trace(predict_payload("old", make_sample(4, 9)));
  expect_protocol_error([&] { decode_predict_request(id_less); },
                        "truncated reading trace request id");
}

TEST(ProtocolRoundTrip, TracedPredictResponseRoundTrips) {
  core::RouteNet::Prediction pred;
  pred.delay_s = {0.001, 0.002};
  pred.jitter_s = {0.0001, 0.0002};
  const std::string payload =
      encode_predict_response(pred, 0xDEADBEEFULL, 0.0031, 0.0074);
  const PredictResponse decoded = decode_predict_response_full(payload);
  EXPECT_EQ(decoded.request_id, 0xDEADBEEFULL);
  EXPECT_EQ(decoded.queue_wait_s, 0.0031);
  EXPECT_EQ(decoded.server_s, 0.0074);
  EXPECT_EQ(decoded.prediction.delay_s, pred.delay_s);
  EXPECT_EQ(encode_predict_response(decoded.prediction, decoded.request_id,
                                    decoded.queue_wait_s, decoded.server_s),
            payload);
  // A response without the attribution block is malformed.
  expect_protocol_error(
      [&] { decode_predict_response_full(without_attribution(payload)); },
      "truncated reading response request id");
}

TEST(ProtocolFuzz, TraceContextValidationRejectsHostileTails) {
  const dataset::Sample sample = make_sample(4, 3);
  // Encoders refuse the reserved id 0 and non-finite timestamps.
  TraceContext ctx;
  ctx.request_id = 0;
  ctx.client_send_unix_s = 1.0;
  EXPECT_THROW(encode_predict_request("m", sample, ctx), ProtocolError);
  ctx.request_id = 7;
  ctx.client_send_unix_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(encode_predict_request("m", sample, ctx), ProtocolError);

  // A zero request id forged onto the wire throws on decode.
  ctx.client_send_unix_s = 1.0;
  std::string p = encode_predict_request("m", sample, ctx);
  const std::uint64_t zero = 0;
  std::memcpy(p.data() + p.size() - 16, &zero, sizeof(zero));
  EXPECT_THROW(decode_predict_request(p), ProtocolError);

  // The trailing block is exactly 16 bytes: any other length is
  // malformed, not silently skipped.
  const std::string id_less = without_trace(p);
  for (const int extra : {0, 1, 8, 15, 17}) {
    std::string r = id_less;
    r.append(static_cast<std::size_t>(extra), '\x07');
    EXPECT_THROW(decode_predict_request(r), ProtocolError)
        << extra << " trailing bytes accepted";
  }
  // Same discipline on the response side (24-byte trailer).
  core::RouteNet::Prediction pred;
  pred.delay_s = {0.001};
  pred.jitter_s = {0.0001};
  const std::string resp = without_attribution(response_payload(pred));
  for (const int extra : {0, 1, 8, 16, 23, 25}) {
    std::string r = resp;
    r.append(static_cast<std::size_t>(extra), '\x07');
    EXPECT_THROW(decode_predict_response_full(r), ProtocolError)
        << extra << " trailing bytes accepted";
  }
  EXPECT_THROW(encode_predict_response(pred, 0, 0.0, 0.0), ProtocolError);
}

TEST(ProtocolRoundTrip, ErrorReloadAndControlFrames) {
  const ErrorFrame err =
      decode_error(encode_error(ErrorCode::kRejected, "queue full"));
  EXPECT_EQ(err.code, ErrorCode::kRejected);
  EXPECT_EQ(err.message, "queue full");

  EXPECT_EQ(decode_reload_request(encode_reload_request("canary")),
            "canary");
  const ReloadResponse r =
      decode_reload_response(encode_reload_response("canary", 17));
  EXPECT_EQ(r.model, "canary");
  EXPECT_EQ(r.version, 17u);

  for (const FrameType t :
       {FrameType::kShutdownRequest, FrameType::kShutdownAck}) {
    const Frame f = parse_frame(encode_frame(t, {}));
    EXPECT_EQ(f.type, t);
    EXPECT_TRUE(f.payload.empty());
  }
}

TEST(ProtocolRoundTrip, FrameEnvelopeCarriesPayloadVerbatim) {
  const std::string payload = encode_error(ErrorCode::kInternal, "boom");
  const std::string bytes = encode_frame(FrameType::kError, payload);
  EXPECT_EQ(bytes.size(), kHeaderLen + payload.size() + kTrailerLen);
  const Frame f = parse_frame(bytes);
  EXPECT_EQ(f.type, FrameType::kError);
  EXPECT_EQ(f.payload, payload);
}

// --- Exhaustive corruption -------------------------------------------------

std::string valid_frame() {
  return encode_frame(FrameType::kPredictRequest,
                      predict_payload("m", make_sample(4, 3)));
}

TEST(ProtocolFuzz, EveryTruncationThrows) {
  const std::string bytes = valid_frame();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(parse_frame(std::string_view(bytes.data(), len)),
                 ProtocolError)
        << "truncation at " << len << " of " << bytes.size()
        << " bytes parsed";
  }
}

TEST(ProtocolFuzz, EveryPredictPayloadTruncationThrows) {
  // Payload level, below the frame CRC: every prefix of a predict request
  // or response is malformed, the one that stops where the trace context
  // (or the attribution block) would begin included.
  const std::string request = predict_payload("m", make_sample(4, 3));
  for (std::size_t len = 0; len < request.size(); ++len) {
    EXPECT_THROW(decode_predict_request(request.substr(0, len)),
                 ProtocolError)
        << "request truncated at " << len << " of " << request.size()
        << " bytes decoded";
  }
  core::RouteNet::Prediction pred;
  pred.delay_s = {0.001, 0.002};
  pred.jitter_s = {0.0001, 0.0002};
  const std::string response = response_payload(pred);
  for (std::size_t len = 0; len < response.size(); ++len) {
    EXPECT_THROW(decode_predict_response_full(response.substr(0, len)),
                 ProtocolError)
        << "response truncated at " << len << " of " << response.size()
        << " bytes decoded";
  }
}

TEST(ProtocolFuzz, EveryByteFlipThrows) {
  const std::string pristine = valid_frame();
  // Two flip patterns per offset: all-bits (gross corruption) and
  // low-bit (the subtle off-by-one a buggy sender would produce). The
  // CRC trailer covers type ‖ payload, the magic and declared length are
  // checked directly — so no single-byte change may parse.
  for (const unsigned char mask : {0xFFu, 0x01u}) {
    for (std::size_t i = 0; i < pristine.size(); ++i) {
      std::string bytes = pristine;
      bytes[i] = static_cast<char>(bytes[i] ^ static_cast<char>(mask));
      EXPECT_THROW(parse_frame(bytes), ProtocolError)
          << "flip mask 0x" << std::hex << static_cast<int>(mask)
          << " at offset " << std::dec << i << " parsed";
    }
  }
}

TEST(ProtocolFuzz, TrailingBytesAfterAValidFrameThrow) {
  std::string bytes = valid_frame();
  bytes.push_back('\0');
  EXPECT_THROW(parse_frame(bytes), ProtocolError);
}

// --- Hostile envelopes -----------------------------------------------------

TEST(ProtocolFuzz, WrongMagicThrows) {
  std::string bytes = encode_frame(FrameType::kShutdownRequest, {});
  bytes[0] = 'X';
  EXPECT_THROW(parse_frame(bytes), ProtocolError);
}

TEST(ProtocolFuzz, UnknownFrameTypeThrows) {
  for (const std::uint8_t t : {std::uint8_t{0}, std::uint8_t{10},
                               std::uint8_t{0x7F}, std::uint8_t{0xFF}}) {
    std::string bytes = encode_frame(FrameType::kShutdownRequest, {});
    bytes[4] = static_cast<char>(t);
    EXPECT_THROW(parse_frame(bytes), ProtocolError)
        << "type " << static_cast<int>(t) << " parsed";
  }
}

TEST(ProtocolFuzz, AbsurdDeclaredPayloadLengthThrows) {
  // Forge a header declaring a payload far over the cap: the header parse
  // must reject it before anyone tries to allocate 4 GiB.
  std::string bytes(kMagic, sizeof(kMagic));
  bytes.push_back(
      static_cast<char>(FrameType::kPredictRequest));
  put_pod(bytes, std::numeric_limits<std::uint32_t>::max());
  EXPECT_THROW(parse_frame_header(bytes.data()), ProtocolError);

  // Over-cap but bounded: encode_frame refuses to build it at all.
  EXPECT_THROW(
      encode_frame(FrameType::kError, std::string(kMaxPayload + 1, 'x')),
      ProtocolError);
}

TEST(ProtocolFuzz, DeclaredLengthDisagreeingWithBufferThrows) {
  std::string bytes = encode_frame(FrameType::kShutdownRequest, {});
  // Declare 1 payload byte while providing none.
  bytes[5] = 1;
  EXPECT_THROW(parse_frame(bytes), ProtocolError);
}

// --- Hostile predict-request payloads --------------------------------------

// Preamble shared by the forged-payload cases below.
std::string forged_preamble(std::int32_t n_nodes, std::int32_t n_links) {
  std::string p;
  put_str(p, "m");
  put_str(p, "forged");
  put_pod(p, n_nodes);
  put_pod(p, n_links);
  return p;
}

TEST(ProtocolFuzz, AbsurdNameLengthThrows) {
  std::string p;
  put_pod(p, std::numeric_limits<std::uint16_t>::max());  // name_len 65535
  p.append(16, 'x');  // far fewer bytes than declared
  EXPECT_THROW(decode_predict_request(p), ProtocolError);
}

TEST(ProtocolFuzz, EmptyModelNameThrows) {
  std::string p;
  put_str(p, "");
  EXPECT_THROW(decode_predict_request(p), ProtocolError);
}

TEST(ProtocolFuzz, AbsurdNodeAndLinkCountsThrow) {
  // Node count over the cap, negative, and below the minimum.
  for (const std::int32_t nodes :
       {kMaxNodes + 1, -5, 0, 1, std::numeric_limits<std::int32_t>::max()}) {
    EXPECT_THROW(decode_predict_request(forged_preamble(nodes, 1)),
                 ProtocolError)
        << "node count " << nodes << " accepted";
  }
  // Link count over the cap / non-positive.
  for (const std::int32_t links :
       {kMaxLinks + 1, -1, 0, std::numeric_limits<std::int32_t>::max()}) {
    EXPECT_THROW(decode_predict_request(forged_preamble(4, links)),
                 ProtocolError)
        << "link count " << links << " accepted";
  }
  // In-cap link count with far too few bytes behind it: the bulk require()
  // must reject before looping/allocating.
  EXPECT_THROW(decode_predict_request(forged_preamble(4, kMaxLinks)),
               ProtocolError);
}

TEST(ProtocolFuzz, OutOfRangeLinkEndpointsAndValuesThrow) {
  const auto with_link = [](std::int32_t src, std::int32_t dst, double cap,
                            double prop) {
    std::string p = forged_preamble(4, 1);
    put_pod(p, src);
    put_pod(p, dst);
    put_pod(p, cap);
    put_pod(p, prop);
    return p;
  };
  EXPECT_THROW(decode_predict_request(with_link(4, 0, 1e6, 0.0)),
               ProtocolError);  // src == n_nodes
  EXPECT_THROW(decode_predict_request(with_link(-1, 0, 1e6, 0.0)),
               ProtocolError);
  EXPECT_THROW(decode_predict_request(with_link(0, 1, 0.0, 0.0)),
               ProtocolError);  // capacity must be positive
  EXPECT_THROW(decode_predict_request(with_link(
                   0, 1, std::numeric_limits<double>::quiet_NaN(), 0.0)),
               ProtocolError);
  EXPECT_THROW(decode_predict_request(with_link(
                   0, 1, std::numeric_limits<double>::infinity(), 0.0)),
               ProtocolError);
  EXPECT_THROW(decode_predict_request(with_link(0, 1, 1e6, -0.5)),
               ProtocolError);  // negative prop delay
}

TEST(ProtocolFuzz, AbsurdPathLengthAndLinkIdsThrow) {
  // A valid 2-node, 1-link preamble; then a hostile path section.
  const auto with_paths = [](std::uint16_t len0, std::int32_t id0) {
    std::string p = forged_preamble(2, 1);
    put_pod(p, std::int32_t{0});  // link 0: 0 -> 1
    put_pod(p, std::int32_t{1});
    put_pod(p, 1e6);
    put_pod(p, 0.001);
    put_pod(p, len0);  // path for pair 0
    if (len0 > 0) put_pod(p, id0);
    return p;
  };
  // Path longer than the node count (loop-free bound).
  EXPECT_THROW(decode_predict_request(with_paths(3, 0)), ProtocolError);
  EXPECT_THROW(
      decode_predict_request(
          with_paths(std::numeric_limits<std::uint16_t>::max(), 0)),
      ProtocolError);
  // Link id outside the declared link table.
  EXPECT_THROW(decode_predict_request(with_paths(1, 1)), ProtocolError);
  EXPECT_THROW(decode_predict_request(with_paths(1, -1)), ProtocolError);
}

// A ring-4 request whose path for pair (0, 2) is replaced by `hops`, each
// hop given as its (src, dst) link. Every other pair keeps a valid route.
std::string ring4_request_with_path_0_2(
    const std::vector<std::pair<int, int>>& hops) {
  dataset::Sample sample = make_sample(4, 5);
  const topo::Topology& t = *sample.topology;
  routing::Path path;
  for (const auto& [a, b] : hops) {
    for (topo::LinkId id = 0; id < t.num_links(); ++id) {
      if (t.link(id).src == a && t.link(id).dst == b) path.push_back(id);
    }
  }
  EXPECT_EQ(path.size(), hops.size()) << "ring-4 lacks a requested link";
  sample.routing.set_path(0, 2, std::move(path));
  return predict_payload("m", sample);
}

void expect_rejects_pair_0_2(const std::string& payload, const char* why) {
  try {
    decode_predict_request(payload);
    ADD_FAILURE() << why << " path decoded OK";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("pair (0, 2)"), std::string::npos)
        << why << ": error does not name the pair: " << e.what();
  }
}

TEST(ProtocolFuzz, InvalidRoutesThrowNamingThePair) {
  // The untouched route decodes; each broken variant must not.
  EXPECT_NO_THROW(decode_predict_request(
      ring4_request_with_path_0_2({{0, 1}, {1, 2}})));
  expect_rejects_pair_0_2(ring4_request_with_path_0_2({}), "empty");
  expect_rejects_pair_0_2(ring4_request_with_path_0_2({{0, 1}, {3, 2}}),
                          "discontinuous");
  expect_rejects_pair_0_2(
      ring4_request_with_path_0_2({{0, 1}, {1, 0}, {0, 3}, {3, 2}}),
      "looping");
  expect_rejects_pair_0_2(ring4_request_with_path_0_2({{0, 3}}),
                          "wrong-terminus");
}

TEST(ProtocolFuzz, HostileTrafficRatesThrow) {
  const dataset::Sample sample = make_sample(4, 11);
  std::string p = predict_payload("m", sample);
  // The rates are the n_pairs doubles before the 16-byte trace context;
  // corrupt the last one.
  const std::size_t rate_off = p.size() - 16 - sizeof(double);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(p.data() + rate_off, &nan, sizeof(nan));
  EXPECT_THROW(decode_predict_request(p), ProtocolError);
  const double neg = -1.0;
  std::memcpy(p.data() + rate_off, &neg, sizeof(neg));
  EXPECT_THROW(decode_predict_request(p), ProtocolError);
}

TEST(ProtocolFuzz, TrailingPayloadBytesThrow) {
  std::string p = predict_payload("m", make_sample(4, 13));
  p.push_back('\0');
  EXPECT_THROW(decode_predict_request(p), ProtocolError);
  std::string r = encode_reload_request("m");
  r.push_back('\0');
  EXPECT_THROW(decode_reload_request(r), ProtocolError);
}

// --- Hostile response/error payloads ---------------------------------------

TEST(ProtocolFuzz, AbsurdPairCountInResponseThrows) {
  std::string p;
  put_pod(p, std::numeric_limits<std::uint32_t>::max());
  EXPECT_THROW(decode_predict_response_full(p), ProtocolError);
  // In-cap count, no rows behind it.
  std::string q;
  put_pod(q, std::uint32_t{1000});
  EXPECT_THROW(decode_predict_response_full(q), ProtocolError);
}

TEST(ProtocolFuzz, UnknownErrorCodeThrows) {
  for (const std::uint16_t code :
       {std::uint16_t{0}, std::uint16_t{7},
        std::numeric_limits<std::uint16_t>::max()}) {
    std::string p;
    put_pod(p, code);
    put_str(p, "msg");
    EXPECT_THROW(decode_error(p), ProtocolError) << "code " << code;
  }
}

TEST(ProtocolFuzz, OversizedErrorMessageThrows) {
  std::string p;
  put_pod(p, static_cast<std::uint16_t>(ErrorCode::kInternal));
  put_pod(p, static_cast<std::uint16_t>(kMaxErrorMsgLen + 1));
  p.append(kMaxErrorMsgLen + 1, 'x');
  EXPECT_THROW(decode_error(p), ProtocolError);
  // encode_error itself truncates instead of throwing.
  const std::string enc =
      encode_error(ErrorCode::kInternal, std::string(4096, 'y'));
  EXPECT_EQ(decode_error(enc).message.size(), kMaxErrorMsgLen);
}

TEST(ProtocolFuzz, EmptyAndGarbagePayloadsThrowEverywhere) {
  const std::string garbage(64, '\xA5');
  EXPECT_THROW(decode_predict_request({}), ProtocolError);
  EXPECT_THROW(decode_predict_request(garbage), ProtocolError);
  EXPECT_THROW(decode_predict_response_full({}), ProtocolError);
  EXPECT_THROW(decode_error({}), ProtocolError);
  EXPECT_THROW(decode_reload_request({}), ProtocolError);
  EXPECT_THROW(decode_reload_response({}), ProtocolError);
  EXPECT_THROW(decode_reload_response(garbage), ProtocolError);
  EXPECT_THROW(decode_stats_response({}), ProtocolError);
  EXPECT_THROW(decode_stats_response(garbage), ProtocolError);
}

// --- Stats snapshot --------------------------------------------------------

StatsSnapshot make_snapshot() {
  StatsSnapshot snap;
  snap.server_time_s = 123.456;
  snap.trace_dropped = 3;
  snap.trace_sampled_out = 17;
  snap.counters.push_back({"serve.net.requests_total", 812});
  snap.counters.push_back({"serve.net.responses_total", 810});
  snap.gauges.push_back({"serve.net.active_connections", 4.0});
  snap.histograms.push_back(
      {"serve.batch_size", 101, 4.25, 4.0, 7.0, 8.0, 8.0});
  StatsSnapshot::WindowEntry w;
  w.name = "serve.latency_s";
  w.window_s = 30.0;
  w.count = 812;
  w.p50 = 0.0012;
  w.p95 = 0.0034;
  w.p99 = 0.0045;
  w.exemplars.push_back({31, 0.0013, 0xAABB0001ULL});
  w.exemplars.push_back({36, 0.0051, 0xAABB0002ULL});
  snap.windows.push_back(std::move(w));
  snap.models.push_back({"default", 2, 12345});
  return snap;
}

TEST(ProtocolRoundTrip, StatsResponseIsBitwiseStable) {
  const StatsSnapshot snap = make_snapshot();
  const std::string payload = encode_stats_response(snap);
  const StatsSnapshot decoded = decode_stats_response(payload);
  EXPECT_EQ(decoded.server_time_s, snap.server_time_s);
  EXPECT_EQ(decoded.trace_dropped, snap.trace_dropped);
  EXPECT_EQ(decoded.trace_sampled_out, snap.trace_sampled_out);
  ASSERT_EQ(decoded.counters.size(), snap.counters.size());
  EXPECT_EQ(decoded.counters[0].name, "serve.net.requests_total");
  EXPECT_EQ(decoded.counters[0].value, 812u);
  ASSERT_EQ(decoded.windows.size(), 1u);
  EXPECT_EQ(decoded.windows[0].p99, 0.0045);
  ASSERT_EQ(decoded.windows[0].exemplars.size(), 2u);
  EXPECT_EQ(decoded.windows[0].exemplars[1].request_id, 0xAABB0002ULL);
  ASSERT_EQ(decoded.models.size(), 1u);
  EXPECT_EQ(decoded.models[0].version, 2u);
  // encode(decode(bytes)) == bytes: the codec is canonical, so a hostile
  // middlebox cannot smuggle bytes an honest re-encode would not produce.
  EXPECT_EQ(encode_stats_response(decoded), payload);
}

TEST(ProtocolFuzz, EveryStatsTruncationThrows) {
  const std::string payload = encode_stats_response(make_snapshot());
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(
        decode_stats_response(std::string_view(payload.data(), len)),
        ProtocolError)
        << "truncation at " << len << " of " << payload.size() << " parsed";
  }
  std::string extra = payload;
  extra.push_back('\0');
  EXPECT_THROW(decode_stats_response(extra), ProtocolError);
}

TEST(ProtocolFuzz, HostileStatsCountsThrow) {
  // Section count over the cap: rejected before any allocation.
  std::string p;
  put_pod(p, 123.0);           // server_time_s
  put_pod(p, std::uint64_t{0});  // trace_dropped
  put_pod(p, std::uint64_t{0});  // trace_sampled_out
  put_pod(p, static_cast<std::uint32_t>(kMaxStatsEntries + 1));
  EXPECT_THROW(decode_stats_response(p), ProtocolError);

  // In-cap count with no entries behind it.
  std::string q;
  put_pod(q, 123.0);
  put_pod(q, std::uint64_t{0});
  put_pod(q, std::uint64_t{0});
  put_pod(q, std::uint32_t{100});
  EXPECT_THROW(decode_stats_response(q), ProtocolError);

  // Exemplar count over the cap inside an otherwise valid window.
  StatsSnapshot snap = make_snapshot();
  snap.windows[0].exemplars.assign(
      kMaxExemplars + 1,
      StatsSnapshot::ExemplarEntry{1, 0.5, 42});
  EXPECT_THROW(encode_stats_response(snap), ProtocolError);

  // A zero exemplar request id forged onto the wire throws on decode
  // (0 is the reserved "untraced" id, so it can never name a request).
  snap = make_snapshot();
  snap.windows[0].exemplars.resize(1);
  std::string enc = encode_stats_response(snap);
  // The single exemplar's rid is the last 8 bytes before the model section
  // (name len + name + version + parameters).
  const std::size_t model_section =
      sizeof(std::uint32_t) + sizeof(std::uint16_t) +
      std::string("default").size() + 2 * sizeof(std::uint64_t);
  const std::size_t rid_off = enc.size() - model_section - sizeof(std::uint64_t);
  const std::uint64_t zero = 0;
  std::memcpy(enc.data() + rid_off, &zero, sizeof(zero));
  EXPECT_THROW(decode_stats_response(enc), ProtocolError);
}

// --- Reject branches, each matched by its message -------------------------

TEST(ProtocolReject, EncodedNameOverTheCap) {
  expect_protocol_error(
      [] { encode_reload_request(std::string(kMaxNameLen + 1, 'm')); },
      "model name length 257 exceeds cap 256");
}

TEST(ProtocolReject, EncodedPathWithMoreHopsThanNodes) {
  // Six hops on a 4-node ring: no simple path is that long.
  expect_protocol_error(
      [] {
        ring4_request_with_path_0_2(
            {{0, 1}, {1, 0}, {0, 1}, {1, 0}, {0, 1}, {1, 2}});
      },
      "has 6 hops on a topology of 4 nodes");
}

TEST(ProtocolReject, EncodedPredictionSizesDisagree) {
  core::RouteNet::Prediction pred;
  pred.delay_s = {0.1, 0.2};
  pred.jitter_s = {0.01};
  expect_protocol_error([&] { response_payload(pred); },
                        "prediction delay/jitter sizes disagree");
}

TEST(ProtocolReject, DecodedResponseWithZeroRequestId) {
  core::RouteNet::Prediction pred;
  pred.delay_s = {0.1};
  pred.jitter_s = {0.01};
  std::string p = response_payload(pred);
  // The attribution block is the trailing rid:u64 wait:f64 server:f64.
  const std::uint64_t zero = 0;
  std::memcpy(p.data() + p.size() - 3 * sizeof(double), &zero, sizeof(zero));
  expect_protocol_error([&] { decode_predict_response_full(p); },
                        "response request id must be non-zero");
}

TEST(ProtocolReject, EncodedStatsCountOverTheCap) {
  // One cap check per section, made before any entry is written; each
  // section's vector type is its own instantiation of the check.
  constexpr std::size_t kOver = kMaxStatsEntries + 1;
  const auto over = [](auto edit) {
    StatsSnapshot snap = make_snapshot();
    edit(snap);
    return [snap] { encode_stats_response(snap); };
  };
  expect_protocol_error(over([](StatsSnapshot& s) {
                          s.counters.resize(kOver);
                        }),
                        "counter count 4097 exceeds cap 4096");
  expect_protocol_error(over([](StatsSnapshot& s) {
                          s.gauges.resize(kOver);
                        }),
                        "gauge count 4097 exceeds cap 4096");
  expect_protocol_error(over([](StatsSnapshot& s) {
                          s.histograms.resize(kOver);
                        }),
                        "histogram count 4097 exceeds cap 4096");
  expect_protocol_error(over([](StatsSnapshot& s) {
                          s.windows.resize(kOver);
                        }),
                        "window count 4097 exceeds cap 4096");
  expect_protocol_error(over([](StatsSnapshot& s) {
                          s.models.resize(kOver);
                        }),
                        "model count 4097 exceeds cap 4096");
}

TEST(ErrorCodeName, NamesEveryCodeAndAnUnknownOne) {
  EXPECT_STREQ(error_code_name(ErrorCode::kMalformed), "malformed");
  EXPECT_STREQ(error_code_name(ErrorCode::kUnknownModel), "unknown-model");
  EXPECT_STREQ(error_code_name(ErrorCode::kRejected), "rejected");
  EXPECT_STREQ(error_code_name(ErrorCode::kStopping), "stopping");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "internal");
  EXPECT_STREQ(error_code_name(ErrorCode::kTimeout), "timeout");
  EXPECT_STREQ(error_code_name(static_cast<ErrorCode>(99)), "unknown");
}

TEST(ProtocolReject, DecodedExemplarCountOverTheCap) {
  StatsSnapshot snap = make_snapshot();
  snap.windows[0].exemplars.clear();
  std::string enc = encode_stats_response(snap);
  // With no exemplars, the window's u16 exemplar count sits just before
  // the model section (count + name len + name + version + parameters).
  const std::size_t model_section =
      sizeof(std::uint32_t) + sizeof(std::uint16_t) +
      std::string("default").size() + 2 * sizeof(std::uint64_t);
  const auto over = static_cast<std::uint16_t>(kMaxExemplars + 1);
  std::memcpy(enc.data() + enc.size() - model_section - sizeof(over), &over,
              sizeof(over));
  expect_protocol_error([&] { decode_stats_response(enc); },
                        "exemplar count 257 exceeds cap 256");
}

}  // namespace
}  // namespace rn::serve::wire
