// RNP/1 — the RouteNet serving wire protocol.
//
// A tiny length-prefixed binary request/response protocol spoken by
// serve::NetServer / serve::NetClient over TCP or Unix domain sockets.
// One frame is:
//
//   offset 0  magic   "RNP1"                      (4 bytes)
//   offset 4  type    FrameType                   (1 byte)
//   offset 5  len     payload length, LE uint32   (4 bytes)
//   offset 9  payload `len` bytes
//   trailer   crc32 over (type byte ‖ payload), LE uint32
//
// The reader follows the RNCKPT2 bounds-checked discipline: every length
// is validated against the bytes actually present BEFORE anything is
// allocated or read, absurd counts (name_len, n_nodes, n_links, path
// lengths, payload lengths) are rejected with a clean ProtocolError —
// never an abort, never an over-read — and the CRC trailer makes every
// single-byte corruption detectable (protocol_fuzz_test flips every byte
// and truncates at every offset to prove it). Integers are little-endian;
// doubles are IEEE-754 binary64.
//
// Message payloads:
//   kPredictRequest   model name + a full inference scenario (topology,
//                     per-pair routing paths, per-pair traffic rates),
//                     then a trace context (client request id + client
//                     send timestamp)
//   kPredictResponse  per-pair predicted delay/jitter seconds, then the
//                     echoed request id + server-side timing attribution
//                     (queue-wait / total server seconds)
//   kError            ErrorCode + human-readable message
//   kReloadRequest    model name — hot-reload it from its source path
//   kReloadResponse   model name + new registry version
//   kShutdownRequest  empty — drain queued requests and exit
//   kShutdownAck      empty
//   kStatsRequest     empty — ask for a live telemetry snapshot
//   kStatsResponse    the server's obs::Registry snapshot (counters,
//                     gauges, histogram + window quantiles with
//                     exemplars), tracer losses, and registry model
//                     versions — what `routenet obs top` renders
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/routenet.h"
#include "dataset/dataset.h"

namespace rn::serve::wire {

inline constexpr char kMagic[4] = {'R', 'N', 'P', '1'};
inline constexpr std::size_t kHeaderLen = 9;   // magic + type + payload len
inline constexpr std::size_t kTrailerLen = 4;  // crc32(type ‖ payload)
// Hard ceilings the reader enforces before allocating anything.
inline constexpr std::uint32_t kMaxPayload = 64u << 20;  // 64 MiB
inline constexpr std::size_t kMaxNameLen = 256;
inline constexpr std::size_t kMaxErrorMsgLen = 512;
inline constexpr int kMaxNodes = 4096;
inline constexpr int kMaxLinks = 1 << 18;
// Stats snapshots: per-section entry cap and per-window exemplar cap. The
// exemplar bucket cap is deliberately independent of the obs histogram
// geometry so the wire layer never couples to it.
inline constexpr std::size_t kMaxStatsEntries = 4096;
inline constexpr std::size_t kMaxExemplars = 256;

enum class FrameType : std::uint8_t {
  kPredictRequest = 1,
  kPredictResponse = 2,
  kError = 3,
  kReloadRequest = 4,
  kReloadResponse = 5,
  kShutdownRequest = 6,
  kShutdownAck = 7,
  kStatsRequest = 8,
  kStatsResponse = 9,
};

enum class ErrorCode : std::uint16_t {
  kMalformed = 1,     // frame or payload failed validation
  kUnknownModel = 2,  // no such name in the registry
  kRejected = 3,      // backpressure: the model's queue is full
  kStopping = 4,      // server is shutting down
  kInternal = 5,      // forward pass / reload failure
  kTimeout = 6,       // connection read timed out mid-frame (or idle)
};

// Every malformed byte sequence raises this (a std::runtime_error), with a
// message naming the offending field.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error("RNP/1: " + what) {}
};

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

struct FrameHeader {
  FrameType type = FrameType::kError;
  std::uint32_t payload_len = 0;
};

// Trailing block on every predict request: a client-generated request id
// plus the client's wall-clock send time. Carried through the server's
// span tree and echoed on the response, so one id links the client span,
// the server's queue.wait/batch.assemble/forward spans, and the latency
// exemplar.
struct TraceContext {
  std::uint64_t request_id = 0;  // client-generated, never 0
  double client_send_unix_s = 0.0;
};

struct PredictRequest {
  std::string model;
  dataset::Sample sample;
  TraceContext trace;
};

// Full decode of a predict response, including the server timing
// attribution echoed back to the client.
struct PredictResponse {
  core::RouteNet::Prediction prediction;
  std::uint64_t request_id = 0;
  double queue_wait_s = 0.0;  // enqueue → batch take, server clock
  double server_s = 0.0;      // decode → response encode, server clock
};

struct ErrorFrame {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

struct ReloadResponse {
  std::string model;
  std::uint64_t version = 0;
};

// Live telemetry snapshot for kStatsResponse: the serving process's
// obs::Registry contents plus tracer loss counters and the model registry's
// name → version table.
struct StatsSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0.0;
  };
  struct HistogramEntry {
    std::string name;
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };
  struct ExemplarEntry {
    std::uint16_t bucket = 0;
    double value = 0.0;
    std::uint64_t request_id = 0;
  };
  struct WindowEntry {
    std::string name;
    double window_s = 0.0;
    std::uint64_t count = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    std::vector<ExemplarEntry> exemplars;
  };
  struct ModelEntry {
    std::string name;
    std::uint64_t version = 0;
    std::uint64_t parameters = 0;
  };

  double server_time_s = 0.0;  // server's monotonic telemetry clock
  std::uint64_t trace_dropped = 0;
  std::uint64_t trace_sampled_out = 0;
  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;
  std::vector<WindowEntry> windows;
  std::vector<ModelEntry> models;
};

// --- Framing ---------------------------------------------------------------

// Wraps a payload in the magic/type/len envelope and appends the CRC.
std::string encode_frame(FrameType type, std::string_view payload);

// Validates magic, type, and payload length of the fixed-size header
// (exactly kHeaderLen bytes). Throws ProtocolError.
FrameHeader parse_frame_header(const char* bytes);

// Validates the trailer CRC against (type ‖ payload). Throws ProtocolError.
void verify_frame_crc(FrameType type, std::string_view payload,
                      std::uint32_t trailer_crc);

// Whole-buffer parse: header + payload + trailer with nothing left over.
// The entry point the fuzz suite drives; socket readers stream the same
// validations via parse_frame_header/verify_frame_crc.
Frame parse_frame(std::string_view bytes);

// --- Payload codecs --------------------------------------------------------
// decode_* functions accept exactly one payload (no envelope) and throw
// ProtocolError on any structural violation.

// The scenario, then the trace context: trace.request_id must be non-zero
// and trace.client_send_unix_s finite.
std::string encode_predict_request(const std::string& model,
                                   const dataset::Sample& sample,
                                   const TraceContext& trace);
// Requires the trace context. Rejects any path that is empty,
// discontinuous, loops, or misses its destination, naming the pair.
PredictRequest decode_predict_request(std::string_view payload);

// The prediction, then the echoed request id and the server's time.
std::string encode_predict_response(const core::RouteNet::Prediction& pred,
                                    std::uint64_t request_id,
                                    double queue_wait_s, double server_s);
// Requires the attribution block.
PredictResponse decode_predict_response_full(std::string_view payload);

std::string encode_error(ErrorCode code, std::string_view message);
ErrorFrame decode_error(std::string_view payload);

std::string encode_reload_request(const std::string& model);
std::string decode_reload_request(std::string_view payload);

std::string encode_reload_response(const std::string& model,
                                   std::uint64_t version);
ReloadResponse decode_reload_response(std::string_view payload);

// kStatsRequest has an empty payload; kStatsResponse carries the snapshot.
std::string encode_stats_response(const StatsSnapshot& snap);
StatsSnapshot decode_stats_response(std::string_view payload);

const char* error_code_name(ErrorCode code);

}  // namespace rn::serve::wire
