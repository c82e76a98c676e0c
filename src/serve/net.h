// Network-facing serving: blocking-socket RNP/1 transport.
//
// NetServer listens on TCP or a Unix domain socket ("tcp:host:port" /
// "unix:/path"; TCP port 0 binds an ephemeral port readable via port())
// and speaks RNP/1 (serve/protocol.h). One thread accepts; each accepted
// connection gets a handler thread that loops read-frame → dispatch →
// write-frame. Predict requests route through the ModelRegistry by model
// name into that model's micro-batching InferenceServer — concurrent
// connections coalesce into shared forward passes exactly like in-process
// callers. Reload requests hot-swap a model from its source path;
// shutdown requests ack, then make wait() return so the owner can stop().
//
// Failure discipline mirrors the wire spec: a malformed frame gets one
// kMalformed error frame (best effort) and the connection is closed; an
// unknown model, a full queue, or a forward failure gets a typed error
// frame and the connection stays usable. The server never aborts on
// hostile bytes (protocol_fuzz_test proves the parser; serve_net_smoke
// proves the loop).
//
// stop() drains: the listener closes, every open connection's read side is
// shut down (in-flight responses still flush), handler threads join, each
// model's InferenceServer serves what it already queued.
//
// NetClient is the matching blocking client: one connection, synchronous
// predict()/reload()/shutdown_server()/stats(); server-side error frames
// surface as RemoteError carrying the wire ErrorCode. predict() always
// attaches a client-generated request id + send timestamp (the server
// echoes the id with queue-wait/server-time attribution); predict_traced()
// exposes that attribution, and a `serve.client.request` span (arg: rid)
// ties the client side of the timeline to the server's spans.
//
// Per-connection read timeout: a stalled client holding a half-sent frame
// (or an idle connection) must not pin a handler thread forever —
// SO_RCVTIMEO on each accepted socket turns the stall into one clean
// kTimeout error frame followed by close (read_timeout_s, 0 disables).
//
// Connection cap: at most NetServer::kMaxConnections handler threads are
// live at once. A connection accepted over the cap gets one kRejected error
// frame ("connection limit reached") and is closed without a thread; it
// counts as a refused connection, not as a connection. The client sees the
// frame as the reply to its first request.
//
// Telemetry: counters serve.net.requests_total / responses_total /
// errors_total / rejected_total / bytes_rx_total (stats() holds the rest
// of this server's figures); events serve.net.listen /
// serve.net.shutdown; spans serve.net.request (arg: rid) with
// serve.net.read / serve.net.write plus the InferenceServer's per-request
// decomposition nested by parent id.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/routenet.h"
#include "dataset/dataset.h"
#include "serve/protocol.h"
#include "serve/registry.h"

namespace rn::serve {

// A parsed listen/connect spec: "tcp:HOST:PORT" or "unix:PATH".
struct Address {
  enum class Kind { kTcp, kUnix };
  Kind kind = Kind::kTcp;
  std::string host;         // tcp only; numeric IPv4 or a resolvable name
  std::uint16_t port = 0;   // tcp only; 0 = ephemeral (server)
  std::string path;         // unix only
};

// Throws std::invalid_argument on anything else.
Address parse_address(const std::string& spec);
std::string format_address(const Address& addr);

struct NetServerConfig {
  // A kShutdownRequest frame stops the server only on a unix socket or a
  // 127/8 bind; any other listen answers it with kRejected.
  std::string listen = "tcp:127.0.0.1:0";
  // Per-connection receive timeout (SO_RCVTIMEO). A connection whose read
  // blocks this long — idle or stalled mid-frame — gets one kTimeout error
  // frame and is closed. 0 disables.
  double read_timeout_s = 30.0;
};

struct NetStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t errors = 0;
  std::uint64_t rejected = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t refused_connections = 0;  // accepted over kMaxConnections
  std::uint64_t bytes_rx = 0;
  std::uint64_t bytes_tx = 0;
};

class NetServer {
 public:
  // Most connections served at once. A handler answers each frame before it
  // reads the next, so a connection has at most one request in flight, and
  // 256 is one model's default queue (ServerConfig::queue_capacity): past
  // it, connections that all send at once could only add queue-full
  // rejections, while each still costs a thread.
  static constexpr std::size_t kMaxConnections = 256;

  // The registry must outlive the server.
  NetServer(ModelRegistry& registry, NetServerConfig cfg);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds, listens, spawns the accept thread. Throws on bind failure.
  void start();

  // Blocks until a remote shutdown request arrives or stop() is called.
  void wait();

  // Graceful drain: close the listener, shut down reads on open
  // connections (responses in flight still flush), join every thread.
  // Idempotent.
  void stop();

  // Canonical bound address, e.g. "tcp:127.0.0.1:43117" (the actual
  // ephemeral port) — valid after start().
  std::string address() const;
  std::uint16_t port() const { return bound_port_; }

  NetStats stats() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
  };

  // Runs on accept_thread_ over a copy of the listening fd taken at start;
  // it never touches listen_fd_, which stop() owns.
  void accept_loop(int listen_fd);
  void serve_connection(Connection* conn);
  // Dispatches one decoded frame; returns false when the connection must
  // close (malformed traffic).
  bool handle_frame(int fd, const wire::Frame& frame);
  void send_frame(int fd, wire::FrameType type, std::string_view payload);
  void send_error(int fd, wire::ErrorCode code, std::string_view message);
  // Builds the kStatsResponse payload source: the live obs::Registry
  // snapshot + tracer loss counters + the model registry's version table.
  wire::StatsSnapshot stats_snapshot() const;
  void request_shutdown();
  void reap_finished_connections();

  ModelRegistry& registry_;
  NetServerConfig cfg_;

  Address addr_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  // Set by start() from the bound address: unix socket or 127/8.
  bool local_listen_ = false;
  std::thread accept_thread_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_requested_ = false;
  bool stopping_ = false;
  bool stopped_ = false;
  std::vector<std::unique_ptr<Connection>> connections_;

  std::atomic<std::int64_t> active_connections_{0};
  std::atomic<std::uint64_t> connections_total_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> refused_connections_{0};
  std::atomic<std::uint64_t> bytes_rx_{0};
  std::atomic<std::uint64_t> bytes_tx_{0};
};

// Raised by NetClient when the server answers with an RNP/1 error frame.
class RemoteError : public std::runtime_error {
 public:
  RemoteError(wire::ErrorCode code, const std::string& message)
      : std::runtime_error(std::string(wire::error_code_name(code)) + ": " +
                           message),
        code_(code) {}
  wire::ErrorCode code() const { return code_; }

 private:
  wire::ErrorCode code_;
};

// Blocking single-connection RNP/1 client. Not thread-safe; use one per
// thread (the load generator does).
class NetClient {
 public:
  // One traced round trip, as the client saw it plus what the server
  // attributed. rtt_s is wall time around the socket round trip;
  // queue_wait_s/server_s come from the response's trailing attribution
  // block (server_traced=false against a server that predates it).
  struct PredictOutcome {
    core::RouteNet::Prediction prediction;
    std::uint64_t request_id = 0;
    double rtt_s = 0.0;
    bool server_traced = false;
    double queue_wait_s = 0.0;  // server: enqueue → batch take
    double server_s = 0.0;      // server: decode → response encode
  };

  // Connects immediately; throws std::runtime_error on refusal.
  explicit NetClient(const std::string& address);
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  core::RouteNet::Prediction predict(const std::string& model,
                                     const dataset::Sample& sample);
  // Like predict(), returning the request id and timing attribution. Both
  // entry points send the same extended frame; a `serve.client.request`
  // span (arg: rid) covers the round trip so client and server trace files
  // merge on one id.
  PredictOutcome predict_traced(const std::string& model,
                                const dataset::Sample& sample);
  wire::ReloadResponse reload(const std::string& model);
  // Scrapes the server's live telemetry snapshot (kStatsRequest).
  wire::StatsSnapshot stats();
  // Sends kShutdownRequest and waits for the ack.
  void shutdown_server();

 private:
  wire::Frame roundtrip(wire::FrameType type, std::string_view payload);
  std::uint64_t next_request_id();

  int fd_ = -1;
  std::uint64_t rid_counter_ = 0;
};

}  // namespace rn::serve
