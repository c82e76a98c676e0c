// NetServer observability contract (labels: serve, net).
//
// In-process loopback coverage for the tracing + scraping surface of the
// RNP/1 server:
//   - predict_traced() round trip: the client-generated request id comes
//     back on the response with non-negative server attribution
//     (queue-wait ≤ total server time ≤ client rtt).
//   - An id-less predict frame (hand-framed over a raw socket, no
//     trailing trace context) is answered with kMalformed, and the server
//     goes on serving other connections.
//   - A client that stalls mid-frame (or sits idle) trips the
//     per-connection read timeout: one clean kTimeout error frame, then
//     close, and the server's timeout counter moves. So does one that
//     keeps a frame alive by sending a byte a second: a frame must arrive
//     whole within read_timeout_s of its first byte.
//   - A traced `serve.net.read` span covers the frame's bytes, not the
//     idle gap before it.
//   - A stats scrape (kStatsRequest) reports the live registry: request
//     counters that grow between two scrapes, the installed model with
//     its version, and latency-window exemplars whose request ids all
//     belong to traced requests this process actually issued.
//   - Error frames over a real socket: a predict against a full queue gets
//     kRejected, one for a model that is not loaded gets kUnknownModel,
//     and a shutdown sent to a server bound to 0.0.0.0 gets kRejected. Each
//     leaves the connection serving and moves NetStats and the
//     serve.net.{rejected,errors}_total counters by exactly one.
//   - Remote shutdown is acked on a 127/8 listen and on a unix socket.
//   - A frame's payload buffer grows only as its bytes arrive: 64
//     connections that each send a header declaring the 64 MiB maximum and
//     then stall raise this process's VmRSS by under 16 MB (measured after
//     each connection's handler thread exists), and a predict frame several
//     read steps long, trickled in odd-sized pieces, is still served bit
//     for bit.
//   - A queued predict holds its decoded request, not its raw payload:
//     with the batcher paused, K queued large predicts raise the heap's
//     bytes in use (glibc mallinfo2, every arena) by well under
//     K × (decoded size + payload). Neither does a client: K NetClient
//     predicts waiting on that paused batcher raise it by under
//     K × (decoded size + payload / 2), since each client frees its
//     payload and the framed copy once the frame is written.
//   - The connection cap: with NetServer::kMaxConnections clients
//     connected, one more idle connection gets one kRejected frame and EOF
//     and counts as refused, not as a connection; once one of the others
//     closes, a new one is served.
#include "serve/net.h"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/routing.h"
#include "serve/protocol.h"
#include "topology/generators.h"
#include "traffic/traffic.h"

namespace rn::serve {
namespace {

core::RouteNetConfig tiny_config() {
  core::RouteNetConfig cfg;
  cfg.link_state_dim = 6;
  cfg.path_state_dim = 6;
  cfg.iterations = 2;
  cfg.readout_hidden = 8;
  cfg.seed = 17;
  return cfg;
}

dataset::Sample make_request(std::uint64_t seed) {
  auto topology = std::make_shared<const topo::Topology>(topo::ring(5));
  Rng rng(seed);
  routing::RoutingScheme scheme =
      routing::random_k_shortest_routing(*topology, 2, rng);
  traffic::TrafficMatrix tm =
      traffic::uniform_traffic(topology->num_nodes(), 50.0, 150.0, rng);
  return dataset::make_inference_sample(topology, std::move(scheme),
                                        std::move(tm));
}

ServerConfig fast_config() {
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.queue_capacity = 64;
  cfg.workers = 1;
  return cfg;
}

NetServerConfig loopback_config(double read_timeout_s = 30.0) {
  NetServerConfig cfg;
  cfg.listen = "tcp:127.0.0.1:0";
  cfg.read_timeout_s = read_timeout_s;
  return cfg;
}

// Every request id this test binary has sent. The obs::Registry (and so
// the latency-window exemplar store) is process-global, so the scrape
// test validates exemplar ids against everything issued here, not just
// its own requests.
std::set<std::uint64_t>& issued_rids() {
  static std::set<std::uint64_t> rids;
  return rids;
}

// A scenario on a 100-node Barabási–Albert graph with k = 2 routing: a
// predict payload of about 240 kB.
dataset::Sample ba100_request(std::uint64_t seed) {
  Rng rng(seed);
  auto topology = std::make_shared<const topo::Topology>(
      topo::synthetic_ba(100, 2, rng));
  routing::RoutingScheme scheme =
      routing::random_k_shortest_routing(*topology, 2, rng);
  traffic::TrafficMatrix tm =
      traffic::uniform_traffic(topology->num_nodes(), 50.0, 150.0, rng);
  return dataset::make_inference_sample(topology, std::move(scheme),
                                        std::move(tm));
}

// A predict request payload as NetClient sends it, trace context included.
std::string predict_payload(const std::string& model,
                            const dataset::Sample& sample) {
  wire::TraceContext ctx;
  ctx.request_id = 42;
  ctx.client_send_unix_s = 1.0;
  return wire::encode_predict_request(model, sample, ctx);
}

NetClient::PredictOutcome traced_predict(NetClient& client,
                                         const std::string& model,
                                         const dataset::Sample& sample) {
  NetClient::PredictOutcome out = client.predict_traced(model, sample);
  issued_rids().insert(out.request_id);
  return out;
}

// --- Raw-socket helpers (id-less client / stalling client) -----------------

int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  return fd;
}

void write_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

// Reads until `want` bytes or EOF; returns what arrived.
std::string read_upto(int fd, std::size_t want) {
  std::string buf;
  buf.resize(want);
  std::size_t off = 0;
  while (off < want) {
    const ssize_t n = ::read(fd, buf.data() + off, want - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  buf.resize(off);
  return buf;
}

// Reads one whole RNP/1 frame off a raw socket and parses it.
wire::Frame read_frame(int fd) {
  std::string bytes = read_upto(fd, wire::kHeaderLen);
  if (bytes.size() != wire::kHeaderLen) {
    throw wire::ProtocolError("connection closed mid-header");
  }
  const wire::FrameHeader header = wire::parse_frame_header(bytes.data());
  const std::string rest =
      read_upto(fd, header.payload_len + wire::kTrailerLen);
  if (rest.size() != header.payload_len + wire::kTrailerLen) {
    throw wire::ProtocolError("connection closed mid-frame");
  }
  return wire::parse_frame(bytes + rest);
}

// Resident set of this process in kB (VmRSS in /proc/self/status).
long vm_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  ADD_FAILURE() << "no VmRSS line in /proc/self/status";
  return 0;
}

// Heap bytes in use across every glibc arena, mmapped chunks included.
std::size_t heap_in_use() {
  const struct mallinfo2 mi = ::mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

std::uint64_t counter_value(const wire::StatsSnapshot& snap,
                            const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// Runs `call` and requires it to fail with an RNP/1 error frame of `code`.
void expect_remote_error(const std::function<void()>& call,
                         wire::ErrorCode code) {
  try {
    call();
    ADD_FAILURE() << "expected a " << wire::error_code_name(code)
                  << " error frame";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
}

// --- Tests -----------------------------------------------------------------

TEST(NetObs, TracedPredictEchoesRequestIdWithAttribution) {
  ModelRegistry registry(fast_config());
  registry.install("m", std::make_unique<core::RouteNet>(tiny_config()));
  NetServer server(registry, loopback_config());
  server.start();

  NetClient client(server.address());
  const dataset::Sample sample = make_request(3);
  const NetClient::PredictOutcome a = traced_predict(client, "m", sample);
  const NetClient::PredictOutcome b = traced_predict(client, "m", sample);

  EXPECT_NE(a.request_id, 0u);
  EXPECT_NE(b.request_id, 0u);
  EXPECT_NE(a.request_id, b.request_id);
  EXPECT_TRUE(a.server_traced);
  // Attribution nests: queue wait is part of server time, which the
  // client's measured round trip must contain.
  EXPECT_GE(a.queue_wait_s, 0.0);
  EXPECT_LE(a.queue_wait_s, a.server_s);
  EXPECT_GT(a.server_s, 0.0);
  EXPECT_GE(a.rtt_s, a.server_s);
  EXPECT_EQ(a.prediction.delay_s.size(),
            static_cast<std::size_t>(sample.num_pairs()));

  server.stop();
}

TEST(NetObs, IdLessPredictGetsMalformed) {
  ModelRegistry registry(fast_config());
  registry.install("m", std::make_unique<core::RouteNet>(tiny_config()));
  NetServer server(registry, loopback_config());
  server.start();

  // Hand-frame a predict without its trailing 16-byte TraceContext.
  const std::string payload = predict_payload("m", make_request(4));
  const int fd = raw_connect(server.port());
  write_all(fd, wire::encode_frame(wire::FrameType::kPredictRequest,
                                   payload.substr(0, payload.size() - 16)));

  const wire::Frame reply = read_frame(fd);
  ASSERT_EQ(reply.type, wire::FrameType::kError);
  const wire::ErrorFrame err = wire::decode_error(reply.payload);
  EXPECT_EQ(err.code, wire::ErrorCode::kMalformed);
  EXPECT_NE(err.message.find("trace request id"), std::string::npos)
      << err.message;
  // A malformed frame closes its connection; the server serves on.
  EXPECT_TRUE(read_upto(fd, 1).empty());
  ::close(fd);
  NetClient client(server.address());
  EXPECT_TRUE(traced_predict(client, "m", make_request(4)).server_traced);

  server.stop();
}

TEST(NetObs, StallingClientGetsTimeoutErrorThenClose) {
  ModelRegistry registry(fast_config());
  registry.install("m", std::make_unique<core::RouteNet>(tiny_config()));
  NetServer server(registry, loopback_config(/*read_timeout_s=*/0.2));
  server.start();

  // Send a deliberately partial frame (just the magic) and stall. The
  // server's read of the remaining header bytes must time out instead of
  // pinning the handler thread.
  const int fd = raw_connect(server.port());
  write_all(fd, std::string_view("RNP1", 4));

  const wire::Frame reply = read_frame(fd);
  ASSERT_EQ(reply.type, wire::FrameType::kError);
  const wire::ErrorFrame err = wire::decode_error(reply.payload);
  EXPECT_EQ(err.code, wire::ErrorCode::kTimeout);
  // After the error frame the server closes its side: next read is EOF.
  EXPECT_TRUE(read_upto(fd, 1).empty());
  ::close(fd);

  // The counter is bumped by the handler thread; give it a beat to land.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().timeouts == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().timeouts, 1u);

  // The timeout must not have taken the server down: a healthy client on
  // a fresh connection still gets served.
  NetClient client(server.address());
  const NetClient::PredictOutcome out =
      traced_predict(client, "m", make_request(5));
  EXPECT_TRUE(out.server_traced);

  server.stop();
}

TEST(NetObs, OneBytePerSecondSenderIsCutOffAtTheFrameDeadline) {
  ModelRegistry registry(fast_config());
  registry.install("m", std::make_unique<core::RouteNet>(tiny_config()));
  NetServer server(registry, loopback_config(/*read_timeout_s=*/2.0));
  server.start();

  // A valid frame sent one byte a second: every gap is well inside
  // read_timeout_s, but the frame as a whole is not. The sender gives up
  // after ten bytes, so a server that times only the gaps answers about
  // 12 s in rather than never.
  const std::string frame =
      wire::encode_frame(wire::FrameType::kPredictRequest,
                         predict_payload("m", make_request(3)));
  ASSERT_GT(frame.size(), 10u);
  const int fd = raw_connect(server.port());
  std::atomic<bool> done{false};
  std::thread trickle([&] {
    for (std::size_t i = 0; i < 10 && !done.load(); ++i) {
      if (::send(fd, frame.data() + i, 1, MSG_NOSIGNAL) != 1) break;
      for (int t = 0; t < 20 && !done.load(); ++t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
  });
  const auto started = std::chrono::steady_clock::now();
  const wire::Frame reply = read_frame(fd);
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started)
                            .count();
  done.store(true);
  trickle.join();
  ASSERT_EQ(reply.type, wire::FrameType::kError);
  const wire::ErrorFrame err = wire::decode_error(reply.payload);
  EXPECT_EQ(err.code, wire::ErrorCode::kTimeout);
  EXPECT_NE(err.message.find("timed out"), std::string::npos)
      << err.message;
  // Cut off near the 2 s frame deadline, while the sender is still
  // sending.
  EXPECT_GE(waited, 1.5);
  EXPECT_LT(waited, 6.0);
  EXPECT_TRUE(read_upto(fd, 1).empty());
  ::close(fd);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().timeouts == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().timeouts, 1u);
  EXPECT_EQ(server.stats().requests, 0u);
  server.stop();
}

TEST(NetObs, ReadSpanExcludesTheIdleGapBeforeAFrame) {
  obs::Tracer::global().reset_for_tests();
  obs::Tracer::global().enable();
  ModelRegistry registry(fast_config());
  registry.install("m", std::make_unique<core::RouteNet>(tiny_config()));
  NetServer server(registry, loopback_config());
  server.start();
  constexpr double kGapS = 0.3;
  {
    NetClient client(server.address());
    traced_predict(client, "m", make_request(8));
    std::this_thread::sleep_for(std::chrono::duration<double>(kGapS));
    traced_predict(client, "m", make_request(9));
  }
  server.stop();
  std::vector<obs::TraceRecord> reads;
  for (const obs::TraceRecord& r : obs::Tracer::global().collect()) {
    // Frames only: the read that meets the client's close carries 0 bytes.
    if (std::string(r.name) == "serve.net.read" && r.arg_val > 0) {
      reads.push_back(r);
    }
  }
  obs::Tracer::global().reset_for_tests();
  ASSERT_EQ(reads.size(), 2u);
  std::sort(reads.begin(), reads.end(),
            [](const obs::TraceRecord& a, const obs::TraceRecord& b) {
              return a.start_s < b.start_s;
            });
  EXPECT_GE(reads[1].start_s - (reads[0].start_s + reads[0].dur_s), kGapS)
      << "the second frame was sent after the gap";
  EXPECT_LT(reads[1].dur_s, kGapS / 4) << "the read span holds the gap";
}

TEST(NetObs, StatsScrapeReportsCountersModelsAndExemplars) {
  ModelRegistry registry(fast_config());
  registry.install("m", std::make_unique<core::RouteNet>(tiny_config()));
  NetServer server(registry, loopback_config());
  server.start();

  NetClient client(server.address());
  const dataset::Sample sample = make_request(6);
  traced_predict(client, "m", sample);

  const wire::StatsSnapshot first = client.stats();
  EXPECT_GT(first.server_time_s, 0.0);
  const std::uint64_t requests_before =
      counter_value(first, "serve.net.requests_total");
  EXPECT_GE(requests_before, 1u);

  // The installed model shows up with its registry version.
  bool saw_model = false;
  for (const auto& m : first.models) {
    if (m.name == "m") {
      saw_model = true;
      EXPECT_EQ(m.version, 1u);
      EXPECT_GT(m.parameters, 0u);
    }
  }
  EXPECT_TRUE(saw_model);

  // The latency window carries exemplars, and every exemplar's request id
  // is one this process actually issued — the id is how a scrape links a
  // slow sample back to a specific request's trace spans.
  bool saw_latency_window = false;
  for (const auto& w : first.windows) {
    if (w.name != "serve.latency_s") continue;
    saw_latency_window = true;
    EXPECT_GE(w.count, 1u);
    ASSERT_FALSE(w.exemplars.empty());
    for (const auto& ex : w.exemplars) {
      EXPECT_TRUE(issued_rids().count(ex.request_id))
          << "exemplar rid " << ex.request_id
          << " does not match any issued request id";
    }
  }
  EXPECT_TRUE(saw_latency_window);

  // Counters move between scrapes — what `obs top` renders as deltas.
  traced_predict(client, "m", sample);
  traced_predict(client, "m", sample);
  const wire::StatsSnapshot second = client.stats();
  EXPECT_GE(counter_value(second, "serve.net.requests_total"),
            requests_before + 2);

  server.stop();
}

TEST(NetObs, ErrorFramesKeepTheConnectionAndAreCounted) {
  ServerConfig cfg = fast_config();
  cfg.queue_capacity = 1;
  ModelRegistry registry(cfg);
  registry.install("m", std::make_unique<core::RouteNet>(tiny_config()));
  NetServerConfig ncfg = loopback_config();
  ncfg.listen = "tcp:0.0.0.0:0";  // not a local listen: no remote shutdown
  NetServer server(registry, ncfg);
  server.start();
  const std::string address =
      "tcp:127.0.0.1:" + std::to_string(server.port());
  obs::Counter& net_rejected =
      obs::Registry::global().counter("serve.net.rejected_total");
  obs::Counter& net_errors =
      obs::Registry::global().counter("serve.net.errors_total");
  const std::uint64_t rejected0 = net_rejected.value();
  const std::uint64_t errors0 = net_errors.value();

  const ModelRegistry::Handle entry = registry.acquire("m");
  NetClient a(address);
  NetClient b(address);
  const dataset::Sample sample = make_request(7);

  // Rejected: with the batcher paused, A's predict takes the only queue
  // slot and B's is turned away at the queue, not at the socket.
  entry->server().set_paused_for_test(true);
  std::future<core::RouteNet::Prediction> a_answer = std::async(
      std::launch::async, [&] { return a.predict("m", sample); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (entry->server().queue_depth() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (entry->server().queue_depth() != 1) {
    entry->server().set_paused_for_test(false);
    FAIL() << "connection A's predict never reached the queue";
  }
  expect_remote_error([&] { b.predict("m", make_request(8)); },
                      wire::ErrorCode::kRejected);
  entry->server().set_paused_for_test(false);
  const core::RouteNet::Prediction got = a_answer.get();
  const core::RouteNet::Prediction want = entry->model().predict(sample);
  EXPECT_EQ(got.delay_s, want.delay_s);
  EXPECT_EQ(got.jitter_s, want.jitter_s);

  // Unknown model: an error frame, and the same connection still serves.
  expect_remote_error([&] { b.predict("absent", sample); },
                      wire::ErrorCode::kUnknownModel);
  EXPECT_EQ(b.predict("m", sample).delay_s, want.delay_s);

  // Remote shutdown on a 0.0.0.0 bind: refused, and the server keeps
  // serving.
  expect_remote_error([&] { b.shutdown_server(); },
                      wire::ErrorCode::kRejected);
  EXPECT_EQ(b.predict("m", sample).delay_s, want.delay_s);

  const NetStats stats = server.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.errors, 3u);
  EXPECT_EQ(net_rejected.value() - rejected0, 1u);
  EXPECT_EQ(net_errors.value() - errors0, 3u);

  server.stop();
}

TEST(NetObs, RemoteShutdownIsAckedOnLoopbackAndUnixListens) {
  ModelRegistry registry(fast_config());
  registry.install("m", std::make_unique<core::RouteNet>(tiny_config()));
  const std::string sock = ::testing::TempDir() + "net_obs_shutdown.sock";
  for (const std::string& listen :
       {std::string("tcp:127.0.0.1:0"), "unix:" + sock}) {
    NetServerConfig ncfg;
    ncfg.listen = listen;
    NetServer server(registry, ncfg);
    server.start();
    NetClient client(server.address());
    client.shutdown_server();  // throws on anything but kShutdownAck
    server.wait();             // returns only once the request is in
    EXPECT_EQ(server.stats().errors, 0u) << listen;
    server.stop();
  }
}

TEST(NetObs, ConnectionsOverTheCapAreRefusedUntilOneCloses) {
  ModelRegistry registry(fast_config());
  registry.install("m", std::make_unique<core::RouteNet>(tiny_config()));
  NetServer server(registry, loopback_config());
  server.start();

  // A stats round trip on each proves it has a handler thread, and keeps
  // the connects inside the listen backlog.
  std::vector<std::unique_ptr<NetClient>> clients;
  for (std::size_t i = 0; i < NetServer::kMaxConnections; ++i) {
    clients.push_back(std::make_unique<NetClient>(server.address()));
    clients.back()->stats();
  }
  const std::uint64_t cap = NetServer::kMaxConnections;
  EXPECT_EQ(server.stats().connections, cap);

  const int fd = raw_connect(server.port());
  const wire::Frame reply = read_frame(fd);
  ASSERT_EQ(reply.type, wire::FrameType::kError);
  const wire::ErrorFrame err = wire::decode_error(reply.payload);
  EXPECT_EQ(err.code, wire::ErrorCode::kRejected);
  EXPECT_EQ(err.message, "connection limit reached");
  EXPECT_TRUE(read_upto(fd, 1).empty());
  ::close(fd);
  EXPECT_EQ(server.stats().refused_connections, 1u);
  EXPECT_EQ(server.stats().connections, cap);

  // The server learns of the close asynchronously, so a connection made
  // right after it may still meet the cap; retry until one is served.
  clients.front().reset();
  std::uint64_t refused = 1;
  bool served = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!served && std::chrono::steady_clock::now() < deadline) {
    try {
      NetClient next(server.address());
      next.stats();
      served = true;
    } catch (const std::runtime_error&) {
      ++refused;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(served);
  EXPECT_EQ(server.stats().refused_connections, refused);
  EXPECT_EQ(server.stats().connections, cap + 1);
  clients.back()->stats();  // the survivors still serve
  clients.clear();
  server.stop();
}

TEST(NetObs, HeaderOnlyConnectionsHoldNoPayloadMemory) {
  ModelRegistry registry(fast_config());
  registry.install("m", std::make_unique<core::RouteNet>(tiny_config()));
  NetServer server(registry, loopback_config());
  server.start();

  // A predict header declaring the largest legal payload, and nothing more.
  std::string header =
      wire::encode_frame(wire::FrameType::kPredictRequest, {})
          .substr(0, wire::kHeaderLen);
  const std::uint32_t declared = wire::kMaxPayload;
  std::memcpy(header.data() + wire::kHeaderLen - sizeof(declared), &declared,
              sizeof(declared));

  // One stats round trip per connection first, so every handler thread
  // exists before the baseline is read: a thread's own footprint (about
  // 0.75 MB under ThreadSanitizer) is not payload memory.
  constexpr int kConnections = 64;
  std::vector<int> fds;
  for (int i = 0; i < kConnections; ++i) {
    fds.push_back(raw_connect(server.port()));
    write_all(fds.back(),
              wire::encode_frame(wire::FrameType::kStatsRequest, {}));
    ASSERT_EQ(read_frame(fds.back()).type, wire::FrameType::kStatsResponse);
  }
  constexpr long kBoundKb = 16 * 1024;
  const long before_kb = vm_rss_kb();
  long rise_kb = 0;
  int sent = 0;
  for (const int fd : fds) {
    write_all(fd, header);
    // Measure every eight headers, once their handlers have had time to
    // read them, and stop at the first breach: a server that allocates the
    // declared size up front then costs this test 512 MiB rather than
    // 4 GiB.
    if (++sent % 8 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      rise_kb = vm_rss_kb() - before_kb;
      if (rise_kb >= kBoundKb) break;
    }
  }
  EXPECT_LT(rise_kb, kBoundKb)
      << "VmRSS rose " << rise_kb << " kB after " << sent
      << " bare headers";
  for (const int fd : fds) ::close(fd);
  server.stop();
}

TEST(NetObs, LargeFrameSentInSlowPiecesIsServed) {
  auto model = std::make_unique<core::RouteNet>(tiny_config());
  const dataset::Sample sample = ba100_request(41);
  const core::RouteNet::Prediction expected = model->predict(sample);
  ModelRegistry registry(fast_config());
  registry.install("m", std::move(model));
  NetServer server(registry, loopback_config());
  server.start();

  const std::string frame = wire::encode_frame(
      wire::FrameType::kPredictRequest, predict_payload("m", sample));
  // Several 64 KiB read steps long, sent in pieces that straddle them.
  ASSERT_GT(frame.size(), 3u * 64 * 1024);
  constexpr std::size_t kPiece = 7919;
  const int fd = raw_connect(server.port());
  for (std::size_t off = 0; off < frame.size(); off += kPiece) {
    write_all(fd, std::string_view(frame).substr(off, kPiece));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const wire::Frame reply = read_frame(fd);
  ASSERT_EQ(reply.type, wire::FrameType::kPredictResponse);
  const core::RouteNet::Prediction got =
      wire::decode_predict_response_full(reply.payload).prediction;
  ASSERT_EQ(got.delay_s.size(), expected.delay_s.size());
  for (std::size_t i = 0; i < got.delay_s.size(); ++i) {
    EXPECT_EQ(got.delay_s[i], expected.delay_s[i]) << "delay row " << i;
    EXPECT_EQ(got.jitter_s[i], expected.jitter_s[i]) << "jitter row " << i;
  }
  ::close(fd);
  server.stop();
}

TEST(NetObs, QueuedPredictsHoldTheirDecodedFormOnly) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's allocator is invisible to mallinfo2";
#endif
  const std::string payload = predict_payload("m", ba100_request(43));
  const std::string frame =
      wire::encode_frame(wire::FrameType::kPredictRequest, payload);
  std::size_t decoded_bytes = 0;
  {
    const std::size_t before = heap_in_use();
    const wire::PredictRequest req = wire::decode_predict_request(payload);
    decoded_bytes = heap_in_use() - before;
  }
  ASSERT_GT(decoded_bytes, 0u);

  ModelRegistry registry(fast_config());
  registry.install("m", std::make_unique<core::RouteNet>(tiny_config()));
  NetServer server(registry, loopback_config());
  server.start();
  const ModelRegistry::Handle entry = registry.acquire("m");

  // A stats round trip first, so each handler thread and its arena exist
  // before the baseline is read.
  constexpr std::size_t kQueued = 8;
  std::vector<int> fds;
  for (std::size_t i = 0; i < kQueued; ++i) {
    fds.push_back(raw_connect(server.port()));
    write_all(fds.back(),
              wire::encode_frame(wire::FrameType::kStatsRequest, {}));
    ASSERT_EQ(read_frame(fds.back()).type, wire::FrameType::kStatsResponse);
  }
  entry->server().set_paused_for_test(true);
  const std::size_t before = heap_in_use();
  for (const int fd : fds) write_all(fd, frame);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (entry->server().queue_depth() < kQueued &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::size_t queued = entry->server().queue_depth();
  const std::size_t after = heap_in_use();
  entry->server().set_paused_for_test(false);
  for (const int fd : fds) {
    EXPECT_EQ(read_frame(fd).type, wire::FrameType::kPredictResponse);
    ::close(fd);
  }
  server.stop();

  ASSERT_EQ(queued, kQueued);
  // Each queued request holds its decoded form (about decoded_bytes). A
  // server that also kept the raw payload would hold at least
  // kQueued × (decoded_bytes + payload.size()).
  const double rise =
      static_cast<double>(after) - static_cast<double>(before);
  const double bound = static_cast<double>(kQueued) *
                       (static_cast<double>(decoded_bytes) +
                        0.5 * static_cast<double>(payload.size()));
  EXPECT_LT(rise, bound) << "heap rose " << rise << " bytes for " << kQueued
                         << " queued requests; decoded " << decoded_bytes
                         << " B, payload " << payload.size() << " B each";
}

// The client side of the test above: K NetClient predicts, each on its
// own thread, wait on a paused batcher. The server holds each request's
// decoded form; a client that kept its payload or the framed copy until
// the reply came would add at least one payload per request to the heap.
TEST(NetObs, ClientHoldsNoPayloadWhileWaiting) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's allocator is invisible to mallinfo2";
#endif
  const dataset::Sample sample = ba100_request(47);
  const std::string payload = predict_payload("m", sample);
  std::size_t decoded_bytes = 0;
  {
    const std::size_t before = heap_in_use();
    const wire::PredictRequest req = wire::decode_predict_request(payload);
    decoded_bytes = heap_in_use() - before;
  }
  ASSERT_GT(decoded_bytes, 0u);

  ModelRegistry registry(fast_config());
  registry.install("m", std::make_unique<core::RouteNet>(tiny_config()));
  NetServer server(registry, loopback_config());
  server.start();
  const ModelRegistry::Handle entry = registry.acquire("m");

  // Each client makes a stats round trip first, so its connection's
  // handler thread exists, and its thread is waiting to start before the
  // baseline is read.
  constexpr std::size_t kClients = 8;
  std::vector<std::unique_ptr<NetClient>> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<NetClient>(server.address()));
    clients.back()->stats();
  }
  entry->server().set_paused_for_test(true);
  std::promise<void> go;
  const std::shared_future<void> started = go.get_future().share();
  std::vector<std::size_t> answered(kClients, 0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      started.wait();
      answered[i] = clients[i]->predict("m", sample).delay_s.size();
    });
  }
  const std::size_t before = heap_in_use();
  go.set_value();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (entry->server().queue_depth() < kClients &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Every frame has arrived whole, so every write has returned; give the
  // clients a moment to leave their send path.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::size_t queued = entry->server().queue_depth();
  const std::size_t after = heap_in_use();
  entry->server().set_paused_for_test(false);
  for (std::thread& t : threads) t.join();
  clients.clear();
  server.stop();

  ASSERT_EQ(queued, kClients);
  for (const std::size_t rows : answered) {
    EXPECT_EQ(rows, static_cast<std::size_t>(sample.num_pairs()));
  }
  const double rise =
      static_cast<double>(after) - static_cast<double>(before);
  const double bound = static_cast<double>(kClients) *
                       (static_cast<double>(decoded_bytes) +
                        0.5 * static_cast<double>(payload.size()));
  EXPECT_LT(rise, bound) << "heap rose " << rise << " bytes for " << kClients
                         << " waiting clients; decoded " << decoded_bytes
                         << " B, payload " << payload.size() << " B each";
}

}  // namespace
}  // namespace rn::serve
