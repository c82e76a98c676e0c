#include "serve/net.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "util/bytes.h"
#include "util/check.h"

namespace rn::serve {

namespace {

// Pending connections the kernel queues before accept(); the handler cap
// (NetServer::kMaxConnections) bounds what is served.
constexpr int kListenBacklog = 64;

// Largest payload read that read_frame() makes at once.
constexpr std::size_t kPayloadReadStep = 64 * 1024;

// The process-wide counters that net_obs_test and serve_net_smoke read;
// every other per-server figure lives in NetStats.
struct NetMetrics {
  obs::Counter& requests =
      obs::Registry::global().counter("serve.net.requests_total");
  obs::Counter& responses =
      obs::Registry::global().counter("serve.net.responses_total");
  obs::Counter& errors =
      obs::Registry::global().counter("serve.net.errors_total");
  obs::Counter& rejected =
      obs::Registry::global().counter("serve.net.rejected_total");
  obs::Counter& bytes_rx =
      obs::Registry::global().counter("serve.net.bytes_rx_total");
};

NetMetrics& metrics() {
  static NetMetrics m;
  return m;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

enum class ReadResult { kOk, kEof, kTruncated, kTimeout };

// SO_RCVTIMEO expired on a server-side connection (idle or stalled
// mid-frame). Distinguished from generic malformed traffic so the handler
// can answer with ErrorCode::kTimeout instead of kMalformed.
class ReadTimeoutError : public wire::ProtocolError {
 public:
  explicit ReadTimeoutError(const std::string& what)
      : wire::ProtocolError(what) {}
};

// Reads exactly n bytes. kEof = the peer closed cleanly before the first
// byte; kTruncated = it closed mid-way (or the read errored); kTimeout =
// SO_RCVTIMEO expired before the read completed.
ReadResult read_exact(int fd, char* buf, std::size_t n,
                      std::uint64_t* bytes_read) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (bytes_read != nullptr) *bytes_read += got;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return ReadResult::kTimeout;
    }
    return got == 0 ? ReadResult::kEof : ReadResult::kTruncated;
  }
  if (bytes_read != nullptr) *bytes_read += got;
  return ReadResult::kOk;
}

// MSG_NOSIGNAL: a peer that closed mid-response must surface as an error
// return, not a process-killing SIGPIPE.
bool write_all(int fd, const char* buf, std::size_t n,
               std::uint64_t* bytes_written) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (bytes_written != nullptr) *bytes_written += sent;
    return false;
  }
  if (bytes_written != nullptr) *bytes_written += sent;
  return true;
}

// Streams one frame off the socket with the same validation order as
// wire::parse_frame: header first (bounds the payload read), then payload,
// then CRC trailer. Returns false on clean EOF between frames; throws
// ProtocolError on malformed or truncated traffic.
bool read_frame(int fd, wire::Frame& out, std::uint64_t* bytes_read) {
  char header[wire::kHeaderLen];
  switch (read_exact(fd, header, sizeof(header), bytes_read)) {
    case ReadResult::kEof:
      return false;
    case ReadResult::kTruncated:
      throw wire::ProtocolError("connection closed mid-header");
    case ReadResult::kTimeout:
      throw ReadTimeoutError("read timed out waiting for a frame");
    case ReadResult::kOk:
      break;
  }
  const wire::FrameHeader fh = wire::parse_frame_header(header);
  // The header may declare up to wire::kMaxPayload, but the buffer grows
  // only by bytes that have arrived, one step at a time: a connection that
  // sends a header and stalls holds no payload memory.
  std::string payload;
  char step_buf[kPayloadReadStep];
  while (payload.size() < fh.payload_len) {
    const std::size_t step =
        std::min(kPayloadReadStep, fh.payload_len - payload.size());
    switch (read_exact(fd, step_buf, step, bytes_read)) {
      case ReadResult::kTimeout:
        throw ReadTimeoutError("read timed out mid-payload");
      case ReadResult::kOk:
        break;
      default:
        throw wire::ProtocolError("connection closed mid-payload");
    }
    payload.append(step_buf, step);
  }
  char trailer[wire::kTrailerLen];
  switch (read_exact(fd, trailer, sizeof(trailer), bytes_read)) {
    case ReadResult::kTimeout:
      throw ReadTimeoutError("read timed out mid-trailer");
    case ReadResult::kOk:
      break;
    default:
      throw wire::ProtocolError("connection closed mid-trailer");
  }
  wire::verify_frame_crc(
      fh.type, payload,
      util::Reader(std::string_view(trailer, sizeof(trailer)))
          .pod<std::uint32_t>("frame crc"));
  out.type = fh.type;
  out.payload = std::move(payload);
  return true;
}

void set_nodelay(int fd, const Address& addr) {
  if (addr.kind != Address::Kind::kTcp) return;
  const int one = 1;
  // Batched request/response round trips on loopback; Nagle only adds
  // latency here. Failure is harmless, so the return value is ignored.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_recv_timeout(int fd, double seconds) {
  if (!(seconds > 0.0)) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - std::floor(seconds)) * 1e6);
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

sockaddr_in resolve_ipv4(const std::string& host, std::uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) == 1) return sa;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr) {
    throw std::runtime_error("cannot resolve host '" + host +
                             "': " + ::gai_strerror(rc));
  }
  sa.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return sa;
}

sockaddr_un unix_sockaddr(const std::string& path) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  RN_CHECK(path.size() < sizeof(sa.sun_path),
           "unix socket path too long: " + path);
  std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
  return sa;
}

int connect_to(const Address& addr) {
  int fd = -1;
  if (addr.kind == Address::Kind::kTcp) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket");
    sockaddr_in sa = resolve_ipv4(addr.host, addr.port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("connect to " + format_address(addr));
    }
  } else {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket");
    sockaddr_un sa = unix_sockaddr(addr.path);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("connect to " + format_address(addr));
    }
  }
  set_nodelay(fd, addr);
  return fd;
}

}  // namespace

Address parse_address(const std::string& spec) {
  Address addr;
  if (spec.rfind("unix:", 0) == 0) {
    addr.kind = Address::Kind::kUnix;
    addr.path = spec.substr(5);
    if (addr.path.empty()) {
      throw std::invalid_argument("unix address needs a path: " + spec);
    }
    return addr;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    addr.kind = Address::Kind::kTcp;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      throw std::invalid_argument("tcp address must be tcp:host:port: " +
                                  spec);
    }
    addr.host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    std::size_t used = 0;
    unsigned long port = 0;
    try {
      port = std::stoul(port_str, &used);
    } catch (const std::exception&) {
      throw std::invalid_argument("bad port in address: " + spec);
    }
    if (used != port_str.size() || port > 65535) {
      throw std::invalid_argument("bad port in address: " + spec);
    }
    addr.port = static_cast<std::uint16_t>(port);
    return addr;
  }
  throw std::invalid_argument(
      "address must start with tcp: or unix: — got " + spec);
}

std::string format_address(const Address& addr) {
  if (addr.kind == Address::Kind::kUnix) return "unix:" + addr.path;
  return "tcp:" + addr.host + ":" + std::to_string(addr.port);
}

NetServer::NetServer(ModelRegistry& registry, NetServerConfig cfg)
    : registry_(registry), cfg_(std::move(cfg)) {}

NetServer::~NetServer() { stop(); }

void NetServer::start() {
  addr_ = parse_address(cfg_.listen);
  if (addr_.kind == Address::Kind::kTcp) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    const int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));
    sockaddr_in sa = resolve_ipv4(addr_.host, addr_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) !=
        0) {
      throw_errno("bind " + format_address(addr_));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      throw_errno("getsockname");
    }
    bound_port_ = ntohs(bound.sin_port);
    addr_.port = bound_port_;
    local_listen_ = (ntohl(bound.sin_addr.s_addr) >> 24) == 127;
  } else {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    // A stale socket file from a previous run would make bind fail.
    (void)::unlink(addr_.path.c_str());
    sockaddr_un sa = unix_sockaddr(addr_.path);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) !=
        0) {
      throw_errno("bind " + format_address(addr_));
    }
    local_listen_ = true;
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    throw_errno("listen " + format_address(addr_));
  }

  if (obs::EventSink::global().enabled()) {
    obs::Event ev("serve.net.listen");
    ev.f("address", address()).f("models", registry_.size());
    obs::EventSink::global().emit(ev);
  }
  accept_thread_ = std::thread([this, fd = listen_fd_] { accept_loop(fd); });
}

std::string NetServer::address() const { return format_address(addr_); }

void NetServer::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down by stop()
    }
    set_nodelay(fd, addr_);
    set_recv_timeout(fd, cfg_.read_timeout_s);
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    reap_finished_connections();
    if (connections_.size() >= kMaxConnections) {
      lock.unlock();
      refused_connections_.fetch_add(1, std::memory_order_relaxed);
      send_error(fd, wire::ErrorCode::kRejected, "connection limit reached");
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    Connection* raw = conn.get();
    raw->fd = fd;
    connections_.push_back(std::move(conn));
    connections_total_.fetch_add(1, std::memory_order_relaxed);
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    raw->thread = std::thread([this, raw] { serve_connection(raw); });
  }
}

void NetServer::reap_finished_connections() {
  // Called under mu_. A handler marks its slot fd = -1 as its final locked
  // action, so a joinable thread with fd == -1 is (about to be) done.
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->fd == -1) {
      (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void NetServer::serve_connection(Connection* conn) {
  const int fd = conn->fd;
  std::uint64_t rx = 0;
  for (;;) {
    wire::Frame frame;
    try {
      rx = 0;
      bool got;
      {
        obs::TraceSpan rd("serve.net.read");
        got = read_frame(fd, frame, &rx);
        rd.arg("bytes", static_cast<std::int64_t>(rx));
      }
      bytes_rx_.fetch_add(rx, std::memory_order_relaxed);
      metrics().bytes_rx.add(rx);
      if (!got) break;  // clean EOF (or stop()'s SHUT_RD)
    } catch (const ReadTimeoutError& e) {
      bytes_rx_.fetch_add(rx, std::memory_order_relaxed);
      metrics().bytes_rx.add(rx);
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      send_error(fd, wire::ErrorCode::kTimeout, e.what());
      break;
    } catch (const wire::ProtocolError& e) {
      bytes_rx_.fetch_add(rx, std::memory_order_relaxed);
      metrics().bytes_rx.add(rx);
      send_error(fd, wire::ErrorCode::kMalformed, e.what());
      break;
    }
    if (!handle_frame(fd, frame)) break;
  }
  ::shutdown(fd, SHUT_RDWR);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  // Mark the slot before close: once closed, the kernel may hand the same
  // fd number to a newly accepted connection.
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn->fd = -1;
  }
  ::close(fd);
}

bool NetServer::handle_frame(int fd, const wire::Frame& frame) {
  switch (frame.type) {
    case wire::FrameType::kPredictRequest: {
      requests_.fetch_add(1, std::memory_order_relaxed);
      metrics().requests.add();
      const auto started = std::chrono::steady_clock::now();
      try {
        wire::PredictRequest req =
            wire::decode_predict_request(frame.payload);
        bool stopping;
        {
          std::lock_guard<std::mutex> lock(mu_);
          stopping = shutdown_requested_ || stopping_;
        }
        if (stopping) {
          send_error(fd, wire::ErrorCode::kStopping,
                     "server is shutting down");
          return true;
        }
        const ModelRegistry::Handle entry = registry_.acquire(req.model);
        // Root of the server-side request timeline. Traced requests carry
        // the client's rid and hand this span's id to the batching worker,
        // which parents its queue.wait/batch.assemble/forward spans here.
        obs::TraceSpan root("serve.net.request");
        std::shared_ptr<RequestTrace> trace;
        if (req.has_trace) {
          root.arg("rid",
                   static_cast<std::int64_t>(req.trace.request_id));
          trace = std::make_shared<RequestTrace>();
          trace->request_id = req.trace.request_id;
          trace->parent_span = root.id();
        }
        core::RouteNet::Prediction pred =
            entry->server().submit(std::move(req.sample), trace).get();
        std::string payload;
        if (trace != nullptr) {
          const double server_s =
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - started)
                  .count();
          payload = wire::encode_predict_response(
              pred, trace->request_id, trace->queue_wait_s, server_s);
        } else {
          payload = wire::encode_predict_response(pred);
        }
        {
          obs::TraceSpan wr("serve.net.write");
          send_frame(fd, wire::FrameType::kPredictResponse, payload);
        }
        responses_.fetch_add(1, std::memory_order_relaxed);
        metrics().responses.add();
        return true;
      } catch (const wire::ProtocolError& e) {
        send_error(fd, wire::ErrorCode::kMalformed, e.what());
        return false;
      } catch (const UnknownModelError& e) {
        send_error(fd, wire::ErrorCode::kUnknownModel, e.what());
        return true;
      } catch (const RejectedError& e) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        metrics().rejected.add();
        send_error(fd, wire::ErrorCode::kRejected, e.what());
        return true;
      } catch (const std::exception& e) {
        send_error(fd, wire::ErrorCode::kInternal, e.what());
        return true;
      }
    }
    case wire::FrameType::kReloadRequest: {
      try {
        const std::string model =
            wire::decode_reload_request(frame.payload);
        const std::uint64_t version = registry_.reload(model);
        send_frame(fd, wire::FrameType::kReloadResponse,
                   wire::encode_reload_response(model, version));
        return true;
      } catch (const wire::ProtocolError& e) {
        send_error(fd, wire::ErrorCode::kMalformed, e.what());
        return false;
      } catch (const UnknownModelError& e) {
        send_error(fd, wire::ErrorCode::kUnknownModel, e.what());
        return true;
      } catch (const std::exception& e) {
        send_error(fd, wire::ErrorCode::kInternal, e.what());
        return true;
      }
    }
    case wire::FrameType::kStatsRequest: {
      if (!frame.payload.empty()) {
        send_error(fd, wire::ErrorCode::kMalformed,
                   "stats request carries no payload");
        return false;
      }
      try {
        send_frame(fd, wire::FrameType::kStatsResponse,
                   wire::encode_stats_response(stats_snapshot()));
      } catch (const std::exception& e) {
        send_error(fd, wire::ErrorCode::kInternal, e.what());
      }
      return true;
    }
    case wire::FrameType::kShutdownRequest: {
      if (!frame.payload.empty()) {
        send_error(fd, wire::ErrorCode::kMalformed,
                   "shutdown request carries no payload");
        return false;
      }
      if (!local_listen_) {
        send_error(fd, wire::ErrorCode::kRejected,
                   "remote shutdown is disabled");
        return true;
      }
      // Ack first so the client sees the reply before wait() returns and
      // the owner starts stop(). Never call stop() here — that would join
      // this very thread.
      send_frame(fd, wire::FrameType::kShutdownAck, {});
      request_shutdown();
      return true;
    }
    default:
      send_error(fd, wire::ErrorCode::kMalformed,
                 "unexpected frame type on server");
      return false;
  }
}

void NetServer::send_frame(int fd, wire::FrameType type,
                           std::string_view payload) {
  const std::string bytes = wire::encode_frame(type, payload);
  std::uint64_t tx = 0;
  (void)write_all(fd, bytes.data(), bytes.size(), &tx);
  bytes_tx_.fetch_add(tx, std::memory_order_relaxed);
}

void NetServer::send_error(int fd, wire::ErrorCode code,
                           std::string_view message) {
  errors_.fetch_add(1, std::memory_order_relaxed);
  metrics().errors.add();
  // Best effort: the peer may already be gone; write_all soaks the EPIPE.
  send_frame(fd, wire::FrameType::kError,
             wire::encode_error(code, message));
}

void NetServer::request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
  }
  cv_.notify_all();
}

void NetServer::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return shutdown_requested_ || stopping_; });
}

void NetServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    stopping_ = true;
  }
  cv_.notify_all();
  // shutdown() wakes the blocked accept() without releasing the fd; it is
  // closed only after the accept thread has exited, so that thread never
  // sees the descriptor number reused by another open().
  if (listen_fd_ >= 0) (void)::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns = std::move(connections_);
    // Shut down the read side only: blocked reads return EOF and the
    // handler loop exits, while a response still being written flushes.
    for (const auto& conn : conns) {
      if (conn->fd != -1) (void)::shutdown(conn->fd, SHUT_RD);
    }
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  if (addr_.kind == Address::Kind::kUnix && !addr_.path.empty()) {
    (void)::unlink(addr_.path.c_str());
  }
  if (obs::EventSink::global().enabled()) {
    const NetStats s = stats();
    obs::Event ev("serve.net.shutdown");
    ev.f("address", address())
        .f("connections", s.connections)
        .f("requests", s.requests)
        .f("responses", s.responses)
        .f("errors", s.errors)
        .f("rejected", s.rejected);
    obs::EventSink::global().emit(ev);
  }
}

NetStats NetServer::stats() const {
  NetStats s;
  s.connections = connections_total_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.refused_connections =
      refused_connections_.load(std::memory_order_relaxed);
  s.bytes_rx = bytes_rx_.load(std::memory_order_relaxed);
  s.bytes_tx = bytes_tx_.load(std::memory_order_relaxed);
  return s;
}

wire::StatsSnapshot NetServer::stats_snapshot() const {
  const obs::RegistrySnapshot reg = obs::Registry::global().snapshot();
  wire::StatsSnapshot snap;
  snap.server_time_s = obs::windowed_now_s();
  snap.trace_dropped = obs::Tracer::global().dropped();
  snap.trace_sampled_out = obs::Tracer::global().sampled_out();
  snap.counters.reserve(reg.counters.size());
  for (const auto& [name, value] : reg.counters) {
    snap.counters.push_back({name, value});
  }
  snap.gauges.reserve(reg.gauges.size());
  for (const auto& [name, value] : reg.gauges) {
    snap.gauges.push_back({name, value});
  }
  snap.histograms.reserve(reg.histograms.size());
  for (const auto& h : reg.histograms) {
    snap.histograms.push_back(
        {h.name, h.count, h.mean, h.p50, h.p95, h.p99, h.max});
  }
  snap.windows.reserve(reg.windows.size());
  for (const auto& w : reg.windows) {
    wire::StatsSnapshot::WindowEntry entry;
    entry.name = w.name;
    entry.window_s = w.window_s;
    entry.count = w.count;
    entry.p50 = w.p50;
    entry.p95 = w.p95;
    entry.p99 = w.p99;
    entry.exemplars.reserve(w.exemplars.size());
    for (const obs::Exemplar& e : w.exemplars) {
      entry.exemplars.push_back(
          {static_cast<std::uint16_t>(e.bucket), e.value, e.tag});
    }
    snap.windows.push_back(std::move(entry));
  }
  const std::vector<ModelRegistry::ModelInfo> models = registry_.list();
  snap.models.reserve(models.size());
  for (const auto& m : models) {
    snap.models.push_back(
        {m.name, m.version, static_cast<std::uint64_t>(m.parameters)});
  }
  return snap;
}

NetClient::NetClient(const std::string& address)
    : fd_(connect_to(parse_address(address))) {}

NetClient::~NetClient() {
  if (fd_ >= 0) ::close(fd_);
}

wire::Frame NetClient::roundtrip(wire::FrameType type,
                                 std::string_view payload) {
  const std::string bytes = wire::encode_frame(type, payload);
  if (!write_all(fd_, bytes.data(), bytes.size(), nullptr)) {
    throw std::runtime_error("RNP/1 client: server closed the connection");
  }
  wire::Frame reply;
  if (!read_frame(fd_, reply, nullptr)) {
    throw std::runtime_error(
        "RNP/1 client: server closed without replying");
  }
  if (reply.type == wire::FrameType::kError) {
    const wire::ErrorFrame err = wire::decode_error(reply.payload);
    throw RemoteError(err.code, err.message);
  }
  return reply;
}

std::uint64_t NetClient::next_request_id() {
  // Distinct across the processes of one test/bench run (pid in the high
  // half) and across this client's requests (counter in the low half);
  // never 0, which the wire layer reserves for "untraced".
  return (static_cast<std::uint64_t>(::getpid()) << 32) | ++rid_counter_;
}

core::RouteNet::Prediction NetClient::predict(const std::string& model,
                                              const dataset::Sample& sample) {
  return std::move(predict_traced(model, sample).prediction);
}

NetClient::PredictOutcome NetClient::predict_traced(
    const std::string& model, const dataset::Sample& sample) {
  PredictOutcome out;
  out.request_id = next_request_id();
  wire::TraceContext ctx;
  ctx.request_id = out.request_id;
  ctx.client_send_unix_s = obs::unix_now_s();
  obs::TraceSpan span("serve.client.request");
  span.arg("rid", static_cast<std::int64_t>(out.request_id));
  const auto sent = std::chrono::steady_clock::now();
  wire::Frame reply =
      roundtrip(wire::FrameType::kPredictRequest,
                wire::encode_predict_request(model, sample, ctx));
  out.rtt_s = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - sent)
                  .count();
  if (reply.type != wire::FrameType::kPredictResponse) {
    throw wire::ProtocolError("expected a predict response, got type " +
                              std::to_string(static_cast<int>(reply.type)));
  }
  wire::PredictResponse resp =
      wire::decode_predict_response_full(reply.payload);
  if (resp.has_trace && resp.request_id != out.request_id) {
    throw wire::ProtocolError(
        "response echoes request id " + std::to_string(resp.request_id) +
        ", expected " + std::to_string(out.request_id));
  }
  out.prediction = std::move(resp.prediction);
  out.server_traced = resp.has_trace;
  out.queue_wait_s = resp.queue_wait_s;
  out.server_s = resp.server_s;
  return out;
}

wire::StatsSnapshot NetClient::stats() {
  wire::Frame reply = roundtrip(wire::FrameType::kStatsRequest, {});
  if (reply.type != wire::FrameType::kStatsResponse) {
    throw wire::ProtocolError("expected a stats response, got type " +
                              std::to_string(static_cast<int>(reply.type)));
  }
  return wire::decode_stats_response(reply.payload);
}

wire::ReloadResponse NetClient::reload(const std::string& model) {
  wire::Frame reply = roundtrip(wire::FrameType::kReloadRequest,
                                wire::encode_reload_request(model));
  if (reply.type != wire::FrameType::kReloadResponse) {
    throw wire::ProtocolError("expected a reload response, got type " +
                              std::to_string(static_cast<int>(reply.type)));
  }
  return wire::decode_reload_response(reply.payload);
}

void NetClient::shutdown_server() {
  wire::Frame reply = roundtrip(wire::FrameType::kShutdownRequest, {});
  if (reply.type != wire::FrameType::kShutdownAck) {
    throw wire::ProtocolError("expected a shutdown ack, got type " +
                              std::to_string(static_cast<int>(reply.type)));
  }
}

}  // namespace rn::serve
