#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/event.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace rn::sim {

namespace {

struct Packet {
  double size_bits = 0.0;
  double created_s = 0.0;
  std::int32_t pair_idx = 0;
  std::int32_t hop = 0;   // index into the path's link sequence
};
static_assert(sizeof(Packet) == 24, "a hop copies the packet; keep it small");

enum class EventKind : std::uint8_t {
  kFlowArrival,   // a flow emits its next packet (and reschedules itself)
  kServiceDone,   // a link finishes transmitting its current packet
  kPacketArrive,  // a packet reaches the head of its next link's queue
};

// A 16-byte heap entry: the time and one tag word packing the scheduling
// sequence, the kind and the target (a flow index, link id or packet slot;
// a packet in propagation waits in the run's slot pool).
struct Event {
  double time = 0.0;
  std::uint64_t tag = 0;  // seq << 24 | kind << 22 | target
};
static_assert(sizeof(Event) == 16, "four events fill one cache line");

constexpr int kTargetBits = 22;
constexpr int kSeqShift = 24;
constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSeqShift);
static_assert(static_cast<int>(EventKind::kPacketArrive) <
                  1 << (kSeqShift - kTargetBits),
              "every kind fits its two bits");

// The one event order: by time, exact ties by scheduling sequence, as one
// 128-bit key. Times are never negative, so their bit patterns order like
// the values; seqs are unique, so the order is total and any correct heap
// pops the same sequence.
__extension__ using EventKey = unsigned __int128;

inline EventKey key(const Event& e) {
  return EventKey{std::bit_cast<std::uint64_t>(e.time)} << 64 | e.tag;
}

// Sorts after every event: the all-ones time pattern is a NaN no run makes.
constexpr Event kSentinel{std::bit_cast<double>(~std::uint64_t{0}),
                          ~std::uint64_t{0}};

// 4-ary min-heap on key(). Slot i + 3 holds entry i, so the children of
// entry h, 4h + 1 .. 4h + 4, fill line h + 1 of a 64-byte-aligned array.
// Every slot past the last entry holds a sentinel that sorts after all
// events, so a sift compares four children without counting them.
class EventHeap {
 public:
  bool empty() const { return size_ == 0; }
  const Event& top() const { return lines_.front().e[3]; }
  void reserve(std::size_t n) { lines_.reserve((n + 3) / 4 + 1); }

  void push(const Event& ev) {
    if (size_ + 3 >= 4 * lines_.size()) lines_.emplace_back();  // sentinels
    std::size_t hole = size_++;
    const EventKey k = key(ev);
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 4;
      if (!(k < key(slot(parent)))) break;
      slot(hole) = slot(parent);
      hole = parent;
    }
    slot(hole) = ev;
  }

  void pop() {
    const Event last = slot(--size_);
    slot(size_) = kSentinel;
    if (size_ > 0) replace_top(last);
  }

  // Puts `ev` at the root and sifts it down; the smallest child is chosen
  // without branches. One out-of-line copy serves schedule() and pop():
  // GCC 12 otherwise inlines the loop into both, which made `dataset gen`
  // on NSFNET about 2% slower with the binary heap and is no faster here.
  [[gnu::noinline]] void replace_top(const Event& ev) {
    const EventKey k = key(ev);
    Event* hole = &slot(0);
    for (std::size_t first = 1; first < size_;) {
      Event* c = &slot(first);
      std::size_t lo = key(c[1]) < key(c[0]);
      std::size_t hi = 2 + (key(c[3]) < key(c[2]));
      // Hide lo and hi from the optimiser: GCC 12 otherwise re-branches on
      // each flag to load c[hi] and c[lo] at constant offsets.
      asm("" : "+r"(lo), "+r"(hi));
      const std::size_t best = key(c[hi]) < key(c[lo]) ? hi : lo;
      if (!(key(c[best]) < k)) break;
      *hole = c[best];
      hole = c + best;
      first = 4 * (first + best) + 1;
    }
    *hole = ev;
  }

 private:
  struct alignas(64) Line {
    Event e[4] = {kSentinel, kSentinel, kSentinel, kSentinel};
  };

  Event& slot(std::size_t i) { return lines_[(i + 3) / 4].e[(i + 3) % 4]; }

  std::vector<Line> lines_;
  std::size_t size_ = 0;
};

// FIFO of packets in a power-of-two ring that only ever grows, so a link
// queue allocates a handful of times per run rather than per packet.
class PacketRing {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const Packet& front() const { return buf_[head_]; }
  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }
  void push_back(const Packet& pkt) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = pkt;
    ++size_;
  }

 private:
  void grow() {
    std::vector<Packet> bigger(std::max<std::size_t>(8, 2 * buf_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_.swap(bigger);
    head_ = 0;
  }

  std::vector<Packet> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

// Per-flow ON/OFF renewal state (exact for exponential periods thanks to
// memorylessness: an arrival candidate past the ON end simply never happens,
// and sampling restarts at the next ON start).
struct FlowState {
  double pkt_rate_on = 0.0;  // packet rate while ON (equals mean rate for Poisson)
  bool on = true;
  double period_end = 0.0;
};

struct LinkState {
  PacketRing queue;  // waiting packets, excluding the one in service
  bool busy = false;
  Packet serving;
  // Time-weighted accounting (post-warmup).
  double busy_since = 0.0;
  double busy_accum = 0.0;
  double q_integral = 0.0;
  double last_q_change = 0.0;
  std::size_t peak_queue = 0;
  std::size_t tx = 0;
  std::size_t drops = 0;
};

class Run {
 public:
  Run(const SimConfig& cfg, const topo::Topology& topo,
      const routing::RoutingScheme& scheme, const traffic::TrafficMatrix& tm)
      : cfg_(cfg), topo_(topo), scheme_(scheme), tm_(tm), rng_(cfg.seed) {}

  SimResult execute();

 private:
  double sample_pkt_size() {
    const traffic::TrafficModel& m = cfg_.model;
    switch (m.sizes) {
      case traffic::PacketSizeModel::kExponential:
        return std::max(1.0, rng_.exponential(m.mean_pkt_size_bits));
      case traffic::PacketSizeModel::kBimodal:
        return rng_.bernoulli(m.small_pkt_prob) ? m.small_pkt_bits
                                                : m.large_pkt_bits();
      case traffic::PacketSizeModel::kFixed:
        return m.mean_pkt_size_bits;
      case traffic::PacketSizeModel::kTruncatedPareto: {
        // Inverse-CDF sampling of Pareto(alpha, xm) truncated at c·xm.
        const double xm = m.pareto_xm_bits();
        const double c = m.pareto_max_factor;
        const double u = rng_.uniform(0.0, 1.0);
        const double tail = 1.0 - std::pow(c, -m.pareto_alpha);
        return xm * std::pow(1.0 - u * tail, -1.0 / m.pareto_alpha);
      }
    }
    return m.mean_pkt_size_bits;
  }

  // Next packet emission time for a flow, strictly after `now`.
  double next_arrival_time(FlowState& f, double now) {
    const traffic::TrafficModel& m = cfg_.model;
    if (m.arrivals == traffic::ArrivalProcess::kPoisson) {
      return now + rng_.exponential(1.0 / f.pkt_rate_on);
    }
    const double f_on = m.on_fraction;
    const double mean_on = m.mean_on_s;
    const double mean_off = mean_on * (1.0 - f_on) / f_on;
    double t = now;
    for (;;) {
      if (t >= f.period_end) {
        f.on = !f.on;
        f.period_end = t + rng_.exponential(f.on ? mean_on : mean_off);
        continue;
      }
      if (!f.on) {
        t = f.period_end;
        continue;
      }
      const double cand = t + rng_.exponential(1.0 / f.pkt_rate_on);
      if (cand <= f.period_end) return cand;
      t = f.period_end;  // no arrival in the ON remainder; skip to next period
    }
  }

  // The event being handled stays at the root until its handler's first
  // schedule() overwrites it and sifts the new event down, so a handler
  // that schedules its successor pays one sift instead of a pop plus a
  // push. The heap holds the same events as pop-then-push would, and the
  // order is total, so it pops the same sequence.
  void schedule(double t, EventKind kind, std::int32_t target) {
    RN_CHECK(seq_ < kMaxSeq &&
                 static_cast<std::uint32_t>(target) < (1u << kTargetBits),
             "event sequence or target out of range");
    const Event ev{t, seq_++ << kSeqShift |
                          static_cast<std::uint64_t>(kind) << kTargetBits |
                          static_cast<std::uint64_t>(target)};
    if (root_spent_) {
      root_spent_ = false;
      heap_.replace_top(ev);
    } else {
      heap_.push(ev);
    }
  }

  void schedule_arrival(double t, const Packet& pkt) {
    auto slot = static_cast<std::int32_t>(in_transit_.size());
    if (free_slots_.empty()) {
      in_transit_.push_back(pkt);
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      in_transit_[static_cast<std::size_t>(slot)] = pkt;
    }
    schedule(t, EventKind::kPacketArrive, slot);
  }

  void note_queue_change(LinkState& ls, double now) {
    const double from = std::max(ls.last_q_change, cfg_.warmup_s);
    if (now > from) {
      ls.q_integral += static_cast<double>(ls.queue.size()) * (now - from);
    }
    ls.last_q_change = now;
  }

  void start_service(topo::LinkId id, LinkState& ls, const Packet& pkt,
                     double now) {
    ls.busy = true;
    ls.serving = pkt;
    ls.busy_since = now;
    const double tx_time =
        pkt.size_bits / capacity_bps_[static_cast<std::size_t>(id)];
    schedule(now + tx_time, EventKind::kServiceDone, id);
  }

  void handle_packet_arrive(topo::LinkId id, const Packet& pkt, double now) {
    LinkState& ls = links_[static_cast<std::size_t>(id)];
    if (!ls.busy) {
      start_service(id, ls, pkt, now);
      return;
    }
    if (cfg_.link_buffer_pkts > 0 &&
        static_cast<int>(ls.queue.size()) >= cfg_.link_buffer_pkts) {
      ++ls.drops;
      ++path_drops_[static_cast<std::size_t>(pkt.pair_idx)];
      return;
    }
    note_queue_change(ls, now);
    ls.queue.push_back(pkt);
    ls.peak_queue = std::max(ls.peak_queue, ls.queue.size());
  }

  void deliver(const Packet& pkt, double now) {
    const auto pair = static_cast<std::size_t>(pkt.pair_idx);
    const std::int32_t first = route_begin_[pair];
    if (pkt.hop >= route_begin_[pair + 1] - first) {
      // Destination reached.
      ++packets_delivered_;
      if (pkt.created_s >= cfg_.warmup_s) {
        const double delay = now - pkt.created_s;
        path_delay_[pair].add(delay);
      }
      return;
    }
    const topo::LinkId id =
        route_links_[static_cast<std::size_t>(first + pkt.hop)];
    handle_packet_arrive(id, pkt, now);
  }

  void handle_packet_landed(std::int32_t slot, double now) {
    const Packet pkt = in_transit_[static_cast<std::size_t>(slot)];
    free_slots_.push_back(slot);
    deliver(pkt, now);
  }

  void handle_service_done(topo::LinkId id, double now) {
    LinkState& ls = links_[static_cast<std::size_t>(id)];
    RN_CHECK(ls.busy, "service completion on idle link");
    // Utilization accounting clipped to the post-warmup window.
    const double from = std::max(ls.busy_since, cfg_.warmup_s);
    if (now > from) ls.busy_accum += now - from;
    ++ls.tx;
    Packet pkt = ls.serving;
    ls.busy = false;
    pkt.hop += 1;
    const double prop = prop_delay_s_[static_cast<std::size_t>(id)];
    if (prop > 0.0) {
      schedule_arrival(now + prop, pkt);
    } else {
      deliver(pkt, now);
    }
    // Close the queue-length integral at the pre-dequeue length.
    note_queue_change(ls, now);
    if (!ls.queue.empty()) {
      const Packet next = ls.queue.front();
      ls.queue.pop_front();
      start_service(id, ls, next, now);
    }
  }

  void handle_flow_arrival(std::int32_t flow_idx, double now) {
    FlowState& f = flows_[static_cast<std::size_t>(flow_idx)];
    Packet pkt;
    pkt.size_bits = sample_pkt_size();
    pkt.created_s = now;
    pkt.pair_idx = flow_idx;
    pkt.hop = 0;
    ++packets_created_;
    deliver(pkt, now);
    const double next = next_arrival_time(f, now);
    if (next <= cfg_.horizon_s) {
      schedule(next, EventKind::kFlowArrival, flow_idx);
    }
  }

  const SimConfig& cfg_;
  const topo::Topology& topo_;
  const routing::RoutingScheme& scheme_;
  const traffic::TrafficMatrix& tm_;
  Rng rng_;

  EventHeap heap_;
  bool root_spent_ = false;  // the root was handled; schedule() overwrites it
  std::uint64_t seq_ = 0;
  // Packets in propagation, addressed by their kPacketArrive event.
  std::vector<Packet> in_transit_;
  std::vector<std::int32_t> free_slots_;
  // Per-run copies of the routing and link attributes the loop reads:
  // pair p's path is route_links_[route_begin_[p], route_begin_[p + 1]).
  std::vector<std::int32_t> route_begin_;
  std::vector<topo::LinkId> route_links_;
  std::vector<double> capacity_bps_;
  std::vector<double> prop_delay_s_;
  std::vector<FlowState> flows_;
  std::vector<LinkState> links_;
  std::vector<Welford> path_delay_;
  std::vector<std::size_t> path_drops_;
  std::size_t packets_created_ = 0;
  std::size_t packets_delivered_ = 0;  // all deliveries, warmup included
  std::size_t processed_ = 0;
};

SimResult Run::execute() {
  obs::TraceSpan run_span("sim.run");
  const int num_pairs = topo_.num_pairs();
  flows_.resize(static_cast<std::size_t>(num_pairs));
  const int num_links = topo_.num_links();
  route_begin_.assign(1, 0);
  route_begin_.reserve(static_cast<std::size_t>(num_pairs) + 1);
  route_links_.clear();
  for (int idx = 0; idx < num_pairs; ++idx) {
    for (const topo::LinkId id : scheme_.path_by_index(idx)) {
      RN_CHECK(id >= 0 && id < num_links, "path uses an unknown link id");
      route_links_.push_back(id);
    }
    route_begin_.push_back(static_cast<std::int32_t>(route_links_.size()));
  }
  capacity_bps_.reserve(static_cast<std::size_t>(num_links));
  prop_delay_s_.reserve(static_cast<std::size_t>(num_links));
  for (const topo::Link& link : topo_.links()) {
    capacity_bps_.push_back(link.capacity_bps);
    prop_delay_s_.push_back(link.prop_delay_s);
  }
  heap_.reserve(static_cast<std::size_t>(num_pairs + num_links));
  links_.resize(static_cast<std::size_t>(num_links));
  path_delay_.resize(static_cast<std::size_t>(num_pairs));
  path_drops_.assign(static_cast<std::size_t>(num_pairs), 0);

  // Seed each active flow with its first arrival.
  for (int idx = 0; idx < num_pairs; ++idx) {
    const double rate_bps = tm_.rate_by_index(idx);
    if (rate_bps <= 0.0) continue;
    FlowState& f = flows_[static_cast<std::size_t>(idx)];
    const double mean_pkt_rate = rate_bps / cfg_.model.mean_pkt_size_bits;
    if (cfg_.model.arrivals == traffic::ArrivalProcess::kOnOff) {
      f.pkt_rate_on = mean_pkt_rate / cfg_.model.on_fraction;
      f.on = rng_.bernoulli(cfg_.model.on_fraction);
      f.period_end = rng_.exponential(
          f.on ? cfg_.model.mean_on_s
               : cfg_.model.mean_on_s * (1.0 - cfg_.model.on_fraction) /
                     cfg_.model.on_fraction);
    } else {
      f.pkt_rate_on = mean_pkt_rate;
    }
    const double first = next_arrival_time(f, 0.0);
    if (first <= cfg_.horizon_s) {
      schedule(first, EventKind::kFlowArrival, idx);
    }
  }

  obs::Stopwatch wall;
  double now = 0.0;
  while (!heap_.empty()) {
    const Event ev = heap_.top();
    root_spent_ = true;
    now = ev.time;
    ++processed_;
    const auto target =
        static_cast<std::int32_t>(ev.tag & ((1u << kTargetBits) - 1));
    switch (static_cast<EventKind>((ev.tag >> kTargetBits) & 3)) {
      case EventKind::kFlowArrival:
        handle_flow_arrival(target, now);
        break;
      case EventKind::kServiceDone:
        handle_service_done(target, now);
        break;
      case EventKind::kPacketArrive:
        handle_packet_landed(target, now);
        break;
    }
    if (root_spent_) {
      root_spent_ = false;
      heap_.pop();
    }
  }
  // Arrivals stop at horizon_s and the loop then drains every queue, so
  // `now` is the time of the last event and no packet is left in flight.

  const double wall_s = wall.elapsed_s();

  SimResult result;
  result.simulated_time_s = now;
  result.warmup_s = cfg_.warmup_s;
  result.total_events = processed_;
  result.packets_created = packets_created_;
  result.packets_delivered = packets_delivered_;
  result.wall_time_s = wall_s;
  result.events_per_wall_s =
      wall_s > 0.0 ? static_cast<double>(processed_) / wall_s : 0.0;
  result.paths.resize(static_cast<std::size_t>(num_pairs));
  for (int idx = 0; idx < num_pairs; ++idx) {
    const Welford& acc = path_delay_[static_cast<std::size_t>(idx)];
    PathStats& ps = result.paths[static_cast<std::size_t>(idx)];
    ps.delivered = acc.count();
    ps.dropped = path_drops_[static_cast<std::size_t>(idx)];
    ps.mean_delay_s = acc.count() > 0 ? acc.mean() : 0.0;
    ps.jitter_s = acc.stddev();
  }
  const double window = std::max(1e-12, now - cfg_.warmup_s);
  result.links.resize(static_cast<std::size_t>(num_links));
  for (topo::LinkId id = 0; id < num_links; ++id) {
    LinkState& ls = links_[static_cast<std::size_t>(id)];
    // Close open accounting intervals at the final clock.
    if (ls.busy) {
      const double from = std::max(ls.busy_since, cfg_.warmup_s);
      if (now > from) ls.busy_accum += now - from;
    }
    note_queue_change(ls, now);
    LinkStats& out = result.links[static_cast<std::size_t>(id)];
    out.utilization = std::clamp(ls.busy_accum / window, 0.0, 1.0);
    out.mean_queue_pkts = ls.q_integral / window;
    out.peak_queue_pkts = ls.peak_queue;
    out.tx_pkts = ls.tx;
    out.drops = ls.drops;
    result.packets_dropped += ls.drops;
    result.peak_queue_pkts = std::max(result.peak_queue_pkts, ls.peak_queue);
  }
  // Whatever was neither delivered nor dropped is still in a queue, in
  // service or in propagation. The drain above leaves none, so this is 0;
  // it is computed rather than assumed so the accounting stays checkable.
  result.packets_in_flight =
      packets_created_ - packets_delivered_ - result.packets_dropped;

  obs::EventSink& sink = obs::EventSink::global();
  if (sink.enabled()) {
    obs::Event ev("sim.run");
    ev.f("events", result.total_events)
        .f("events_per_wall_s", result.events_per_wall_s)
        .f("wall_s", result.wall_time_s)
        .f("packets_created", result.packets_created)
        .f("packets_delivered", result.packets_delivered)
        .f("packets_dropped", result.packets_dropped)
        .f("packets_in_flight", result.packets_in_flight)
        .f("peak_queue_pkts", result.peak_queue_pkts)
        .f("simulated_s", result.simulated_time_s)
        .f("warmup_s", result.warmup_s)
        .f("measured_s", result.measured_time_s());
    sink.emit(ev);
  }
  return result;
}

}  // namespace

double SimResult::coverage(std::size_t min_pkts) const {
  if (paths.empty()) return 0.0;
  std::size_t ok = 0;
  for (const PathStats& p : paths) {
    if (p.delivered >= min_pkts) ++ok;
  }
  return static_cast<double>(ok) / static_cast<double>(paths.size());
}

PacketSimulator::PacketSimulator(SimConfig cfg) : cfg_(std::move(cfg)) {
  RN_CHECK(cfg_.warmup_s >= 0.0, "warmup must be non-negative");
  RN_CHECK(cfg_.horizon_s > cfg_.warmup_s, "horizon must exceed warmup");
  RN_CHECK(cfg_.link_buffer_pkts >= 0, "buffer size must be non-negative");
}

SimResult PacketSimulator::run(const topo::Topology& topo,
                               const routing::RoutingScheme& scheme,
                               const traffic::TrafficMatrix& tm) const {
  RN_CHECK(scheme.num_nodes() == topo.num_nodes(),
           "routing scheme does not match topology");
  RN_CHECK(tm.num_nodes() == topo.num_nodes(),
           "traffic matrix does not match topology");
  Run run(cfg_, topo, scheme, tm);
  return run.execute();
}

double horizon_for_target_packets(const traffic::TrafficMatrix& tm,
                                  const traffic::TrafficModel& model,
                                  double warmup_s,
                                  double target_pkts_per_flow) {
  RN_CHECK(target_pkts_per_flow > 0.0, "target packet count must be positive");
  const double total_pkt_rate =
      tm.total_rate_bps() / model.mean_pkt_size_bits;
  RN_CHECK(total_pkt_rate > 0.0, "traffic matrix is all zero");
  const double mean_flow_rate =
      total_pkt_rate / static_cast<double>(tm.num_pairs());
  return warmup_s + target_pkts_per_flow / mean_flow_rate;
}

}  // namespace rn::sim
