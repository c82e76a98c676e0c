// Tests for the src/obs telemetry layer: histogram bucket geometry,
// concurrent counter/histogram updates, JSONL round-trips through the
// parser, every parser reject matched by its message, every truncation of
// a trace document and a metrics line rejected, the summarize rollup, and
// the zero-allocation guarantee of the disabled-sink hot path.
#include "obs/event.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/summarize.h"
#include "obs/timer.h"
#include "obs/trace.h"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

// Global allocation counter: every operator new in this test binary bumps
// it, so tests can assert that a code path performs no heap allocation.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// noinline: once inlined, GCC pairs the free() with a new-expression and
// reports a -Wmismatched-new-delete that does not exist.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rn::obs {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "obs_" + name;
}

TEST(Histogram, BucketBoundariesAreHalfOpenAndMonotonic) {
  double prev_upper = Histogram::bucket_upper(0);
  EXPECT_EQ(Histogram::bucket_lower(0), 0.0);
  EXPECT_EQ(prev_upper, Histogram::kMinBound);
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_lower(i), prev_upper) << "bucket " << i;
    EXPECT_GT(Histogram::bucket_upper(i), Histogram::bucket_lower(i));
    prev_upper = Histogram::bucket_upper(i);
  }
  EXPECT_TRUE(std::isinf(Histogram::bucket_upper(Histogram::kNumBuckets - 1)));
}

TEST(Histogram, ValuesLandInTheirBucket) {
  // A boundary value belongs to the bucket it opens (half-open ranges).
  for (int i = 1; i < Histogram::kNumBuckets - 1; ++i) {
    const double lo = Histogram::bucket_lower(i);
    EXPECT_EQ(Histogram::bucket_index(lo), i) << "lower edge of bucket " << i;
    const double mid = lo * 1.5;
    if (mid < Histogram::bucket_upper(i)) {
      EXPECT_EQ(Histogram::bucket_index(mid), i) << "interior of bucket " << i;
    }
  }
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0);
  EXPECT_EQ(Histogram::bucket_index(1e-12), 0);
  EXPECT_EQ(Histogram::bucket_index(1e9), Histogram::kNumBuckets - 1);
}

TEST(Histogram, CountsSumAndQuantilesTrackRecords) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(1e-3 * i);  // 1ms .. 100ms
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum(), 5.050, 1e-9);
  EXPECT_NEAR(h.mean(), 0.0505, 1e-9);
  EXPECT_EQ(h.max(), 0.1);
  // Log-bucket interpolation is coarse; one bucket spans ~10^0.2 ≈ 1.58x,
  // so quantile estimates are within that factor of the truth.
  EXPECT_GT(h.quantile(0.5), 0.050 / 1.6);
  EXPECT_LT(h.quantile(0.5), 0.050 * 1.6);
  EXPECT_GE(h.quantile(1.0), h.quantile(0.5));
  EXPECT_LE(h.quantile(1.0), h.max() + 1e-12);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Metrics, ConcurrentCounterAndHistogramUpdatesAreExact) {
  Counter c;
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(1);
        h.record(1e-3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_NEAR(h.sum(), kThreads * kPerThread * 1e-3, 1e-6);
}

TEST(Metrics, GaugeSetMaxKeepsLargest) {
  Gauge g;
  g.set_max(3.0);
  g.set_max(1.0);
  EXPECT_EQ(g.value(), 3.0);
  g.set(0.5);
  EXPECT_EQ(g.value(), 0.5);
}

TEST(Metrics, RegistryResetPreservesMetricAddresses) {
  Registry& reg = Registry::global();
  Counter& c = reg.counter("obs_test.reset_counter");
  c.add(7);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&reg.counter("obs_test.reset_counter"), &c);
}

TEST(Metrics, SnapshotJsonParses) {
  Registry& reg = Registry::global();
  reg.counter("obs_test.snap_counter").add(3);
  reg.histogram("obs_test.snap_hist").record(0.25);
  const std::string json = reg.snapshot().to_json();
  JsonValue root;
  std::string err;
  ASSERT_TRUE(parse_json(json, &root, &err)) << err << "\n" << json;
  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* c = counters->find("obs_test.snap_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->number, 3.0);
  const JsonValue* hists = root.find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* h = hists->find("obs_test.snap_hist");
  ASSERT_NE(h, nullptr);
  ASSERT_NE(h->find("p95"), nullptr);
}

TEST(Event, JsonlRoundTripsThroughParser) {
  Event ev("test.kind");
  ev.f("loss", 0.03125)
      .f("epoch", 42)
      .f("label", "quotes \" and \\ and\nnewline")
      .f("tiny", 1.25e-9);
  const std::string line = ev.jsonl(1234.5);
  JsonValue root;
  std::string err;
  ASSERT_TRUE(parse_json(line, &root, &err)) << err << "\n" << line;
  EXPECT_EQ(root.find("ts")->number, 1234.5);
  EXPECT_EQ(root.find("kind")->string, "test.kind");
  const JsonValue* fields = root.find("fields");
  ASSERT_NE(fields, nullptr);
  EXPECT_EQ(fields->find("loss")->number, 0.03125);
  EXPECT_EQ(fields->find("epoch")->number, 42.0);
  EXPECT_EQ(fields->find("label")->string, "quotes \" and \\ and\nnewline");
  EXPECT_NEAR(fields->find("tiny")->number, 1.25e-9, 1e-21);
}

TEST(Event, ConsoleLineIsHumanReadable) {
  Event ev("trainer.epoch");
  ev.f("epoch", 3).f("loss", 0.5);
  EXPECT_EQ(ev.console_line(), "[trainer.epoch] epoch=3 loss=0.5");
}

TEST(Json, RejectsMalformedInput) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(parse_json("{\"a\":}", &v, &err));
  EXPECT_FALSE(parse_json("{\"a\":1", &v, &err));
  EXPECT_FALSE(parse_json("{\"a\":1} trailing", &v, &err));
  EXPECT_FALSE(parse_json("not json", &v, &err));
  EXPECT_TRUE(parse_json("{\"a\":[1,2,{\"b\":true}],\"c\":null}", &v, &err))
      << err;
}

// One case per reject in the parser, each matched by its full message so
// a different reject cannot stand in for the one under test.
void expect_json_reject(const std::string& text, const std::string& error) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(parse_json(text, &v, &err)) << text;
  EXPECT_EQ(err, error) << text;
}

TEST(JsonReject, TrailingCharacters) {
  expect_json_reject("{\"a\":1} x", "trailing characters at offset 8");
}

TEST(JsonReject, NestingTooDeep) {
  expect_json_reject(std::string(40, '['), "nesting too deep at offset 33");
}

TEST(JsonReject, UnexpectedEndOfInput) {
  expect_json_reject("[1,", "unexpected end of input at offset 3");
}

TEST(JsonReject, InvalidLiteral) {
  expect_json_reject("[tru]", "invalid literal at offset 1");
}

TEST(JsonReject, ExpectedAValue) {
  expect_json_reject("{\"a\":x}", "expected a value at offset 5");
}

TEST(JsonReject, MalformedNumber) {
  expect_json_reject("[1.2.3]", "malformed number at offset 6");
}

TEST(JsonReject, ExpectedQuote) {
  expect_json_reject("{1:2}", "expected '\"' at offset 1");
}

TEST(JsonReject, DanglingEscape) {
  expect_json_reject("\"ab\\", "dangling escape at offset 4");
}

TEST(JsonReject, ShortUnicodeEscape) {
  expect_json_reject("\"\\u12\"", "short \\u escape at offset 3");
}

TEST(JsonReject, BadUnicodeEscape) {
  expect_json_reject("\"\\u12G4\"", "bad \\u escape at offset 6");
}

TEST(JsonReject, UnknownEscape) {
  expect_json_reject("\"\\q\"", "unknown escape at offset 3");
}

TEST(JsonReject, UnterminatedString) {
  expect_json_reject("\"abc", "unterminated string at offset 4");
}

TEST(JsonReject, ExpectedColon) {
  expect_json_reject("{\"a\" 1}", "expected ':' at offset 5");
}

TEST(JsonReject, ExpectedCommaOrBrace) {
  expect_json_reject("{\"a\":1 \"b\":2}", "expected ',' or '}' at offset 7");
}

TEST(JsonReject, ExpectedCommaOrBracket) {
  expect_json_reject("[1 2]", "expected ',' or ']' at offset 3");
}

// Every proper prefix of `doc` (trailing whitespace aside) must fail to
// parse, and the whole document must parse.
void expect_every_truncation_rejected(std::string doc) {
  while (!doc.empty() && std::isspace(static_cast<unsigned char>(doc.back()))) {
    doc.pop_back();
  }
  JsonValue v;
  std::string err;
  ASSERT_TRUE(parse_json(doc, &v, &err)) << err << "\n" << doc;
  for (std::size_t len = 0; len < doc.size(); ++len) {
    EXPECT_FALSE(parse_json(std::string_view(doc).substr(0, len), &v, &err))
        << "truncation at " << len << " of " << doc.size() << " parsed";
  }
}

TEST(Json, EveryTruncationOfATraceDocumentIsRejected) {
  std::vector<TraceRecord> spans(3);
  spans[0] = {"routenet.forward", 1, 0, 0.5, 0.25, 1, "batch", 4};
  spans[1] = {"routenet.mp", 2, 1, 0.5, 0.125, 1, nullptr, 0};
  spans[2] = {"serve.net.read", 3, 0, 1.0, 1e-6, 2, "bytes", 1234};
  const std::string path = temp_path("truncate.trace.json");
  Tracer::write_chrome_trace(path, spans, /*merge_existing=*/false,
                             /*dropped=*/3, /*sampled_out=*/1);
  std::ifstream in(path);
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  ASSERT_NE(doc.find("traceEvents"), std::string::npos) << doc;
  expect_every_truncation_rejected(doc);
}

TEST(Json, EveryTruncationOfAMetricsLineIsRejected) {
  Event ev("trainer.epoch");
  ev.f("epoch", 3)
      .f("loss", 0.03125)
      .f("note", "tab\tquote\" back\\ bell\x07 done")
      .f("tiny", -1.25e-9);
  expect_every_truncation_rejected(ev.jsonl(1234.5));
}

TEST(EventSink, WritesParseableJsonlFile) {
  const std::string path = temp_path("sink.jsonl");
  EventSink& sink = EventSink::global();
  sink.open(path);
  ASSERT_TRUE(sink.enabled());
  {
    Event ev("test.write");
    ev.f("x", 1.5);
    sink.emit(ev);
  }
  emit_registry_snapshot();
  sink.close();
  EXPECT_FALSE(sink.enabled());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    JsonValue root;
    std::string err;
    EXPECT_TRUE(parse_json(line, &root, &err)) << err << "\n" << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);  // the event + the snapshot
}

TEST(EventSink, AppendModeKeepsExistingEvents) {
  const std::string path = temp_path("append.jsonl");
  EventSink& sink = EventSink::global();
  sink.open(path);
  {
    Event ev("run.first");
    ev.f("x", 1);
    sink.emit(ev);
  }
  sink.close();

  // Default reopen truncates; append mode (the --resume path) must not.
  sink.open(path, /*append=*/true);
  {
    Event ev("run.second");
    ev.f("x", 2);
    sink.emit(ev);
  }
  sink.close();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string all, line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    all += line;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(all.find("run.first"), std::string::npos);
  EXPECT_NE(all.find("run.second"), std::string::npos);

  // And the default mode really truncates (regression guard: a fresh run
  // starting over must not inherit a stale log).
  sink.open(path);
  sink.close();
  std::ifstream in2(path);
  std::size_t lines2 = 0;
  while (std::getline(in2, line)) ++lines2;
  EXPECT_EQ(lines2, 0u);
}

TEST(EventSink, DisabledHotPathDoesNotAllocate) {
  EventSink& sink = EventSink::global();
  sink.close();
  ASSERT_FALSE(sink.enabled());
  // Pre-resolve registry references (lookup itself may allocate).
  Counter& c = Registry::global().counter("obs_test.noop_counter");
  Histogram& h = Registry::global().histogram("obs_test.noop_hist");

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    // The guarded-emit pattern every hot path uses: when the sink is
    // disabled no Event is built, and metric updates are lock-free.
    if (sink.enabled()) {
      Event ev("never.built");
      sink.emit(ev);
    }
    c.add(1);
    h.record(1e-4);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

TEST(ScopedTimer, RecordsPositiveElapsedOnce) {
  Histogram h;
  {
    ScopedTimer timer(h);
    volatile double sink_v = 0.0;
    for (int i = 0; i < 1000; ++i) sink_v = sink_v + i;
    const double first = timer.stop();
    EXPECT_GT(first, 0.0);
    EXPECT_EQ(timer.stop(), first);  // idempotent
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST(Summarize, RollsUpKindsFieldsAndSnapshot) {
  const std::string path = temp_path("summary.jsonl");
  {
    std::ofstream out(path);
    out << "{\"ts\":1.0,\"kind\":\"trainer.batch\",\"fields\":"
           "{\"forward_s\":0.010,\"loss\":1.0}}\n";
    out << "{\"ts\":2.0,\"kind\":\"trainer.batch\",\"fields\":"
           "{\"forward_s\":0.030,\"loss\":0.5}}\n";
    out << "{\"ts\":3.0,\"kind\":\"metrics.snapshot\",\"fields\":"
           "{\"sim.events_total\":123}}\n";
  }
  const std::string summary = summarize_jsonl_file(path);
  EXPECT_NE(summary.find("3 events"), std::string::npos) << summary;
  EXPECT_NE(summary.find("trainer.batch"), std::string::npos);
  EXPECT_NE(summary.find("forward_s"), std::string::npos);
  EXPECT_NE(summary.find("sim.events_total"), std::string::npos);
  EXPECT_NE(summary.find("123"), std::string::npos);
}

TEST(Summarize, ThrowsOnMalformedLineWithLineNumber) {
  const std::string path = temp_path("bad.jsonl");
  {
    std::ofstream out(path);
    out << "{\"ts\":1.0,\"kind\":\"ok\",\"fields\":{}}\n";
    out << "this is not json\n";
  }
  try {
    summarize_jsonl_file(path);
    FAIL() << "expected malformed-line error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(":2"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(summarize_jsonl_file(temp_path("does_not_exist.jsonl")),
               std::runtime_error);
}

TEST(Summarize, RequiresRecordSchema) {
  const std::string path = temp_path("schema.jsonl");
  {
    std::ofstream out(path);
    out << "{\"kind\":\"missing_ts\",\"fields\":{}}\n";
  }
  EXPECT_THROW(summarize_jsonl_file(path), std::runtime_error);
}

}  // namespace
}  // namespace rn::obs
