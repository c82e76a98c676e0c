// RNDS1 shard container + streaming loader contract:
//   - shard_first partitions any total contiguously and completely,
//   - N independently generated shards merged are bitwise identical to a
//     single-process run (at 1 and 4 threads — generation is thread-count
//     invariant),
//   - small NSFNET and ba50 shards hash to committed CRC-32s,
//   - verify/merge refuse incoherent sets (seed / config-fingerprint /
//     shard-count mismatch, missing or duplicated shards, index gaps),
//     and map one shard at a time,
//     and every structural reject of the reader fires on a file that
//     differs from a written one only in the field under test,
//   - StreamingDataset decodes exactly the generate_many samples,
//   - Trainer::fit over a streamed shard is bitwise identical to the
//     in-RAM vector path, with resident bytes bounded by the
//     dataset.stream.* gauges,
//   - ShardWriter's temp-file + rename write is atomic, and
//     load_dataset reads RNDS1 and refuses anything else.
#include "dataset/shard.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "dataset/stream.h"
#include "dataset/codec.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "topology/generators.h"
#include "util/bytes.h"

namespace rn::dataset {
namespace {

GeneratorConfig fast_config() {
  GeneratorConfig cfg;
  cfg.target_pkts_per_flow = 60.0;
  cfg.warmup_s = 0.5;
  cfg.min_delivered = 5;
  return cfg;
}

std::shared_ptr<const topo::Topology> shared_ring() {
  return std::make_shared<const topo::Topology>(topo::ring(6));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

TEST(ShardFirst, PartitionsContiguouslyAndCompletely) {
  for (const std::uint64_t total : {0ull, 1ull, 7ull, 10ull, 101ull}) {
    for (const std::uint32_t n : {1u, 2u, 3u, 4u, 7u}) {
      EXPECT_EQ(shard_first(total, 0, n), 0u);
      EXPECT_EQ(shard_first(total, n, n), total);
      std::uint64_t covered = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t first = shard_first(total, i, n);
        const std::uint64_t next = shard_first(total, i + 1, n);
        EXPECT_EQ(first, covered) << total << " over " << n << " at " << i;
        EXPECT_GE(next, first);
        // Block partition: shard sizes differ by at most one sample.
        EXPECT_LE(next - first, total / n + 1);
        covered = next;
      }
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(ShardFirst, SurvivesHugeTotals) {
  // (total * index) overflows u64 here; the u128 arithmetic must not.
  const std::uint64_t total = 1ull << 62;
  EXPECT_EQ(shard_first(total, 4, 4), total);
  EXPECT_EQ(shard_first(total, 2, 4), total / 2);
}

TEST(ShardGeneration, FourShardMergeBitwiseEqualsSingle) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  for (const int threads : {1, 4}) {
    par::set_global_threads(threads);
    const std::string tag = "_t" + std::to_string(threads);
    const std::string single = ::testing::TempDir() + "single" + tag + ".rnds";
    generate_shard(single, cfg, 31, topology, 6, 0, 1);
    std::vector<std::string> parts;
    for (std::uint32_t i = 0; i < 4; ++i) {
      const std::string p = ::testing::TempDir() + "part" +
                            std::to_string(i) + tag + ".rnds";
      generate_shard(p, cfg, 31, topology, 6, i, 4);
      parts.push_back(p);
    }
    EXPECT_EQ(verify_shards(parts).size(), 4u);
    const std::string merged = ::testing::TempDir() + "merged" + tag + ".rnds";
    merge_shards(merged, parts);
    EXPECT_EQ(read_file(single), read_file(merged))
        << "4-shard merge is not bitwise identical at " << threads
        << " thread(s)";
  }
  par::set_global_threads(0);
}

// Golden RNDS1 bytes: committed CRC-32s of small NSFNET and ba50 shards
// (the topologies `dataset gen` builds for `nsfnet` and `ba50`), at 1 and 4
// threads. Any change to the scenario draws, the simulator seed derivation
// or the simulator's event order moves them. Recompute them only for a
// deliberate ground-truth change, and say so.
TEST(ShardGolden, NsfnetAndBa50BytesAreCommitted) {
  GeneratorConfig cfg;
  cfg.target_pkts_per_flow = 40.0;
  cfg.warmup_s = 0.5;
  cfg.min_delivered = 5;
  Rng ba_rng(6);
  const auto ba50 = std::make_shared<const topo::Topology>(
      topo::synthetic_ba(50, 2, ba_rng));
  const auto nsfnet = std::make_shared<const topo::Topology>(topo::nsfnet());
  for (const int threads : {1, 4}) {
    par::set_global_threads(threads);
    const std::string tag = "_t" + std::to_string(threads);
    const std::string ns_path =
        ::testing::TempDir() + "golden_ns" + tag + ".rnds";
    const std::string ba_path =
        ::testing::TempDir() + "golden_ba" + tag + ".rnds";
    generate_shard(ns_path, cfg, 11, nsfnet, 4, 0, 1);
    generate_shard(ba_path, cfg, 6, ba50, 2, 0, 1);
    const std::string ns = read_file(ns_path);
    const std::string ba = read_file(ba_path);
    EXPECT_EQ(util::crc32(ns.data(), ns.size()), 0x8307b223u)
        << "NSFNET shard at " << threads << " thread(s)";
    EXPECT_EQ(util::crc32(ba.data(), ba.size()), 0xc82dc2f5u)
        << "ba50 shard at " << threads << " thread(s)";
  }
  par::set_global_threads(0);
}

TEST(ShardGeneration, StreamedSamplesMatchGenerateMany) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  DatasetGenerator gen(cfg, 32);
  const std::vector<Sample> expected = gen.generate_many(topology, 4);
  const std::string path = ::testing::TempDir() + "roundtrip.rnds";
  generate_shard(path, cfg, 32, topology, 4, 0, 1);

  StreamingDataset stream(path);
  ASSERT_EQ(stream.size(), 4u);
  EXPECT_EQ(stream.header().seed, 32u);
  EXPECT_EQ(stream.header().config_fingerprint,
            config_fingerprint(cfg, *topology));
  std::vector<const Sample*> got;
  for (std::uint64_t i = 0; i < 4; ++i) {
    stream.materialize(&i, 1, got);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0]->delay_s, expected[i].delay_s);
    EXPECT_EQ(got[0]->jitter_s, expected[i].jitter_s);
    EXPECT_EQ(got[0]->valid, expected[i].valid);
    EXPECT_DOUBLE_EQ(got[0]->tm.rate_by_index(3),
                     expected[i].tm.rate_by_index(3));
  }
}

TEST(ShardGeneration, VerifyRejectsSeedMismatch) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  const std::string a = ::testing::TempDir() + "seed_a.rnds";
  const std::string b = ::testing::TempDir() + "seed_b.rnds";
  generate_shard(a, cfg, 1, topology, 2, 0, 2);
  generate_shard(b, cfg, 2, topology, 2, 1, 2);
  EXPECT_THROW(verify_shards({a, b}), std::runtime_error);
  EXPECT_THROW(merge_shards(::testing::TempDir() + "seed_m.rnds", {a, b}),
               std::runtime_error);
}

TEST(ShardGeneration, VerifyRejectsConfigMismatch) {
  const auto topology = shared_ring();
  GeneratorConfig cfg_a = fast_config();
  GeneratorConfig cfg_b = fast_config();
  cfg_b.min_util = 0.42;
  const std::string a = ::testing::TempDir() + "cfg_a.rnds";
  const std::string b = ::testing::TempDir() + "cfg_b.rnds";
  generate_shard(a, cfg_a, 7, topology, 2, 0, 2);
  generate_shard(b, cfg_b, 7, topology, 2, 1, 2);
  EXPECT_NE(config_fingerprint(cfg_a, *topology),
            config_fingerprint(cfg_b, *topology));
  EXPECT_THROW(verify_shards({a, b}), std::runtime_error);
}

TEST(ShardGeneration, VerifyRejectsIncompleteOrDuplicatedSets) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  const std::string s0 = ::testing::TempDir() + "set_0.rnds";
  const std::string s1 = ::testing::TempDir() + "set_1.rnds";
  generate_shard(s0, cfg, 9, topology, 4, 0, 2);
  generate_shard(s1, cfg, 9, topology, 4, 1, 2);
  // Complete set is fine; any subset or duplicate is not a partition.
  EXPECT_EQ(verify_shards({s0, s1}).size(), 2u);
  EXPECT_THROW(verify_shards({s0}), std::runtime_error);
  EXPECT_THROW(verify_shards({s1}), std::runtime_error);
  EXPECT_THROW(verify_shards({s0, s0}), std::runtime_error);
  EXPECT_THROW(merge_shards(::testing::TempDir() + "set_m.rnds", {s1}),
               std::runtime_error);
}

TEST(ShardReaderSuite, DetectsFlippedRecordByteOnAccess) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  const std::string path = ::testing::TempDir() + "flip.rnds";
  generate_shard(path, cfg, 11, topology, 2, 0, 1);
  std::string bytes = read_file(path);
  // Flip one payload byte (header is 64 bytes; payload starts right after).
  bytes[kShardHeaderBytes + 5] =
      static_cast<char>(bytes[kShardHeaderBytes + 5] ^ 0x01);
  const std::string bad = ::testing::TempDir() + "flip_bad.rnds";
  {
    std::ofstream out(bad, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ShardReader reader(bad);  // structural parse ignores record CRCs
  EXPECT_THROW(reader.sample(0), std::runtime_error);
  EXPECT_THROW(reader.verify_all(), std::runtime_error);
  EXPECT_THROW(verify_shards({bad}), std::runtime_error);
}

// Byte edits of a written shard (layout in dataset/shard.h). Each edit
// re-stamps the CRC that covers the edited field, so the only thing wrong
// with the file is the field under test.
constexpr std::size_t kShardIndexAt = 28;
constexpr std::size_t kShardCountAt = 32;
constexpr std::size_t kFirstIndexAt = 36;
constexpr std::size_t kCountAt = 44;
constexpr std::size_t kPayloadLenAt = 52;
constexpr std::size_t kHeaderCrcAt = 60;
constexpr std::size_t kIndexEntryBytes = 16;

template <typename T>
T get_at(const std::string& bytes, std::size_t at) {
  T v;
  std::memcpy(&v, bytes.data() + at, sizeof(T));
  return v;
}

template <typename T>
void put_at(std::string& bytes, std::size_t at, T v) {
  std::memcpy(bytes.data() + at, &v, sizeof(T));
}

template <typename T>
void edit_header(std::string& bytes, std::size_t at, T v) {
  put_at(bytes, at, v);
  put_at(bytes, kHeaderCrcAt, util::crc32(bytes.data(), kHeaderCrcAt));
}

// Sets the length of the last record's index entry, then the index CRC.
void edit_last_record_length(std::string& bytes, std::int64_t delta) {
  const auto count = get_at<std::uint64_t>(bytes, kCountAt);
  const std::size_t index_at =
      kShardHeaderBytes + get_at<std::uint64_t>(bytes, kPayloadLenAt);
  const std::size_t len_at = index_at + (count - 1) * kIndexEntryBytes + 8;
  put_at(bytes, len_at,
         static_cast<std::uint32_t>(get_at<std::uint32_t>(bytes, len_at) +
                                    delta));
  const std::size_t index_len = count * kIndexEntryBytes;
  put_at(bytes, index_at + index_len,
         util::crc32(bytes.data() + index_at, index_len));
}

std::string write_edited(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

// f must throw a std::runtime_error whose message contains `needle`: the
// message names the check, so a different reject cannot stand in for it.
template <typename F>
void expect_reject(const F& f, const std::string& needle) {
  try {
    f();
    ADD_FAILURE() << "accepted; expected \"" << needle << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

// A two-record, one-shard file and its bytes.
std::string two_record_shard(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  generate_shard(path, fast_config(), 13, shared_ring(), 2, 0, 1);
  return read_file(path);
}

TEST(ShardReaderSuite, RejectsShardIndexOutOfRange) {
  std::string bytes = two_record_shard("index_range.rnds");
  edit_header(bytes, kShardIndexAt, std::uint32_t{1});  // of 1 shard
  const std::string bad = write_edited("index_range_bad.rnds", bytes);
  expect_reject([&] { ShardReader r(bad); },
                "shard index 1 out of range for shard count 1");
}

TEST(ShardReaderSuite, RejectsEmptyFile) {
  const std::string empty = write_edited("empty.rnds", "");
  expect_reject([&] { ShardReader r(empty); },
                "cannot stat shard (or empty file)");
}

TEST(ShardReaderSuite, RejectsRecordOverrunningPayload) {
  std::string bytes = two_record_shard("overrun.rnds");
  edit_last_record_length(bytes, +1);
  const std::string bad = write_edited("overrun_bad.rnds", bytes);
  expect_reject([&] { ShardReader r(bad); }, "record 1 overruns payload");
}

TEST(ShardReaderSuite, RejectsIndexNotCoveringPayload) {
  std::string bytes = two_record_shard("cover.rnds");
  edit_last_record_length(bytes, -1);
  const std::string bad = write_edited("cover_bad.rnds", bytes);
  expect_reject([&] { ShardReader r(bad); },
                "shard index does not cover payload");
}

// Two shards of one run, 0/2 and 1/2, as bytes.
std::pair<std::string, std::string> two_shard_set(const std::string& name) {
  const std::string a = ::testing::TempDir() + name + "_0.rnds";
  const std::string b = ::testing::TempDir() + name + "_1.rnds";
  generate_shard(a, fast_config(), 17, shared_ring(), 4, 0, 2);
  generate_shard(b, fast_config(), 17, shared_ring(), 4, 1, 2);
  return {a, read_file(b)};
}

// Shard 1 claims a run of 3 shards: valid on its own, and the set still has
// as many files as shard 0 declares.
TEST(ShardGeneration, VerifyRejectsShardCountMismatch) {
  auto [a, b] = two_shard_set("count");
  edit_header(b, kShardCountAt, std::uint32_t{3});
  const std::string bad = write_edited("count_1_bad.rnds", b);
  expect_reject([&] { verify_shards({a, bad}); }, "shard count mismatch");
  expect_reject([&] { merge_shards(::testing::TempDir() + "count_m.rnds",
                                   {a, bad}); },
                "shard count mismatch");
}

TEST(ShardGeneration, VerifyRejectsFirstIndexGap) {
  auto [a, b] = two_shard_set("gap");
  edit_header(b, kFirstIndexAt, get_at<std::uint64_t>(b, kFirstIndexAt) + 1);
  const std::string bad = write_edited("gap_1_bad.rnds", b);
  expect_reject([&] { verify_shards({a, bad}); }, "leaves a gap (expected 2)");
}

// merge copies records raw, so it checks each record's CRC itself.
TEST(ShardGeneration, MergeRejectsRecordCrcMismatch) {
  std::string bytes = two_record_shard("merge_crc.rnds");
  bytes[kShardHeaderBytes + 5] =
      static_cast<char>(bytes[kShardHeaderBytes + 5] ^ 0x01);
  const std::string bad = write_edited("merge_crc_bad.rnds", bytes);
  const std::string out = ::testing::TempDir() + "merge_crc_out.rnds";
  std::filesystem::remove(out);
  expect_reject([&] { merge_shards(out, {bad}); }, "record 0 CRC mismatch");
  EXPECT_FALSE(std::filesystem::exists(out));
}

// Resident set of this process in bytes (/proc/self/statm, field 2).
long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long size_pages = 0;
  long resident_pages = 0;
  statm >> size_pages >> resident_pages;
  EXPECT_TRUE(statm.good()) << "cannot read /proc/self/statm";
  return resident_pages * ::sysconf(_SC_PAGESIZE);
}

// The largest rise of the resident set above its starting value while `f`
// runs, sampled every 100 us from a second thread.
template <typename F>
long peak_resident_rise(const F& f) {
  const long base = resident_bytes();
  std::atomic<bool> done{false};
  long peak = base;
  std::thread watcher([&] {
    while (!done.load()) {
      peak = std::max(peak, resident_bytes());
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  f();
  done = true;
  watcher.join();
  return std::max(peak, resident_bytes()) - base;
}

// verify_shards and merge_shards map one shard at a time: reading a set of
// six 4 MB shards raises the resident set by about one shard file, not by
// the set. Each shard repeats one NSFNET record, so the set is cheap to
// write.
TEST(ShardGeneration, VerifyAndMergeMapOneShardAtATime) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's shadow memory moves the resident set";
#endif
  const GeneratorConfig cfg = fast_config();
  const auto nsfnet = std::make_shared<const topo::Topology>(topo::nsfnet());
  const Sample sample = DatasetGenerator(cfg, 5).generate_at(nsfnet, 0);
  std::string record;
  encode_sample(record, sample);
  const std::uint32_t crc = util::crc32(record.data(), record.size());
  const std::uint64_t per_shard = (std::uint64_t{4} << 20) / record.size() + 1;
  constexpr std::uint32_t kShards = 6;
  std::vector<std::string> paths;
  std::uint64_t shard_bytes = 0;
  for (std::uint32_t i = 0; i < kShards; ++i) {
    ShardHeader header;
    header.seed = 5;
    header.shard_index = i;
    header.shard_count = kShards;
    header.first_index = i * per_shard;
    paths.push_back(::testing::TempDir() + "rss_" + std::to_string(i) +
                    ".rnds");
    ShardWriter writer(paths.back(), header);
    for (std::uint64_t k = 0; k < per_shard; ++k) writer.add_raw(record, crc);
    shard_bytes = writer.finish();
  }
  const long bound = 2 * static_cast<long>(shard_bytes);
  const long verify_rise =
      peak_resident_rise([&] { EXPECT_EQ(verify_shards(paths).size(), 6u); });
  EXPECT_LE(verify_rise, bound) << "verify_shards, shard of " << shard_bytes
                                << " bytes";
  const std::string merged = ::testing::TempDir() + "rss_merged.rnds";
  const long merge_rise =
      peak_resident_rise([&] { merge_shards(merged, paths); });
  EXPECT_LE(merge_rise, bound) << "merge_shards, shard of " << shard_bytes
                               << " bytes";
  for (const std::string& p : paths) std::filesystem::remove(p);
  std::filesystem::remove(merged);
}

core::RouteNetConfig small_model() {
  core::RouteNetConfig cfg;
  cfg.link_state_dim = 8;
  cfg.path_state_dim = 8;
  cfg.iterations = 2;
  cfg.readout_hidden = 12;
  return cfg;
}

core::TrainConfig small_train() {
  core::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 2;
  cfg.learning_rate = 5e-3f;
  cfg.threads = 1;
  return cfg;
}

TEST(StreamingTrainer, BitwiseEqualsInRamTraining) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  DatasetGenerator gen(cfg, 41);
  const std::vector<Sample> in_ram = gen.generate_many(topology, 6);
  const std::string path = ::testing::TempDir() + "train.rnds";
  generate_shard(path, cfg, 41, topology, 6, 0, 1);

  core::RouteNet vec_model(small_model());
  {
    VectorSampleSource source(in_ram);
    core::Trainer trainer(vec_model, small_train());
    trainer.fit(source);
  }
  core::RouteNet stream_model(small_model());
  {
    StreamingDataset source(path);
    core::Trainer trainer(stream_model, small_train());
    trainer.fit(source);
  }

  const std::vector<ag::Parameter*> pa = vec_model.params();
  const std::vector<ag::Parameter*> pb = stream_model.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->name, pb[i]->name);
    EXPECT_EQ(0, std::memcmp(
                     pa[i]->value.data(), pb[i]->value.data(),
                     sizeof(float) *
                         static_cast<std::size_t>(pa[i]->value.size())))
        << "parameter '" << pa[i]->name
        << "' differs between streamed and in-RAM training";
  }
}

TEST(StreamingTrainer, ResidentBytesStayBoundedAndGauged) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  const std::string path = ::testing::TempDir() + "gauge.rnds";
  generate_shard(path, cfg, 43, topology, 6, 0, 1);

  obs::Registry& reg = obs::Registry::global();
  reg.gauge("dataset.stream.resident_peak_bytes").reset();
  reg.counter("dataset.stream.records_read_total").reset();

  StreamingDataset stream(path);
  EXPECT_EQ(reg.gauge("dataset.stream.file_bytes").value(),
            static_cast<double>(stream.file_bytes()));
  // One 2-sample minibatch at a time, like the trainer does.
  std::vector<const Sample*> out;
  const std::uint64_t batch[2] = {0, 1};
  stream.materialize(batch, 2, out);
  const double peak = reg.gauge("dataset.stream.resident_peak_bytes").value();
  EXPECT_GT(peak, 0.0);
  // The whole point of streaming: a minibatch is resident, not the corpus.
  EXPECT_LT(peak, static_cast<double>(stream.file_bytes()));
  EXPECT_EQ(reg.counter("dataset.stream.records_read_total").value(), 2u);
}

TEST(StreamingTrainer, ResidentCapRejectsOversizedBatch) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  const std::string path = ::testing::TempDir() + "cap.rnds";
  generate_shard(path, cfg, 44, topology, 2, 0, 1);
  StreamingOptions opts;
  opts.resident_cap_bytes = 1;  // nothing fits
  StreamingDataset stream(path, opts);
  std::vector<const Sample*> out;
  const std::uint64_t idx = 0;
  EXPECT_THROW(stream.materialize(&idx, 1, out), std::runtime_error);
}

TEST(ShardWriter, WriteIsAtomic) {
  // Records stream to `<path>.tmp` and finish() renames it over the
  // target: no temp file survives finish(), an existing shard is replaced
  // whole, and a writer destroyed before finish() removes its temp file
  // and leaves the target byte-identical.
  DatasetGenerator gen(fast_config(), 46);
  const std::vector<Sample> samples = gen.generate_many(shared_ring(), 2);
  const std::string path = ::testing::TempDir() + "atomic.rnds";
  const std::string tmp = path + ".tmp";
  std::filesystem::remove(path);
  const auto write = [&](std::size_t n) {
    ShardWriter writer(path, ShardHeader{});
    for (std::size_t i = 0; i < n; ++i) writer.add(samples[i]);
    writer.finish();
  };
  write(1);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  write(2);  // overwrite
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_EQ(ShardReader(path).size(), 2u);

  const std::string before = read_file(path);
  {
    ShardWriter abandoned(path, ShardHeader{});
    abandoned.add(samples[0]);
    EXPECT_TRUE(std::filesystem::exists(tmp));
  }
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_EQ(read_file(path), before);
}

TEST(ShardWriter, FailedRenameRemovesTheTempFile) {
  // A non-empty directory sits at the target path, so the final rename
  // fails: finish() reports it and the temp file goes.
  DatasetGenerator gen(fast_config(), 47);
  const std::vector<Sample> samples = gen.generate_many(shared_ring(), 1);
  const std::string path = ::testing::TempDir() + "rename_blocked.rnds";
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path + "/occupied");
  {
    ShardWriter writer(path, ShardHeader{});
    writer.add(samples[0]);
    expect_reject([&] { writer.finish(); }, "cannot rename");
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(path);
}

TEST(LoadDataset, ReadsShardsAndRejectsRndata1) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  DatasetGenerator gen(cfg, 45);
  const std::vector<Sample> samples = gen.generate_many(topology, 2);
  const std::string shard = ::testing::TempDir() + "any_shard.rnds";
  generate_shard(shard, cfg, 45, topology, 2, 0, 1);
  EXPECT_TRUE(is_shard_file(shard));
  const std::vector<Sample> from_shard = load_dataset(shard);
  ASSERT_EQ(from_shard.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(from_shard[i].delay_s, samples[i].delay_s);
    EXPECT_EQ(from_shard[i].valid, samples[i].valid);
  }

  // The retired RNDATA1 container: magic, u32 count, records back to back.
  std::string rndata1("RNDATA1\n");
  util::put_pod(rndata1, static_cast<std::uint32_t>(samples.size()));
  for (const Sample& s : samples) encode_sample(rndata1, s);
  const std::string legacy = ::testing::TempDir() + "any_legacy.ds";
  util::atomic_write_file(legacy, rndata1);
  EXPECT_FALSE(is_shard_file(legacy));
  try {
    load_dataset(legacy);
    FAIL() << "an RNDATA1 file loaded";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(legacy), std::string::npos) << msg;
    EXPECT_NE(msg.find("RNDS1 magic"), std::string::npos) << msg;
  }
}

TEST(StreamingNormalizer, MatchesVectorFit) {
  const GeneratorConfig cfg = fast_config();
  const auto topology = shared_ring();
  DatasetGenerator gen(cfg, 46);
  const std::vector<Sample> samples = gen.generate_many(topology, 3);
  const std::string path = ::testing::TempDir() + "norm.rnds";
  generate_shard(path, cfg, 46, topology, 3, 0, 1);

  const Normalizer vec_fit = fit_normalizer(samples);
  StreamingDataset stream(path);
  const Normalizer stream_fit = fit_normalizer(stream);
  // Same Welford accumulation order sample-by-sample: bitwise equal.
  EXPECT_EQ(vec_fit.log_delay_mean, stream_fit.log_delay_mean);
  EXPECT_EQ(vec_fit.log_delay_std, stream_fit.log_delay_std);
  EXPECT_EQ(vec_fit.capacity_scale, stream_fit.capacity_scale);
}

}  // namespace
}  // namespace rn::dataset
