// Hostile-input sweeps over the dataset decoders. The record decoder
// (decode_sample, the layout every RNDS1 record uses) is swept on its own,
// with no CRC in front of it: a flipped byte may still decode, but it must
// NEVER crash, over-allocate, or read out of bounds (every outcome is
// either a clean std::runtime_error or a sample that re-encodes to the
// bytes it was read from), and every truncation must throw. The RNDS1
// shard container is CRC-indexed end to end, so the bar is higher: every
// truncation AND every byte flip anywhere in the file must throw.
// The sanitizer sweep (`obs_net_sanity`) also runs it under ASan.
#include "dataset/codec.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ag/serialize.h"
#include "dataset/shard.h"
#include "dataset/stream.h"
#include "topology/generators.h"

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

// One small-but-real encoded record, built once for the whole suite.
const std::string& record_image() {
  static const std::string bytes = [] {
    DatasetGenerator gen(fast_config(), 51);
    std::string out;
    encode_sample(out, gen.generate(shared_ring()));
    return out;
  }();
  return bytes;
}

// One small-but-real RNDS1 shard image.
const std::string& shard_image() {
  static const std::string bytes = [] {
    const std::string path = ::testing::TempDir() + "fuzz_corpus.rnds";
    generate_shard(path, fast_config(), 52, shared_ring(), 2, 0, 1);
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }();
  return bytes;
}

// Decodes one record from `bytes`. On success `consumed` is the number of
// bytes the decoder read.
Sample decode_record(std::string_view bytes, std::size_t& consumed) {
  util::Reader in(bytes, "record");
  Sample s = decode_sample(in);
  consumed = bytes.size() - in.remaining();
  return s;
}

// The message decode_record throws for `bytes` ("" when it decodes).
std::string decode_error(const std::string& bytes) {
  std::size_t consumed = 0;
  try {
    decode_record(bytes, consumed);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(RecordFuzz, ImageIsValidBaseline) {
  const std::string& bytes = record_image();
  std::size_t consumed = 0;
  const Sample s = decode_record(bytes, consumed);
  EXPECT_EQ(consumed, bytes.size());
  std::string again;
  encode_sample(again, s);
  EXPECT_EQ(again, bytes);
  verify_shard_bytes(shard_image(), "baseline");
}

TEST(RecordFuzz, EveryTruncationThrows) {
  const std::string& bytes = record_image();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::size_t consumed = 0;
    EXPECT_THROW(decode_record(std::string_view(bytes.data(), len), consumed),
                 std::runtime_error)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(RecordFuzz, EveryByteFlipThrowsOrDecodes) {
  // No CRC in front of the decoder here: a flip may survive validation
  // (e.g. in a float payload). Then the decoded sample must be exactly
  // what the bytes say, so re-encoding it reproduces what was read.
  // Crashes and sanitizer faults are what this sweep exists to rule out.
  std::string bytes = record_image();
  int decoded = 0;
  for (const unsigned char mask : {0x01, 0xff}) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      const char orig = bytes[i];
      bytes[i] = static_cast<char>(orig ^ mask);
      try {
        std::size_t consumed = 0;
        const Sample s = decode_record(bytes, consumed);
        std::string again;
        encode_sample(again, s);
        EXPECT_EQ(again, bytes.substr(0, consumed))
            << "flip 0x" << std::hex << int{mask} << " at byte " << std::dec
            << i;
        ++decoded;
      } catch (const std::runtime_error&) {
      }
      bytes[i] = orig;
    }
  }
  // Flips in the float payload decode; the sweep must reach that path.
  EXPECT_GT(decoded, 0);
}

TEST(RecordFuzz, DoctoredCountsThrowBeforeAllocating) {
  // Record layout: u32 name_len, name, i32 num_nodes, i32 num_links,
  // num_links x 24-byte links, then per pair u32 path_len + link ids.
  const std::string& bytes = record_image();
  std::uint32_t name_len = 0;
  std::memcpy(&name_len, bytes.data(), sizeof(name_len));
  const std::size_t nodes_at = 4 + name_len;
  const std::size_t links_at = nodes_at + 4;
  std::int32_t num_links = 0;
  std::memcpy(&num_links, bytes.data() + links_at, sizeof(num_links));
  const std::size_t path_len_at =
      links_at + 4 + static_cast<std::size_t>(num_links) * 24;
  const auto patched = [&](std::size_t at, auto value) {
    std::string out = bytes;
    std::memcpy(out.data() + at, &value, sizeof(value));
    return out;
  };
  const auto expect_error = [](const std::string& doctored,
                               const std::string& needle) {
    const std::string what = decode_error(doctored);
    EXPECT_NE(what.find(needle), std::string::npos)
        << "want '" << needle << "', got '" << what << "'";
  };

  // Each claim exceeds its cap or the bytes that follow it, so the
  // decoder must refuse it before sizing anything from it.
  expect_error(patched(0, std::uint32_t{0xffffffffu}), "topology name");
  expect_error(patched(nodes_at, std::int32_t{0}), "node count");
  expect_error(patched(nodes_at, std::int32_t{1 << 30}), "node count");
  expect_error(patched(links_at, std::int32_t{0x7fffffff}), "link count");
  expect_error(patched(links_at, std::int32_t{-1}), "link count");
  expect_error(patched(path_len_at, std::uint32_t{0xffffffffu}),
               "path length");
  // A path length within the link count, but cut off right after the
  // length field: the id read is refused as a whole, up front.
  std::string cut = patched(path_len_at, static_cast<std::uint32_t>(num_links));
  cut.resize(path_len_at + 4);
  expect_error(cut, "path link ids");
}

TEST(ShardFuzz, EveryTruncationThrows) {
  const std::string& bytes = shard_image();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(
        verify_shard_bytes(std::string_view(bytes.data(), len), "trunc"),
        std::runtime_error)
        << "prefix of " << len << " bytes verified";
  }
}

TEST(ShardFuzz, EveryByteFlipThrows) {
  // CRCs over the header, every record, and the index: no flip anywhere
  // in the file may survive verification.
  std::string bytes = shard_image();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const char orig = bytes[i];
    bytes[i] = static_cast<char>(orig ^ 0x01);
    EXPECT_THROW(verify_shard_bytes(bytes, "flip"), std::runtime_error)
        << "flip at byte " << i << " verified";
    bytes[i] = orig;
  }
}

// Patches a u64 header field and re-stamps the header CRC so validation
// gets past the checksum and must catch the lie structurally.
std::string with_patched_header_u64(std::string bytes, std::size_t offset,
                                    std::uint64_t value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  const std::uint32_t crc =
      ag::crc32(bytes.data(), kShardHeaderBytes - sizeof(std::uint32_t));
  std::memcpy(bytes.data() + kShardHeaderBytes - sizeof(std::uint32_t), &crc,
              sizeof(crc));
  return bytes;
}

TEST(ShardFuzz, DoctoredHeadersThrow) {
  // Header layout: magic[8] version[4] seed[8] fingerprint[8]
  // shard_index[4] shard_count[4] first_index[8] count[8] payload_len[8]
  // header_crc[4].
  const std::string& bytes = shard_image();

  std::string bad_version = bytes;
  bad_version[8] = 2;  // version 1 -> 2; caught before the CRC even runs
  EXPECT_THROW(verify_shard_bytes(bad_version, "version"),
               std::runtime_error);

  // count claims 2^32 records; exact-size arithmetic must reject it even
  // though the header CRC is freshly valid.
  EXPECT_THROW(verify_shard_bytes(
                   with_patched_header_u64(bytes, 44, 1ull << 32), "count"),
               std::runtime_error);
  // payload_len larger than the file.
  EXPECT_THROW(
      verify_shard_bytes(
          with_patched_header_u64(bytes, 52, 1ull << 40), "payload"),
      std::runtime_error);
  // first_index + count overflows u64.
  EXPECT_THROW(
      verify_shard_bytes(
          with_patched_header_u64(bytes, 36, ~0ull - 1), "overflow"),
      std::runtime_error);
}

TEST(ShardFuzz, ShardReaderRejectsGarbageFiles) {
  const std::string missing = ::testing::TempDir() + "no_such.rnds";
  EXPECT_THROW(ShardReader reader(missing), std::runtime_error);

  const std::string garbage = ::testing::TempDir() + "garbage.rnds";
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "this is not a shard";
  }
  EXPECT_THROW(ShardReader reader(garbage), std::runtime_error);
  EXPECT_FALSE(is_shard_file(garbage));
}

}  // namespace
}  // namespace rn::dataset
