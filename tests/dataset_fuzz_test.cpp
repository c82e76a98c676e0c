// Hostile-input sweeps over both dataset containers. The legacy RNDATA1
// blob has no checksums, so a flipped byte may still parse — but it must
// NEVER crash, over-allocate, or read out of bounds (every outcome is
// either a clean std::runtime_error or a structurally valid load). The
// RNDS1 shard container is CRC-indexed end to end, so the bar is higher:
// every truncation AND every byte flip anywhere in the file must throw.
// Runs under -DRN_SANITIZE=address via the `asan` ctest label.
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
#include "legacy_dataset.h"
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

// One small-but-real legacy dataset image, built once for the whole suite.
const std::string& legacy_image() {
  static const std::string bytes = [] {
    DatasetGenerator gen(fast_config(), 51);
    return rndata1_image(gen.generate_many(shared_ring(), 2));
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

TEST(LegacyFuzz, ImageIsValidBaseline) {
  EXPECT_EQ(parse_dataset_bytes(legacy_image(), "baseline").size(), 2u);
  verify_shard_bytes(shard_image(), "baseline");
}

TEST(LegacyFuzz, EveryTruncationThrows) {
  const std::string& bytes = legacy_image();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(
        parse_dataset_bytes(std::string_view(bytes.data(), len), "trunc"),
        std::runtime_error)
        << "prefix of " << len << " bytes parsed";
  }
}

TEST(LegacyFuzz, EveryByteFlipNeverCrashes) {
  // No checksums in RNDATA1: a flip may survive validation (e.g. in a
  // float payload). Both outcomes are fine; crashing / sanitizer faults
  // are not — which is exactly what this sweep exists to prove.
  std::string bytes = legacy_image();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const char orig = bytes[i];
    bytes[i] = static_cast<char>(orig ^ 0xff);
    try {
      const std::vector<Sample> loaded = parse_dataset_bytes(bytes, "flip");
      EXPECT_LE(loaded.size(), 2u);
    } catch (const std::runtime_error&) {
    }
    bytes[i] = orig;
  }
}

TEST(LegacyFuzz, AbsurdDeclaredCountsThrowBeforeAllocating) {
  // Sample count claims 4 billion records in a few-KB file.
  std::string bytes = legacy_image();
  const std::uint32_t huge = 0xffffffffu;
  std::memcpy(bytes.data() + kDatasetMagicLen, &huge, sizeof(huge));
  EXPECT_THROW(parse_dataset_bytes(bytes, "huge-count"), std::runtime_error);

  // First record's name_len claims more bytes than the file holds.
  bytes = legacy_image();
  std::memcpy(bytes.data() + kDatasetMagicLen + 4, &huge, sizeof(huge));
  EXPECT_THROW(parse_dataset_bytes(bytes, "huge-name"), std::runtime_error);
}

TEST(LegacyFuzz, BadMagicAndEmptyInputThrow) {
  EXPECT_THROW(parse_dataset_bytes("", "empty"), std::runtime_error);
  EXPECT_THROW(parse_dataset_bytes("RNDATA2\n\0\0\0\0", "magic"),
               std::runtime_error);
  std::string bytes = legacy_image();
  bytes[0] = 'X';
  EXPECT_THROW(parse_dataset_bytes(bytes, "flip-magic"), std::runtime_error);
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
