// RNDS1 — versioned, CRC-validated, shard-aware dataset container.
//
// File layout (all integers host-endian, matching RNCKPT2):
//
//   header (64 bytes):
//     char[8]  magic            "RNDS1\n\0\0"
//     u32      version          1
//     u64      seed             generator seed the samples derive from
//     u64      config_fingerprint  CRC pair over (GeneratorConfig, topology)
//     u32      shard_index      0-based
//     u32      shard_count      total shards in the generation run
//     u64      first_index      global index of the first record
//     u64      count            records in THIS file
//     u64      payload_len      bytes of record payload that follow
//     u32      header_crc       CRC-32 over the 60 bytes above
//   payload (payload_len bytes): `count` codec records back-to-back
//   index (count × 16 bytes): per record { u64 offset, u32 len, u32 crc }
//     offsets are from the payload start and must tile it exactly
//   u32 index_crc               CRC-32 over the raw index bytes
//
// The index lives AFTER the payload so a writer can stream records without
// knowing their sizes up front; readers locate it from payload_len. Files
// are written to a temp name and atomically renamed (the same discipline as
// util::atomic_write_file), so a crashed generator never leaves a
// half-valid shard.
//
// Because every sample is a pure function of (seed, index), N shards
// generated by N independent processes and merged are bitwise identical to
// a single-process generate_many run — merge_shards enforces the header
// agreement that guarantee rests on.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/dataset.h"

namespace rn::dataset {

inline constexpr char kShardMagic[8] = {'R', 'N', 'D', 'S', '1', '\n', 0, 0};
inline constexpr std::uint32_t kShardVersion = 1;
inline constexpr std::size_t kShardHeaderBytes = 64;

struct ShardHeader {
  std::uint64_t seed = 0;
  std::uint64_t config_fingerprint = 0;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  std::uint64_t first_index = 0;
  std::uint64_t count = 0;
  std::uint64_t payload_len = 0;
};

struct ShardIndexEntry {
  std::uint64_t offset = 0;  // from payload start
  std::uint32_t length = 0;
  std::uint32_t crc = 0;  // CRC-32 of the record bytes
};

// Fingerprint binding a shard to the exact (generator config, topology)
// that produced it; merge/verify refuse to combine shards whose
// fingerprints differ.
std::uint64_t config_fingerprint(const GeneratorConfig& cfg,
                                 const topo::Topology& topo);

// Contiguous block partition of `total` samples over `count` shards:
// shard i owns global indices [shard_first(i), shard_first(i+1)).
std::uint64_t shard_first(std::uint64_t total, std::uint32_t index,
                          std::uint32_t count);

// Incremental shard writer: records stream to a temp file, finish()
// appends the index, patches the header, and atomically renames. If the
// writer dies before finish(), the temp file is removed and the target
// path is untouched.
class ShardWriter {
 public:
  // `header.count` and `header.payload_len` are ignored; they are counted
  // as records arrive.
  ShardWriter(std::string path, ShardHeader header);
  ~ShardWriter();
  ShardWriter(const ShardWriter&) = delete;
  ShardWriter& operator=(const ShardWriter&) = delete;

  void add(const Sample& s);
  // Raw pre-encoded record with a precomputed CRC (the merge path).
  void add_raw(std::string_view record, std::uint32_t crc);

  // Returns the final file size in bytes.
  std::uint64_t finish();

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  ShardHeader header_;
  std::vector<ShardIndexEntry> index_;
  std::string scratch_;
  bool finished_ = false;
};

// Validated view of a complete in-memory shard image. `payload` and the
// entries point into the caller's bytes.
struct ParsedShard {
  ShardHeader header;
  std::vector<ShardIndexEntry> index;
  std::string_view payload;
};

// Parses and structurally validates a shard image: magic, version, header
// CRC, exact file size, index CRC, and strict payload tiling. Does NOT
// check per-record CRCs (readers do that on access; verify_shard_bytes
// does it for every record).
ParsedShard parse_shard_bytes(std::string_view bytes,
                              const std::string& context);

// parse_shard_bytes + per-record CRC + full codec decode of every record.
// Any flipped byte anywhere in the file throws.
void verify_shard_bytes(std::string_view bytes, const std::string& context);

// mmap-backed reader. The file is mapped read-only and validated
// (header/index, not record CRCs) at open; record bytes are only touched —
// and therefore only paged in — when accessed.
class ShardReader {
 public:
  explicit ShardReader(const std::string& path);
  ~ShardReader();
  ShardReader(const ShardReader&) = delete;
  ShardReader& operator=(const ShardReader&) = delete;

  const ShardHeader& header() const { return parsed_.header; }
  std::uint64_t size() const { return parsed_.header.count; }
  std::uint64_t file_bytes() const { return bytes_.size(); }
  const std::string& path() const { return path_; }

  // Raw record bytes (no CRC check).
  std::string_view record(std::uint64_t i) const;
  std::uint32_t record_crc(std::uint64_t i) const;
  // CRC-checked decode.
  Sample sample(std::uint64_t i) const;

  // CRC-checks and decodes every record.
  void verify_all() const;

 private:
  std::string path_;
  std::string_view bytes_;
  void* map_ = nullptr;
  std::size_t map_len_ = 0;
  ParsedShard parsed_;
};

// Writes an RNDS1 shard holding exactly the index range owned by
// shard_index out of shard_count, generating via DatasetGenerator::
// generate_range in bounded-memory chunks. Returns the file size.
std::uint64_t generate_shard(
    const std::string& path, const GeneratorConfig& cfg, std::uint64_t seed,
    std::shared_ptr<const topo::Topology> topology, std::uint64_t total,
    std::uint32_t shard_index, std::uint32_t shard_count,
    const std::function<void(std::uint64_t, std::uint64_t)>& progress = {});

struct ShardSummary {
  std::string path;
  ShardHeader header;
  std::uint64_t file_bytes = 0;
};

// Opens every input, CRC-checks every record, and checks the set is a
// coherent partition: same seed/fingerprint/shard_count, each shard_index
// 0..N-1 exactly once, index ranges contiguous from 0. Throws on the first
// violation; returns per-file summaries on success.
std::vector<ShardSummary> verify_shards(const std::vector<std::string>& paths);

// Merges a complete, coherent shard set into one RNDS1 file whose bytes
// are identical to what a single-process generation of the full range
// would have written (header: shard 0/1, first_index 0). Returns the
// merged file size.
std::uint64_t merge_shards(const std::string& out_path,
                           const std::vector<std::string>& inputs);

}  // namespace rn::dataset
