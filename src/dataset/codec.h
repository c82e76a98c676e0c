// Shared bounds-checked binary codec for dataset Samples.
//
// One encoded record is the per-sample byte layout every RNDS1 shard
// record uses (shard.h):
//
//   u32 name_len + name bytes
//   i32 num_nodes, i32 num_links
//   num_links × { i32 src, i32 dst, f64 capacity_bps, f64 prop_delay_s }
//   num_pairs × { u32 path_len + path_len × i32 link ids }
//   num_pairs × f64 rate_bps
//   num_pairs × { f64 delay_s, f64 jitter_s, u8 valid }
//   f64 max_link_utilization
//
// RNDATA1 (read-only): the legacy whole-dataset container — the magic
// "RNDATA1\n", a u32 sample count, then that many records back to back,
// with no CRC and no index. Nothing writes it any more; existing files
// still load through parse_dataset_bytes (via load_any_dataset, stream.h).
//
// The decoder reads through the shared util::Reader (util/bytes.h): every
// read is bounds-checked and names its field, every declared count is
// validated against the bytes actually remaining BEFORE anything is
// allocated, and every id/value is range-checked. A truncated,
// bit-flipped, or adversarial file throws std::runtime_error; it never
// over-allocates or reads past the buffer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/dataset.h"
#include "util/bytes.h"

namespace rn::dataset {

// Magic of the read-only RNDATA1 container (header of legacy *.ds files).
inline constexpr char kDatasetMagic[] = "RNDATA1\n";
inline constexpr std::size_t kDatasetMagicLen = 8;

// Smallest possible record: empty name, 1 node, 0 links, 0 pairs.
// u32 name_len + i32 nodes + i32 links + f64 max_util.
inline constexpr std::size_t kMinSampleBytes = 4 + 4 + 4 + 8;

using util::put_pod;

// Appends the canonical record for one sample to `out`.
void encode_sample(std::string& out, const Sample& s);

// Decodes one record from the reader's current position. Throws
// std::runtime_error on any structural problem.
Sample decode_sample(util::Reader& in);

// Parses a complete RNDATA1 dataset image (magic + u32 count + records).
// load_any_dataset reads RNDATA1 files through it; fuzz tests hammer
// in-memory images without touching the filesystem.
std::vector<Sample> parse_dataset_bytes(std::string_view bytes,
                                        const std::string& context);

}  // namespace rn::dataset
