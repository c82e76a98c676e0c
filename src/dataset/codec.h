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
// The decoder reads through the shared util::Reader (util/bytes.h): every
// read is bounds-checked and names its field, every declared count is
// validated against the bytes actually remaining BEFORE anything is
// allocated, and every id/value is range-checked. A truncated,
// bit-flipped, or adversarial file throws std::runtime_error; it never
// over-allocates or reads past the buffer.
#pragma once

#include <cstdint>
#include <string>

#include "dataset/dataset.h"
#include "util/bytes.h"

namespace rn::dataset {

using util::put_pod;

// Appends the canonical record for one sample to `out`.
void encode_sample(std::string& out, const Sample& s);

// Decodes one record from the reader's current position. Throws
// std::runtime_error on any structural problem.
Sample decode_sample(util::Reader& in);

}  // namespace rn::dataset
