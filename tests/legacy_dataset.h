// Test-side helpers for the read-only RNDATA1 container (codec.h).
// Nothing in the library writes RNDATA1 any more, but files written by
// older builds must keep loading, so the tests assemble images by hand:
// the magic, a u32 sample count, then the records back to back. A record
// is byte-for-byte what an RNDS1 shard stores.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/codec.h"
#include "dataset/shard.h"

namespace rn::dataset {

// RNDATA1 image holding `samples`, encoded in order.
inline std::string rndata1_image(const std::vector<Sample>& samples) {
  std::string out(kDatasetMagic, kDatasetMagicLen);
  put_pod(out, static_cast<std::uint32_t>(samples.size()));
  for (const Sample& s : samples) encode_sample(out, s);
  return out;
}

// RNDATA1 image holding a shard's own record bytes, in index order.
inline std::string rndata1_image(const ShardReader& shard) {
  std::string out(kDatasetMagic, kDatasetMagicLen);
  put_pod(out, static_cast<std::uint32_t>(shard.size()));
  for (std::uint64_t i = 0; i < shard.size(); ++i) out += shard.record(i);
  return out;
}

}  // namespace rn::dataset
