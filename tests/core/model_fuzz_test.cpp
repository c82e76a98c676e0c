// Hostile-input tests for the RNMODEL reader (label: core). Model
// files reach RouteNet::load from disk and, through ModelRegistry::reload,
// on a remote command, so the bar matches the other decoders:
//   - every truncation throws;
//   - every single-byte flip in the config/normalizer header either throws
//     or loads a config inside the ranges load promises;
//   - absurd header fields throw before any tensor is allocated;
//   - RNMODEL3 loads; RNMODEL1 and RNMODEL2 images are rejected.
// Runs under -DRN_SANITIZE=address so an over-read crashes.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "ag/arena.h"
#include "core/routenet.h"

namespace rn::core {
namespace {

// RNMODEL3 header layout: magic, four i32 counts, i32 aggregation,
// f32 dropout, u64 seed, two f64 scales, u8 log-space flag, four f64
// normalizer statistics. RNCKPT1 parameters follow.
constexpr std::size_t kLinkDimAt = 8;
constexpr std::size_t kIterationsAt = 16;
constexpr std::size_t kAggregationAt = 24;
constexpr std::size_t kDropoutAt = 28;
constexpr std::size_t kSeedAt = 32;
constexpr std::size_t kCapacityScaleAt = 40;
constexpr std::size_t kLogSpaceAt = 56;
constexpr std::size_t kHeaderEnd = 89;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

RouteNet tiny_model() {
  RouteNetConfig cfg;
  cfg.link_state_dim = 4;
  cfg.path_state_dim = 5;
  cfg.iterations = 2;
  cfg.readout_hidden = 6;
  cfg.aggregation = Aggregation::kSum;
  cfg.dropout = 0.25f;
  cfg.seed = 77;
  RouteNet model(cfg);
  dataset::Normalizer norm;
  norm.capacity_scale = 1e-6;
  norm.traffic_scale = 2e-6;
  norm.log_delay_mean = -3.5;
  norm.log_delay_std = 0.75;
  norm.log_jitter_mean = -5.0;
  norm.log_jitter_std = 1.25;
  model.set_normalizer(norm);
  return model;
}

const std::string& v3_image() {
  static const std::string bytes = [] {
    const std::string path = temp_path("model_fuzz_v3.bin");
    tiny_model().save(path);
    std::ifstream in(path, std::ios::binary);
    std::string out((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    return out;
  }();
  return bytes;
}

RouteNet load_image(const std::string& bytes) {
  const std::string path = temp_path("model_fuzz_probe.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  return RouteNet::load(path);
}

template <typename T>
std::string patched(std::size_t offset, T value) {
  std::string bytes = v3_image();
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
  return bytes;
}

bool config_in_range(const RouteNet& m) {
  const RouteNetConfig& c = m.config();
  const dataset::Normalizer& n = m.normalizer();
  const auto dim_ok = [](int v, int max) { return v >= 1 && v <= max; };
  return dim_ok(c.link_state_dim, kMaxModelStateDim) &&
         dim_ok(c.path_state_dim, kMaxModelStateDim) &&
         dim_ok(c.iterations, kMaxModelIterations) &&
         dim_ok(c.readout_hidden, kMaxModelReadoutHidden) &&
         (c.aggregation == Aggregation::kSum ||
          c.aggregation == Aggregation::kMean) &&
         c.dropout >= 0.0f && c.dropout < 1.0f &&
         std::isfinite(n.capacity_scale) && n.capacity_scale > 0.0 &&
         std::isfinite(n.traffic_scale) && n.traffic_scale > 0.0 &&
         std::isfinite(n.log_delay_mean) && std::isfinite(n.log_delay_std) &&
         std::isfinite(n.log_jitter_mean) && std::isfinite(n.log_jitter_std);
}

bool same_parameters(RouteNet& a, RouteNet& b) {
  const auto pa = a.params();
  const auto pb = b.params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const ag::Tensor& x = pa[i]->value;
    const ag::Tensor& y = pb[i]->value;
    if (!x.same_shape(y) ||
        std::memcmp(x.data(), y.data(),
                    sizeof(float) * static_cast<std::size_t>(x.size())) !=
            0) {
      return false;
    }
  }
  return true;
}

TEST(ModelFuzz, ValidImageLoads) {
  RouteNet loaded = load_image(v3_image());
  RouteNet original = tiny_model();
  EXPECT_EQ(loaded.config().path_state_dim, 5);
  EXPECT_FLOAT_EQ(loaded.config().dropout, 0.25f);
  EXPECT_DOUBLE_EQ(loaded.normalizer().log_jitter_std, 1.25);
  EXPECT_TRUE(same_parameters(loaded, original));
}

TEST(ModelFuzz, EveryTruncationThrows) {
  const std::string bytes = v3_image();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(load_image(bytes.substr(0, len)), std::runtime_error)
        << "truncation to " << len << " of " << bytes.size()
        << " bytes loaded";
  }
}

TEST(ModelFuzz, TrailingBytesThrow) {
  EXPECT_THROW(load_image(v3_image() + "x"), std::runtime_error);
}

TEST(ModelFuzz, HeaderByteFlipsThrowOrLoadInRange) {
  const std::string bytes = v3_image();
  int loaded = 0;
  for (std::size_t i = 0; i < kHeaderEnd; ++i) {
    for (const unsigned mask : {0x01u, 0x02u, 0x04u, 0x08u, 0x10u, 0x20u,
                                0x40u, 0x80u, 0xffu}) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(static_cast<unsigned char>(flipped[i]) ^
                                     mask);
      try {
        const RouteNet m = load_image(flipped);
        ++loaded;
        EXPECT_TRUE(config_in_range(m))
            << "flip 0x" << std::hex << mask << " at offset " << std::dec
            << i << " loaded an out-of-range config";
      } catch (const std::runtime_error&) {
        // Rejected: the expected outcome for most flips.
      }
    }
  }
  // Flips in the seed and in most normalizer mantissa bits are legal
  // values, so some flips must load; zero would mean the sweep is broken.
  EXPECT_GT(loaded, 0);
}

TEST(ModelFuzz, AbsurdHeaderFieldsThrowBeforeAllocating) {
  const auto tensors_touched = [] {
    const ag::ArenaStats s = ag::arena_stats();
    return s.fresh_allocs + s.reuses;
  };
  const std::string cases[] = {
      patched<std::int32_t>(kLinkDimAt, 2000000000),
      patched<std::int32_t>(kLinkDimAt, kMaxModelStateDim + 1),
      patched<std::int32_t>(kLinkDimAt, 0),
      patched<std::int32_t>(kLinkDimAt + 4, -7),
      patched<std::int32_t>(kIterationsAt, 2000000000),
      patched<std::int32_t>(kIterationsAt, 0),
      patched<std::int32_t>(kIterationsAt + 4, kMaxModelReadoutHidden + 1),
      patched<std::int32_t>(kAggregationAt, 77),
      patched<float>(kDropoutAt, std::numeric_limits<float>::quiet_NaN()),
      patched<float>(kDropoutAt, 1.0f),
      patched<float>(kDropoutAt, -0.5f),
      patched<double>(kCapacityScaleAt, 0.0),
      patched<double>(kCapacityScaleAt + 8,
                      -std::numeric_limits<double>::infinity()),
      patched<std::uint8_t>(kLogSpaceAt, 2),
      patched<double>(kLogSpaceAt + 1,
                      std::numeric_limits<double>::quiet_NaN()),
      patched<double>(kHeaderEnd - 8,
                      std::numeric_limits<double>::infinity()),
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const std::uint64_t before = tensors_touched();
    EXPECT_THROW(load_image(cases[i]), std::runtime_error)
        << "case " << i << " loaded";
    EXPECT_EQ(tensors_touched(), before)
        << "case " << i << " allocated a tensor before rejecting";
  }
}

TEST(ModelFuzz, AbsurdParameterBlockThrows) {
  // A parameter tensor claiming far more data than the file holds.
  std::string bytes = v3_image();
  // First RNCKPT1 entry: magic, u32 count, u32 name_len, name, i32 rows.
  std::uint32_t name_len = 0;
  std::memcpy(&name_len, bytes.data() + kHeaderEnd + 12, sizeof(name_len));
  const std::size_t rows_at = kHeaderEnd + 16 + name_len;
  const std::int32_t huge = 1 << 24;
  std::memcpy(bytes.data() + rows_at, &huge, sizeof(huge));
  std::memcpy(bytes.data() + rows_at + 4, &huge, sizeof(huge));
  EXPECT_THROW(load_image(bytes), std::runtime_error);
}

TEST(ModelFuzz, OlderFormatVersionsAreRejected) {
  // RNMODEL3 is the one model format. RNMODEL2 (RNMODEL3 without the
  // dropout field) and RNMODEL1 (also without the aggregation and
  // log-space fields) fail on their magic, whatever follows it.
  const std::string v3 = v3_image();
  const std::string v2 = "RNMODEL2" + v3.substr(8, kDropoutAt - 8) +
                         v3.substr(kSeedAt);
  const std::string v1 = "RNMODEL1" + v3.substr(8, kAggregationAt - 8) +
                         v3.substr(kSeedAt, kLogSpaceAt - kSeedAt) +
                         v3.substr(kLogSpaceAt + 1);
  const std::string relabelled = "RNMODEL2" + v3.substr(8);
  for (const std::string* image : {&v2, &v1, &relabelled}) {
    try {
      load_image(*image);
      ADD_FAILURE() << image->substr(0, 8) << " image loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad model magic"),
                std::string::npos)
          << e.what();
    }
  }
  RouteNet loaded = load_image(v3);
  RouteNet original = tiny_model();
  EXPECT_TRUE(same_parameters(loaded, original));
}

}  // namespace
}  // namespace rn::core
