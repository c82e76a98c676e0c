#include "dataset/stream.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/stats.h"

namespace rn::dataset {

namespace {

// Resolved once per process: materialize() runs on every minibatch, and a
// by-name lookup takes the registry mutex.
struct StreamMetrics {
  obs::Counter& records_read =
      obs::Registry::global().counter("dataset.stream.records_read_total");
  obs::Gauge& resident_peak =
      obs::Registry::global().gauge("dataset.stream.resident_peak_bytes");
};

StreamMetrics& metrics() {
  static StreamMetrics m;
  return m;
}

}  // namespace

void VectorSampleSource::materialize(const std::uint64_t* indices,
                                     std::size_t n,
                                     std::vector<const Sample*>& out) {
  out.clear();
  out.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    RN_CHECK(indices[j] < samples_.size(), "sample index out of range");
    out.push_back(&samples_[static_cast<std::size_t>(indices[j])]);
  }
}

StreamingDataset::StreamingDataset(const std::string& path,
                                   StreamingOptions opts)
    : reader_(path), opts_(opts) {
  obs::Registry::global()
      .gauge("dataset.stream.file_bytes")
      .set(static_cast<double>(reader_.file_bytes()));
}

void StreamingDataset::materialize(const std::uint64_t* indices,
                                   std::size_t n,
                                   std::vector<const Sample*>& out) {
  batch_.clear();
  batch_.reserve(n);
  out.clear();
  out.reserve(n);
  std::size_t bytes = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t idx = indices[j];
    RN_CHECK(idx < reader_.size(), "sample index out of range");
    bytes += reader_.record(idx).size();
    RN_CHECK(bytes <= opts_.resident_cap_bytes,
             "streamed batch exceeds the resident cap (" +
                 std::to_string(opts_.resident_cap_bytes) +
                 " bytes); lower the batch size or raise the cap");
    batch_.push_back(reader_.sample(idx));
  }
  for (const Sample& s : batch_) out.push_back(&s);
  metrics().records_read.add(n);
  metrics().resident_peak.set_max(static_cast<double>(bytes));
}

namespace {
constexpr double kMinPositive = 1e-6;  // mirrors dataset.cpp's target floor
}

Normalizer fit_normalizer(SampleSource& source, bool log_space) {
  const std::uint64_t n = source.size();
  RN_CHECK(n > 0, "cannot fit normalizer on empty dataset");
  Welford log_delay, log_jitter;
  double max_capacity = 0.0;
  double sum_traffic = 0.0;
  std::size_t traffic_count = 0;
  const auto transform = [log_space](double x) {
    return log_space ? std::log(std::max(x, kMinPositive)) : x;
  };
  std::vector<const Sample*> ptrs;
  for (std::uint64_t i = 0; i < n; ++i) {
    source.materialize(&i, 1, ptrs);
    const Sample& s = *ptrs[0];
    for (const topo::Link& l : s.topology->links()) {
      max_capacity = std::max(max_capacity, l.capacity_bps);
    }
    for (int idx = 0; idx < s.num_pairs(); ++idx) {
      sum_traffic += s.tm.rate_by_index(idx);
      ++traffic_count;
      if (!s.valid[static_cast<std::size_t>(idx)]) continue;
      log_delay.add(transform(s.delay_s[static_cast<std::size_t>(idx)]));
      log_jitter.add(transform(s.jitter_s[static_cast<std::size_t>(idx)]));
    }
  }
  RN_CHECK(log_delay.count() >= 2, "not enough valid paths to normalize");
  Normalizer norm;
  norm.log_space = log_space;
  norm.capacity_scale = max_capacity > 0.0 ? 1.0 / max_capacity : 1.0;
  const double mean_traffic =
      sum_traffic /
      static_cast<double>(std::max<std::size_t>(1, traffic_count));
  norm.traffic_scale = mean_traffic > 0.0 ? 1.0 / mean_traffic : 1.0;
  norm.log_delay_mean = log_delay.mean();
  norm.log_delay_std = std::max(1e-6, log_delay.stddev());
  norm.log_jitter_mean = log_jitter.mean();
  norm.log_jitter_std = std::max(1e-6, log_jitter.stddev());
  return norm;
}

bool is_shard_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  char magic[sizeof(kShardMagic)] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == static_cast<std::streamsize>(sizeof(magic)) &&
         std::memcmp(magic, kShardMagic, sizeof(magic)) == 0;
}

std::vector<Sample> load_dataset(const std::string& path) {
  const ShardReader reader(path);
  std::vector<Sample> out;
  out.reserve(static_cast<std::size_t>(reader.size()));
  for (std::uint64_t i = 0; i < reader.size(); ++i) {
    out.push_back(reader.sample(i));
  }
  return out;
}

}  // namespace rn::dataset
