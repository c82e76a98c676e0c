#include "core/graph_batch.h"

#include <algorithm>

namespace rn::core {

GraphBatch GraphBatch::from_samples(
    const std::vector<const dataset::Sample*>& samples,
    const dataset::Normalizer& norm, bool with_targets) {
  RN_CHECK(!samples.empty(), "empty batch");
  GraphBatch batch;
  batch.link_offset.reserve(samples.size());
  batch.path_offset.reserve(samples.size());

  int total_links = 0;
  int total_paths = 0;
  int max_len = 0;
  for (const dataset::Sample* s : samples) {
    RN_CHECK(s != nullptr, "null sample in batch");
    batch.link_offset.push_back(total_links);
    batch.path_offset.push_back(total_paths);
    total_links += s->topology->num_links();
    total_paths += s->topology->num_pairs();
    for (int idx = 0; idx < s->topology->num_pairs(); ++idx) {
      max_len = std::max(
          max_len, static_cast<int>(s->routing.path_by_index(idx).size()));
    }
  }
  batch.num_links = total_links;
  batch.num_paths = total_paths;
  batch.link_features = ag::Tensor(total_links, 1);
  batch.path_features = ag::Tensor(total_paths, 1);
  batch.pos_paths.resize(static_cast<std::size_t>(max_len));
  batch.pos_links.resize(static_cast<std::size_t>(max_len));

  std::vector<float> delay_targets;
  std::vector<float> jitter_targets;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const dataset::Sample& s = *samples[k];
    const int l0 = batch.link_offset[k];
    const int p0 = batch.path_offset[k];
    for (int l = 0; l < s.topology->num_links(); ++l) {
      batch.link_features.at(l0 + l, 0) = static_cast<float>(
          s.topology->link(l).capacity_bps * norm.capacity_scale);
    }
    for (int idx = 0; idx < s.topology->num_pairs(); ++idx) {
      batch.path_features.at(p0 + idx, 0) = static_cast<float>(
          s.tm.rate_by_index(idx) * norm.traffic_scale);
      const routing::Path& path = s.routing.path_by_index(idx);
      for (std::size_t pos = 0; pos < path.size(); ++pos) {
        batch.pos_paths[pos].push_back(p0 + idx);
        batch.pos_links[pos].push_back(l0 + path[pos]);
      }
      if (with_targets && s.valid[static_cast<std::size_t>(idx)]) {
        batch.valid_paths.push_back(p0 + idx);
        delay_targets.push_back(static_cast<float>(
            norm.normalize_delay(s.delay_s[static_cast<std::size_t>(idx)])));
        jitter_targets.push_back(static_cast<float>(
            norm.normalize_jitter(s.jitter_s[static_cast<std::size_t>(idx)])));
      }
    }
  }
  if (with_targets) {
    batch.delay_targets =
        ag::Tensor(static_cast<int>(delay_targets.size()), 1);
    batch.jitter_targets =
        ag::Tensor(static_cast<int>(jitter_targets.size()), 1);
    for (std::size_t i = 0; i < delay_targets.size(); ++i) {
      batch.delay_targets[i] = delay_targets[i];
      batch.jitter_targets[i] = jitter_targets[i];
    }
  }
  return batch;
}

}  // namespace rn::core
