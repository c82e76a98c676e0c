// GraphBatch: one or more dataset samples merged into a single
// message-passing graph with offset link/path indices.
//
// RouteNet's per-sample graphs are disjoint, so a mini-batch is just their
// union: link i of sample k becomes link i + link_offset[k], and the
// position schedule below drives a single vectorized path-RNN over all
// paths of all samples at once.
#pragma once

#include <vector>

#include "ag/tensor.h"
#include "dataset/dataset.h"

namespace rn::core {

struct GraphBatch {
  int num_links = 0;
  int num_paths = 0;

  // Per-link scaled capacity (L×1) and per-path scaled traffic (P×1).
  ag::Tensor link_features;
  ag::Tensor path_features;

  // Position schedule: at hop position s, path pos_paths[s][i] consumes
  // link pos_links[s][i]. Every path appears at most once per position, so
  // scatter-updates of path state are well defined.
  std::vector<std::vector<int>> pos_paths;
  std::vector<std::vector<int>> pos_links;

  // Paths that carry usable targets (merged indices) and their normalized
  // log-space targets (V×1 each). Invalid paths remain in the graph — their
  // traffic still loads links — but contribute no loss.
  std::vector<int> valid_paths;
  ag::Tensor delay_targets;
  ag::Tensor jitter_targets;

  // Offsets mapping merged indices back to samples.
  std::vector<int> link_offset;
  std::vector<int> path_offset;

  int max_path_length() const { return static_cast<int>(pos_paths.size()); }

  // Merges samples; when with_targets is false the target tensors stay
  // empty (inference on unlabeled scenarios).
  static GraphBatch from_samples(
      const std::vector<const dataset::Sample*>& samples,
      const dataset::Normalizer& norm, bool with_targets);
};

}  // namespace rn::core
