// Binary serialization of parameter sets and full training state.
//
//  * "RNCKPT1\n" — a parameter block: uint32 count, then per parameter
//    uint32 name_len, name bytes, int32 rows, int32 cols, float payload.
//    It exists only embedded in model files, after their config header
//    (put_parameters / load_parameters); no file is one on its own.
//  * "RNCKPT2\n" — a training-state checkpoint file: the parameters plus
//    optimizer state (Adam first/second moments and step count), named
//    RNG engine states, and a trainer cursor (epoch, batch offset, best-eval
//    tracking, the epoch's shuffled sample order). The payload is length-
//    prefixed and CRC32-protected, and files are written atomically
//    (temp file + rename), so a crash mid-write can never leave a torn
//    file that later loads. See docs/file-formats.md for the byte layout.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ag/tape.h"
#include "util/bytes.h"

namespace rn::ag {

// crc32 and atomic_write_file live in the shared byte codec; re-exported
// here because checkpoint callers have always reached them as ag::.
using util::atomic_write_file;
using util::crc32;

// Appends an RNCKPT1 parameter block (magic included) to `out`.
void put_parameters(std::string& out, const std::vector<Parameter*>& params);

// Parses one RNCKPT1 block at the reader's position and loads it by name
// into the given parameters; shapes must match exactly. Throws if a
// parameter is missing from the block, naming the parameter and (on shape
// mismatch) both shapes.
void load_parameters(util::Reader& in,
                     const std::vector<Parameter*>& params);

// Assigns `named` tensors onto `params` by name. Error messages name the
// offending parameter and both shapes; `context` prefixes them (e.g. the
// file being loaded).
void apply_named_tensors(
    const std::vector<std::pair<std::string, Tensor>>& named,
    const std::vector<Parameter*>& params, const std::string& context);

// Everything needed to stop a training run at an arbitrary batch and later
// continue it to a bitwise-identical final model.
struct TrainCheckpoint {
  // Model parameters, by name.
  std::vector<std::pair<std::string, Tensor>> params;

  // Adam state, present when the optimizer flag byte is set (the trainer
  // always sets it; a params-only checkpoint leaves it clear).
  bool has_optimizer = false;
  std::int64_t adam_step = 0;
  float lr = 0.0f;
  std::vector<std::pair<std::string, Tensor>> adam_m;
  std::vector<std::pair<std::string, Tensor>> adam_v;

  // Named RNG engine states (std::mt19937_64 text serialization).
  std::vector<std::pair<std::string, std::string>> rng_streams;

  // Trainer cursor. `next_index` is the sample offset within `order` at
  // which the resumed epoch continues; `order` is that epoch's shuffled
  // sample order (the shuffle RNG has already advanced past it).
  bool has_cursor = false;
  std::int32_t epoch = 0;
  std::int64_t next_index = 0;
  std::uint64_t total_batches = 0;
  double best_eval_mre = -1.0;
  std::int32_t best_epoch = -1;
  double epoch_loss_sum = 0.0;
  std::int32_t epoch_batches = 0;
  std::uint64_t epoch_samples = 0;
  std::vector<std::int32_t> order;
};

// Serializes to / parses from the RNCKPT2 wire format. The byte form is
// exposed so tests can fuzz the parser without touching the filesystem;
// the parser never allocates more than the payload size it was handed and
// throws std::runtime_error on any corruption (bad magic, length mismatch,
// CRC failure, truncated or absurd fields).
std::string train_checkpoint_bytes(const TrainCheckpoint& ckpt);
TrainCheckpoint parse_train_checkpoint(const std::string& bytes);

// Atomic, CRC-protected save. Returns the file size in bytes.
std::size_t save_train_checkpoint(const std::string& path,
                                  const TrainCheckpoint& ckpt);
TrainCheckpoint load_train_checkpoint(const std::string& path);

// Rotation naming: checkpoints of one run share a base path and carry a
// monotonic sequence suffix, e.g. base "run.ckpt" -> "run.ckpt.000007".
std::string checkpoint_file_name(const std::string& base, std::uint64_t seq);

struct CheckpointFile {
  std::uint64_t seq = 0;
  std::string path;
};

// All rotation files for `base`, newest (highest seq) first.
std::vector<CheckpointFile> list_checkpoints(const std::string& base);

// Resume entry point. If `path` names an existing file it is loaded
// directly (corruption throws). Otherwise `path` is treated as a rotation
// base: candidates are tried newest-first, skipping files that fail CRC or
// parsing; `fallbacks` (when non-null) counts the skips and `loaded_path`
// receives the file that won. Throws when no candidate loads.
TrainCheckpoint load_train_checkpoint_auto(const std::string& path,
                                           std::string* loaded_path = nullptr,
                                           int* fallbacks = nullptr);

}  // namespace rn::ag
