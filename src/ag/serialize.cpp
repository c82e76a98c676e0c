#include "ag/serialize.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace rn::ag {

namespace {

using util::put_pod;

constexpr std::string_view kMagicV1("RNCKPT1\n", 8);
constexpr std::string_view kMagicV2("RNCKPT2\n", 8);
constexpr std::size_t kMagicLen = 8;

// Per-field sanity caps. Real checkpoints stay far below these; a reader
// hitting them is looking at corruption and must fail before allocating.
constexpr std::uint32_t kMaxNameLen = 4096;
constexpr std::uint32_t kMaxRngStateLen = 1 << 20;

std::string shape_str(int rows, int cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

void put_tensor(std::string& buf, const Tensor& t) {
  put_pod(buf, static_cast<std::int32_t>(t.rows()));
  put_pod(buf, static_cast<std::int32_t>(t.cols()));
  buf.append(reinterpret_cast<const char*>(t.data()),
             sizeof(float) * static_cast<std::size_t>(t.size()));
}

// The claimed shape is checked against the bytes left before the tensor
// is allocated, so an absurd header cannot drive a huge allocation.
Tensor get_tensor(util::Reader& r, const std::string& name) {
  const auto rows = r.pod<std::int32_t>("tensor rows");
  const auto cols = r.pod<std::int32_t>("tensor cols");
  if (rows < 0 || cols < 0) {
    r.fail("tensor '" + name + "' has negative shape " +
           shape_str(rows, cols));
  }
  const std::uint64_t n = static_cast<std::uint64_t>(rows) *
                          static_cast<std::uint64_t>(cols) * sizeof(float);
  if (n > r.remaining()) {
    r.fail("tensor '" + name + "' claims shape " + shape_str(rows, cols) +
           " past the end of the data");
  }
  Tensor t(rows, cols);
  if (n != 0) std::memcpy(t.data(), r.bytes(n, "tensor data").data(), n);
  return t;
}

void put_named_tensors(
    std::string& buf,
    const std::vector<std::pair<std::string, Tensor>>& named) {
  put_pod(buf, static_cast<std::uint32_t>(named.size()));
  for (const auto& [name, t] : named) {
    util::put_str(buf, name);
    put_tensor(buf, t);
  }
}

std::vector<std::pair<std::string, Tensor>> get_named_tensors(
    util::Reader& r) {
  const auto count = r.pod<std::uint32_t>("tensor count");
  std::vector<std::pair<std::string, Tensor>> named;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = r.str(kMaxNameLen, "tensor name");
    if (name.empty()) r.fail("empty tensor name");
    Tensor t = get_tensor(r, name);
    named.emplace_back(std::move(name), std::move(t));
  }
  return named;
}

}  // namespace

void put_parameters(std::string& out, const std::vector<Parameter*>& params) {
  out.append(kMagicV1);
  put_pod(out, static_cast<std::uint32_t>(params.size()));
  for (const Parameter* p : params) {
    RN_CHECK(p != nullptr, "null parameter in put_parameters");
    util::put_str(out, p->name);
    put_tensor(out, p->value);
  }
}

void apply_named_tensors(
    const std::vector<std::pair<std::string, Tensor>>& named,
    const std::vector<Parameter*>& params, const std::string& context) {
  for (Parameter* p : params) {
    const auto it =
        std::find_if(named.begin(), named.end(),
                     [&](const auto& e) { return e.first == p->name; });
    RN_CHECK(it != named.end(),
             context + " is missing parameter '" + p->name +
                 "' (model expects shape " +
                 shape_str(p->value.rows(), p->value.cols()) + "; " +
                 context + " holds " + std::to_string(named.size()) +
                 " tensors)");
    RN_CHECK(it->second.same_shape(p->value),
             context + " shape mismatch for parameter '" + p->name +
                 "': " + context + " has " +
                 shape_str(it->second.rows(), it->second.cols()) +
                 ", model expects " +
                 shape_str(p->value.rows(), p->value.cols()));
    p->value = it->second;
  }
}

void load_parameters(util::Reader& in,
                     const std::vector<Parameter*>& params) {
  if (in.bytes(kMagicLen, "checkpoint magic") != kMagicV1) {
    in.fail("bad checkpoint magic");
  }
  apply_named_tensors(get_named_tensors(in), params, "checkpoint");
}

std::string train_checkpoint_bytes(const TrainCheckpoint& ckpt) {
  std::string payload;
  put_named_tensors(payload, ckpt.params);

  put_pod(payload, static_cast<std::uint8_t>(ckpt.has_optimizer ? 1 : 0));
  if (ckpt.has_optimizer) {
    RN_CHECK(ckpt.adam_m.size() == ckpt.adam_v.size(),
             "optimizer moment lists differ in length");
    put_pod(payload, ckpt.adam_step);
    put_pod(payload, ckpt.lr);
    put_pod(payload, static_cast<std::uint32_t>(ckpt.adam_m.size()));
    for (std::size_t i = 0; i < ckpt.adam_m.size(); ++i) {
      RN_CHECK(ckpt.adam_m[i].first == ckpt.adam_v[i].first,
               "optimizer moment lists disagree on parameter order");
      util::put_str(payload, ckpt.adam_m[i].first);
      put_tensor(payload, ckpt.adam_m[i].second);
      put_tensor(payload, ckpt.adam_v[i].second);
    }
  }

  put_pod(payload, static_cast<std::uint32_t>(ckpt.rng_streams.size()));
  for (const auto& [name, state] : ckpt.rng_streams) {
    util::put_str(payload, name);
    util::put_str(payload, state);
  }

  put_pod(payload, static_cast<std::uint8_t>(ckpt.has_cursor ? 1 : 0));
  if (ckpt.has_cursor) {
    put_pod(payload, ckpt.epoch);
    put_pod(payload, ckpt.next_index);
    put_pod(payload, ckpt.total_batches);
    put_pod(payload, ckpt.best_eval_mre);
    put_pod(payload, ckpt.best_epoch);
    put_pod(payload, std::int32_t{0});  // reserved; keeps the cursor layout
    put_pod(payload, ckpt.epoch_loss_sum);
    put_pod(payload, ckpt.epoch_batches);
    put_pod(payload, ckpt.epoch_samples);
    put_pod(payload, static_cast<std::uint32_t>(ckpt.order.size()));
    payload.append(reinterpret_cast<const char*>(ckpt.order.data()),
                   sizeof(std::int32_t) * ckpt.order.size());
  }

  std::string bytes;
  bytes.reserve(kMagicLen + sizeof(std::uint64_t) + payload.size() +
                sizeof(std::uint32_t));
  bytes.append(kMagicV2);
  put_pod(bytes, static_cast<std::uint64_t>(payload.size()));
  bytes.append(payload);
  put_pod(bytes, util::crc32(payload.data(), payload.size()));
  return bytes;
}

TrainCheckpoint parse_train_checkpoint(const std::string& bytes) {
  util::Reader in(bytes, "checkpoint");
  TrainCheckpoint ckpt;
  if (in.bytes(kMagicLen, "checkpoint magic") != kMagicV2) {
    in.fail("bad checkpoint magic");
  }
  const auto payload_len = in.pod<std::uint64_t>("payload length");
  if (in.remaining() < sizeof(std::uint32_t) ||
      payload_len != in.remaining() - sizeof(std::uint32_t)) {
    in.fail("payload length " + std::to_string(payload_len) +
            " does not match file size " + std::to_string(bytes.size()));
  }
  const std::string_view payload =
      in.bytes(static_cast<std::size_t>(payload_len), "payload");
  const auto stored_crc = in.pod<std::uint32_t>("payload crc");
  const std::uint32_t actual_crc = util::crc32(payload.data(), payload.size());
  if (actual_crc != stored_crc) {
    in.fail("CRC mismatch: stored " + std::to_string(stored_crc) +
            ", computed " + std::to_string(actual_crc));
  }

  util::Reader r(payload, "checkpoint");
  ckpt.params = get_named_tensors(r);

  if (r.pod<std::uint8_t>("optimizer flag") != 0) {
    ckpt.has_optimizer = true;
    ckpt.adam_step = r.pod<std::int64_t>("adam step");
    ckpt.lr = r.pod<float>("learning rate");
    const auto count = r.pod<std::uint32_t>("optimizer moment count");
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string name = r.str(kMaxNameLen, "optimizer moment name");
      Tensor m = get_tensor(r, name);
      Tensor v = get_tensor(r, name);
      ckpt.adam_m.emplace_back(name, std::move(m));
      ckpt.adam_v.emplace_back(std::move(name), std::move(v));
    }
  }

  const auto rng_count = r.pod<std::uint32_t>("rng stream count");
  for (std::uint32_t i = 0; i < rng_count; ++i) {
    std::string name = r.str(kMaxNameLen, "rng stream name");
    std::string state = r.str(kMaxRngStateLen, "rng stream state");
    ckpt.rng_streams.emplace_back(std::move(name), std::move(state));
  }

  if (r.pod<std::uint8_t>("cursor flag") != 0) {
    ckpt.has_cursor = true;
    ckpt.epoch = r.pod<std::int32_t>("epoch");
    ckpt.next_index = r.pod<std::int64_t>("next index");
    ckpt.total_batches = r.pod<std::uint64_t>("total batches");
    ckpt.best_eval_mre = r.pod<double>("best eval mre");
    ckpt.best_epoch = r.pod<std::int32_t>("best epoch");
    r.pod<std::int32_t>("reserved cursor field");
    ckpt.epoch_loss_sum = r.pod<double>("epoch loss sum");
    ckpt.epoch_batches = r.pod<std::int32_t>("epoch batches");
    ckpt.epoch_samples = r.pod<std::uint64_t>("epoch samples");
    const auto order_len = r.pod<std::uint32_t>("epoch order length");
    r.require(static_cast<std::size_t>(order_len) * sizeof(std::int32_t),
              "epoch sample order");
    ckpt.order.resize(order_len);
    for (std::uint32_t i = 0; i < order_len; ++i) {
      ckpt.order[i] = r.pod<std::int32_t>("epoch sample order");
    }
    if (ckpt.next_index < 0 ||
        ckpt.next_index > static_cast<std::int64_t>(ckpt.order.size())) {
      r.fail("cursor index " + std::to_string(ckpt.next_index) +
             " outside the epoch's " + std::to_string(ckpt.order.size()) +
             "-sample order");
    }
  }
  r.expect_done("the cursor");
  return ckpt;
}

std::size_t save_train_checkpoint(const std::string& path,
                                  const TrainCheckpoint& ckpt) {
  const std::string bytes = train_checkpoint_bytes(ckpt);
  util::atomic_write_file(path, bytes);
  return bytes.size();
}

TrainCheckpoint load_train_checkpoint(const std::string& path) {
  return parse_train_checkpoint(util::read_file(path, "checkpoint"));
}

std::string checkpoint_file_name(const std::string& base, std::uint64_t seq) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".%06llu",
                static_cast<unsigned long long>(seq));
  return base + suffix;
}

std::vector<CheckpointFile> list_checkpoints(const std::string& base) {
  namespace fs = std::filesystem;
  const fs::path base_path(base);
  fs::path dir = base_path.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = base_path.filename().string() + ".";
  std::vector<CheckpointFile> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string suffix = name.substr(prefix.size());
    if (suffix.empty() ||
        !std::all_of(suffix.begin(), suffix.end(),
                     [](unsigned char c) { return std::isdigit(c); })) {
      continue;
    }
    found.push_back({std::stoull(suffix), entry.path().string()});
  }
  std::sort(found.begin(), found.end(),
            [](const CheckpointFile& a, const CheckpointFile& b) {
              return a.seq > b.seq;
            });
  return found;
}

TrainCheckpoint load_train_checkpoint_auto(const std::string& path,
                                           std::string* loaded_path,
                                           int* fallbacks) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) {
    TrainCheckpoint ckpt = load_train_checkpoint(path);
    if (loaded_path != nullptr) *loaded_path = path;
    if (fallbacks != nullptr) *fallbacks = 0;
    return ckpt;
  }
  const std::vector<CheckpointFile> candidates = list_checkpoints(path);
  RN_CHECK(!candidates.empty(),
           "no checkpoint found at '" + path +
               "' (neither a file nor a rotation base with <base>.NNNNNN "
               "files)");
  int skipped = 0;
  std::string last_error;
  for (const CheckpointFile& c : candidates) {
    try {
      TrainCheckpoint ckpt = load_train_checkpoint(c.path);
      if (loaded_path != nullptr) *loaded_path = c.path;
      if (fallbacks != nullptr) *fallbacks = skipped;
      return ckpt;
    } catch (const std::exception& e) {
      ++skipped;
      last_error = e.what();
    }
  }
  RN_CHECK(false, "all " + std::to_string(candidates.size()) +
                      " checkpoint files under base '" + path +
                      "' failed to load; last error: " + last_error);
  return {};  // unreachable
}

}  // namespace rn::ag
