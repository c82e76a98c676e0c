// RNCKPT2 container tests: full round-trip fidelity, atomic writes,
// rotation naming, and the newest-valid fallback used by --resume.
#include "ag/serialize.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace rn::ag {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void remove_base(const std::string& base) {
  for (const CheckpointFile& f : list_checkpoints(base)) {
    std::remove(f.path.c_str());
  }
  std::remove(base.c_str());
}

std::string engine_state_after(int draws) {
  std::mt19937_64 engine(1234);
  for (int i = 0; i < draws; ++i) engine();
  std::ostringstream os;
  os << engine;
  return os.str();
}

TrainCheckpoint sample_checkpoint() {
  TrainCheckpoint ck;
  ck.params.emplace_back("layer.w",
                         Tensor::from_rows({{1.5f, -2.0f}, {0.25f, 3.0f}}));
  ck.params.emplace_back("layer.b", Tensor::from_rows({{0.1f, 0.2f}}));
  ck.has_optimizer = true;
  ck.adam_step = 17;
  ck.lr = 3.5e-3f;
  ck.adam_m.emplace_back("layer.w",
                         Tensor::from_rows({{0.01f, 0.02f}, {0.03f, 0.04f}}));
  ck.adam_m.emplace_back("layer.b", Tensor::from_rows({{0.05f, 0.06f}}));
  ck.adam_v.emplace_back("layer.w",
                         Tensor::from_rows({{1e-4f, 2e-4f}, {3e-4f, 4e-4f}}));
  ck.adam_v.emplace_back("layer.b", Tensor::from_rows({{5e-4f, 6e-4f}}));
  ck.rng_streams.emplace_back("shuffle", engine_state_after(3));
  ck.rng_streams.emplace_back("dropout", engine_state_after(11));
  ck.has_cursor = true;
  ck.epoch = 2;
  ck.next_index = 4;
  ck.total_batches = 23;
  ck.best_eval_mre = 0.181;
  ck.best_epoch = 1;
  ck.epoch_loss_sum = 3.25;
  ck.epoch_batches = 2;
  ck.epoch_samples = 4;
  ck.order = {3, 0, 2, 1, 4, 5};
  return ck;
}

void expect_tensors_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.same_shape(b));
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           sizeof(float) * static_cast<std::size_t>(a.size())));
}

TEST(Checkpoint, FullRoundTrip) {
  const TrainCheckpoint ck = sample_checkpoint();
  const std::string path = temp_path("full_roundtrip.ckpt2");
  const std::size_t bytes = save_train_checkpoint(path, ck);
  EXPECT_GT(bytes, 0u);

  const TrainCheckpoint got = load_train_checkpoint(path);
  ASSERT_EQ(got.params.size(), ck.params.size());
  for (std::size_t i = 0; i < ck.params.size(); ++i) {
    EXPECT_EQ(got.params[i].first, ck.params[i].first);
    expect_tensors_bitwise_equal(got.params[i].second, ck.params[i].second);
  }
  ASSERT_TRUE(got.has_optimizer);
  EXPECT_EQ(got.adam_step, ck.adam_step);
  EXPECT_EQ(got.lr, ck.lr);
  ASSERT_EQ(got.adam_m.size(), ck.adam_m.size());
  for (std::size_t i = 0; i < ck.adam_m.size(); ++i) {
    EXPECT_EQ(got.adam_m[i].first, ck.adam_m[i].first);
    expect_tensors_bitwise_equal(got.adam_m[i].second, ck.adam_m[i].second);
    expect_tensors_bitwise_equal(got.adam_v[i].second, ck.adam_v[i].second);
  }
  ASSERT_EQ(got.rng_streams.size(), ck.rng_streams.size());
  EXPECT_EQ(got.rng_streams[0], ck.rng_streams[0]);
  EXPECT_EQ(got.rng_streams[1], ck.rng_streams[1]);
  ASSERT_TRUE(got.has_cursor);
  EXPECT_EQ(got.epoch, ck.epoch);
  EXPECT_EQ(got.next_index, ck.next_index);
  EXPECT_EQ(got.total_batches, ck.total_batches);
  EXPECT_EQ(got.best_eval_mre, ck.best_eval_mre);
  EXPECT_EQ(got.best_epoch, ck.best_epoch);
  EXPECT_EQ(got.epoch_loss_sum, ck.epoch_loss_sum);
  EXPECT_EQ(got.epoch_batches, ck.epoch_batches);
  EXPECT_EQ(got.epoch_samples, ck.epoch_samples);
  EXPECT_EQ(got.order, ck.order);
}

TEST(Checkpoint, RestoredRngStateContinuesTheStream) {
  std::mt19937_64 reference(99);
  for (int i = 0; i < 7; ++i) reference();
  std::ostringstream os;
  os << reference;

  TrainCheckpoint ck = sample_checkpoint();
  ck.rng_streams = {{"shuffle", os.str()}};
  const std::string path = temp_path("rng_stream.ckpt2");
  save_train_checkpoint(path, ck);
  const TrainCheckpoint got = load_train_checkpoint(path);

  std::mt19937_64 restored;
  std::istringstream is(got.rng_streams[0].second);
  is >> restored;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(restored(), reference());
  }
}

TEST(Checkpoint, AtomicSaveLeavesNoTempFile) {
  const std::string path = temp_path("atomic.ckpt2");
  save_train_checkpoint(path, sample_checkpoint());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(Checkpoint, BareRnckpt1IsRejected) {
  // RNCKPT1 exists only as the block embedded in model files; a file that
  // holds nothing else is not a training checkpoint.
  Parameter a("layer.w", Tensor::from_rows({{1.0f, 2.0f}}));
  Parameter b("layer.b", Tensor::scalar(-4.0f));
  std::string bytes;
  put_parameters(bytes, {&a, &b});
  try {
    parse_train_checkpoint(bytes);
    FAIL() << "a bare RNCKPT1 block parsed as a checkpoint";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad checkpoint magic"),
              std::string::npos)
        << e.what();
  }
  const std::string path = temp_path("bare_v1.ckpt");
  atomic_write_file(path, bytes);
  EXPECT_THROW(load_train_checkpoint(path), std::runtime_error);
}

TEST(Checkpoint, RotationNamesAndListsNewestFirst) {
  const std::string base = temp_path("rotation.ckpt");
  remove_base(base);
  EXPECT_EQ(checkpoint_file_name(base, 7), base + ".000007");
  for (std::uint64_t seq : {3u, 1u, 12u}) {
    save_train_checkpoint(checkpoint_file_name(base, seq),
                          sample_checkpoint());
  }
  // Same prefix, but not a rotation sequence number: not listed.
  const std::string stray = base + ".000004.tmp";
  std::ofstream(stray) << "x";
  const std::vector<CheckpointFile> files = list_checkpoints(base);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].seq, 12u);
  EXPECT_EQ(files[1].seq, 3u);
  EXPECT_EQ(files[2].seq, 1u);
  std::remove(stray.c_str());
  remove_base(base);
}

TEST(Checkpoint, AutoLoadFallsBackWhenNewestIsCorrupt) {
  const std::string base = temp_path("fallback.ckpt");
  remove_base(base);
  TrainCheckpoint older = sample_checkpoint();
  older.total_batches = 4;
  save_train_checkpoint(checkpoint_file_name(base, 1), older);
  TrainCheckpoint newer = sample_checkpoint();
  newer.total_batches = 6;
  save_train_checkpoint(checkpoint_file_name(base, 2), newer);

  // Flip one payload byte of the newest file: CRC must reject it and the
  // loader must quietly fall back to seq 1.
  const std::string newest = checkpoint_file_name(base, 2);
  {
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(32);
    char c = 0;
    f.seekg(32);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0xff);
    f.seekp(32);
    f.write(&c, 1);
  }
  EXPECT_THROW(load_train_checkpoint(newest), std::runtime_error);

  std::string loaded_path;
  int fallbacks = -1;
  const TrainCheckpoint got =
      load_train_checkpoint_auto(base, &loaded_path, &fallbacks);
  EXPECT_EQ(got.total_batches, 4u);
  EXPECT_EQ(loaded_path, checkpoint_file_name(base, 1));
  EXPECT_EQ(fallbacks, 1);
  remove_base(base);
}

TEST(Checkpoint, AutoLoadExplicitFileLoadsThatFile) {
  const std::string path = temp_path("explicit_good.ckpt2");
  save_train_checkpoint(path, sample_checkpoint());
  std::string loaded_path;
  int fallbacks = -1;
  const TrainCheckpoint got =
      load_train_checkpoint_auto(path, &loaded_path, &fallbacks);
  EXPECT_EQ(got.total_batches, sample_checkpoint().total_batches);
  EXPECT_EQ(loaded_path, path);
  EXPECT_EQ(fallbacks, 0);
  std::remove(path.c_str());
}

TEST(Checkpoint, AutoLoadExplicitFileDoesNotFallBack) {
  const std::string path = temp_path("explicit_corrupt.ckpt2");
  save_train_checkpoint(path, sample_checkpoint());
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f << "trailing garbage";
  }
  EXPECT_THROW(load_train_checkpoint_auto(path), std::runtime_error);
}

TEST(Checkpoint, AutoLoadThrowsWhenNothingExists) {
  const std::string base = temp_path("nothing_here.ckpt");
  remove_base(base);
  EXPECT_THROW(load_train_checkpoint_auto(base), std::runtime_error);
}

TEST(Checkpoint, AutoLoadThrowsWhenAllCandidatesCorrupt) {
  const std::string base = temp_path("all_corrupt.ckpt");
  remove_base(base);
  for (std::uint64_t seq : {1u, 2u}) {
    std::ofstream f(checkpoint_file_name(base, seq), std::ios::binary);
    f << "RNCKPT2\nnot really a checkpoint";
  }
  EXPECT_THROW(load_train_checkpoint_auto(base), std::runtime_error);
  remove_base(base);
}

TEST(Checkpoint, Crc32MatchesKnownVector) {
  // The classic zlib test vector: crc32("123456789") == 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xcbf43926u);
}

}  // namespace
}  // namespace rn::ag
