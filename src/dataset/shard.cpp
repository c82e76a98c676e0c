#include "dataset/shard.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "dataset/codec.h"
#include "obs/event.h"
#include "util/check.h"

namespace rn::dataset {

namespace {

// Header bytes with the trailing CRC-32 over everything before it.
std::string encode_shard_header(const ShardHeader& h) {
  std::string out;
  out.append(kShardMagic, sizeof(kShardMagic));
  put_pod(out, kShardVersion);
  put_pod(out, h.seed);
  put_pod(out, h.config_fingerprint);
  put_pod(out, h.shard_index);
  put_pod(out, h.shard_count);
  put_pod(out, h.first_index);
  put_pod(out, h.count);
  put_pod(out, h.payload_len);
  put_pod(out, util::crc32(out.data(), out.size()));
  RN_CHECK(out.size() == kShardHeaderBytes, "shard header layout drifted");
  return out;
}

constexpr std::size_t kIndexEntryBytes = 8 + 4 + 4;

}  // namespace

std::uint64_t config_fingerprint(const GeneratorConfig& cfg,
                                 const topo::Topology& topo) {
  // Canonical byte image of every field that influences generated samples.
  std::string c;
  put_pod(c, static_cast<std::int32_t>(cfg.k_paths));
  put_pod(c, cfg.min_util);
  put_pod(c, cfg.max_util);
  put_pod(c, static_cast<std::uint32_t>(cfg.matrix_kinds.size()));
  for (MatrixKind k : cfg.matrix_kinds) {
    put_pod(c, static_cast<std::int32_t>(k));
  }
  put_pod(c, static_cast<std::int32_t>(cfg.model.arrivals));
  put_pod(c, static_cast<std::int32_t>(cfg.model.sizes));
  put_pod(c, cfg.model.mean_pkt_size_bits);
  put_pod(c, cfg.model.on_fraction);
  put_pod(c, cfg.model.mean_on_s);
  put_pod(c, cfg.model.small_pkt_prob);
  put_pod(c, cfg.model.small_pkt_bits);
  put_pod(c, cfg.model.pareto_alpha);
  put_pod(c, cfg.model.pareto_max_factor);
  put_pod(c, cfg.warmup_s);
  put_pod(c, cfg.target_pkts_per_flow);
  put_pod(c, static_cast<std::uint64_t>(cfg.min_delivered));

  std::string t;
  util::put_str(t, topo.name());
  put_pod(t, static_cast<std::int32_t>(topo.num_nodes()));
  put_pod(t, static_cast<std::int32_t>(topo.num_links()));
  for (const topo::Link& l : topo.links()) {
    put_pod(t, static_cast<std::int32_t>(l.src));
    put_pod(t, static_cast<std::int32_t>(l.dst));
    put_pod(t, l.capacity_bps);
    put_pod(t, l.prop_delay_s);
  }
  return (static_cast<std::uint64_t>(util::crc32(c.data(), c.size())) << 32) |
         util::crc32(t.data(), t.size());
}

std::uint64_t shard_first(std::uint64_t total, std::uint32_t index,
                          std::uint32_t count) {
  RN_CHECK(count >= 1 && index <= count, "shard index out of range");
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(total) * index / count);
}

ShardWriter::ShardWriter(std::string path, ShardHeader header)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp"),
      header_(header) {
  header_.count = 0;
  header_.payload_len = 0;
  out_.open(tmp_path_, std::ios::binary | std::ios::trunc);
  RN_CHECK(out_.good(), "cannot open temporary shard for writing: " + tmp_path_);
  // Placeholder header; finish() patches the real one in.
  const std::string zeros(kShardHeaderBytes, '\0');
  out_.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
}

ShardWriter::~ShardWriter() {
  if (!finished_) {
    out_.close();
    std::remove(tmp_path_.c_str());
  }
}

void ShardWriter::add(const Sample& s) {
  scratch_.clear();
  encode_sample(scratch_, s);
  add_raw(scratch_, util::crc32(scratch_.data(), scratch_.size()));
}

void ShardWriter::add_raw(std::string_view record, std::uint32_t crc) {
  RN_CHECK(!finished_, "ShardWriter already finished");
  RN_CHECK(record.size() <= 0xffffffffu, "record too large for u32 length");
  index_.push_back(ShardIndexEntry{header_.payload_len,
                                   static_cast<std::uint32_t>(record.size()),
                                   crc});
  out_.write(record.data(), static_cast<std::streamsize>(record.size()));
  header_.payload_len += record.size();
  ++header_.count;
}

std::uint64_t ShardWriter::finish() {
  RN_CHECK(!finished_, "ShardWriter already finished");
  std::string tail;
  tail.reserve(index_.size() * kIndexEntryBytes + 4);
  for (const ShardIndexEntry& e : index_) {
    put_pod(tail, e.offset);
    put_pod(tail, e.length);
    put_pod(tail, e.crc);
  }
  put_pod(tail, util::crc32(tail.data(), tail.size()));
  out_.write(tail.data(), static_cast<std::streamsize>(tail.size()));
  const std::string header = encode_shard_header(header_);
  out_.seekp(0);
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  out_.flush();
  if (!out_.good()) {
    out_.close();
    std::remove(tmp_path_.c_str());
    finished_ = true;  // temp already cleaned up
    RN_CHECK(false, "write failure on shard: " + tmp_path_);
  }
  out_.close();
  std::error_code ec;
  std::filesystem::rename(tmp_path_, path_, ec);
  if (ec) {
    std::remove(tmp_path_.c_str());
    finished_ = true;
    RN_CHECK(false,
             "cannot rename " + tmp_path_ + " -> " + path_ + ": " + ec.message());
  }
  finished_ = true;
  return kShardHeaderBytes + header_.payload_len + tail.size();
}

ParsedShard parse_shard_bytes(std::string_view bytes,
                              const std::string& context) {
  util::Reader in(bytes, context);
  const std::string_view magic = in.bytes(sizeof(kShardMagic), "shard magic");
  if (magic != std::string_view(kShardMagic, sizeof(kShardMagic))) {
    in.fail("bad RNDS1 magic");
  }
  const auto version = in.pod<std::uint32_t>("shard version");
  if (version != kShardVersion) {
    in.fail("unsupported RNDS version " + std::to_string(version));
  }
  ParsedShard out;
  ShardHeader& h = out.header;
  h.seed = in.pod<std::uint64_t>("shard seed");
  h.config_fingerprint = in.pod<std::uint64_t>("config fingerprint");
  h.shard_index = in.pod<std::uint32_t>("shard index");
  h.shard_count = in.pod<std::uint32_t>("shard count");
  h.first_index = in.pod<std::uint64_t>("first sample index");
  h.count = in.pod<std::uint64_t>("record count");
  h.payload_len = in.pod<std::uint64_t>("payload length");
  const auto stored_crc = in.pod<std::uint32_t>("header crc");
  const std::uint32_t actual_crc =
      util::crc32(bytes.data(), kShardHeaderBytes - 4);
  if (stored_crc != actual_crc) in.fail("shard header CRC mismatch");
  if (h.shard_count < 1 || h.shard_index >= h.shard_count) {
    in.fail("shard index " + std::to_string(h.shard_index) +
            " out of range for shard count " + std::to_string(h.shard_count));
  }
  if (h.first_index > UINT64_MAX - h.count) {
    in.fail("sample index range overflows");
  }
  // The file must be exactly header + payload + index + index CRC; all
  // arithmetic is checked against the real size before anything is sliced.
  const std::uint64_t sz = bytes.size();
  if (h.payload_len > sz - kShardHeaderBytes) {
    in.fail("payload length " + std::to_string(h.payload_len) +
            " exceeds file size");
  }
  const std::uint64_t rest = sz - kShardHeaderBytes - h.payload_len;
  if (rest < 4 || (rest - 4) % kIndexEntryBytes != 0 ||
      (rest - 4) / kIndexEntryBytes != h.count) {
    in.fail("file size inconsistent with declared record count");
  }
  out.payload =
      in.bytes(static_cast<std::size_t>(h.payload_len), "shard payload");
  const std::string_view index_bytes = in.bytes(
      static_cast<std::size_t>(h.count) * kIndexEntryBytes, "shard index");
  if (in.pod<std::uint32_t>("shard index crc") !=
      util::crc32(index_bytes.data(), index_bytes.size())) {
    in.fail("shard index CRC mismatch");
  }
  util::Reader index_in(index_bytes, context);
  out.index.reserve(static_cast<std::size_t>(h.count));
  std::uint64_t expect_offset = 0;
  for (std::uint64_t i = 0; i < h.count; ++i) {
    ShardIndexEntry e;
    e.offset = index_in.pod<std::uint64_t>("record offset");
    e.length = index_in.pod<std::uint32_t>("record length");
    e.crc = index_in.pod<std::uint32_t>("record crc");
    if (e.offset != expect_offset) in.fail("shard index does not tile payload");
    if (e.length > h.payload_len - e.offset) {
      in.fail("record " + std::to_string(i) + " overruns payload");
    }
    expect_offset = e.offset + e.length;
    out.index.push_back(e);
  }
  if (expect_offset != h.payload_len) {
    in.fail("shard index does not cover payload");
  }
  return out;
}

void verify_shard_bytes(std::string_view bytes, const std::string& context) {
  const ParsedShard parsed = parse_shard_bytes(bytes, context);
  for (std::uint64_t i = 0; i < parsed.header.count; ++i) {
    const ShardIndexEntry& e = parsed.index[static_cast<std::size_t>(i)];
    const std::string_view rec =
        parsed.payload.substr(static_cast<std::size_t>(e.offset), e.length);
    if (util::crc32(rec.data(), rec.size()) != e.crc) {
      throw std::runtime_error(context + ": record " + std::to_string(i) +
                               " CRC mismatch");
    }
    util::Reader rec_in(rec, context + " record " + std::to_string(i));
    (void)decode_sample(rec_in);
    rec_in.expect_done("sample record");
  }
}

ShardReader::ShardReader(const std::string& path) : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  RN_CHECK(fd >= 0, "cannot open shard for reading: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    RN_CHECK(false, "cannot stat shard (or empty file): " + path);
  }
  const auto len = static_cast<std::size_t>(st.st_size);
  void* m = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  RN_CHECK(m != MAP_FAILED, "mmap failed for shard: " + path);
  map_ = m;
  map_len_ = len;
  bytes_ = std::string_view(static_cast<const char*>(m), len);
  try {
    parsed_ = parse_shard_bytes(bytes_, path);
  } catch (...) {
    ::munmap(map_, map_len_);
    map_ = nullptr;
    throw;
  }
}

ShardReader::~ShardReader() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

std::string_view ShardReader::record(std::uint64_t i) const {
  RN_CHECK(i < parsed_.header.count,
           "record index out of range in " + path_);
  const ShardIndexEntry& e = parsed_.index[static_cast<std::size_t>(i)];
  return parsed_.payload.substr(static_cast<std::size_t>(e.offset), e.length);
}

std::uint32_t ShardReader::record_crc(std::uint64_t i) const {
  RN_CHECK(i < parsed_.header.count,
           "record index out of range in " + path_);
  return parsed_.index[static_cast<std::size_t>(i)].crc;
}

Sample ShardReader::sample(std::uint64_t i) const {
  const std::string_view rec = record(i);
  if (util::crc32(rec.data(), rec.size()) != record_crc(i)) {
    throw std::runtime_error(path_ + ": record " + std::to_string(i) +
                             " CRC mismatch");
  }
  util::Reader in(rec, path_ + " record " + std::to_string(i));
  Sample s = decode_sample(in);
  in.expect_done("sample record");
  return s;
}

void ShardReader::verify_all() const {
  for (std::uint64_t i = 0; i < size(); ++i) (void)sample(i);
}

std::uint64_t generate_shard(
    const std::string& path, const GeneratorConfig& cfg, std::uint64_t seed,
    std::shared_ptr<const topo::Topology> topology, std::uint64_t total,
    std::uint32_t shard_index, std::uint32_t shard_count,
    const std::function<void(std::uint64_t, std::uint64_t)>& progress) {
  RN_CHECK(topology != nullptr, "null topology");
  RN_CHECK(shard_count >= 1 && shard_index < shard_count,
           "shard index out of range");
  const std::uint64_t first = shard_first(total, shard_index, shard_count);
  const std::uint64_t last = shard_first(total, shard_index + 1, shard_count);
  const std::uint64_t owned = last - first;

  ShardHeader header;
  header.seed = seed;
  header.config_fingerprint = config_fingerprint(cfg, *topology);
  header.shard_index = shard_index;
  header.shard_count = shard_count;
  header.first_index = first;
  ShardWriter writer(path, header);

  // Chunked generation keeps memory bounded by ~kChunk decoded samples no
  // matter how large the shard is; determinism is per-index, so chunking
  // cannot change the bytes.
  const DatasetGenerator gen(cfg, seed);
  constexpr std::uint64_t kChunk = 64;
  for (std::uint64_t done = 0; done < owned; done += kChunk) {
    const std::uint64_t n = std::min(kChunk, owned - done);
    std::function<void(std::uint64_t, std::uint64_t)> wrapped;
    if (progress) {
      wrapped = [&progress, done, owned](std::uint64_t d, std::uint64_t) {
        progress(done + d, owned);
      };
    }
    const std::vector<Sample> chunk =
        gen.generate_range(topology, first + done, n, wrapped);
    for (const Sample& s : chunk) writer.add(s);
  }
  const std::uint64_t file_bytes = writer.finish();

  obs::EventSink& sink = obs::EventSink::global();
  if (sink.enabled()) {
    obs::Event ev("dataset.shard.gen");
    ev.f("path", path)
        .f("shard_index", static_cast<std::int64_t>(shard_index))
        .f("shard_count", static_cast<std::int64_t>(shard_count))
        .f("first_index", static_cast<std::int64_t>(first))
        .f("samples", static_cast<std::int64_t>(owned))
        .f("file_bytes", static_cast<std::int64_t>(file_bytes));
    sink.emit(ev);
  }
  return file_bytes;
}

namespace {

// Opens every path, sorts by shard_index, and enforces the coherence
// contract shared by verify and merge: one generation run (same seed,
// fingerprint, version, shard_count), every shard present exactly once,
// and index ranges contiguous from the first shard's start.
std::vector<std::unique_ptr<ShardReader>> open_coherent_set(
    const std::vector<std::string>& paths) {
  RN_CHECK(!paths.empty(), "no shard files given");
  std::vector<std::unique_ptr<ShardReader>> readers;
  readers.reserve(paths.size());
  for (const std::string& p : paths) {
    readers.push_back(std::make_unique<ShardReader>(p));
  }
  std::sort(readers.begin(), readers.end(),
            [](const auto& a, const auto& b) {
              return a->header().shard_index < b->header().shard_index;
            });
  const ShardHeader& ref = readers.front()->header();
  if (readers.size() != ref.shard_count) {
    throw std::runtime_error(
        "incomplete shard set: headers declare " +
        std::to_string(ref.shard_count) + " shards, got " +
        std::to_string(readers.size()) + " files");
  }
  std::uint64_t expect_first = readers.front()->header().first_index;
  RN_CHECK(expect_first == 0, "shard set does not start at sample index 0");
  for (std::size_t i = 0; i < readers.size(); ++i) {
    const ShardHeader& h = readers[i]->header();
    const std::string& path = readers[i]->path();
    if (h.seed != ref.seed) {
      throw std::runtime_error(path + ": shard seed mismatch (" +
                               std::to_string(h.seed) + " vs " +
                               std::to_string(ref.seed) + ")");
    }
    if (h.config_fingerprint != ref.config_fingerprint) {
      throw std::runtime_error(path +
                               ": generator config/topology fingerprint "
                               "mismatch with the other shards");
    }
    if (h.shard_count != ref.shard_count) {
      throw std::runtime_error(path + ": shard count mismatch");
    }
    if (h.shard_index != i) {
      throw std::runtime_error(
          "shard set is not a partition: expected shard index " +
          std::to_string(i) + ", found " + std::to_string(h.shard_index) +
          " (" + path + ")");
    }
    if (h.first_index != expect_first) {
      throw std::runtime_error(
          path + ": first index " + std::to_string(h.first_index) +
          " leaves a gap (expected " + std::to_string(expect_first) + ")");
    }
    expect_first += h.count;
  }
  return readers;
}

}  // namespace

// verify_shards and merge_shards release each reader once its records are
// read, so at most one shard's pages stay mapped; opening a reader touches
// only its header and index.
std::vector<ShardSummary> verify_shards(
    const std::vector<std::string>& paths) {
  auto readers = open_coherent_set(paths);
  std::vector<ShardSummary> out;
  out.reserve(readers.size());
  for (auto& r : readers) {
    r->verify_all();
    out.push_back(ShardSummary{r->path(), r->header(), r->file_bytes()});
    r.reset();
  }
  return out;
}

std::uint64_t merge_shards(const std::string& out_path,
                           const std::vector<std::string>& inputs) {
  auto readers = open_coherent_set(inputs);
  ShardHeader header;
  header.seed = readers.front()->header().seed;
  header.config_fingerprint = readers.front()->header().config_fingerprint;
  header.shard_index = 0;
  header.shard_count = 1;
  header.first_index = 0;
  ShardWriter writer(out_path, header);
  for (auto& r : readers) {
    for (std::uint64_t i = 0; i < r->size(); ++i) {
      const std::string_view rec = r->record(i);
      const std::uint32_t crc = r->record_crc(i);
      if (util::crc32(rec.data(), rec.size()) != crc) {
        throw std::runtime_error(r->path() + ": record " + std::to_string(i) +
                                 " CRC mismatch");
      }
      writer.add_raw(rec, crc);
    }
    r.reset();
  }
  return writer.finish();
}

}  // namespace rn::dataset
