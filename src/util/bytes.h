// The one bounds-checked byte codec behind every binary format in the repo:
// RNCKPT2 checkpoints, RNMODEL3 model files (with their embedded RNCKPT1
// parameter block), RNDS1 datasets, and the RNP/1 wire protocol.
//
// Conventions all of those formats share:
//   * fixed-width fields are host-endian PODs, copied byte for byte;
//   * strings carry a u32 (files) or u16 (RNP/1) length prefix;
//   * a Reader checks every read against the bytes left BEFORE it touches
//     memory or allocates anything, and every error names the field that
//     was being read.
//
// The exception type is the caller's: RNP/1 decoders throw ProtocolError
// (the server maps it to an error frame), everything else throws
// std::runtime_error. An optional context (usually the file path) prefixes
// each message.
#pragma once

#include <cstdint>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace rn::util {

// Appends one POD value, host-endian.
template <typename T>
void put_pod(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>, "POD only");
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

// Appends a LenT length prefix, then the bytes. The caller guarantees the
// size fits LenT (RNP/1 caps every str16 well below 64 KiB).
template <typename LenT = std::uint32_t>
void put_str(std::string& out, std::string_view s) {
  put_pod(out, static_cast<LenT>(s.size()));
  out.append(s);
}

// Builds the exception a Reader throws; error_as<E> makes an E(msg).
using ErrorFactory = std::exception_ptr (*)(const std::string& msg);

template <typename Error>
std::exception_ptr error_as(const std::string& msg) {
  return std::make_exception_ptr(Error(msg));
}

// Forward reader over an in-memory byte image.
class Reader {
 public:
  explicit Reader(std::string_view data, std::string context = {},
                  ErrorFactory make_error = &error_as<std::runtime_error>)
      : data_(data), context_(std::move(context)), make_error_(make_error) {}

  template <typename T>
  T pod(const char* what) {
    static_assert(std::is_trivially_copyable_v<T>, "POD only");
    require(sizeof(T), what);
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  // LenT-length-prefixed string, capped at max_len so a flipped length
  // byte cannot allocate gigabytes.
  template <typename LenT = std::uint32_t>
  std::string str(std::size_t max_len, const char* what) {
    const auto len = pod<LenT>(what);
    if (len > max_len) fail_cap(what, len, max_len);
    return std::string(bytes(len, what));
  }

  // View of the next n bytes, advancing past them.
  std::string_view bytes(std::size_t n, const char* what) {
    require(n, what);
    const std::string_view v = data_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  // Throws unless at least n bytes remain.
  void require(std::size_t n, const char* what) const {
    if (n > remaining()) fail_truncated(n, what);
  }

  // Throws unless every byte has been consumed.
  void expect_done(const char* what) const;

  std::size_t remaining() const { return data_.size() - pos_; }

  // Throws the caller's exception type with the context prefix.
  [[noreturn]] void fail(const std::string& msg) const;

 private:
  [[noreturn]] void fail_truncated(std::size_t n, const char* what) const;
  [[noreturn]] void fail_cap(const char* what, std::size_t len,
                             std::size_t max_len) const;

  std::string_view data_;
  std::string context_;
  ErrorFactory make_error_;
  std::size_t pos_ = 0;
};

// CRC-32 (IEEE 802.3 / zlib polynomial) of `len` bytes, optionally chained
// from a previous call's result: crc32(b, n, crc32(a, m)) is the CRC of
// a‖b.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t crc = 0);

// Writes `bytes` to `path` via a same-directory temporary file and an
// atomic rename, so concurrent readers (and crashes) never observe a
// partially written file.
void atomic_write_file(const std::string& path, const std::string& bytes);

// Reads a whole file into memory; `what` names it in the open error.
std::string read_file(const std::string& path, const char* what);

}  // namespace rn::util
