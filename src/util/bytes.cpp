#include "util/bytes.h"

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/check.h"

namespace rn::util {

void Reader::fail(const std::string& msg) const {
  std::rethrow_exception(
      make_error_(context_.empty() ? msg : context_ + ": " + msg));
}

void Reader::fail_truncated(std::size_t n, const char* what) const {
  fail("truncated reading " + std::string(what) + " (need " +
       std::to_string(n) + " bytes, have " + std::to_string(remaining()) +
       ")");
}

void Reader::fail_cap(const char* what, std::size_t len,
                      std::size_t max_len) const {
  fail(std::string(what) + " length " + std::to_string(len) +
       " exceeds cap " + std::to_string(max_len));
}

void Reader::expect_done(const char* what) const {
  if (remaining() != 0) {
    fail(std::to_string(remaining()) + " trailing bytes after " +
         std::string(what));
  }
}

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t crc) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void atomic_write_file(const std::string& path, const std::string& bytes) {
  // Same directory as the target so the rename cannot cross filesystems.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    RN_CHECK(out.good(), "cannot open temporary file for writing: " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      RN_CHECK(false, "write failure on temporary file: " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    RN_CHECK(false, "cannot rename " + tmp + " -> " + path + ": " +
                        ec.message());
  }
}

std::string read_file(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  RN_CHECK(in.good(),
           "cannot open " + std::string(what) + " for reading: " + path);
  std::ostringstream buf(std::ios::binary);
  buf << in.rdbuf();
  RN_CHECK(!in.bad(), "read failure on " + std::string(what) + ": " + path);
  return std::move(buf).str();
}

}  // namespace rn::util
