#include "util/serial.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "util/crc32.hpp"

namespace laco::serial {

void Writer::bytes(const void* data, std::size_t n, bool checksum) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (checksum) crc_ = crc32(data, n, crc_);
}

void Reader::fail(const std::string& what) const {
  throw std::runtime_error(context_ + ": " + what + " at byte offset " +
                           std::to_string(offset_) + " in '" + source_ + "'");
}

void Reader::bytes(void* dst, std::size_t n, const char* what) {
  in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (!in_) fail(std::string("truncated read (") + what + ")");
  if (checksumming_) crc_ = crc32(dst, n, crc_);
  offset_ += n;
}

std::string Reader::str(const char* what, std::uint32_t max_len) {
  const std::uint32_t n = u32(what);
  if (n > max_len) {
    fail(std::string("implausible string length ") + std::to_string(n) + " (" + what + ")");
  }
  std::string s(n, '\0');
  bytes(s.data(), n, what);
  return s;
}

std::vector<double> Reader::doubles(const char* what, std::uint64_t max_elems) {
  const std::uint64_t n = u64(what);
  if (n > max_elems) {
    fail(std::string("implausible array length ") + std::to_string(n) + " (" + what + ")");
  }
  std::vector<double> v(static_cast<std::size_t>(n));
  bytes(v.data(), v.size() * sizeof(double), what);
  return v;
}

void write_frame_header(Writer& w, std::uint32_t magic, std::uint32_t version) {
  w.u32(magic, /*checksum=*/false);
  w.u32(kVersionSentinel, /*checksum=*/false);
  w.u32(version);
}

void write_frame_trailer(Writer& w) {
  const std::uint32_t digest = w.crc();
  w.u32(digest, /*checksum=*/false);
}

void read_frame_header(Reader& r, std::uint32_t magic, std::uint32_t expected_version,
                       const char* kind) {
  if (r.u32("magic") != magic) r.fail(std::string("bad magic (not a ") + kind + ")");
  if (r.u32("header") != kVersionSentinel) {
    r.fail(std::string("missing version sentinel (not a versioned ") + kind + ")");
  }
  r.start_checksum();
  const std::uint32_t version = r.u32("version");
  if (version != expected_version) {
    r.fail("unsupported format version " + std::to_string(version));
  }
}

void read_frame_trailer(Reader& r, const char* kind) {
  const std::uint32_t computed = r.crc();
  r.stop_checksum();
  const std::uint32_t stored = r.u32("checksum");
  if (stored != computed) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "checksum mismatch (stored 0x%08x, computed 0x%08x)", stored,
                  computed);
    r.fail(std::string(buf) + " — " + kind + " corrupt");
  }
}

bool atomic_write_file(const std::string& path, const std::function<bool(std::ostream&)>& fn) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    const bool produced = fn(out);
    out.flush();
    if (!produced || !out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  // rename(2) is atomic within a filesystem: readers see either the old
  // complete file or the new complete file, never a partial write.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace laco::serial
